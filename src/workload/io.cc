#include "src/workload/io.h"

#include <fstream>
#include <sstream>

namespace urpsm {

bool SaveInstance(const Instance& instance, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(17);
  out << "urpsm-instance v1\n";
  out << "name " << (instance.name.empty() ? "unnamed" : instance.name)
      << "\n";
  const RoadNetwork& g = instance.graph;
  out << "vertices " << g.num_vertices() << "\n";
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out << g.coord(v).x << " " << g.coord(v).y << "\n";
  }
  out << "edges " << g.edges().size() << "\n";
  for (const EdgeSpec& e : g.edges()) {
    out << e.u << " " << e.v << " " << e.length_km << " "
        << static_cast<int>(e.cls) << "\n";
  }
  out << "workers " << instance.workers.size() << "\n";
  for (const Worker& w : instance.workers) {
    out << w.initial_location << " " << w.capacity << "\n";
  }
  out << "requests " << instance.requests.size() << "\n";
  for (const Request& r : instance.requests) {
    out << r.origin << " " << r.destination << " " << r.release_time << " "
        << r.deadline << " " << r.penalty << " " << r.capacity << "\n";
  }
  return static_cast<bool>(out);
}

bool LoadInstance(const std::string& path, Instance* result) {
  std::ifstream in(path);
  if (!in) return false;
  std::string magic, version;
  if (!(in >> magic >> version) || magic != "urpsm-instance" ||
      version != "v1") {
    return false;
  }
  Instance inst;
  std::string tag;
  if (!(in >> tag >> inst.name) || tag != "name") return false;

  std::size_t n = 0;
  if (!(in >> tag >> n) || tag != "vertices") return false;
  std::vector<Point> coords(n);
  for (Point& p : coords) {
    if (!(in >> p.x >> p.y)) return false;
  }
  // Every id below indexes per-vertex arrays (the adjacency offsets, the
  // labels) unchecked, so an out-of-range one is rejected here, in every
  // build.
  const auto valid = [n](VertexId v) {
    return v >= 0 && static_cast<std::size_t>(v) < n;
  };

  std::size_t m = 0;
  if (!(in >> tag >> m) || tag != "edges") return false;
  std::vector<EdgeSpec> edges(m);
  for (EdgeSpec& e : edges) {
    int cls = 0;
    if (!(in >> e.u >> e.v >> e.length_km >> cls)) return false;
    if (!valid(e.u) || !valid(e.v) || cls < 0 || cls > 3) return false;
    e.cls = static_cast<RoadClass>(cls);
  }
  inst.graph = RoadNetwork::FromEdges(std::move(coords), edges);

  std::size_t k = 0;
  if (!(in >> tag >> k) || tag != "workers") return false;
  inst.workers.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    Worker& w = inst.workers[i];
    w.id = static_cast<WorkerId>(i);
    if (!(in >> w.initial_location >> w.capacity) ||
        !valid(w.initial_location)) {
      return false;
    }
  }

  std::size_t q = 0;
  if (!(in >> tag >> q) || tag != "requests") return false;
  inst.requests.resize(q);
  for (std::size_t i = 0; i < q; ++i) {
    Request& r = inst.requests[i];
    r.id = static_cast<RequestId>(i);
    if (!(in >> r.origin >> r.destination >> r.release_time >> r.deadline >>
          r.penalty >> r.capacity) ||
        !valid(r.origin) || !valid(r.destination)) {
      return false;
    }
  }
  *result = std::move(inst);
  return true;
}

}  // namespace urpsm
