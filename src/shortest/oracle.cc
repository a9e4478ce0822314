#include "src/shortest/oracle.h"

#include "src/obs/registry.h"
#include "src/shortest/bidijkstra.h"
#include "src/shortest/dijkstra.h"
#include "src/util/fault.h"

namespace urpsm {

double DijkstraOracle::Distance(VertexId u, VertexId v) {
  ++query_count_;
  return BidirectionalDistance(*graph_, u, v);
}

std::vector<VertexId> DijkstraOracle::Path(VertexId u, VertexId v) {
  return DijkstraPath(*graph_, u, v);
}

double CachedOracle::Distance(VertexId u, VertexId v) {
  MaybeInject(faults_, FaultSite::kOracleDelay);
  ++query_count_;
  if (u == v) return 0.0;
  // The network is undirected: canonicalize the key.
  const std::pair<VertexId, VertexId> key =
      u < v ? std::make_pair(u, v) : std::make_pair(v, u);
  if (auto hit = cache_.Get(key)) return *hit;
  const double d = inner_->Distance(u, v);
  cache_.Put(key, d);
  return d;
}

void CachedOracle::BatchQuery(const std::vector<VertexId>& sources,
                              const std::vector<VertexId>& targets,
                              std::vector<double>* out) {
  MaybeInject(faults_, FaultSite::kOracleDelay);
  const std::size_t ns = sources.size();
  const std::size_t nt = targets.size();
  query_count_.fetch_add(
      static_cast<std::int64_t>(ns) * static_cast<std::int64_t>(nt),
      std::memory_order_relaxed);
  out->assign(ns * nt, 0.0);
  // Per-target miss list: unique missing sources plus the out cells each
  // fills. A repeated (s, t) miss consults the inner oracle once, exactly
  // like sequential point queries (where the second call hits the cache).
  std::vector<VertexId> miss_sources;
  std::vector<std::vector<std::size_t>> miss_cells;
  std::vector<double> col;
  std::vector<VertexId> one_target(1);
  for (std::size_t j = 0; j < nt; ++j) {
    const VertexId t = targets[j];
    miss_sources.clear();
    miss_cells.clear();
    for (std::size_t i = 0; i < ns; ++i) {
      const VertexId s = sources[i];
      const std::size_t cell = i * nt + j;
      if (s == t) continue;  // cell already 0.0
      const std::pair<VertexId, VertexId> key =
          s < t ? std::make_pair(s, t) : std::make_pair(t, s);
      if (auto hit = cache_.Get(key)) {
        (*out)[cell] = *hit;
        continue;
      }
      bool pending = false;
      for (std::size_t m = 0; m < miss_sources.size(); ++m) {
        if (miss_sources[m] == s) {
          miss_cells[m].push_back(cell);
          pending = true;
          break;
        }
      }
      if (!pending) {
        miss_sources.push_back(s);
        miss_cells.push_back({cell});
      }
    }
    if (miss_sources.empty()) continue;
    one_target[0] = t;
    inner_->BatchQuery(miss_sources, one_target, &col);
    for (std::size_t m = 0; m < miss_sources.size(); ++m) {
      const VertexId s = miss_sources[m];
      const std::pair<VertexId, VertexId> key =
          s < t ? std::make_pair(s, t) : std::make_pair(t, s);
      cache_.Put(key, col[m]);
      for (const std::size_t cell : miss_cells[m]) (*out)[cell] = col[m];
    }
  }
}

std::vector<VertexId> CachedOracle::Path(VertexId u, VertexId v) {
  return inner_->Path(u, v);
}

void CachedOracle::RegisterMetrics(obs::Registry* reg) {
  if (reg == nullptr || !reg->enabled()) return;
  reg->RegisterCallbackGauge(
      "oracle.queries",
      [this] { return static_cast<double>(query_count()); });
  reg->RegisterCallbackGauge(
      "oracle.cache_hits",
      [this] { return static_cast<double>(cache_hits()); });
  reg->RegisterCallbackGauge(
      "oracle.cache_misses",
      [this] { return static_cast<double>(cache_misses()); });
  reg->RegisterCallbackGauge("oracle.cache_hit_rate", [this] {
    const double h = static_cast<double>(cache_hits());
    const double m = static_cast<double>(cache_misses());
    return h + m == 0.0 ? 0.0 : h / (h + m);  // 0, not NaN, before traffic
  });
}

}  // namespace urpsm
