#include "src/shortest/contraction.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>

namespace urpsm {

namespace {

/// Working-graph arc. Every undirected edge is stored at both endpoints;
/// parallel edges are merged at their minimum cost.
struct WorkArc {
  VertexId to;
  double cost;
};

struct Shortcut {
  VertexId a;
  VertexId b;
  double cost;
};

/// Settled-vertex cap of one witness search. A search cut short reports
/// "no witness", which adds a shortcut the graph may not need: it can make
/// the order worse, never a label distance wrong.
constexpr int kSettleLimit = 500;

class Contractor {
 public:
  explicit Contractor(const RoadNetwork& graph);

  /// Contracts every vertex and returns the contraction ranks.
  std::vector<int> Run();

 private:
  /// Shortcuts that contracting `v` would add now, in neighbour order.
  void FindShortcuts(VertexId v, std::vector<Shortcut>* out);

  /// Dijkstra from `source` over uncontracted vertices, skipping `banned`
  /// and every path longer than `bound`. Stops once the `num_targets`
  /// vertices marked with the current epoch are settled or kSettleLimit
  /// vertices are settled. Leaves tentative distances in dist_.
  void WitnessSearch(VertexId source, VertexId banned, double bound,
                     int num_targets);

  /// Removes `v` from its neighbours' lists and inserts `shortcuts`.
  void Contract(VertexId v, const std::vector<Shortcut>& shortcuts);

  /// Adds arc from -> to, or lowers the cost of an existing one.
  void AddArc(VertexId from, VertexId to, double cost);

  std::vector<std::vector<WorkArc>> adj_;
  std::vector<int> deleted_neighbors_;

  // Witness-search state: dist_[v] is valid only when reached_[v] holds
  // the current epoch, and v is a target only when target_[v] does, so a
  // new search resets both arrays by bumping the epoch. 64-bit stamps
  // never wrap, so a stale stamp never aliases a later epoch.
  std::vector<double> dist_;
  std::vector<std::uint64_t> reached_;
  std::vector<std::uint64_t> target_;
  std::uint64_t epoch_ = 0;
  std::vector<std::pair<double, VertexId>> heap_;  // min-heap via greater<>
};

Contractor::Contractor(const RoadNetwork& graph)
    : adj_(static_cast<std::size_t>(graph.num_vertices())),
      deleted_neighbors_(adj_.size(), 0),
      dist_(adj_.size(), 0.0),
      reached_(adj_.size(), 0),
      target_(adj_.size(), 0) {
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (const auto& arc : graph.Neighbors(v)) AddArc(v, arc.to, arc.cost);
  }
}

void Contractor::AddArc(VertexId from, VertexId to, double cost) {
  auto& row = adj_[static_cast<std::size_t>(from)];
  for (WorkArc& arc : row) {
    if (arc.to == to) {
      arc.cost = std::min(arc.cost, cost);
      return;
    }
  }
  row.push_back({to, cost});
}

void Contractor::WitnessSearch(VertexId source, VertexId banned, double bound,
                               int num_targets) {
  const auto greater = std::greater<std::pair<double, VertexId>>();
  heap_.clear();
  reached_[static_cast<std::size_t>(source)] = epoch_;
  dist_[static_cast<std::size_t>(source)] = 0.0;
  heap_.push_back({0.0, source});
  int settled = 0;
  while (!heap_.empty() && num_targets > 0 && settled < kSettleLimit) {
    std::pop_heap(heap_.begin(), heap_.end(), greater);
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    const auto ui = static_cast<std::size_t>(u);
    if (d > dist_[ui]) continue;  // superseded entry
    ++settled;
    if (target_[ui] == epoch_) --num_targets;
    for (const WorkArc& arc : adj_[ui]) {
      if (arc.to == banned) continue;
      const double nd = d + arc.cost;
      if (nd > bound) continue;
      const auto wi = static_cast<std::size_t>(arc.to);
      if (reached_[wi] != epoch_ || nd < dist_[wi]) {
        reached_[wi] = epoch_;
        dist_[wi] = nd;
        heap_.push_back({nd, arc.to});
        std::push_heap(heap_.begin(), heap_.end(), greater);
      }
    }
  }
}

void Contractor::FindShortcuts(VertexId v, std::vector<Shortcut>* out) {
  out->clear();
  const auto& nbrs = adj_[static_cast<std::size_t>(v)];
  // Edges are undirected, so the search from nbrs[i] only needs to witness
  // the pairs (i, j > i). Any tentative distance is the cost of a real
  // path around v, so a target reached within its through-cost has a
  // witness even if the search stopped before settling it.
  for (std::size_t i = 0; i + 1 < nbrs.size(); ++i) {
    ++epoch_;
    double max_cost = 0.0;
    for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
      target_[static_cast<std::size_t>(nbrs[j].to)] = epoch_;
      max_cost = std::max(max_cost, nbrs[j].cost);
    }
    WitnessSearch(nbrs[i].to, v, nbrs[i].cost + max_cost,
                  static_cast<int>(nbrs.size() - i - 1));
    for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
      const double through = nbrs[i].cost + nbrs[j].cost;
      const auto wi = static_cast<std::size_t>(nbrs[j].to);
      if (reached_[wi] != epoch_ || dist_[wi] > through) {
        out->push_back({nbrs[i].to, nbrs[j].to, through});
      }
    }
  }
}

void Contractor::Contract(VertexId v, const std::vector<Shortcut>& shortcuts) {
  auto& row = adj_[static_cast<std::size_t>(v)];
  for (const WorkArc& arc : row) {
    // Every arc is stored at both ends, so the back arc to v exists.
    auto& back = adj_[static_cast<std::size_t>(arc.to)];
    back.erase(std::find_if(back.begin(), back.end(),
                            [v](const WorkArc& a) { return a.to == v; }));
    ++deleted_neighbors_[static_cast<std::size_t>(arc.to)];
  }
  for (const Shortcut& s : shortcuts) {
    AddArc(s.a, s.b, s.cost);
    AddArc(s.b, s.a, s.cost);
  }
  std::vector<WorkArc>().swap(row);
}

std::vector<int> Contractor::Run() {
  const auto n = adj_.size();
  std::vector<Shortcut> shortcuts;
  const auto priority = [&](VertexId v) {
    FindShortcuts(v, &shortcuts);
    const auto vi = static_cast<std::size_t>(v);
    return static_cast<double>(shortcuts.size()) -
           static_cast<double>(adj_[vi].size()) +
           2.0 * deleted_neighbors_[vi];
  };

  using PqEntry = std::pair<double, VertexId>;
  std::priority_queue<PqEntry, std::vector<PqEntry>, std::greater<>> pq;
  for (VertexId v = 0; v < static_cast<VertexId>(n); ++v) {
    pq.push({priority(v), v});
  }

  std::vector<int> rank(n, -1);
  int next_rank = 0;
  while (!pq.empty()) {
    const VertexId v = pq.top().second;
    pq.pop();
    if (rank[static_cast<std::size_t>(v)] >= 0) continue;
    // Lazy update: re-evaluate and re-queue if stale. A fresh priority
    // leaves v's shortcut list in `shortcuts` for the contraction.
    const double cur = priority(v);
    if (!pq.empty() && cur > pq.top().first) {
      pq.push({cur, v});
      continue;
    }
    Contract(v, shortcuts);
    rank[static_cast<std::size_t>(v)] = next_rank++;
  }
  return rank;
}

}  // namespace

std::vector<int> ContractionOrder(const RoadNetwork& graph) {
  return Contractor(graph).Run();
}

}  // namespace urpsm
