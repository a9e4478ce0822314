#include "src/shortest/hub_labels.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>

#include "src/shortest/contraction.h"
#include "src/shortest/dijkstra.h"

namespace urpsm {

namespace {

// One (hub rank, distance) pair produced by a pruned search. Build-time
// only; the final oracle stores the same data flattened into CSR arrays.
struct BuildEntry {
  VertexId rank;
  double dist;
};

// Label lists under construction: per-vertex vectors, ascending rank by
// construction (roots are searched in rank order).
using BuildLabels = std::vector<std::vector<BuildEntry>>;

double QueryBuildLabels(const BuildLabels& labels, VertexId u, VertexId v) {
  const auto& lu = labels[static_cast<std::size_t>(u)];
  const auto& lv = labels[static_cast<std::size_t>(v)];
  double best = std::numeric_limits<double>::infinity();
  std::size_t i = 0, j = 0;
  while (i < lu.size() && j < lv.size()) {
    const VertexId a = lu[i].rank, b = lv[j].rank;
    if (a == b) {
      best = std::min(best, lu[i].dist + lv[j].dist);
      ++i;
      ++j;
    } else {
      i += static_cast<std::size_t>(a < b);
      j += static_cast<std::size_t>(b < a);
    }
  }
  return best;
}

// Search state reused across roots; dist is all-inf between searches.
struct SearchScratch {
  std::vector<double> dist;
  std::vector<VertexId> touched;
};

// The pruned Dijkstra of PLL from `root`, whose position in the build
// order is `rank`: a vertex u popped at distance d gains the label entry
// (rank, d) unless the labels built so far already certify
// dis(root, u) <= d; pruned vertices are not expanded.
void PrunedSearch(const RoadNetwork& graph, VertexId root, VertexId rank,
                  BuildLabels* labels, SearchScratch* scratch) {
  using HeapEntry = std::pair<double, VertexId>;
  using MinHeap =
      std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;
  std::vector<double>& dist = scratch->dist;
  std::vector<VertexId>& touched = scratch->touched;
  MinHeap heap;
  dist[static_cast<std::size_t>(root)] = 0.0;
  touched.clear();
  touched.push_back(root);
  heap.push({0.0, root});
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    const auto ui = static_cast<std::size_t>(u);
    if (d > dist[ui]) continue;
    // Prune: if existing labels already certify a distance <= d between
    // root and u, u (and everything behind it) need not store this hub.
    // The entries this search appends never pair up here: a popped u holds
    // none yet, and the root's own entry needs a match in u's label.
    if (QueryBuildLabels(*labels, root, u) <= d) continue;
    (*labels)[ui].push_back({rank, d});
    for (const auto& arc : graph.Neighbors(u)) {
      const auto vi = static_cast<std::size_t>(arc.to);
      const double nd = d + arc.cost;
      if (nd < dist[vi]) {
        if (dist[vi] == kInfDistance) touched.push_back(arc.to);
        dist[vi] = nd;
        heap.push({nd, arc.to});
      }
    }
  }
  for (VertexId v : touched) dist[static_cast<std::size_t>(v)] = kInfDistance;
}

}  // namespace

HubLabelOracle HubLabelOracle::Build(const RoadNetwork& graph) {
  HubLabelOracle oracle(&graph);
  const auto n = static_cast<std::size_t>(graph.num_vertices());

  // Roots in descending contraction rank (contracted last = most important
  // first). The stable sort keeps any tie in vertex-id order.
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  const std::vector<int> ch_rank = ContractionOrder(graph);
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return ch_rank[static_cast<std::size_t>(a)] >
           ch_rank[static_cast<std::size_t>(b)];
  });

  BuildLabels labels(n);
  SearchScratch scratch;
  scratch.dist.assign(n, kInfDistance);
  for (std::size_t j = 0; j < n; ++j) {
    PrunedSearch(graph, order[j], static_cast<VertexId>(j), &labels,
                 &scratch);
  }

  // Flatten into CSR (structure of arrays): per-vertex offsets plus one
  // contiguous rank array and one contiguous distance array.
  oracle.offsets_.resize(n + 1);
  oracle.offsets_[0] = 0;
  for (std::size_t v = 0; v < n; ++v) {
    oracle.offsets_[v + 1] =
        oracle.offsets_[v] + static_cast<std::int64_t>(labels[v].size());
  }
  const auto total = static_cast<std::size_t>(oracle.offsets_[n]);
  oracle.hub_rank_.resize(total);
  oracle.hub_dist_.resize(total);
  for (std::size_t v = 0; v < n; ++v) {
    auto at = static_cast<std::size_t>(oracle.offsets_[v]);
    for (const BuildEntry& entry : labels[v]) {
      oracle.hub_rank_[at] = entry.rank;
      oracle.hub_dist_[at] = entry.dist;
      ++at;
    }
  }
  return oracle;
}

void HubLabelOracle::ScatterLabel(VertexId v, double* col,
                                  std::size_t stride) const {
  const auto b = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v)]);
  const auto e =
      static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v) + 1]);
  const VertexId* ranks = hub_rank_.data();
  const double* dists = hub_dist_.data();
  for (std::size_t i = b; i < e; ++i) {
    col[static_cast<std::size_t>(ranks[i]) * stride] = dists[i];
  }
}

void HubLabelOracle::RestoreColumn(VertexId v, double* col,
                                   std::size_t stride) const {
  const auto b = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v)]);
  const auto e =
      static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v) + 1]);
  const VertexId* ranks = hub_rank_.data();
  for (std::size_t i = b; i < e; ++i) {
    col[static_cast<std::size_t>(ranks[i]) * stride] =
        std::numeric_limits<double>::infinity();
  }
}

double HubLabelOracle::QueryByLabels(VertexId u, VertexId v) const {
  std::size_t bu = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(u)]);
  std::size_t eu = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(u) + 1]);
  std::size_t bv = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v)]);
  std::size_t ev = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v) + 1]);
  const VertexId* ranks = hub_rank_.data();

  // Scatter-scan instead of a merge-join. The classic two-pointer merge
  // spends ~10 cycles per element here: the hub-match branch is
  // data-dependent (≈45% match rate on road labels, unpredictable) and the
  // running min is a loop-carried FP dependency. Instead: (1) scatter the
  // shorter label's distances into a rank-indexed dense column (kept +inf
  // outside this call, so a non-common hub contributes inf + d = inf and
  // drops out of the min); (2) scan the longer label with four independent
  // branch-free min accumulators; (3) restore the column. Every candidate
  // is the same du + dv sum the merge would form, and min over doubles is
  // exact and order-independent, so results are bit-identical — measured
  // ~2.6x faster on the bench_oracle fixture.
  //
  // The dense column costs 8 bytes per vertex per querying thread and is
  // shared by all oracle instances on the thread (it only ever grows).
  thread_local std::vector<double> dense;
  const std::size_t num_ranks = offsets_.size() - 1;  // one rank per vertex
  if (dense.size() < num_ranks) {
    dense.resize(num_ranks, std::numeric_limits<double>::infinity());
  }
  VertexId scatter_v = u;
  if (eu - bu > ev - bv) {
    scatter_v = v;
    std::swap(bu, bv);
    std::swap(eu, ev);
  }
  double* col = dense.data();
  ScatterLabel(scatter_v, col, 1);
  double b0 = std::numeric_limits<double>::infinity(), b1 = b0, b2 = b0,
         b3 = b0;
  std::size_t j = bv;
  const double* dists = hub_dist_.data();
  for (; j + 4 <= ev; j += 4) {
    const double c0 = col[static_cast<std::size_t>(ranks[j])] + dists[j];
    const double c1 = col[static_cast<std::size_t>(ranks[j + 1])] + dists[j + 1];
    const double c2 = col[static_cast<std::size_t>(ranks[j + 2])] + dists[j + 2];
    const double c3 = col[static_cast<std::size_t>(ranks[j + 3])] + dists[j + 3];
    b0 = c0 < b0 ? c0 : b0;
    b1 = c1 < b1 ? c1 : b1;
    b2 = c2 < b2 ? c2 : b2;
    b3 = c3 < b3 ? c3 : b3;
  }
  for (; j < ev; ++j) {
    const double c = col[static_cast<std::size_t>(ranks[j])] + dists[j];
    b0 = c < b0 ? c : b0;
  }
  RestoreColumn(scatter_v, col, 1);
  return std::min(std::min(b0, b1), std::min(b2, b3));
}

double HubLabelOracle::Distance(VertexId u, VertexId v) {
  ++query_count_;
  if (u == v) return 0.0;
  return QueryByLabels(u, v);
}

void HubLabelOracle::BatchQuery(const std::vector<VertexId>& sources,
                                const std::vector<VertexId>& targets,
                                std::vector<double>* out) {
  const std::size_t ns = sources.size();
  const std::size_t nt = targets.size();
  query_count_.fetch_add(
      static_cast<std::int64_t>(ns) * static_cast<std::int64_t>(nt),
      std::memory_order_relaxed);
  out->resize(ns * nt);
  if (ns == 0 || nt == 0) return;

  // One dense rank-indexed column per target, interleaved rank-major in
  // one thread-local buffer (kept +inf outside this call, like the
  // point-query column): rank r's entry for target j lives at r * nt + j,
  // so all targets' entries for a rank share a cache line and a source
  // label entry costs one miss, not nt. Each target label scatters once;
  // each source label is then walked once against all target columns, so
  // the per-pair scatter and restore of repeated point queries disappears.
  thread_local std::vector<double> dense_multi;
  const std::size_t num_ranks = offsets_.size() - 1;
  if (dense_multi.size() < num_ranks * nt) {
    dense_multi.resize(num_ranks * nt,
                       std::numeric_limits<double>::infinity());
  }
  double* base = dense_multi.data();
  for (std::size_t j = 0; j < nt; ++j) {
    ScatterLabel(targets[j], base + j, nt);
  }

  const VertexId* ranks = hub_rank_.data();
  const double* dists = hub_dist_.data();
  if (nt == 2) {
    // The planner's dominant shape — route positions x {origin,
    // destination} — keeps both accumulators in registers.
    for (std::size_t i = 0; i < ns; ++i) {
      const VertexId s = sources[i];
      const auto bs =
          static_cast<std::size_t>(offsets_[static_cast<std::size_t>(s)]);
      const auto es =
          static_cast<std::size_t>(offsets_[static_cast<std::size_t>(s) + 1]);
      double a0 = std::numeric_limits<double>::infinity(), a1 = a0;
      for (std::size_t k = bs; k < es; ++k) {
        const double* row = base + static_cast<std::size_t>(ranks[k]) * 2;
        const double d = dists[k];
        const double c0 = row[0] + d;
        const double c1 = row[1] + d;
        a0 = c0 < a0 ? c0 : a0;
        a1 = c1 < a1 ? c1 : a1;
      }
      // Candidate sums and their min are exactly the point query's (min
      // over doubles is order-independent); only u == v short-circuits.
      (*out)[i * 2] = s == targets[0] ? 0.0 : a0;
      (*out)[i * 2 + 1] = s == targets[1] ? 0.0 : a1;
    }
  } else {
    thread_local std::vector<double> acc;
    acc.resize(nt);
    for (std::size_t i = 0; i < ns; ++i) {
      const VertexId s = sources[i];
      const auto bs =
          static_cast<std::size_t>(offsets_[static_cast<std::size_t>(s)]);
      const auto es =
          static_cast<std::size_t>(offsets_[static_cast<std::size_t>(s) + 1]);
      std::fill(acc.begin(), acc.end(),
                std::numeric_limits<double>::infinity());
      for (std::size_t k = bs; k < es; ++k) {
        const double* row = base + static_cast<std::size_t>(ranks[k]) * nt;
        const double d = dists[k];
        for (std::size_t j = 0; j < nt; ++j) {
          const double c = row[j] + d;
          acc[j] = c < acc[j] ? c : acc[j];
        }
      }
      for (std::size_t j = 0; j < nt; ++j) {
        (*out)[i * nt + j] = s == targets[j] ? 0.0 : acc[j];
      }
    }
  }

  for (std::size_t j = 0; j < nt; ++j) {
    RestoreColumn(targets[j], base + j, nt);
  }
}

std::vector<VertexId> HubLabelOracle::Path(VertexId u, VertexId v) {
  return DijkstraPath(*graph_, u, v);
}

double HubLabelOracle::average_label_size() const {
  const std::size_t n = offsets_.empty() ? 0 : offsets_.size() - 1;
  if (n == 0) return 0.0;
  return static_cast<double>(offsets_.back()) / static_cast<double>(n);
}

std::int64_t HubLabelOracle::MemoryBytes() const {
  // Sizes, not capacities: the build allocates every CSR array once at its
  // final size, so this is the actual resident footprint of the labels.
  return static_cast<std::int64_t>(offsets_.size() * sizeof(std::int64_t) +
                                   hub_rank_.size() * sizeof(VertexId) +
                                   hub_dist_.size() * sizeof(double));
}

}  // namespace urpsm
