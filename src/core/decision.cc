#include "src/core/decision.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace urpsm {

namespace {

/// The DP of Lemma 7 / Eq. 15-17 over precomputed per-position Euclidean
/// bound columns: euc_o[k] / euc_d[k] bound the travel time from route
/// position k to the request's origin / destination. Mirrors
/// DecisionLowerBoundReference below statement for statement — only the
/// bound *evaluations* differ (column reads vs on-demand lambda calls),
/// and the element arithmetic is identical, so the results are bit-equal
/// (decision_test fuzz-pins the pair).
double DecisionDp(const RouteState& st, const Request& r, double L, int cap,
                  const double* euc_o, const double* euc_d) {
  const int n = st.n;
  const auto leg = [&](int k) {
    return st.arr[static_cast<std::size_t>(k + 1)] -
           st.arr[static_cast<std::size_t>(k)];
  };

  double best = kInf;
  double dio = kInf;  // Dio_euc[j] of Eq. (16)

  for (int j = 0; j <= n; ++j) {
    const auto js = static_cast<std::size_t>(j);
    if (st.arr[js] > r.deadline) break;  // exact arrival: safe cutoff

    // Cases i == j (first two branches of Eq. 17).
    if (st.picked[js] <= cap && st.arr[js] + euc_o[j] + L <= r.deadline) {
      const double lb = (j == n) ? euc_o[j] + L
                                 : euc_o[j] + L + euc_d[j + 1] - leg(j);
      if ((j == n || lb <= st.slack[js]) && lb < best) best = lb;
    }

    // General case i < j (third branch of Eq. 17).
    if (j > 0 && dio < kInf && st.picked[js] <= cap) {
      const double ldet_d =
          (j == n) ? euc_d[j] : euc_d[j] + euc_d[j + 1] - leg(j);
      const bool ddl_ok = st.arr[js] + dio + euc_d[j] <= r.deadline;
      const bool slack_ok = j == n || dio + ldet_d <= st.slack[js];
      if (ddl_ok && slack_ok) best = std::min(best, dio + ldet_d);
    }

    // Transition of Eq. (16).
    if (j < n) {
      if (st.picked[js] > cap) {
        dio = kInf;
      } else {
        const double ldet = euc_o[j] + euc_o[j + 1] - leg(j);
        if (ldet <= st.slack[js]) dio = std::min(dio, ldet);
      }
    }
  }
  // Delta* >= 0 always (detours are non-negative in a metric), so clamping
  // tightens the bound without invalidating it.
  return best == kInf ? kInf : std::max(0.0, best);
}

}  // namespace

// Mirrors LinearDpInsertion with every network distance that would need a
// query replaced by its Euclidean travel-time lower bound, and every leg
// distance taken from the schedule (arr[k+1] - arr[k], Lemma 7). All
// feasibility filters are *relaxations* of the exact ones (lower-bound
// distances make deadline/slack checks easier to pass), so the minimum is
// taken over a superset of the exact feasible placements with
// value-wise-smaller costs — a valid lower bound on Delta*.
//
// The Euclidean bounds are gathered ONCE per (route, request) as two flat
// columns over the route-state coordinate array — one tight pass instead
// of the reference's ~5 on-demand evaluations per position (each lambda
// call recomputed its hypot) — and only up to the deadline cutoff the DP
// loop would reach anyway. Element-wise the arithmetic is exactly
// EuclideanLowerBoundMin, so the result is bit-identical to the
// reference.
double DecisionLowerBound(const Worker& worker, const Route& route,
                          const RouteState& st, const Request& r, double L,
                          const RoadNetwork& graph) {
  (void)route;
  const int n = st.n;
  const int cap = worker.capacity - r.capacity;
  if (cap < 0) return kInf;

  // Gather limit: the DP breaks at the first j with arr[j] > deadline and
  // touches columns only up to index j (via j-1's j+1 accesses).
  int m = n;
  for (int k = 0; k <= n; ++k) {
    if (st.arr[static_cast<std::size_t>(k)] > r.deadline) {
      m = k;
      break;
    }
  }

  const Point origin = graph.coord(r.origin);
  const Point dest = graph.coord(r.destination);
  const double vmax = MaxSpeedKmPerMin();
  thread_local std::vector<double> o_col;
  thread_local std::vector<double> d_col;
  o_col.resize(static_cast<std::size_t>(m) + 1);
  d_col.resize(static_cast<std::size_t>(m) + 1);
  for (int k = 0; k <= m; ++k) {
    // Same expression as EuclideanLowerBoundMin element-wise (divide, not
    // multiply-by-reciprocal) — the bit-identity with the reference
    // depends on it.
    const Point& p = st.pts[static_cast<std::size_t>(k)];
    o_col[static_cast<std::size_t>(k)] = EuclideanDistance(p, origin) / vmax;
    d_col[static_cast<std::size_t>(k)] = EuclideanDistance(p, dest) / vmax;
  }
  return DecisionDp(st, r, L, cap, o_col.data(), d_col.data());
}

double IdleDecisionLowerBound(const Worker& worker, const Route& route,
                              const Request& r, double L, double now,
                              const RoadNetwork& graph) {
  assert(route.empty());
  if (worker.capacity - r.capacity < 0) return kInf;
  // Touch moves an idle clock forward to `now`, never back.
  const double t0 = std::max(route.anchor_time(), now);
  // Same expression as DecisionLowerBound's gather (divide, not multiply
  // by the reciprocal) — the bit-identity depends on it.
  const double euc =
      EuclideanDistance(graph.coord(route.anchor()), graph.coord(r.origin)) /
      MaxSpeedKmPerMin();
  if (t0 + euc + L > r.deadline) return kInf;
  return std::max(0.0, euc + L);
}

// The pre-column code path, verbatim: every Euclidean bound is an
// on-demand lambda call into the graph, re-evaluated at each use (the DP
// touches most positions ~5 times), and route positions resolve through
// VertexAt's stop-list indirection. Kept as-is — NOT routed through
// DecisionDp — so bench_hotpath's before/after really measures the
// historical cost profile; the element arithmetic is identical, so the
// result is still bit-equal to the column path (fuzz-pinned).
double DecisionLowerBoundReference(const Worker& worker, const Route& route,
                                   const RouteState& st, const Request& r,
                                   double L, const RoadNetwork& graph) {
  const int n = st.n;
  const int cap = worker.capacity - r.capacity;
  if (cap < 0) return kInf;

  const auto euc_o = [&](int k) {
    return graph.EuclideanLowerBoundMin(route.VertexAt(k), r.origin);
  };
  const auto euc_d = [&](int k) {
    return graph.EuclideanLowerBoundMin(route.VertexAt(k), r.destination);
  };
  const auto leg = [&](int k) {
    return st.arr[static_cast<std::size_t>(k + 1)] -
           st.arr[static_cast<std::size_t>(k)];
  };

  double best = kInf;
  double dio = kInf;  // Dio_euc[j] of Eq. (16)

  for (int j = 0; j <= n; ++j) {
    const auto js = static_cast<std::size_t>(j);
    if (st.arr[js] > r.deadline) break;  // exact arrival: safe cutoff

    // Cases i == j (first two branches of Eq. 17).
    if (st.picked[js] <= cap && st.arr[js] + euc_o(j) + L <= r.deadline) {
      const double lb = (j == n) ? euc_o(j) + L
                                 : euc_o(j) + L + euc_d(j + 1) - leg(j);
      if ((j == n || lb <= st.slack[js]) && lb < best) best = lb;
    }

    // General case i < j (third branch of Eq. 17).
    if (j > 0 && dio < kInf && st.picked[js] <= cap) {
      const double ldet_d =
          (j == n) ? euc_d(j) : euc_d(j) + euc_d(j + 1) - leg(j);
      const bool ddl_ok = st.arr[js] + dio + euc_d(j) <= r.deadline;
      const bool slack_ok = j == n || dio + ldet_d <= st.slack[js];
      if (ddl_ok && slack_ok) best = std::min(best, dio + ldet_d);
    }

    // Transition of Eq. (16).
    if (j < n) {
      if (st.picked[js] > cap) {
        dio = kInf;
      } else {
        const double ldet = euc_o(j) + euc_o(j + 1) - leg(j);
        if (ldet <= st.slack[js]) dio = std::min(dio, ldet);
      }
    }
  }
  return best == kInf ? kInf : std::max(0.0, best);
}

}  // namespace urpsm
