#ifndef URPSM_SRC_INSERTION_INSERTION_H_
#define URPSM_SRC_INSERTION_INSERTION_H_

#include <vector>

#include "src/model/feasibility.h"
#include "src/model/route.h"
#include "src/model/types.h"

namespace urpsm {

/// Flat per-request distance columns over route positions 0..n:
///   to_origin[k]      = dis(l_k, o_r)
///   to_destination[k] = dis(l_k, d_r)
/// Gathered once per (route, request) before the i/j insertion scan so the
/// operators index a flat column instead of calling the distance oracle
/// per slot. The road network is undirected, so one column serves both
/// directions of every detour term.
struct DistanceColumns {
  std::vector<double> to_origin;
  std::vector<double> to_destination;
};

/// Fills `cols` with the endpoint distances of inserting `r` into `route`
/// for route positions 0..max_pos (max_pos = route.size() gathers the full
/// 2(n+1), Lemma 9's budget), reusing the columns' capacity. Callers whose
/// scan provably stops early — the linear DP breaks at the first position
/// past r's deadline — pass a smaller max_pos so pruned candidates don't
/// pay shared-cache queries for positions never read.
void GatherDistanceColumns(const Route& route, const Request& r,
                           PlanningContext* ctx, DistanceColumns* cols,
                           int max_pos);
inline void GatherDistanceColumns(const Route& route, const Request& r,
                                  PlanningContext* ctx,
                                  DistanceColumns* cols) {
  GatherDistanceColumns(route, r, ctx, cols, route.size());
}

/// The original per-pair gather loop, kept verbatim as ground truth: tests
/// fuzz-pin GatherDistanceColumns (which routes through the oracle's
/// batched multi-source sweep) bit-identical to this.
void GatherDistanceColumnsReference(const Route& route, const Request& r,
                                    PlanningContext* ctx,
                                    DistanceColumns* cols, int max_pos);

/// First route position of `st` whose arrival already misses r's deadline
/// (== st.n when none does). LinearDpInsertion's scan breaks there and
/// looks one position ahead at most, so columns past the cutoff are never
/// read; gathers bounded by it issue no wasted queries.
inline int InsertionCutoff(const RouteState& st, const Request& r) {
  int cutoff = 0;
  while (cutoff < st.n &&
         st.arr[static_cast<std::size_t>(cutoff)] <= r.deadline) {
    ++cutoff;
  }
  return cutoff;
}

/// Multi-route gather: fills (*cols)[c] for every candidate route of one
/// request with a single multi-source BatchDist sweep — sources are the
/// concatenated route positions up to each route's max_pos[c], targets are
/// {o_r, d_r}. Cell values and the billed query count are identical to
/// gathering each route separately via GatherDistanceColumns; only the
/// order in which the oracle sees the pairs changes. `cols` is resized to
/// routes.size(); per-candidate columns reuse their capacity.
void GatherDistanceColumnsMulti(const std::vector<const Route*>& routes,
                                const std::vector<int>& max_pos,
                                const Request& r, PlanningContext* ctx,
                                std::vector<DistanceColumns>* cols);

/// Reusable thread-local scratch columns. The operator overloads without an
/// explicit columns argument gather into these, so steady-state planning
/// allocates nothing per candidate. The pointer stays valid for the thread's
/// lifetime; contents are overwritten by the next gather on this thread.
DistanceColumns* ThreadLocalDistanceColumns();

/// Result of an insertion evaluation (Def. 6): the cheapest feasible
/// placement of the request's pickup (after route position i) and drop-off
/// (after position j, i <= j), and the route-distance increase delta.
/// An infeasible result has delta == kInf and i == j == -1.
struct InsertionCandidate {
  double delta = kInf;
  int i = -1;
  int j = -1;

  bool feasible() const { return delta < kInf; }
};

/// O(n^3) basic insertion (Algo. 1, Jaw et al. [27][28]): enumerates all
/// O(n^2) placements and validates each candidate route from scratch.
/// Ground truth for the DP variants.
InsertionCandidate BasicInsertion(const Worker& worker, const Route& route,
                                  const Request& r, PlanningContext* ctx);

/// O(n^2) naive DP insertion (Algo. 2): same enumeration, but O(1)
/// feasibility checks and O(1) delta via the arr/ddl/slack/picked arrays.
InsertionCandidate NaiveDpInsertion(const Worker& worker, const Route& route,
                                    const Request& r, PlanningContext* ctx);

/// O(n) linear DP insertion (Algo. 3): enumerates only drop-off positions
/// and finds the best pickup position in O(1) with the Dio/Plc dynamic
/// program (Eq. 11-12, Lemma 6, Corollary 1). Issues at most 2n+1
/// shortest-distance queries (Lemma 9).
InsertionCandidate LinearDpInsertion(const Worker& worker, const Route& route,
                                     const Request& r, PlanningContext* ctx);

/// Variants taking a prebuilt RouteState (for callers that already have
/// it, e.g. the planners' fleet-cached state); the distance columns are
/// gathered into the thread-local scratch.
InsertionCandidate NaiveDpInsertion(const Worker& worker, const Route& route,
                                    const RouteState& st, const Request& r,
                                    PlanningContext* ctx);
InsertionCandidate LinearDpInsertion(const Worker& worker, const Route& route,
                                     const RouteState& st, const Request& r,
                                     PlanningContext* ctx);

/// Core variants taking prebuilt state AND prebuilt distance columns
/// (cols must hold n+1 entries per column for this route). These issue no
/// endpoint distance queries themselves — only the cached L_r lookup.
InsertionCandidate NaiveDpInsertion(const Worker& worker, const Route& route,
                                    const RouteState& st, const Request& r,
                                    const DistanceColumns& cols,
                                    PlanningContext* ctx);
InsertionCandidate LinearDpInsertion(const Worker& worker, const Route& route,
                                     const RouteState& st, const Request& r,
                                     const DistanceColumns& cols,
                                     PlanningContext* ctx);

/// Increased distance Delta_{i,j} of a concrete placement (Eq. 5), with no
/// feasibility checking. Exposed for tests.
double InsertionDelta(const Route& route, const Request& r, int i, int j,
                      PlanningContext* ctx);

}  // namespace urpsm

#endif  // URPSM_SRC_INSERTION_INSERTION_H_
