#ifndef URPSM_SRC_CORE_DECISION_H_
#define URPSM_SRC_CORE_DECISION_H_

#include "src/model/feasibility.h"
#include "src/model/route.h"
#include "src/model/types.h"

namespace urpsm {

/// A worker together with the decision-phase lower bound on its minimal
/// insertion cost for the current request.
struct WorkerBound {
  WorkerId worker = kInvalidWorker;
  double lower_bound = kInf;
};

/// LB(Delta*) of Sec. 5.1 (Lemma 7, Eq. 15-17): a lower bound on the
/// minimal increased distance of inserting `r` into `route`, computed with
/// Euclidean travel-time lower bounds and the route's cached schedule.
///
/// Issues **zero** shortest-distance queries: the caller supplies
/// L = dis(o_r, d_r) (the decision phase's single query, shared across all
/// workers). Returns kInf when even the relaxed feasibility checks fail —
/// in that case the exact insertion is provably infeasible too.
double DecisionLowerBound(const Worker& worker, const Route& route,
                          const RouteState& st, const Request& r, double L,
                          const RoadNetwork& graph);

/// DecisionLowerBound of an idle worker (empty `route`) in closed form,
/// without touching it: the route Fleet::Touch(w, now) would leave has
/// the one position l_0 at t0 = max(anchor_time, now), where Eq. 17's
/// i == j == n branch is the whole DP. kInf when the capacity does not fit
/// or when (t0 + euc(l_0, o_r) / v_max) + L > e_r, else
/// max(0, euc(l_0, o_r) / v_max + L) — the DP's expressions in the DP's
/// order, so the result is bit-identical to DecisionLowerBound on the
/// touched route (decision_test fuzz-pins the pair).
double IdleDecisionLowerBound(const Worker& worker, const Route& route,
                              const Request& r, double L, double now,
                              const RoadNetwork& graph);

/// Reference implementation computing every Euclidean bound on demand
/// with per-position calls into the graph (the pre-column code path).
/// DecisionLowerBound gathers the same bounds as two flat per-request
/// columns over RouteState::pts first — identical arithmetic per element,
/// so the two are bit-identical (asserted by decision_test's fuzz;
/// bench_hotpath times both as the before/after).
double DecisionLowerBoundReference(const Worker& worker, const Route& route,
                                   const RouteState& st, const Request& r,
                                   double L, const RoadNetwork& graph);

}  // namespace urpsm

#endif  // URPSM_SRC_CORE_DECISION_H_
