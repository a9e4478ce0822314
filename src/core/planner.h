#ifndef URPSM_SRC_CORE_PLANNER_H_
#define URPSM_SRC_CORE_PLANNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "src/core/decision.h"
#include "src/index/grid_index.h"
#include "src/model/feasibility.h"
#include "src/sim/fleet.h"

namespace urpsm {

struct InsertionCandidate;

/// Online route-planning algorithm: receives each request at its release
/// time (the fleet is already advanced to that time) and either assigns it
/// to a worker — mutating that worker's route through the Fleet — or
/// rejects it by returning kInvalidWorker. The invariable constraint of
/// Def. 5 is enforced by the simulator: a rejection is final.
class RoutePlanner {
 public:
  virtual ~RoutePlanner() = default;

  /// Processes one released request; returns the serving worker or
  /// kInvalidWorker for rejection.
  virtual WorkerId OnRequest(const Request& r) = 0;

  virtual std::string_view name() const = 0;

  /// Called once after the last request; batch-style planners flush any
  /// buffered work here. `budget_seconds` is the planning wall time still
  /// available under the simulation's kill switch (SimOptions::
  /// wall_limit_seconds): a run that already timed out passes 0, and the
  /// planner must not start unbounded work — buffered requests it cannot
  /// afford to plan stay rejected (DNF, as in the paper's timeout runs).
  virtual void Finalize(double budget_seconds) { (void)budget_seconds; }

  /// Memory footprint of the planner's spatial index (Fig. 5's metric).
  virtual std::int64_t index_memory_bytes() const { return 0; }
};

/// Monotone dispatch-window counter: window k of one run has epoch k
/// (1-based; epoch 0 means "outside any window"). The windowed event loop
/// stamps it on every OnBatch call, and the dispatch-window engine tags
/// its trace spans with it so a window's spans join across threads.
using WindowEpoch = std::uint64_t;

/// A planner that consumes whole dispatch windows: the simulation buffers
/// requests released within SimOptions::batch_window_s, advances the fleet
/// to the window close, and hands the batch over in one call. Assignment
/// outcomes are read from the fleet's records (OnRequest's return value is
/// unused on this path), so OnBatch may serve members in any internal
/// order — including in parallel — as long as rejections remain final.
class BatchPlanner : public RoutePlanner {
 public:
  /// Plans every buffered request of one window. `batch` holds the ids in
  /// release order; `now` is the window close time — the fleet has already
  /// been advanced to it, and all planning happens "at" this instant.
  /// `epoch` is the window's position in the run (1, 2, ...): the windowed
  /// event loop increments it per window. Planners driven outside the
  /// simulator may pass 0 for "no epoch".
  virtual void OnBatch(const std::vector<RequestId>& batch, double now,
                       WindowEpoch epoch) = 0;
};

/// Builds the planner under test once the simulation has wired up the
/// planning context and fleet.
using PlannerFactory =
    std::function<std::unique_ptr<RoutePlanner>(PlanningContext*, Fleet*)>;

/// Configuration shared by the paper's planner and our baselines.
struct PlannerConfig {
  double alpha = 1.0;        // weight of total distance in the unified cost
  double grid_cell_km = 2.0; // grid size g (Table 5; default 2 km)
  bool use_pruning = true;   // Lemma 8 pruning; false = plain GreedyDP
  /// Ablation (off in the paper): also reject when the *exact* minimal
  /// increased distance ends up exceeding p_r / alpha.
  bool exact_reject_check = false;
};

/// pruneGreedyDP (Algo. 5) and its unpruned ablation GreedyDP.
///
/// Per request: (1) grid-index + deadline candidate filter; (2) decision
/// phase (Algo. 4) computing per-worker lower bounds with one distance
/// query total, rejecting when p_r < alpha * min LB; (3) planning phase
/// scanning workers in ascending-LB order with exact linear DP insertion,
/// stopping early via Lemma 8 when pruning is enabled.
class GreedyDpPlanner : public RoutePlanner {
 public:
  GreedyDpPlanner(PlanningContext* ctx, Fleet* fleet, PlannerConfig config);

  WorkerId OnRequest(const Request& r) override;
  std::string_view name() const override {
    return config_.use_pruning ? "pruneGreedyDP" : "GreedyDP";
  }
  std::int64_t index_memory_bytes() const override {
    return index_->MemoryBytes();
  }

  /// Exact linear-DP evaluations performed (for the pruning ablation).
  std::int64_t exact_evaluations() const { return exact_evaluations_; }

 private:
  PlanningContext* ctx_;
  Fleet* fleet_;
  PlannerConfig config_;
  std::unique_ptr<GridIndex> index_;
  std::int64_t exact_evaluations_ = 0;
};

/// Conservative candidate radius (km): a worker anchored farther than this
/// from the request origin provably cannot pick it up by e_r - L (its
/// earliest possible arrival, anchor_time + Euclidean time, is too late).
double CandidateRadiusKm(const Request& r, double L, double now);

/// Lemma 8 cutoff of the shared planning scan (PlanRequestSequential):
/// true when every worker whose lower bound is at least `lower_bound` is
/// provably worse than the best exact cost found so far. The epsilon
/// guards the cutoff against float noise: on straight-line trips the
/// Euclidean bound equals the exact network distance, and rounding can
/// put Delta* an epsilon *below* its own LB; a strict comparison there
/// would (very rarely) let a pruned scan diverge from an unpruned one.
inline bool LemmaEightCutoff(double best_delta, double lower_bound) {
  return best_delta < lower_bound - 1e-9 * (1.0 + best_delta);
}

/// Sorts `bounds` in place into the planning phase's scan order:
/// ascending lower bound. The permutation (ties included) is a pure
/// function of the array — introsort's comparisons and moves depend only
/// on comparator outcomes and positions — so every path through
/// PlanRequestSequential (pruneGreedyDP, GreedyDP, the dispatch-window
/// engine) scans in the same order and keeps the same
/// first-strict-improvement winner.
void SortByLowerBound(std::vector<WorkerBound>* bounds);

/// The candidate filter (line 3 of Algo. 5) shared by every planning
/// path: the ideal-service deadline test, the conservative radius, and
/// the grid-index lookup. Returns an empty vector when `r` is unservable
/// or no worker is in range — callers treat empty as rejection. Like
/// PlanRequestSequential below, this exists so the window = 0
/// bit-identity contract has exactly one filter implementation to drift
/// from (none).
std::vector<WorkerId> FilterCandidates(PlanningContext* ctx,
                                       const GridIndex& index,
                                       const Request& r, double L,
                                       double now);

/// THE sequential decision+planning scan (Algos. 4+5 minus candidate
/// filtering): per-candidate lower bounds in candidate order, the penalty
/// rejection against the minimum bound, then exact linear-DP evaluation
/// in ascending-lower-bound order with the (config-gated) Lemma 8 cutoff
/// and strict-improvement tie-break. Every sequential planning path —
/// GreedyDpPlanner::OnRequest, the dispatch-window engine's singleton
/// batches and its conflict replans — funnels through this one function,
/// so their bit-identity contract has a single implementation to stay in
/// lockstep with. `L` is the request's direct distance and `now` the
/// planning time; the caller has advanced the fleet to `now` (the
/// simulator's Fleet::AdvanceTo). Candidates need no touch: an idle
/// worker's bound is closed-form (IdleDecisionLowerBound), and the scan
/// touches an idle worker to `now` only when it evaluates it, so only
/// evaluated idle workers' route versions move. Busy workers are planned
/// as they stand and never touched — within a dispatch window, a stop an
/// earlier member scheduled before `now` stays pending, as it was when
/// the window planned. Returns kInvalidWorker on rejection, else the
/// chosen worker with `*best` filled. Each linear-DP evaluation
/// increments *exact_evaluations when non-null.
WorkerId PlanRequestSequential(PlanningContext* ctx, Fleet* fleet,
                               const PlannerConfig& config, const Request& r,
                               double L, double now,
                               const std::vector<WorkerId>& candidates,
                               InsertionCandidate* best,
                               std::int64_t* exact_evaluations);

/// FilterCandidates into a caller-owned reusable buffer (cleared first):
/// the allocation-free variant the window workspaces use. The returning
/// overload above wraps this one.
void FilterCandidatesInto(PlanningContext* ctx, const GridIndex& index,
                          const Request& r, double L, double now,
                          std::vector<WorkerId>* out);

}  // namespace urpsm

#endif  // URPSM_SRC_CORE_PLANNER_H_
