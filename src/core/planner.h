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

namespace obs {
class Counter;
class Histogram;
class TraceRecorder;
}  // namespace obs

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
/// stamps it on every OnBatch call, and GreedyDpPlanner tags its window
/// trace spans with it so a window's spans join across threads.
using WindowEpoch = std::uint64_t;

/// A planner that consumes whole dispatch windows: the simulation buffers
/// requests released within SimOptions::batch_window_s, advances the fleet
/// to the window close, and hands the batch over in one call. Assignment
/// outcomes are read from the fleet's records (OnRequest's return value is
/// unused on this path), so OnBatch may serve members in any internal
/// order — including in parallel — as long as rejections remain final.
/// GreedyDpPlanner (pruneGreedyDP) and BatchBaselinePlanner implement it;
/// without windows the simulation drives both through OnRequest.
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

/// pruneGreedyDP (Algo. 5) and its unpruned ablation GreedyDP, per
/// request and per dispatch window.
///
/// Per request (OnRequest, the paper's setting): (1) grid-index +
/// deadline candidate filter; (2) decision phase (Algo. 4) computing
/// per-worker lower bounds with one distance query total, rejecting when
/// p_r < alpha * min LB; (3) planning phase scanning workers in
/// ascending-LB order with exact linear DP insertion, stopping early via
/// Lemma 8 when pruning is enabled; (4) apply the winner.
///
/// Per window (OnBatch, SimOptions::batch_window_s > 0): the simulation
/// buffers every request released within one window, advances the fleet
/// to the window close and hands the batch over. The window then flows
/// through three stages:
///
///   1. Prep (loop thread): per request — direct distance and the
///      candidate filter — then, once per distinct candidate,
///      Fleet::Touch and Fleet::CachedState. After prep every candidate's
///      clock is at `now` and its route-state cache entry is current.
///   2. Planning (one task per request on the context's thread pool):
///      the same scan as OnRequest (PlanRequestSequential) against the
///      frozen fleet. The scan's touch of an evaluated idle worker finds
///      nothing to write and every state lookup hits, so the stage only
///      reads the fleet and takes no lock.
///   3. Commit (loop thread): proposals apply one at a time in
///      unified-cost-then-request-id order. A proposal whose worker's
///      route changed under it (an earlier member won the same worker) is
///      replanned against the updated fleet; rejections stay final
///      (Def. 5).
///
/// A one-member window goes through OnRequest's filter, scan and apply at
/// the window close. Determinism: planning is pure against the fleet the
/// previous window left behind and the commit is a serial loop in a total
/// order, so for any window length the results are bit-identical across
/// thread counts.
class GreedyDpPlanner : public BatchPlanner {
 public:
  GreedyDpPlanner(PlanningContext* ctx, Fleet* fleet, PlannerConfig config);

  WorkerId OnRequest(const Request& r) override;
  /// Plans and commits one window on the calling thread, fanning the
  /// planning stage out on PlanningContext::thread_pool() when it is set.
  void OnBatch(const std::vector<RequestId>& batch, double now,
               WindowEpoch epoch) override;
  std::string_view name() const override {
    return config_.use_pruning ? "pruneGreedyDP" : "GreedyDP";
  }
  std::int64_t index_memory_bytes() const override {
    return index_->MemoryBytes();
  }

  /// Exact linear-DP evaluations performed (for the pruning ablation),
  /// including window commit replans. Thread-count independent.
  std::int64_t exact_evaluations() const { return exact_evaluations_; }
  /// Window proposals that lost their worker to an earlier member of the
  /// same window and were replanned at commit.
  std::int64_t conflict_replans() const { return conflict_replans_; }

 private:
  /// A request's chosen insertion against a fleet snapshot, keyed by the
  /// worker's route version so the commit can detect staleness.
  struct Proposal {
    WorkerId worker = kInvalidWorker;
    double delta = kInf;  // exact increased distance (unified cost / alpha)
    int i = -1;
    int j = -1;
    std::uint64_t route_version = 0;
  };

  /// Per-request window state (filter output and planning result).
  struct Prep {
    const Request* r = nullptr;
    double L = 0.0;
    std::vector<WorkerId> candidates;
    Proposal proposal;
    std::int64_t evals = 0;  // this request's DP evaluations
    bool planned = false;    // proposal holds a chosen insertion
  };

  /// Filter, scan and apply for one request at `now`: OnRequest and
  /// one-member windows.
  WorkerId PlanAndApply(const Request& r, double now);
  /// The shared scan for `r` over `candidates` against the current fleet
  /// at `now`. Returns false on rejection; DP evaluations are counted
  /// into *evals.
  bool Propose(const Request& r, double L, double now,
               const std::vector<WorkerId>& candidates, Proposal* out,
               std::int64_t* evals);
  /// Window stages 1-2: prep, then per-request planning on the pool.
  void PlanBatch(const std::vector<RequestId>& batch, double now,
                 WindowEpoch epoch);
  /// Window stage 3: the serial apply in (delta, request id) order.
  void CommitBatch(double now, WindowEpoch epoch);

  PlanningContext* ctx_;
  Fleet* fleet_;
  PlannerConfig config_;
  std::unique_ptr<GridIndex> index_;
  std::int64_t exact_evaluations_ = 0;
  std::int64_t conflict_replans_ = 0;
  // Borrowed instruments, wired from the context's registry/tracer at
  // construction; all null (and every probe a single branch) when the
  // simulation runs without observability.
  obs::TraceRecorder* tracer_ = nullptr;
  obs::Counter* windows_counter_ = nullptr;
  obs::Counter* conflict_replan_counter_ = nullptr;
  obs::Histogram* conflict_replan_hist_ = nullptr;
  // Reused buffers, so steady state allocates nothing: OnRequest's
  // candidate list and the window workspace.
  std::vector<WorkerId> candidates_;
  std::vector<Prep> preps_;
  std::vector<std::size_t> accepted_;  // apply order (cost, then id)
  std::vector<std::uint8_t> touched_;  // worker-indexed
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
/// PlanRequestSequential (pruneGreedyDP and GreedyDP, per request and per
/// window) scans in the same order and keeps the same
/// first-strict-improvement winner.
void SortByLowerBound(std::vector<WorkerBound>* bounds);

/// THE sequential decision+planning scan (Algos. 4+5 minus candidate
/// filtering): per-candidate lower bounds in candidate order, the penalty
/// rejection against the minimum bound, then exact linear-DP evaluation
/// in ascending-lower-bound order with the (config-gated) Lemma 8 cutoff
/// and strict-improvement tie-break. Every planning path of
/// GreedyDpPlanner — OnRequest, a window's planning tasks and its commit
/// replans — funnels through this one function, so per-request and
/// windowed planning cannot drift apart. `L` is the request's direct
/// distance and `now` the planning time; the caller has advanced the
/// fleet to `now` (the simulator's Fleet::AdvanceTo). Candidates need no
/// touch: an idle worker's bound is closed-form (IdleDecisionLowerBound),
/// and the scan touches an idle worker to `now` only when it evaluates
/// it, so only evaluated idle workers' route versions move. Busy workers
/// are planned as they stand and never touched — within a dispatch
/// window, a stop an earlier member scheduled before `now` stays pending,
/// as it was when the window planned. Returns kInvalidWorker on
/// rejection, else the chosen worker with `*best` filled. Each linear-DP
/// evaluation increments *exact_evaluations when non-null.
WorkerId PlanRequestSequential(PlanningContext* ctx, Fleet* fleet,
                               const PlannerConfig& config, const Request& r,
                               double L, double now,
                               const std::vector<WorkerId>& candidates,
                               InsertionCandidate* best,
                               std::int64_t* exact_evaluations);

/// The candidate filter (line 3 of Algo. 5): the ideal-service deadline
/// test, the conservative radius, and the grid-index lookup, into a
/// caller-owned reusable buffer (cleared first). Leaves `out` empty when
/// `r` is unservable or no worker is in range — callers treat empty as
/// rejection.
void FilterCandidatesInto(PlanningContext* ctx, const GridIndex& index,
                          const Request& r, double L, double now,
                          std::vector<WorkerId>* out);

}  // namespace urpsm

#endif  // URPSM_SRC_CORE_PLANNER_H_
