#ifndef URPSM_SRC_SIM_DISPATCH_WINDOW_H_
#define URPSM_SRC_SIM_DISPATCH_WINDOW_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/core/planner.h"
#include "src/insertion/insertion.h"
#include "src/parallel/thread_pool.h"

namespace urpsm {

namespace obs {
class Counter;
class Histogram;
class TraceRecorder;
}  // namespace obs

/// Batched dispatch-window engine: pruneGreedyDP lifted from per-request
/// to per-window planning, with whole-request parallel planning and a
/// serial commit.
///
/// The simulation buffers every request released within one dispatch
/// window (SimOptions::batch_window_s), advances the fleet to the window
/// close and hands the batch over in one OnBatch call. The window then
/// flows through:
///
///   1. Prep (loop thread): per request — direct distance, unservability
///      and radius checks, grid-index candidate filter — then, once per
///      distinct candidate, Fleet::Touch and Fleet::CachedState. After
///      prep every candidate's clock is at `now` and its route-state
///      cache entry is current.
///   2. Planning (parallel, one task per request): the shared sequential
///      decision+planning scan (PlanRequestSequential) against the
///      frozen fleet. The scan's touch of an evaluated idle worker finds
///      nothing to write and every state lookup hits, so the stage only
///      reads the fleet and takes no lock. Requests are independent
///      against the frozen snapshot, so the per-request winners are
///      schedule-independent.
///   3. Commit (loop thread): proposals apply one at a time in
///      unified-cost-then-request-id order. A proposal whose worker's
///      route changed under it (an earlier batch member won the same
///      worker) is replanned against the updated fleet; rejections stay
///      final (Def. 5).
///
/// Determinism: planning is pure against the fleet snapshot the previous
/// window left behind and the commit is a serial loop in a total order,
/// so for any window length the results are bit-identical across thread
/// counts, and a window of 0 (the simulator then drives OnRequest per
/// release) reproduces the sequential pruneGreedyDP run exactly.
class DispatchWindowPlanner : public BatchPlanner {
 public:
  /// `pool` is borrowed and may be nullptr (planning then runs inline).
  DispatchWindowPlanner(PlanningContext* ctx, Fleet* fleet,
                        PlannerConfig config, ThreadPool* pool);

  /// Singleton batch at the release time — the window = 0 semantics.
  WorkerId OnRequest(const Request& r) override;
  /// Plans and commits one window on the calling thread (fanning the
  /// planning stage out on the pool).
  void OnBatch(const std::vector<RequestId>& batch, double now,
               WindowEpoch epoch) override;
  std::string_view name() const override {
    return config_.use_pruning ? "windowPruneGreedyDP" : "windowGreedyDP";
  }
  std::int64_t index_memory_bytes() const override {
    return index_->MemoryBytes();
  }

  /// Exact linear-DP evaluations performed, including commit-stage
  /// replans. Thread-count independent for a fixed window length.
  std::int64_t exact_evaluations() const { return exact_evaluations_; }
  /// Proposals that lost their worker to an earlier batch member and went
  /// through the sequential replanning path.
  std::int64_t conflict_replans() const { return conflict_replans_; }

 private:
  /// A request's chosen insertion against a fleet snapshot, keyed by the
  /// worker's route version so conflict resolution can detect staleness.
  struct Proposal {
    RequestId request = kInvalidRequest;
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
    std::int64_t evals = 0;  // this request's DP evaluations
    bool alive = false;      // candidates non-empty, not rejected
    bool planned = false;    // proposal holds a chosen insertion
  };

  /// Full sequential pruneGreedyDP pass for one request against the
  /// *current* fleet at time `now` (window planning and conflict
  /// replanning). Returns false on rejection. DP evaluations are counted
  /// into *evals.
  bool PlanSequential(const Request& r, double now,
                      const std::vector<WorkerId>& candidates, Proposal* out,
                      std::int64_t* evals);
  /// The window = 0 / singleton-batch path: filter + the shared
  /// sequential scan + apply.
  void PlanAndApplySingle(const Request& r, double now);
  /// Stages 1-2 of a window: prep, then parallel per-request planning.
  void PlanBatch(const std::vector<RequestId>& batch, double now,
                 WindowEpoch epoch);
  /// Stage 3: the serial apply in (delta, request id) order.
  void CommitBatch(double now, WindowEpoch epoch);

  PlanningContext* ctx_;
  Fleet* fleet_;
  PlannerConfig config_;
  ThreadPool* pool_;
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
  // The window workspace: buffers recycle across windows, so steady
  // state allocates nothing.
  std::vector<Prep> preps_;
  std::vector<Proposal> proposals_;
  std::vector<std::size_t> accepted_;  // apply order (cost, then id)
  std::vector<std::uint8_t> touched_;  // worker-indexed
};

/// DispatchWindowPlanner on the simulation's pool; the windowed twin of
/// pruneGreedyDP. Drive it with SimOptions::batch_window_s > 0 for real
/// windows, or 0 for the bit-identical per-request mode.
PlannerFactory MakeDispatchWindowFactory(PlannerConfig config);

}  // namespace urpsm

#endif  // URPSM_SRC_SIM_DISPATCH_WINDOW_H_
