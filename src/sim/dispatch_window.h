#ifndef URPSM_SRC_SIM_DISPATCH_WINDOW_H_
#define URPSM_SRC_SIM_DISPATCH_WINDOW_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/planner.h"
#include "src/insertion/insertion.h"
#include "src/parallel/fleet_shards.h"
#include "src/parallel/thread_pool.h"
#include "src/util/scratch.h"

namespace urpsm {

namespace obs {
class Counter;
class Histogram;
class TraceRecorder;
}  // namespace obs

/// Batched dispatch-window engine: pruneGreedyDP lifted from per-request
/// to per-window planning with whole-request parallelism and — in the
/// pipelined driving mode — a double-buffered window ring with
/// parallel shard-footprint commits.
///
/// The simulation buffers every request released within one dispatch
/// window (SimOptions::batch_window_s) and hands the batch over at the
/// window close. One window then flows through:
///
///   1. Advance gate (per shard): in the pipelined mode each shard's
///      workers are advanced to the window close as soon as the previous
///      window's commit stage releases that shard (FleetShards epoch
///      marks), always in fixed shard-then-worker order on one thread so
///      every cross-worker accumulation (committed distance, heap pushes,
///      grid moves) is deterministic. In the windowed mode the simulator
///      has already advanced the fleet and the gates are trivially open.
///   2. Prep: per request — direct distance, unservability and radius
///      checks, grid-index candidate filter, Fleet::Touch of every
///      candidate (first touch wins). In the pipelined mode a request's
///      prep is gated per shard on a worker-displacement bound: shard s
///      is *required* only if its tile rectangle lies within the
///      request's filter read rectangle inflated by the shard's maximum
///      member displacement (v_max times the oldest anchor's lag since
///      the last Rebuild) — workers of any other shard provably cannot
///      appear in the filter's grid cells, so the request preps as soon
///      as its required shards advanced instead of waiting for the
///      global advance barrier.
///   3. Planning (parallel, one task per request): the shared sequential
///      decision+planning scan (PlanRequestSequential) against the
///      frozen fleet. Requests are independent against a frozen
///      snapshot, so the per-request winners are schedule-independent.
///   4. Commit: proposals apply in unified-cost-then-request-id order.
///      Proposals with disjoint *shard footprints* (the candidate
///      shards) apply concurrently on the commit pool: each accepted
///      proposal holds a per-shard sequence ticket and retires in ticket
///      order per shard, so two proposals sharing any shard apply in the
///      global order while disjoint ones overlap. A proposal whose
///      worker's route changed under it (an earlier batch member won the
///      same worker) is replanned sequentially against the updated
///      fleet; rejections stay final (Def. 5). As the last proposal that
///      could touch a shard retires, the shard is released for the next
///      window's advance gate.
///
/// Double buffer (the pipelined driving mode): window e+1 plans into one
/// slot while window e commits out of the other. Its advance gate waits
/// per shard for window e's release, so planning always reads the
/// fleet window e left behind, never a fleet still being committed.
///
/// Determinism: planning is pure against the fleet snapshot the
/// previous commit left behind, decompositions depend only on
/// structural constants (never the thread count), conflicts resolve in
/// a total order, the parallel commit is serial-equivalent by the
/// per-shard tickets, and the advance executes in fixed
/// shard-then-worker order on one thread — so for any window length the
/// results are bit-identical across thread counts and ingest capacities,
/// the pipelined split matches the fused OnBatch loop, and a window of 0
/// (the simulator then drives OnRequest per release) reproduces the
/// sequential pruneGreedyDP run exactly.
class DispatchWindowPlanner : public PipelinedBatchPlanner {
 public:
  /// `pool` is borrowed and may be nullptr (phases then run inline).
  DispatchWindowPlanner(PlanningContext* ctx, Fleet* fleet,
                        PlannerConfig config, ThreadPool* pool);
  ~DispatchWindowPlanner() override;

  /// Singleton batch at the release time — the window = 0 semantics.
  WorkerId OnRequest(const Request& r) override;
  /// The windowed (non-pipelined) mode: plan + commit fused on the
  /// calling thread. Exactly PlanWindow(without self-advance) followed by
  /// CommitWindow — the pipelined split shares this one implementation.
  void OnBatch(const std::vector<RequestId>& batch, double now,
               WindowEpoch epoch) override;
  void PlanWindow(const std::vector<RequestId>& batch, double now,
                  WindowEpoch epoch) override;
  void CommitWindow(WindowEpoch epoch) override;
  std::string_view name() const override {
    return config_.use_pruning ? "windowPruneGreedyDP" : "windowGreedyDP";
  }
  std::int64_t index_memory_bytes() const override {
    return index_->MemoryBytes();
  }

  /// Exact linear-DP evaluations performed (including commit-stage
  /// replans), summed over both window slots. Thread-count independent
  /// for a fixed window length. Read only after the run quiesced — the
  /// commit stage contributes while a window is in flight.
  std::int64_t exact_evaluations() const {
    std::int64_t total = exact_evaluations_;
    for (const WindowSlot& slot : slots_) total += slot.commit_evals;
    return total;
  }
  /// Proposals that lost their worker to an earlier batch member and went
  /// through the sequential replanning path. Quiescent read, summed over
  /// both window slots.
  std::int64_t conflict_replans() const {
    std::int64_t total = 0;
    for (const WindowSlot& slot : slots_) total += slot.commit_replans;
    return total;
  }
  /// The engine's shard partition (epoch marks are inspectable in tests).
  const FleetShards& shards() const { return *shards_; }

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
    /// Shards whose advance must precede this request's prep (bit per
    /// shard; only meaningful on the self-advancing pipelined path).
    std::uint64_t required_mask = 0;
    std::vector<WorkerId> candidates;
    std::int64_t evals = 0;  // this request's DP evaluations
    bool alive = false;      // candidates non-empty, not rejected
    bool prepped = false;    // filter + touch ran (gated loop)
    bool planned = false;    // proposal holds a chosen insertion
  };

  /// Slot lifecycle; purely diagnostic ordering (the epoch marks are the
  /// real synchronization), asserted at each stage boundary.
  enum class SlotState : std::uint8_t {
    kFree,
    kFilling,
    kPlanning,
    kCommitting,
  };

  /// One dispatch window in flight. Window e plans into slot e % 2,
  /// which is free again because window e-1's advance gate already
  /// waited for window e-2 to release every shard.
  struct WindowSlot {
    WindowEpoch epoch = 0;
    std::atomic<SlotState> state{SlotState::kFree};
    std::vector<Prep> preps;
    std::vector<Proposal> proposals;
    std::vector<std::size_t> accepted;  // apply order (cost, then id)
    /// Per accepted proposal: its shard footprint as (shard, sequence
    /// ticket) pairs, ascending by shard. The parallel commit retires
    /// footprints in ticket order per shard — proposals sharing a shard
    /// serialize, disjoint ones overlap.
    std::vector<std::vector<std::pair<int, std::size_t>>> footprints;
    /// Per shard: index into `accepted` after whose retirement the shard
    /// can be released to the next window (-1 = untouched, release at
    /// commit start).
    std::vector<std::ptrdiff_t> release_at;
    // Commit-stage counters, cumulative over the slot's lifetime
    // (written by the commit thread; read quiescently).
    std::int64_t commit_evals = 0;
    std::int64_t commit_replans = 0;
    // Reusable-workspace clamps: the slot's buffers recycle across
    // windows; these trim capacity back to the recent high-water mark.
    HighWaterClamp preps_clamp;
    HighWaterClamp footprints_clamp;
  };

  /// Runs body over [0, n) on `pool` when attached, inline otherwise.
  void ForEachOn(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::int64_t)>& body);
  void ForEach(std::size_t n, const std::function<void(std::int64_t)>& body) {
    ForEachOn(pool_, n, body);
  }
  /// Full sequential pruneGreedyDP pass for one request against the
  /// *current* fleet (window planning and conflict replanning). Returns
  /// false on rejection. DP evaluations are counted into *evals.
  bool PlanSequential(const Request& r, const std::vector<WorkerId>& candidates,
                      Proposal* out, std::int64_t* evals);
  /// The window = 0 / singleton-batch path: filter + touch + the shared
  /// sequential scan + apply. No shard rebuild, no footprint machinery.
  void PlanAndApplySingle(const Request& r, double now);
  /// Stages 1-3 of a window: advance gate (when `self_advance`; with
  /// displacement-gated preps interleaved), prep, Rebuild, parallel
  /// per-request planning, then BuildAcceptSchedule.
  void PlanSlot(WindowSlot* slot, const std::vector<RequestId>& batch,
                double now, WindowEpoch epoch, bool self_advance);
  /// Accept filter + (delta, request) sort + shard footprints with
  /// sequence tickets + per-shard release schedule. Requires shard
  /// membership to be current (post-Rebuild).
  void BuildAcceptSchedule(WindowSlot* slot);
  /// Stage 4 on `slot`: the footprint-ordered apply, fanned out on
  /// `pool` (inline when null), releasing shards as dependents retire.
  void CommitSlot(WindowSlot* slot, ThreadPool* pool);

  PlanningContext* ctx_;
  Fleet* fleet_;
  PlannerConfig config_;
  ThreadPool* pool_;
  std::unique_ptr<GridIndex> index_;
  std::unique_ptr<FleetShards> shards_;
  /// Commit-stage pool of the pipelined mode: the planning thread owns
  /// pool_, so the commit thread fans out on its own pool (ThreadPool is
  /// single-submitter). Created by the first CommitWindow on the commit
  /// thread, the only thread that touches it.
  std::unique_ptr<ThreadPool> commit_pool_;
  std::int64_t exact_evaluations_ = 0;  // planning-thread evaluations
  // Borrowed instruments, wired from the context's registry/tracer at
  // construction; all null (and every probe a single branch) when the
  // simulation runs without observability.
  obs::TraceRecorder* tracer_ = nullptr;
  obs::Counter* windows_counter_ = nullptr;
  obs::Counter* conflict_replan_counter_ = nullptr;
  obs::Histogram* ticket_wait_hist_ = nullptr;  // commit ticket spins
  obs::Histogram* conflict_replan_hist_ = nullptr;
  // Scratch buffers. touched_, shard_flag_ and shard_seq_ belong to the
  // planning stage (prep and BuildAcceptSchedule); commit_heads_ and
  // apply_stats_ to the commit stage.
  std::vector<std::uint8_t> touched_;         // worker-indexed
  std::vector<std::uint8_t> shard_flag_;      // footprint dedup
  std::vector<std::size_t> shard_seq_;        // next ticket per shard
  std::vector<std::atomic<std::size_t>> commit_heads_;  // retired tickets
  /// Per-accepted-index stats of the parallel apply stage, accumulated
  /// into the slot's commit counters after the tasks join (the tasks run
  /// concurrently, so each writes only its own index).
  struct ApplyStats {
    std::int64_t evals = 0;
    std::int64_t replans = 0;
  };
  std::vector<ApplyStats> apply_stats_;       // per accepted index
  /// The double buffer: window e lives in slots_[e % 2].
  std::array<WindowSlot, 2> slots_;
};

/// DispatchWindowPlanner on the simulation's pool; the windowed twin of
/// pruneGreedyDP. Drive it with SimOptions::batch_window_s > 0 for real
/// windows (plus SimOptions::pipeline for the three-stage pipelined
/// loop), or 0 for the bit-identical per-request mode.
PlannerFactory MakeDispatchWindowFactory(PlannerConfig config);

}  // namespace urpsm

#endif  // URPSM_SRC_SIM_DISPATCH_WINDOW_H_
