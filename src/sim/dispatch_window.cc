#include "src/sim/dispatch_window.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace urpsm {

DispatchWindowPlanner::DispatchWindowPlanner(PlanningContext* ctx,
                                             Fleet* fleet,
                                             PlannerConfig config,
                                             ThreadPool* pool)
    : ctx_(ctx), fleet_(fleet), config_(config), pool_(pool) {
  Point lo, hi;
  ctx_->graph().BoundingBox(&lo, &hi);
  index_ = std::make_unique<GridIndex>(lo, hi, config_.grid_cell_km);
  fleet_->AttachIndex(index_.get());
  // Shard regions are coarser than the candidate grid (4 cells per region
  // side) so a worker's stop-to-stop anchor moves rarely change its shard.
  // Both constants are structural — independent of the thread count — so
  // the task decomposition, and with it every planning result, is too.
  shards_ = std::make_unique<FleetShards>(fleet_, lo, hi,
                                          4.0 * config_.grid_cell_km);
  fleet_->AttachShards(shards_.get());
  commit_heads_ = std::vector<std::atomic<std::size_t>>(
      static_cast<std::size_t>(shards_->num_shards()));
  // Instrument wiring: instruments observe wall times and event counts
  // only — never anything planning reads — so the determinism contract
  // (bit-identical results with or without observability) holds.
  if (obs::Registry* reg = ctx_->metrics();
      reg != nullptr && reg->enabled()) {
    windows_counter_ = reg->GetCounter("engine.windows");
    conflict_replan_counter_ = reg->GetCounter("engine.commit.replans");
    ticket_wait_hist_ = reg->GetHistogram("engine.commit.ticket_wait_ms");
    conflict_replan_hist_ = reg->GetHistogram("engine.commit.replan_ms");
  }
  if (obs::TraceRecorder* t = ctx_->tracer();
      t != nullptr && t->enabled()) {
    tracer_ = t;
  }
}

DispatchWindowPlanner::~DispatchWindowPlanner() {
  fleet_->AttachShards(nullptr);
}

void DispatchWindowPlanner::ForEach(
    std::size_t n, const std::function<void(std::int64_t)>& body) {
  // Purely an execution choice (the per-task work is fixed): tiny task
  // counts run inline rather than paying the pool wakeup. Grain stays 1:
  // the cursor claims indices monotonically, which the commit stage's
  // ticket waits rely on (a task only ever waits on smaller indices, all
  // claimed — hence running to completion on some thread — before it).
  const bool worth_fanning =
      pool_ != nullptr && pool_->num_threads() > 1 && n >= 2;
  if (worth_fanning) {
    pool_->ParallelFor(0, static_cast<std::int64_t>(n), body, /*grain=*/1);
  } else {
    for (std::size_t i = 0; i < n; ++i) body(static_cast<std::int64_t>(i));
  }
}

WorkerId DispatchWindowPlanner::OnRequest(const Request& r) {
  PlanAndApplySingle(r, r.release_time);
  return fleet_->AssignedWorker(r.id);
}

void DispatchWindowPlanner::PlanAndApplySingle(const Request& r, double now) {
  const double L = ctx_->DirectDist(r.id);
  const std::vector<WorkerId> candidates =
      FilterCandidates(ctx_, *index_, r, L, now);
  if (candidates.empty()) return;
  Proposal p;
  if (PlanSequential(r, now, candidates, &p, &exact_evaluations_)) {
    fleet_->ApplyInsertion(p.worker, r, p.i, p.j, ctx_->oracle());
  }
}

bool DispatchWindowPlanner::PlanSequential(
    const Request& r, double now, const std::vector<WorkerId>& candidates,
    Proposal* out, std::int64_t* evals) {
  // Funnels through the one shared sequential scan, so batch planning,
  // singleton batches and conflict replans can never drift from
  // GreedyDpPlanner::OnRequest.
  const double L = ctx_->DirectDist(r.id);
  InsertionCandidate best;
  const WorkerId best_worker = PlanRequestSequential(
      ctx_, fleet_, config_, r, L, now, candidates, &best, evals);
  if (best_worker == kInvalidWorker) return false;
  out->request = r.id;
  out->worker = best_worker;
  out->delta = best.delta;
  out->i = best.i;
  out->j = best.j;
  out->route_version = fleet_->route(best_worker).version();
  return true;
}

void DispatchWindowPlanner::OnBatch(const std::vector<RequestId>& batch,
                                    double now, WindowEpoch epoch) {
  // Singleton fast path (the window = 0 / per-request mode): literally
  // the sequential planner's filter + shared scan, which is what the
  // bit-identity contract promises anyway.
  if (batch.size() <= 1) {
    if (!batch.empty()) PlanAndApplySingle(ctx_->request(batch.front()), now);
    return;
  }
  PlanBatch(batch, now, epoch);
  CommitBatch(now, epoch);
}

void DispatchWindowPlanner::PlanBatch(const std::vector<RequestId>& batch,
                                      double now, WindowEpoch epoch) {
  const obs::TraceSpan span(
      tracer_, "window.plan",
      {{"epoch", static_cast<std::int64_t>(epoch)},
       {"batch", static_cast<std::int64_t>(batch.size())}});
  obs::Inc(windows_counter_);
  // Reusable window workspace: trim capacity back toward the recent
  // high-water mark before refilling.
  preps_clamp_.Observe(&preps_);
  footprints_clamp_.Observe(&footprints_);

  // ---- 1. Prep. Prep elements are reused across windows (no clear() —
  // that would free every inner buffer): fields are either overwritten
  // below or explicitly reset, keeping capacity warm. The simulator has
  // already advanced the fleet to `now`, so touching only bumps idle
  // anchors (first touch wins) and the touch order is immaterial. Every
  // candidate is touched here, not just the ones a scan evaluates: the
  // parallel planning tasks below read routes without a lock, so the
  // scan's own touch of an evaluated idle worker must find nothing left
  // to write.
  std::vector<Prep>& preps = preps_;
  preps.resize(batch.size());
  touched_.assign(static_cast<std::size_t>(fleet_->size()), 0);
  for (std::size_t b = 0; b < batch.size(); ++b) {
    Prep& p = preps[b];
    p.alive = false;
    p.planned = false;
    p.r = &ctx_->request(batch[b]);
    p.L = ctx_->DirectDist(p.r->id);
    FilterCandidatesInto(ctx_, *index_, *p.r, p.L, now, &p.candidates);
    if (p.candidates.empty()) continue;
    p.alive = true;
    for (const WorkerId w : p.candidates) {
      auto& flag = touched_[static_cast<std::size_t>(w)];
      if (flag == 0) {
        flag = 1;
        fleet_->Touch(w, now);
      }
    }
  }
  // Anchors may have moved while committing due stops; shard membership
  // reflects the post-advance positions for the rest of the window.
  shards_->Rebuild();

  // ---- 2. Planning: one task per request, the shared sequential
  // decision+planning scan against the frozen fleet. Requests are
  // mutually independent here, so the winners are schedule-independent;
  // evaluation counts are accumulated serially afterwards.
  std::vector<Proposal>& proposals = proposals_;
  proposals.assign(preps.size(), Proposal{});
  ForEach(preps.size(), [&](std::int64_t i) {
    const auto b = static_cast<std::size_t>(i);
    Prep& p = preps[b];
    if (!p.alive) return;
    p.evals = 0;
    p.planned =
        PlanSequential(*p.r, now, p.candidates, &proposals[b], &p.evals);
  });
  for (const Prep& p : preps) {
    if (p.alive) exact_evaluations_ += p.evals;
  }

  BuildAcceptSchedule();
}

void DispatchWindowPlanner::BuildAcceptSchedule() {
  const auto shard_count = static_cast<std::size_t>(shards_->num_shards());
  const std::vector<Prep>& preps = preps_;
  const std::vector<Proposal>& proposals = proposals_;

  // ---- Apply order: unified cost (= alpha * delta), then request id.
  // The exact-reject ablation already ran inside the shared scan
  // (planned = false), so acceptance is just "a proposal exists".
  std::vector<std::size_t>& accepted = accepted_;
  accepted.clear();
  for (std::size_t b = 0; b < preps.size(); ++b) {
    if (preps[b].alive && preps[b].planned) accepted.push_back(b);
  }
  std::sort(accepted.begin(), accepted.end(),
            [&](std::size_t a, std::size_t b) {
              const Proposal& pa = proposals[a];
              const Proposal& pb = proposals[b];
              if (pa.delta != pb.delta) return pa.delta < pb.delta;
              return pa.request < pb.request;
            });

  // ---- Shard footprints + sequence tickets. A proposal's footprint is
  // the (deduplicated, ascending) shard set of its candidates — the
  // workers its apply may read (replan) or write, directly or through a
  // conflict replan over ANY of its candidates. Ticket seq s/k gates
  // apply order per shard. Membership is post-Rebuild, so footprints stay
  // valid until the next window's Rebuild.
  footprints_.resize(accepted.size());
  shard_flag_.assign(shard_count, 0);
  shard_seq_.assign(shard_count, 0);
  for (std::size_t idx = 0; idx < accepted.size(); ++idx) {
    auto& footprint = footprints_[idx];
    footprint.clear();
    for (const WorkerId w : preps[accepted[idx]].candidates) {
      const int s = shards_->ShardOf(w);
      if (shard_flag_[static_cast<std::size_t>(s)] == 0) {
        shard_flag_[static_cast<std::size_t>(s)] = 1;
        footprint.push_back({s, 0});
      }
    }
    std::sort(footprint.begin(), footprint.end());
    for (auto& [s, seq] : footprint) {
      seq = shard_seq_[static_cast<std::size_t>(s)]++;
      shard_flag_[static_cast<std::size_t>(s)] = 0;
    }
  }
}

void DispatchWindowPlanner::CommitBatch(double now, WindowEpoch epoch) {
  // ---- Parallel footprint-ordered apply. Per shard, tickets retire in
  // sequence; a proposal waits until it holds the head ticket of EVERY
  // footprint shard, so any two proposals sharing a shard apply in the
  // accepted (cost, id) order while disjoint ones overlap. That makes
  // the parallel apply serial-equivalent: a replan triggered by a stale
  // route version reads only candidates inside its own footprint, whose
  // state is exactly what the serial loop would have left. Deadlock-free
  // with grain-1 monotone claiming — a task only waits on smaller
  // indices, and the smallest unretired index never waits.
  const std::size_t n = accepted_.size();
  for (std::atomic<std::size_t>& head : commit_heads_) {
    head.store(0, std::memory_order_relaxed);
  }
  apply_stats_.assign(n, ApplyStats{});
  ForEach(n, [&](std::int64_t i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::size_t b = accepted_[idx];
    const Proposal& p = proposals_[b];
    const Request& r = *preps_[b].r;
    const auto& footprint = footprints_[idx];
    for (const auto& [s, seq] : footprint) {
      auto& head = commit_heads_[static_cast<std::size_t>(s)];
      if (head.load(std::memory_order_acquire) == seq) continue;
      // The per-shard ticket spin — the commit-lock wait blind spot.
      // Only an actual spin is timed (and only with a live histogram),
      // so the head-ticket fast path stays clock-free.
      const bool timed = ticket_wait_hist_ != nullptr;
      const auto w0 = timed ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};
      while (head.load(std::memory_order_acquire) != seq) {
        std::this_thread::yield();
      }
      if (timed) {
        ticket_wait_hist_->Observe(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - w0)
                .count());
      }
    }
    {
      const obs::TraceSpan apply_span(
          tracer_, "commit.apply",
          {{"epoch", static_cast<std::int64_t>(epoch)},
           {"request", r.id},
           {"shard",
            footprint.empty() ? std::int64_t{-1}
                              : static_cast<std::int64_t>(
                                    footprint.front().first)}});
      if (fleet_->route(p.worker).version() == p.route_version) {
        // Still the fleet snapshot the proposal was computed against (for
        // this worker): feasibility and delta hold verbatim.
        fleet_->ApplyInsertion(p.worker, r, p.i, p.j, ctx_->oracle());
      } else {
        // An earlier (cheaper) batch member took this worker: replan
        // against the updated fleet. The grid index did not move (Insert
        // keeps anchors), so the original candidate list is still the
        // filter's output.
        ApplyStats& stats = apply_stats_[idx];
        stats.replans = 1;
        obs::Inc(conflict_replan_counter_);
        Proposal replanned;
        bool planned = false;
        {
          const obs::ScopedTimerMs replan_timer(conflict_replan_hist_);
          planned = PlanSequential(r, now, preps_[b].candidates,
                                   &replanned, &stats.evals);
        }
        if (planned) {
          fleet_->ApplyInsertion(replanned.worker, r, replanned.i,
                                 replanned.j, ctx_->oracle());
        }
      }
    }
    for (const auto& [s, seq] : footprint) {
      commit_heads_[static_cast<std::size_t>(s)].store(
          seq + 1, std::memory_order_release);
    }
  });
  for (const ApplyStats& stats : apply_stats_) {
    exact_evaluations_ += stats.evals;
    conflict_replans_ += stats.replans;
  }
}

PlannerFactory MakeDispatchWindowFactory(PlannerConfig config) {
  return [config](PlanningContext* ctx, Fleet* fleet) {
    return std::make_unique<DispatchWindowPlanner>(ctx, fleet, config,
                                                   ctx->thread_pool());
  };
}

}  // namespace urpsm
