#include "src/sim/dispatch_window.h"

#include <algorithm>

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
  // Instrument wiring: instruments observe wall times and event counts
  // only — never anything planning reads — so the determinism contract
  // (bit-identical results with or without observability) holds.
  if (obs::Registry* reg = ctx_->metrics();
      reg != nullptr && reg->enabled()) {
    windows_counter_ = reg->GetCounter("engine.windows");
    conflict_replan_counter_ = reg->GetCounter("engine.commit.replans");
    conflict_replan_hist_ = reg->GetHistogram("engine.commit.replan_ms");
  }
  if (obs::TraceRecorder* t = ctx_->tracer();
      t != nullptr && t->enabled()) {
    tracer_ = t;
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

  // ---- 1. Prep. Prep elements are reused across windows (no clear() —
  // that would free every inner buffer): fields are either overwritten
  // below or explicitly reset, keeping capacity warm. The simulator has
  // already advanced the fleet to `now`, so a touch only bumps an idle
  // clock. Every distinct candidate is touched and its route state built
  // here, not just the ones a scan evaluates: that is every fleet write
  // the planning stage would otherwise make, so its tasks only read.
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
        fleet_->CachedState(w, ctx_);
      }
    }
  }

  // ---- 2. Planning: one task per request, the shared sequential
  // decision+planning scan against the frozen fleet. Requests are
  // mutually independent here, so the winners are schedule-independent;
  // evaluation counts are accumulated serially afterwards.
  std::vector<Proposal>& proposals = proposals_;
  proposals.assign(preps.size(), Proposal{});
  const auto plan = [&](std::int64_t i) {
    const auto b = static_cast<std::size_t>(i);
    Prep& p = preps[b];
    if (!p.alive) return;
    p.evals = 0;
    p.planned =
        PlanSequential(*p.r, now, p.candidates, &proposals[b], &p.evals);
  };
  // A pool of one thread, or a single task, runs inline in ParallelFor.
  if (pool_ != nullptr) {
    pool_->ParallelFor(0, static_cast<std::int64_t>(preps.size()), plan);
  } else {
    for (std::size_t b = 0; b < preps.size(); ++b) {
      plan(static_cast<std::int64_t>(b));
    }
  }
  for (const Prep& p : preps) {
    if (p.alive) exact_evaluations_ += p.evals;
  }
}

void DispatchWindowPlanner::CommitBatch(double now, WindowEpoch epoch) {
  // ---- Apply order: unified cost (= alpha * delta), then request id.
  // The exact-reject ablation already ran inside the shared scan
  // (planned = false), so acceptance is just "a proposal exists".
  accepted_.clear();
  for (std::size_t b = 0; b < preps_.size(); ++b) {
    if (preps_[b].alive && preps_[b].planned) accepted_.push_back(b);
  }
  std::sort(accepted_.begin(), accepted_.end(),
            [&](std::size_t a, std::size_t b) {
              const Proposal& pa = proposals_[a];
              const Proposal& pb = proposals_[b];
              if (pa.delta != pb.delta) return pa.delta < pb.delta;
              return pa.request < pb.request;
            });

  for (const std::size_t b : accepted_) {
    const Proposal& p = proposals_[b];
    const Request& r = *preps_[b].r;
    const obs::TraceSpan apply_span(
        tracer_, "commit.apply",
        {{"epoch", static_cast<std::int64_t>(epoch)}, {"request", r.id}});
    if (fleet_->route(p.worker).version() == p.route_version) {
      // Still the fleet snapshot the proposal was computed against (for
      // this worker): feasibility and delta hold verbatim.
      fleet_->ApplyInsertion(p.worker, r, p.i, p.j, ctx_->oracle());
      continue;
    }
    // An earlier (cheaper) batch member took this worker: replan against
    // the updated fleet. The grid index did not move (Insert keeps
    // anchors), so the original candidate list is still the filter's
    // output.
    ++conflict_replans_;
    obs::Inc(conflict_replan_counter_);
    Proposal replanned;
    bool planned = false;
    {
      const obs::ScopedTimerMs replan_timer(conflict_replan_hist_);
      planned = PlanSequential(r, now, preps_[b].candidates, &replanned,
                               &exact_evaluations_);
    }
    if (planned) {
      fleet_->ApplyInsertion(replanned.worker, r, replanned.i, replanned.j,
                             ctx_->oracle());
    }
  }
}

PlannerFactory MakeDispatchWindowFactory(PlannerConfig config) {
  return [config](PlanningContext* ctx, Fleet* fleet) {
    return std::make_unique<DispatchWindowPlanner>(ctx, fleet, config,
                                                   ctx->thread_pool());
  };
}

}  // namespace urpsm
