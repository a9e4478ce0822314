#include "src/core/planner.h"

#include <algorithm>

#include "src/core/decision.h"
#include "src/insertion/insertion.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/parallel/thread_pool.h"

namespace urpsm {

double CandidateRadiusKm(const Request& r, double L, double now) {
  // The pickup must happen by e_r - L (Eq. 6). A worker anchored at
  // distance euc from o_r cannot reach it before
  // anchor_time + euc / v_max, so euc <= (e_r - L - anchor_time) * v_max
  // is necessary. Busy workers can have anchor_time < now (their anchor is
  // the last stop they passed), which *enlarges* their window; to stay a
  // strict superset we allow one deadline-span of anchor lag — a worker
  // whose anchor is older than that cannot slot the pickup in time anyway.
  const double slack_min = (r.deadline - L) - now;
  if (slack_min < 0.0) return -1.0;
  const double lag_allowance = r.deadline - r.release_time;
  return (slack_min + lag_allowance) * MaxSpeedKmPerMin();
}

void SortByLowerBound(std::vector<WorkerBound>* bounds) {
  std::sort(bounds->begin(), bounds->end(),
            [](const WorkerBound& a, const WorkerBound& b) {
              return a.lower_bound < b.lower_bound;
            });
}

void FilterCandidatesInto(PlanningContext* ctx, const GridIndex& index,
                          const Request& r, double L, double now,
                          std::vector<WorkerId>* out) {
  out->clear();
  if (now + L > r.deadline) return;  // unservable even ideally
  const double radius = CandidateRadiusKm(r, L, now);
  if (radius < 0.0) return;
  const Point origin_pt = ctx->graph().coord(r.origin);
  index.WithinRadiusInto(origin_pt, radius, out);
}

WorkerId PlanRequestSequential(PlanningContext* ctx, Fleet* fleet,
                               const PlannerConfig& config, const Request& r,
                               double L, double now,
                               const std::vector<WorkerId>& candidates,
                               InsertionCandidate* best_out,
                               std::int64_t* exact_evaluations) {
  // Phase 1 — decision (Algo. 4): per-worker lower bounds, no new queries.
  // An idle worker's bound is closed-form (IdleDecisionLowerBound): it is
  // neither touched nor given a route state unless the scan below
  // evaluates it. A busy worker's state comes from the fleet's per-worker
  // cache (keyed on Route::version).
  thread_local std::vector<WorkerBound> bounds;
  bounds.clear();
  double min_lb = kInf;
  for (const WorkerId w : candidates) {
    const Worker& worker = fleet->worker(w);
    const Route& route = fleet->route(w);
    const double lb =
        route.empty()
            ? IdleDecisionLowerBound(worker, route, r, L, now, ctx->graph())
            : DecisionLowerBound(worker, route, fleet->CachedState(w, ctx), r,
                                 L, ctx->graph());
    if (lb == kInf) continue;  // provably infeasible for this worker
    bounds.push_back({w, lb});
    min_lb = std::min(min_lb, lb);
  }
  if (bounds.empty()) return kInvalidWorker;
  // Line 5 of Algo. 4: reject when the penalty is cheaper than even the
  // optimistic cost of serving.
  if (r.penalty < config.alpha * min_lb) return kInvalidWorker;

  // Phase 2 — planning: scan in ascending LB order with exact insertion.
  SortByLowerBound(&bounds);

  // An evaluated idle worker is touched first, so its schedule starts at
  // `now`. A busy worker is never touched: the fleet was advanced to `now`
  // before planning, so the only stop a touch could still commit is one an
  // earlier member of the same dispatch window scheduled before `now`, and
  // committing it would change the window's outcome.
  const auto prepare = [&](WorkerId w) -> const RouteState& {
    if (fleet->route(w).empty()) fleet->Touch(w, now);
    return fleet->CachedState(w, ctx);
  };

  // Multi-route gather: when the scan provably evaluates every ordered
  // candidate (no Lemma 8 cutoff), all candidates' origin/destination
  // distance columns are fetched with one multi-source oracle sweep up
  // front. Billed queries and cell values are identical to the lazy
  // per-candidate gathers; pruned scans keep the lazy gather so
  // candidates cut off by Lemma 8 still pay no queries.
  const bool batch_gather = !config.use_pruning;
  thread_local std::vector<DistanceColumns> multi_cols;
  if (batch_gather) {
    thread_local std::vector<const Route*> batch_routes;
    thread_local std::vector<int> batch_cutoffs;
    batch_routes.clear();
    batch_cutoffs.clear();
    for (const WorkerBound& b : bounds) {
      batch_cutoffs.push_back(InsertionCutoff(prepare(b.worker), r));
      batch_routes.push_back(&fleet->route(b.worker));
    }
    GatherDistanceColumnsMulti(batch_routes, batch_cutoffs, r, ctx,
                               &multi_cols);
  }

  WorkerId best_worker = kInvalidWorker;
  InsertionCandidate best;
  for (std::size_t k = 0; k < bounds.size(); ++k) {
    // Lemma 8: every remaining worker's exact cost is at least its LB.
    if (config.use_pruning && best.feasible() &&
        LemmaEightCutoff(best.delta, bounds[k].lower_bound)) {
      break;
    }
    const WorkerId w = bounds[k].worker;
    if (exact_evaluations != nullptr) ++*exact_evaluations;
    // The fleet is frozen between the touch and ApplyInsertion, so on the
    // batch-gather path this hits the state cache warmed above.
    const RouteState& st = prepare(w);
    const InsertionCandidate cand =
        batch_gather ? LinearDpInsertion(fleet->worker(w), fleet->route(w),
                                         st, r, multi_cols[k], ctx)
                     : LinearDpInsertion(fleet->worker(w), fleet->route(w),
                                         st, r, ctx);
    // Strict improvement only: ties on the exact cost go to the earliest
    // worker in the scan order. Together with the epsilon-guarded cutoff
    // above (which never prunes a potential tie, only strictly worse
    // workers), the chosen insertion is the same for any scan that
    // follows this order and evaluates a superset — in particular the
    // unpruned GreedyDP scan picks the same winner as the pruned one.
    if (cand.feasible() && cand.delta < best.delta) {
      best = cand;
      best_worker = w;
    }
  }
  if (best_worker == kInvalidWorker) return kInvalidWorker;
  if (config.exact_reject_check && r.penalty < config.alpha * best.delta) {
    return kInvalidWorker;
  }
  *best_out = best;
  return best_worker;
}

GreedyDpPlanner::GreedyDpPlanner(PlanningContext* ctx, Fleet* fleet,
                                 PlannerConfig config)
    : ctx_(ctx), fleet_(fleet), config_(config) {
  Point lo, hi;
  ctx_->graph().BoundingBox(&lo, &hi);
  index_ = std::make_unique<GridIndex>(lo, hi, config_.grid_cell_km);
  fleet_->AttachIndex(index_.get());
  // Instruments observe wall times and event counts only — never anything
  // planning reads — so results are bit-identical with or without
  // observability.
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

WorkerId GreedyDpPlanner::OnRequest(const Request& r) {
  return PlanAndApply(r, r.release_time);
}

WorkerId GreedyDpPlanner::PlanAndApply(const Request& r, double now) {
  const double L = ctx_->DirectDist(r.id);  // the decision phase's 1 query
  // Line 3 of Algo. 5: candidate filter via grid index and deadline.
  FilterCandidatesInto(ctx_, *index_, r, L, now, &candidates_);
  Proposal p;
  if (!Propose(r, L, now, candidates_, &p, &exact_evaluations_)) {
    return kInvalidWorker;
  }
  fleet_->ApplyInsertion(p.worker, r, p.i, p.j, ctx_->oracle());
  return p.worker;
}

bool GreedyDpPlanner::Propose(const Request& r, double L, double now,
                              const std::vector<WorkerId>& candidates,
                              Proposal* out, std::int64_t* evals) {
  InsertionCandidate best;
  const WorkerId w = PlanRequestSequential(ctx_, fleet_, config_, r, L, now,
                                           candidates, &best, evals);
  if (w == kInvalidWorker) return false;
  *out = {w, best.delta, best.i, best.j, fleet_->route(w).version()};
  return true;
}

void GreedyDpPlanner::OnBatch(const std::vector<RequestId>& batch,
                              double now, WindowEpoch epoch) {
  if (batch.size() <= 1) {
    if (!batch.empty()) PlanAndApply(ctx_->request(batch.front()), now);
    return;
  }
  PlanBatch(batch, now, epoch);
  CommitBatch(now, epoch);
}

void GreedyDpPlanner::PlanBatch(const std::vector<RequestId>& batch,
                                double now, WindowEpoch epoch) {
  const obs::TraceSpan span(
      tracer_, "window.plan",
      {{"epoch", static_cast<std::int64_t>(epoch)},
       {"batch", static_cast<std::int64_t>(batch.size())}});
  obs::Inc(windows_counter_);

  // ---- 1. Prep. Prep elements are reused across windows (no clear() —
  // that would free every inner buffer): every field is overwritten
  // below, keeping capacity warm. The simulator has already advanced the
  // fleet to `now`, so a touch only bumps an idle clock. Every distinct
  // candidate is touched and its route state built here, not just the
  // ones a scan evaluates: that is every fleet write the planning stage
  // would otherwise make, so its tasks only read.
  preps_.resize(batch.size());
  touched_.assign(static_cast<std::size_t>(fleet_->size()), 0);
  for (std::size_t b = 0; b < batch.size(); ++b) {
    Prep& p = preps_[b];
    p.r = &ctx_->request(batch[b]);
    p.L = ctx_->DirectDist(p.r->id);
    p.evals = 0;
    p.planned = false;
    FilterCandidatesInto(ctx_, *index_, *p.r, p.L, now, &p.candidates);
    for (const WorkerId w : p.candidates) {
      auto& flag = touched_[static_cast<std::size_t>(w)];
      if (flag == 0) {
        flag = 1;
        fleet_->Touch(w, now);
        fleet_->CachedState(w, ctx_);
      }
    }
  }

  // ---- 2. Planning: one task per request, the shared scan against the
  // frozen fleet. Requests are mutually independent here, so the winners
  // are schedule-independent; evaluation counts are summed serially
  // afterwards.
  const auto plan = [&](std::int64_t i) {
    Prep& p = preps_[static_cast<std::size_t>(i)];
    if (p.candidates.empty()) return;
    p.planned = Propose(*p.r, p.L, now, p.candidates, &p.proposal, &p.evals);
  };
  const auto n = static_cast<std::int64_t>(preps_.size());
  if (ThreadPool* pool = ctx_->thread_pool(); pool != nullptr) {
    pool->ParallelFor(0, n, plan);
  } else {
    for (std::int64_t i = 0; i < n; ++i) plan(i);
  }
  for (const Prep& p : preps_) exact_evaluations_ += p.evals;
}

void GreedyDpPlanner::CommitBatch(double now, WindowEpoch epoch) {
  // ---- 3. Apply order: unified cost (= alpha * delta), then request id.
  // The exact-reject ablation already ran inside the shared scan
  // (planned = false), so acceptance is just "a proposal exists".
  accepted_.clear();
  for (std::size_t b = 0; b < preps_.size(); ++b) {
    if (preps_[b].planned) accepted_.push_back(b);
  }
  std::sort(accepted_.begin(), accepted_.end(),
            [&](std::size_t a, std::size_t b) {
              const Prep& pa = preps_[a];
              const Prep& pb = preps_[b];
              if (pa.proposal.delta != pb.proposal.delta) {
                return pa.proposal.delta < pb.proposal.delta;
              }
              return pa.r->id < pb.r->id;
            });

  for (const std::size_t b : accepted_) {
    const Prep& prep = preps_[b];
    const Proposal& p = prep.proposal;
    const Request& r = *prep.r;
    const obs::TraceSpan apply_span(
        tracer_, "commit.apply",
        {{"epoch", static_cast<std::int64_t>(epoch)}, {"request", r.id}});
    if (fleet_->route(p.worker).version() == p.route_version) {
      // Still the fleet snapshot the proposal was computed against (for
      // this worker): feasibility and delta hold verbatim.
      fleet_->ApplyInsertion(p.worker, r, p.i, p.j, ctx_->oracle());
      continue;
    }
    // An earlier (cheaper) member took this worker: replan against the
    // updated fleet. The grid index did not move (Insert keeps anchors),
    // so the original candidate list is still the filter's output.
    ++conflict_replans_;
    obs::Inc(conflict_replan_counter_);
    Proposal replanned;
    bool planned = false;
    {
      const obs::ScopedTimerMs replan_timer(conflict_replan_hist_);
      planned = Propose(r, prep.L, now, prep.candidates, &replanned,
                        &exact_evaluations_);
    }
    if (planned) {
      fleet_->ApplyInsertion(replanned.worker, r, replanned.i, replanned.j,
                             ctx_->oracle());
    }
  }
}

}  // namespace urpsm
