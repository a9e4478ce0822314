#include "src/core/planner.h"

#include <algorithm>

#include "src/core/decision.h"
#include "src/insertion/insertion.h"

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

std::vector<WorkerId> FilterCandidates(PlanningContext* ctx,
                                       const GridIndex& index,
                                       const Request& r, double L,
                                       double now) {
  std::vector<WorkerId> out;
  FilterCandidatesInto(ctx, index, r, L, now, &out);
  return out;
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
}

WorkerId GreedyDpPlanner::OnRequest(const Request& r) {
  const double now = r.release_time;
  const double L = ctx_->DirectDist(r.id);  // the decision phase's 1 query
  // Line 3 of Algo. 5: candidate filter via grid index and deadline.
  const std::vector<WorkerId> candidates =
      FilterCandidates(ctx_, *index_, r, L, now);
  if (candidates.empty()) return kInvalidWorker;

  InsertionCandidate best;
  const WorkerId best_worker =
      PlanRequestSequential(ctx_, fleet_, config_, r, L, now, candidates,
                            &best, &exact_evaluations_);
  if (best_worker == kInvalidWorker) return kInvalidWorker;
  fleet_->ApplyInsertion(best_worker, r, best.i, best.j, ctx_->oracle());
  return best_worker;
}

}  // namespace urpsm
