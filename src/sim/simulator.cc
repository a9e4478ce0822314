#include "src/sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "src/util/stats.h"

namespace urpsm {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Trims an assembled window to `budget` members in the policy's victim
/// order — least slack first (ties: lowest id) under kShedOldestSlack,
/// latest releases under kRejectAtIngress — keeping the survivors in
/// release order. Traces each shed member; returns how many were shed.
std::int64_t ShedOverBudget(AdmissionPolicy policy, std::size_t budget,
                            const std::vector<double>& slacks,
                            std::vector<RequestId>* batch,
                            obs::TraceRecorder* tracer) {
  std::vector<RequestId>& b = *batch;
  if (budget == 0 || b.size() <= budget) return 0;
  const std::size_t excess = b.size() - budget;
  std::vector<bool> drop(b.size(), false);
  if (policy == AdmissionPolicy::kShedOldestSlack) {
    std::vector<std::size_t> order(b.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      if (slacks[x] != slacks[y]) return slacks[x] < slacks[y];
      return b[x] < b[y];
    });
    for (std::size_t k = 0; k < excess; ++k) drop[order[k]] = true;
  } else {
    for (std::size_t i = budget; i < b.size(); ++i) drop[i] = true;
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (drop[i]) {
      tracer->Instant("shed.overload", {{"request", b[i]}});
    } else {
      b[kept++] = b[i];
    }
  }
  b.resize(kept);
  return static_cast<std::int64_t>(excess);
}

}  // namespace

SimOptions ValidateSimOptions(SimOptions options,
                              std::vector<std::string>* warnings) {
  const auto warn = [&](const std::string& msg) {
    std::fprintf(stderr, "SimOptions: %s\n", msg.c_str());
    if (warnings != nullptr) warnings->push_back(msg);
  };
  if (options.batch_window_s < 0.0) {
    warn("negative batch_window_s clamped to 0 (per-request loop)");
    options.batch_window_s = 0.0;
  }
  if (options.wall_limit_seconds < 0.0) {
    warn("negative wall_limit_seconds clamped to 0 (immediate kill switch)");
    options.wall_limit_seconds = 0.0;
  }
  if (options.num_threads < 1) {
    warn("num_threads < 1 clamped to 1 (sequential)");
    options.num_threads = 1;
  }
  if (options.admission_slack_min < 0.0) {
    warn("negative admission_slack_min clamped to 0 (filter off)");
    options.admission_slack_min = 0.0;
  }
  if (options.window_admit_budget < 0) {
    warn("negative window_admit_budget clamped to 0 (unlimited)");
    options.window_admit_budget = 0;
  }
  if (options.drain_after_s < 0.0 && options.drain_after_s != -1.0) {
    // Any negative value means "never"; normalize to the documented
    // sentinel so reports compare cleanly.
    options.drain_after_s = -1.0;
  }
  for (int i = 0; i < kNumFaultSites; ++i) {
    FaultConfig& c = options.faults.site[i];
    if (c.rate < 0.0 || c.rate > 1.0) {
      warn(std::string("fault rate for ") +
           FaultSiteName(static_cast<FaultSite>(i)) +
           " clamped into [0, 1]");
      c.rate = std::min(1.0, std::max(0.0, c.rate));
    }
    if (c.delay_us < 0.0) {
      warn(std::string("negative fault delay for ") +
           FaultSiteName(static_cast<FaultSite>(i)) + " clamped to 0");
      c.delay_us = 0.0;
    }
  }
  return options;
}

Simulation::Simulation(const RoadNetwork* graph, DistanceOracle* oracle,
                       std::vector<Worker> workers,
                       const std::vector<Request>* requests,
                       SimOptions options)
    : graph_(graph),
      oracle_(oracle),
      workers_(std::move(workers)),
      requests_(requests),
      options_(ValidateSimOptions(std::move(options))) {
  // Both event loops consume the table in order, and LoadInstance does
  // not sort it: an out-of-order request would be planned against a fleet
  // already advanced past its release. Validated unconditionally, like
  // the ids below.
  for (std::size_t i = 0; i + 1 < requests_->size(); ++i) {
    if (!((*requests_)[i].release_time <= (*requests_)[i + 1].release_time)) {
      std::fprintf(stderr,
                   "Simulation: request %d released before request %d\n",
                   (*requests_)[i + 1].id, (*requests_)[i].id);
      std::abort();
    }
  }
  // Ids must be unique and valid; they are resolved through an id->index
  // map downstream, so they need not be dense. Validated unconditionally
  // (release builds too): before this check a non-dense id silently
  // indexed out of bounds, and a duplicate id would silently alias two
  // requests in every id-keyed map — both are unrecoverable input bugs,
  // so fail loudly instead of producing corrupt reports.
  std::unordered_set<RequestId> ids;
  ids.reserve(requests_->size());
  for (const Request& r : *requests_) {
    if (r.id < 0 || !ids.insert(r.id).second) {
      std::fprintf(stderr,
                   "Simulation: invalid or duplicate request id %d\n", r.id);
      std::abort();
    }
  }
}

bool Simulation::request_served(RequestId id) const {
  // served_ is empty before the first Run(); any id reads as not served.
  // Linear scan: this is a post-run inspection helper, not a hot path.
  const std::size_t n = std::min(served_.size(), requests_->size());
  for (std::size_t i = 0; i < n; ++i) {
    if ((*requests_)[i].id == id) return served_[i];
  }
  return false;
}

SimReport Simulation::Run(const PlannerFactory& factory) {
  billing_ = std::make_unique<BillingOracle>(oracle_);
  pool_ = options_.num_threads > 1
              ? std::make_unique<ThreadPool>(options_.num_threads)
              : nullptr;
  fleet_ = std::make_unique<Fleet>(workers_, graph_);
  registry_ = std::make_unique<obs::Registry>(options_.collect_metrics);
  tracer_ = std::make_unique<obs::TraceRecorder>(options_.trace_path);
  faults_ = options_.faults.enabled
                ? std::make_unique<FaultInjector>(options_.faults)
                : nullptr;
  PlanningContext ctx(graph_, billing_.get(), requests_);
  ctx.set_thread_pool(pool_.get());
  ctx.set_metrics(registry_.get());
  ctx.set_tracer(tracer_.get());
  // Components fetch instruments up front; planner construction (below)
  // registers the planner-side ones through the context.
  billing_->RegisterMetrics(registry_.get());
  billing_->set_faults(faults_.get());
  if (pool_ != nullptr) {
    pool_->RegisterMetrics(registry_.get());
    pool_->set_faults(faults_.get());
  }
  std::unique_ptr<RoutePlanner> planner = factory(&ctx, fleet_.get());

  SimReport report;
  report.algorithm = std::string(planner->name());
  report.total_requests = static_cast<int>(requests_->size());
  report.num_threads = options_.num_threads;

  StatsAccumulator& response_ms = report.response_stats;
  const auto t0 = std::chrono::steady_clock::now();
  double planning_seconds = 0.0;

  auto* batcher = dynamic_cast<BatchPlanner*>(planner.get());
  if (batcher != nullptr && options_.batch_window_s > 0.0) {
    planning_seconds = RunWindowed(batcher, &report);
  } else {
    planning_seconds = RunPerRequest(planner.get(), &report);
  }
  {
    // Finalize gets only the wall-time budget that is actually left: a
    // timed-out run passes 0 and a batch-style planner must not start
    // unbounded flush work on top of an already-exceeded limit. (Its
    // time used to be added unbounded after the loop had broken.)
    const double budget =
        std::max(0.0, options_.wall_limit_seconds - planning_seconds);
    const auto fin_t0 = std::chrono::steady_clock::now();
    planner->Finalize(budget);
    planning_seconds += SecondsSince(fin_t0);
    if (planning_seconds > options_.wall_limit_seconds) {
      report.timed_out = true;
    }
  }
  fleet_->FinishAll();

  served_.assign(requests_->size(), false);
  double wait_sum = 0.0, detour_sum = 0.0;
  for (std::size_t idx = 0; idx < requests_->size(); ++idx) {
    const Request& r = (*requests_)[idx];
    const double dropoff = fleet_->DropoffTime(r.id);
    const bool ok = dropoff < kInf;
    served_[idx] = ok;
    if (ok) {
      ++report.served_requests;
      const double pickup = fleet_->PickupTime(r.id);
      wait_sum += std::max(0.0, pickup - r.release_time);
      const double direct = ctx.DirectDist(r.id);
      if (direct > 1e-9) detour_sum += (dropoff - pickup) / direct;
      report.makespan_min = std::max(report.makespan_min, dropoff);
    } else {
      report.penalty_sum += r.penalty;
    }
  }
  if (report.served_requests > 0) {
    report.mean_pickup_wait_min = wait_sum / report.served_requests;
    report.mean_detour_ratio = detour_sum / report.served_requests;
  }
  report.served_rate =
      report.total_requests == 0
          ? 0.0
          : static_cast<double>(report.served_requests) / report.total_requests;
  // Overload-accounting partition. The loops above fill processed and the
  // shed buckets; the derived buckets close the partition exactly:
  // requests the planner saw but did not serve are rejections, and
  // requests that were neither planned nor shed (wall-limit cutoff) are
  // DNFs. CheckAccounting() re-verifies the identity on every report.
  report.shed_requests = static_cast<int>(
      report.shed_deadline + report.shed_overload + report.shed_drain);
  report.rejected_requests =
      report.processed_requests - report.served_requests;
  report.dnf_requests = report.total_requests - report.processed_requests -
                        report.shed_requests;
  report.total_distance = fleet_->committed_distance();
  report.unified_cost =
      options_.alpha * report.total_distance + report.penalty_sum;
  report.avg_response_ms = response_ms.mean();
  report.p50_response_ms = response_ms.Percentile(50);
  report.p95_response_ms = response_ms.Percentile(95);
  report.p99_response_ms = response_ms.Percentile(99);
  report.max_response_ms = response_ms.max();
  // The report keeps the samples for pooling, not for more Adds.
  response_ms.Compact();
  report.distance_queries = billing_->query_count();
  report.index_memory_bytes = planner->index_memory_bytes();
  report.wall_seconds = SecondsSince(t0);
  report.trace_enabled = tracer_->enabled();
  report.metrics = registry_->Snapshot();  // planner callbacks still live
  // The planner dies with this scope while registry_ survives as a
  // member: freeze its callbacks so a later Snapshot stays safe.
  registry_->FreezeAllCallbacks();
  tracer_->Flush();
  return report;
}

double Simulation::RunPerRequest(RoutePlanner* planner, SimReport* report) {
  double planning_seconds = 0.0;
  for (const Request& r : *requests_) {
    if (planning_seconds > options_.wall_limit_seconds) {
      report->timed_out = true;
      break;  // remaining requests are rejected (DNF, as in the paper)
    }
    fleet_->AdvanceTo(r.release_time);
    const auto req_t0 = std::chrono::steady_clock::now();
    {
      obs::TraceSpan span(tracer_.get(), "request.plan", {{"request", r.id}});
      planner->OnRequest(r);
    }
    const double secs = SecondsSince(req_t0);
    planning_seconds += secs;
    ++report->processed_requests;
    report->response_stats.Add(secs * 1e3);
  }
  return planning_seconds;
}

double Simulation::RunWindowed(BatchPlanner* batcher, SimReport* report) {
  // Lock-step windowed event loop: buffer all requests released within
  // one dispatch window, advance the fleet to the window close, and plan
  // the batch in a single OnBatch call. Each member's recorded response
  // latency is its window's planning latency — what a requester
  // experiences at the dispatch boundary.
  //
  // Window assembly applies the overload levers. Each is a pure function
  // of simulated time and the request table, so the shed sets do not
  // depend on the thread count: the slack floor sheds a request before
  // it can open or join a window, the admit budget trims an assembled
  // window, and the first release at or past the drain cutoff sheds the
  // rest of the table while the window being assembled still plans.
  const double window_min = options_.batch_window_s / 60.0;
  const std::size_t n = requests_->size();
  const AdmissionPolicy policy = options_.admission_policy;
  const bool shedding = policy != AdmissionPolicy::kBlock;
  const double slack_floor = shedding ? options_.admission_slack_min : 0.0;
  const std::size_t admit_budget =
      shedding ? static_cast<std::size_t>(options_.window_admit_budget) : 0;
  // The kDrainTrigger fault site derives its cutoff from the seed inside
  // the release span, so the drained remainder stays a pure function of
  // the workload and the options or fault seed.
  double drain_cutoff_min =
      options_.drain_after_s >= 0.0 ? options_.drain_after_s / 60.0 : kInf;
  if (faults_ != nullptr && faults_->armed(FaultSite::kDrainTrigger) &&
      n > 0) {
    const double lo = requests_->front().release_time;
    const double hi = requests_->back().release_time;
    const double frac =
        0.25 + 0.5 * faults_->StableFraction(FaultSite::kDrainTrigger);
    drain_cutoff_min = std::min(drain_cutoff_min, lo + frac * (hi - lo));
  }
  // Shed/drain decisions are observable: one counter per reason, plus a
  // trace instant per decision (instants leave B/E span balance intact).
  obs::Counter* c_shed_deadline =
      registry_->GetCounter("admission.shed_deadline");
  obs::Counter* c_shed_overload =
      registry_->GetCounter("admission.shed_overload");
  obs::Counter* c_shed_drain = registry_->GetCounter("admission.shed_drain");
  obs::Counter* c_admitted = registry_->GetCounter("admission.admitted");

  double planning_seconds = 0.0;
  std::size_t next = 0;
  WindowEpoch epoch = 0;
  std::vector<RequestId> batch;
  std::vector<double> slacks;  // parallel to batch (budget victim order)
  while (next < n) {
    if (planning_seconds > options_.wall_limit_seconds) {
      report->timed_out = true;
      break;  // remaining requests are rejected (DNF, as in the paper)
    }
    // The first admitted request opens the window and is always taken,
    // however short the window is; later ones join while released before
    // its close.
    batch.clear();
    slacks.clear();
    double window_end = kInf;
    for (; next < n; ++next) {
      const Request& r = (*requests_)[next];
      if (!batch.empty() && r.release_time >= window_end) break;
      if (r.release_time >= drain_cutoff_min) {
        const auto rest = static_cast<std::int64_t>(n - next);
        report->drain_cutoff_min = drain_cutoff_min;
        report->shed_drain += rest;
        obs::Inc(c_shed_drain, rest);
        tracer_->Instant(
            "drain.trigger",
            {{"cutoff_min",
              static_cast<std::int64_t>(std::llround(drain_cutoff_min))},
             {"shed", rest}});
        next = n;
        break;
      }
      double slack = kInf;
      if (shedding) {
        // Oracle-free lower bound: even an adjacent idle worker needs at
        // least the Euclidean travel time, so a slack below the floor can
        // never be served — shedding it is correct degradation. Using the
        // Euclidean bound (not the oracle) keeps query counts untouched.
        slack = r.deadline - r.release_time -
                graph_->EuclideanLowerBoundMin(r.origin, r.destination);
        if (slack_floor > 0.0 && slack < slack_floor) {
          ++report->shed_deadline;
          obs::Inc(c_shed_deadline);
          tracer_->Instant("shed.deadline", {{"request", r.id}});
          continue;
        }
      }
      if (batch.empty()) window_end = r.release_time + window_min;
      batch.push_back(r.id);
      slacks.push_back(slack);
      obs::Inc(c_admitted);
    }
    if (batch.empty()) break;  // the rest of the table was shed
    const std::int64_t over =
        ShedOverBudget(policy, admit_budget, slacks, &batch, tracer_.get());
    report->shed_overload += over;
    obs::Inc(c_shed_overload, over);

    fleet_->AdvanceTo(window_end);
    ++epoch;
    const auto win_t0 = std::chrono::steady_clock::now();
    {
      obs::TraceSpan span(
          tracer_.get(), "window",
          {{"epoch", static_cast<std::int64_t>(epoch)},
           {"batch", static_cast<std::int64_t>(batch.size())}});
      batcher->OnBatch(batch, window_end, epoch);
    }
    const double secs = SecondsSince(win_t0);
    planning_seconds += secs;
    report->processed_requests += static_cast<int>(batch.size());
    for (std::size_t b = 0; b < batch.size(); ++b) {
      report->response_stats.Add(secs * 1e3);
    }
  }
  return planning_seconds;
}

PlannerFactory MakePruneGreedyDpFactory(PlannerConfig config) {
  config.use_pruning = true;
  return [config](PlanningContext* ctx, Fleet* fleet) {
    return std::make_unique<GreedyDpPlanner>(ctx, fleet, config);
  };
}

PlannerFactory MakeGreedyDpFactory(PlannerConfig config) {
  config.use_pruning = false;
  return [config](PlanningContext* ctx, Fleet* fleet) {
    return std::make_unique<GreedyDpPlanner>(ctx, fleet, config);
  };
}

}  // namespace urpsm
