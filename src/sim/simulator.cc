#include "src/sim/simulator.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "src/parallel/ingest_queue.h"
#include "src/parallel/parallel_planner.h"
#include "src/util/stats.h"

namespace urpsm {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One planned window handed from the planning stage to the commit stage.
struct CommitJob {
  WindowEpoch epoch = 0;
  int members = 0;           // batch size, for latency/throughput accounting
  double plan_seconds = 0.0; // the window's planning-stage wall time
  bool stop = false;         // sentinel: planning stage is done
};

/// Unbounded FIFO between the planning and commit threads. Depth is
/// bounded by the planner's double buffer: PlanWindow(k+1)'s advance gate
/// cannot fully open before CommitWindow(k) releases every shard, so the
/// planning stage always self-throttles against the commit stage.
class CommitChannel {
 public:
  void Push(const CommitJob& job) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      q_.push_back(job);
    }
    cv_.notify_one();
  }

  CommitJob Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !q_.empty(); });
    const CommitJob job = q_.front();
    q_.pop_front();
    return job;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<CommitJob> q_;
};

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
  if (options.pipeline && options.batch_window_s <= 0.0) {
    warn("pipeline requires batch_window_s > 0; pipeline disabled");
    options.pipeline = false;
  }
  if (options.ingest_capacity == 0) {
    warn("ingest_capacity == 0 clamped to 1 (the queue must hold at least "
         "one arrival)");
    options.ingest_capacity = 1;
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
  if (options.metrics_snapshot_period_s <= 0.0) {
    warn("metrics_snapshot_period_s <= 0 clamped to 1.0");
    options.metrics_snapshot_period_s = 1.0;
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
  for (std::size_t i = 0; i + 1 < requests_->size(); ++i) {
    assert((*requests_)[i].release_time <= (*requests_)[i + 1].release_time);
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
  cached_ = std::make_unique<CachedOracle>(oracle_, options_.cache_capacity);
  pool_ = options_.num_threads > 1
              ? std::make_unique<ThreadPool>(options_.num_threads)
              : nullptr;
  fleet_ = std::make_unique<Fleet>(workers_, graph_);
  registry_ = std::make_unique<obs::Registry>(options_.collect_metrics);
  tracer_ = std::make_unique<obs::TraceRecorder>(options_.trace_path);
  faults_ = options_.faults.enabled
                ? std::make_unique<FaultInjector>(options_.faults)
                : nullptr;
  PlanningContext ctx(graph_, cached_.get(), requests_);
  ctx.set_thread_pool(pool_.get());
  ctx.set_metrics(registry_.get());
  ctx.set_tracer(tracer_.get());
  ctx.set_faults(faults_.get());
  // Components fetch instruments up front; planner construction (below)
  // registers the planner- and shard-side ones through the context.
  cached_->RegisterMetrics(registry_.get());
  cached_->set_faults(faults_.get());
  if (pool_ != nullptr) {
    pool_->RegisterMetrics(registry_.get());
    pool_->set_faults(faults_.get());
  }
  std::unique_ptr<RoutePlanner> planner = factory(&ctx, fleet_.get());
  registry_->StartPeriodicExport(options_.metrics_snapshot_path,
                                 options_.metrics_snapshot_period_s);

  SimReport report;
  report.algorithm = std::string(planner->name());
  report.total_requests = static_cast<int>(requests_->size());
  report.num_threads = options_.num_threads;

  StatsAccumulator& response_ms = report.response_stats;
  const auto t0 = std::chrono::steady_clock::now();
  double planning_seconds = 0.0;

  auto* batcher = dynamic_cast<BatchPlanner*>(planner.get());
  auto* pipelined = dynamic_cast<PipelinedBatchPlanner*>(planner.get());
  if (batcher != nullptr && options_.batch_window_s > 0.0) {
    if (options_.pipeline && pipelined != nullptr) {
      planning_seconds = RunPipelined(pipelined, &report);
    } else {
      planning_seconds = RunWindowed(batcher, &report);
    }
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
    const bool ok = fleet_->DropoffTime(r.id) < kInf;
    served_[idx] = ok;
    if (ok) {
      ++report.served_requests;
      const double pickup = fleet_->PickupTime(r.id);
      const double dropoff = fleet_->DropoffTime(r.id);
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
  report.distance_queries = cached_->query_count();
  report.index_memory_bytes = planner->index_memory_bytes();
  report.wall_seconds = SecondsSince(t0);
  registry_->StopPeriodicExport();
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
  const double window_min = options_.batch_window_s / 60.0;
  const std::size_t n = requests_->size();
  double planning_seconds = 0.0;
  std::size_t next = 0;
  WindowEpoch epoch = 0;
  std::vector<RequestId> batch;
  while (next < n) {
    if (planning_seconds > options_.wall_limit_seconds) {
      report->timed_out = true;
      break;  // remaining requests are rejected (DNF, as in the paper)
    }
    const double window_end = (*requests_)[next].release_time + window_min;
    batch.clear();
    while (next < n && (*requests_)[next].release_time < window_end) {
      batch.push_back((*requests_)[next].id);
      ++next;
    }
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

double Simulation::RunPipelined(PipelinedBatchPlanner* planner,
                                SimReport* report) {
  // Three-stage pipelined event loop. Stage threads and what they own:
  //
  //   ingest (this thread)  — replays the request table into the bounded
  //     arrival queue in release order; keeps accepting arrivals while
  //     later stages work. Owns: the queue's producer side.
  //   plan (spawned)        — assembles dispatch windows from the queue
  //     (identical boundaries to RunWindowed: first buffered release +
  //     window length) and runs PlanWindow, whose per-shard advance gate
  //     overlaps the previous window's commit tail. Owns: window
  //     assembly, plan-side report fields (windows, plan_ms, timed_out).
  //   commit (spawned)      — applies each planned window in epoch order,
  //     releasing shards for the next window as dependents retire. Owns:
  //     commit-side report fields (processed_requests, response samples,
  //     commit_ms).
  //
  // The report fields the stages write are disjoint, and the main thread
  // reads them only after joining both stages.
  const double window_min = options_.batch_window_s / 60.0;
  // This mode advances the fleet per worker (PlanWindow's shard-by-shard
  // advance gate); nothing ever pops the driver-loop arrival heap, so
  // stop feeding it or it grows by every committed stop for the whole run.
  fleet_->DisableArrivalHeap();
  PipelineStats& ps = report->pipeline;
  ps.enabled = true;
  IngestQueue queue(options_.ingest_capacity);
  // --- Admission control / drain configuration (all simulated-time).
  const AdmissionPolicy policy = options_.admission_policy;
  const bool shedding = policy != AdmissionPolicy::kBlock;
  const double slack_floor = options_.admission_slack_min;
  const int admit_budget = shedding ? options_.window_admit_budget : 0;
  // The drain cutoff is a simulated release-time threshold, so the
  // drained (shed) remainder is a pure function of the workload and the
  // options/fault seed — never of wall-clock scheduling. The kDrainTrigger
  // fault site derives its instant from the seed inside the release span.
  double drain_cutoff_min = kInf;
  if (options_.drain_after_s >= 0.0) {
    drain_cutoff_min = options_.drain_after_s / 60.0;
  }
  if (faults_ != nullptr && faults_->armed(FaultSite::kDrainTrigger) &&
      !requests_->empty()) {
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
  // Declared after `queue` so the guard freezes the queue's pull-model
  // gauges (into the surviving registry) before the queue is destroyed.
  obs::CallbackGuard queue_gauges(registry_.get());
  queue.RegisterMetrics(registry_.get(), &queue_gauges);
  std::atomic<bool> plan_busy{false};
  std::atomic<bool> commit_busy{false};
  std::atomic<bool> aborted{false};
  CommitChannel commits;
  // The kill switch and the returned planning time bill the pipeline
  // against ONE elapsed clock: the stages overlap in real time (and
  // PlanWindow's advance gate already blocks on the previous commit), so
  // summing per-stage times would double-count the overlap and trip the
  // wall limit far before the paper's "cumulative planning wall time"
  // semantics intend. ps.plan_ms / ps.commit_ms keep the per-stage
  // totals, documented as overlapping.
  const auto engine_t0 = std::chrono::steady_clock::now();

  std::thread committer([&] {
    for (;;) {
      const CommitJob job = commits.Pop();
      if (job.stop) return;
      commit_busy.store(true, std::memory_order_relaxed);
      const auto c0 = std::chrono::steady_clock::now();
      {
        obs::TraceSpan span(
            tracer_.get(), "commit",
            {{"epoch", static_cast<std::int64_t>(job.epoch)},
             {"members", job.members}});
        planner->CommitWindow(job.epoch);
      }
      const double secs = SecondsSince(c0);
      commit_busy.store(false, std::memory_order_relaxed);
      ps.commit_ms += secs * 1e3;
      ps.commit_window_ms.Add(secs * 1e3);
      // A member's response latency is its window's plan + commit time —
      // dispatch-boundary to fleet-visible assignment.
      report->processed_requests += job.members;
      for (int b = 0; b < job.members; ++b) {
        report->response_stats.Add((job.plan_seconds + secs) * 1e3);
      }
    }
  });

  std::atomic<std::int64_t> shed_budget{0};  // plan-thread window-budget sheds
  std::thread plan_thread([&] {
    const auto queued_ms = [](const Arrival& a) {
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - a.enqueued_at)
          .count();
    };
    std::vector<RequestId> batch;
    std::vector<double> slacks;  // parallel to batch (budget victim pick)
    Arrival pending;
    // Queue wait is sampled at Pop time: the arrival that closes window k
    // parks in `pending` across PlanWindow(k), and charging it at the top
    // of window k+1 would bill the whole planning stage as ingest wait.
    double pending_wait_ms = 0.0;
    bool has_pending = false;
    WindowEpoch epoch = 0;
    for (;;) {
      if (!has_pending) {
        if (!queue.Pop(&pending)) break;  // stream closed and drained
        pending_wait_ms = queued_ms(pending);
        has_pending = true;
      }
      if (SecondsSince(engine_t0) > options_.wall_limit_seconds) {
        // Kill switch: stop planning, wake the (possibly blocked)
        // producer, and let the commit stage drain what was planned.
        // Un-planned arrivals stay rejected (DNF, as in the paper).
        report->timed_out = true;
        aborted.store(true, std::memory_order_relaxed);
        queue.Cancel();
        break;
      }
      const double window_end = pending.release_time + window_min;
      batch.clear();
      slacks.clear();
      batch.push_back(pending.id);
      slacks.push_back(pending.slack_min);
      ps.ingest_wait_ms += pending_wait_ms;
      ps.ingest_wait_per_arrival_ms.Add(pending_wait_ms);
      has_pending = false;
      // A window closes when an arrival beyond it shows up or the stream
      // ends — streaming form of RunWindowed's release-order scan, so the
      // window decomposition is identical.
      Arrival a;
      while (queue.Pop(&a)) {
        if (a.release_time < window_end) {
          batch.push_back(a.id);
          slacks.push_back(a.slack_min);
          const double wait_ms = queued_ms(a);
          ps.ingest_wait_ms += wait_ms;
          ps.ingest_wait_per_arrival_ms.Add(wait_ms);
        } else {
          pending = a;
          pending_wait_ms = queued_ms(a);
          has_pending = true;
          break;
        }
      }
      // Per-window admit budget: shed the excess before planning. Window
      // membership is deterministic (release order + window length), so
      // the shed set is too. kShedOldestSlack drops the least-slack
      // members (ties: lowest id); kRejectAtIngress keeps the earliest
      // `admit_budget` releases. A budget >= 1 always keeps the window
      // non-empty, so epochs stay contiguous.
      if (admit_budget > 0 &&
          batch.size() > static_cast<std::size_t>(admit_budget)) {
        const auto excess =
            static_cast<std::int64_t>(batch.size()) - admit_budget;
        if (policy == AdmissionPolicy::kShedOldestSlack) {
          std::vector<std::size_t> order(batch.size());
          for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
          std::sort(order.begin(), order.end(),
                    [&](std::size_t x, std::size_t y) {
                      if (slacks[x] != slacks[y]) return slacks[x] < slacks[y];
                      return batch[x] < batch[y];
                    });
          std::vector<bool> drop(batch.size(), false);
          for (std::int64_t k = 0; k < excess; ++k) {
            drop[order[static_cast<std::size_t>(k)]] = true;
          }
          std::vector<RequestId> kept;
          kept.reserve(static_cast<std::size_t>(admit_budget));
          for (std::size_t i = 0; i < batch.size(); ++i) {
            if (drop[i]) {
              tracer_->Instant("shed.overload", {{"request", batch[i]}});
            } else {
              kept.push_back(batch[i]);
            }
          }
          batch.swap(kept);
        } else {  // kRejectAtIngress: latest releases over budget go
          for (std::size_t i = static_cast<std::size_t>(admit_budget);
               i < batch.size(); ++i) {
            tracer_->Instant("shed.overload", {{"request", batch[i]}});
          }
          batch.resize(static_cast<std::size_t>(admit_budget));
        }
        shed_budget.fetch_add(excess, std::memory_order_relaxed);
        obs::Inc(c_shed_overload, excess);
      }
      ++epoch;
      plan_busy.store(true, std::memory_order_relaxed);
      const auto p0 = std::chrono::steady_clock::now();
      {
        obs::TraceSpan span(
            tracer_.get(), "plan",
            {{"epoch", static_cast<std::int64_t>(epoch)},
             {"batch", static_cast<std::int64_t>(batch.size())}});
        planner->PlanWindow(batch, window_end, epoch);
      }
      const double secs = SecondsSince(p0);
      plan_busy.store(false, std::memory_order_relaxed);
      ps.plan_ms += secs * 1e3;
      ps.plan_window_ms.Add(secs * 1e3);
      ++ps.windows;
      commits.Push({epoch, static_cast<int>(batch.size()), secs, false});
    }
    commits.Push({0, 0, 0.0, true});
  });

  // Ingest stage: replay the request table into the queue. Under kBlock a
  // full queue blocks the producer (backpressure) and nothing is ever
  // shed. Under a shedding policy the two deterministic levers act here
  // (slack floor) and at window assembly (admit budget); TryPush adds the
  // queue-full safety valve without blocking. The drain cutoff ends
  // admission mid-table: the remainder is shed (reason: drain) while the
  // admitted prefix flushes through the normal Close() path — every
  // in-flight window slot plans and commits, unlike the kill switch's
  // Cancel(). Shed counts and the admission-latency digest accumulate in
  // locals and publish after the joins (ps/report fields stay
  // single-writer per stage thread).
  std::int64_t overlapped = 0;
  std::int64_t shed_deadline = 0;
  std::int64_t shed_overload_ingress = 0;
  std::int64_t shed_drain = 0;
  bool drained = false;
  StatsAccumulator admission_latency;
  {
    obs::TraceSpan span(tracer_.get(), "ingest.replay");
    const std::int64_t n = static_cast<std::int64_t>(requests_->size());
    for (std::int64_t i = 0; i < n; ++i) {
      const Request& r = (*requests_)[static_cast<std::size_t>(i)];
      if (aborted.load(std::memory_order_relaxed)) break;
      // Timing-only fault sites: kIngestStall is a frequent short pause,
      // kIngestBurst a rare long one — the arrivals queued up behind a
      // long pause land on the planner as a burst when the producer
      // resumes. Neither changes which arrivals are offered.
      MaybeInject(faults_.get(), FaultSite::kIngestStall);
      MaybeInject(faults_.get(), FaultSite::kIngestBurst);
      if (r.release_time >= drain_cutoff_min) {
        const std::int64_t rest = n - i;
        shed_drain += rest;
        drained = true;
        obs::Inc(c_shed_drain, rest);
        tracer_->Instant(
            "drain.trigger",
            {{"cutoff_min",
              static_cast<std::int64_t>(std::llround(drain_cutoff_min))},
             {"shed", rest}});
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
          ++shed_deadline;
          obs::Inc(c_shed_deadline);
          tracer_->Instant("shed.deadline", {{"request", r.id}});
          continue;
        }
      }
      const auto t0 = std::chrono::steady_clock::now();
      const IngestQueue::PushOutcome outcome =
          queue.TryPush({r.id, r.release_time, slack, t0}, policy);
      admission_latency.Add(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
      if (outcome == IngestQueue::PushOutcome::kCancelled) {
        break;  // cancelled by the kill switch
      }
      if (outcome == IngestQueue::PushOutcome::kRejected) {
        ++shed_overload_ingress;
        obs::Inc(c_shed_overload);
        tracer_->Instant("shed.overload", {{"request", r.id}});
        continue;
      }
      obs::Inc(c_admitted);
      if (plan_busy.load(std::memory_order_relaxed) ||
          commit_busy.load(std::memory_order_relaxed)) {
        ++overlapped;
      }
    }
  }
  queue.Close();
  plan_thread.join();
  committer.join();

  ps.ingested = queue.total_pushed();
  ps.overlapped_arrivals = overlapped;
  ps.occupancy =
      ps.ingested > 0
          ? static_cast<double>(overlapped) / static_cast<double>(ps.ingested)
          : 0.0;
  ps.max_queue_depth = static_cast<std::int64_t>(queue.max_depth());
  ps.backpressure_waits = queue.backpressure_waits();
  // Queue-full evictions (kShedOldestSlack safety valve) are only known
  // to the queue; fold them into the overload bucket here. The evicted
  // arrivals were already counted by total_pushed, so ingested covers
  // them and dnf = total - processed - shed stays exact.
  if (queue.evicted() > 0) {
    obs::Inc(c_shed_overload, queue.evicted());
    tracer_->Instant("shed.overload.evicted", {{"count", queue.evicted()}});
  }
  ps.admission_latency_ms.Merge(admission_latency);
  ps.drained = drained;
  if (drain_cutoff_min < kInf) ps.drain_cutoff_min = drain_cutoff_min;
  report->shed_deadline = shed_deadline;
  report->shed_overload = shed_overload_ingress + queue.evicted() +
                          shed_budget.load(std::memory_order_relaxed);
  report->shed_drain = shed_drain;
  // Elapsed engine time, measured after both stages drained — each real
  // second of pipelined planning is billed exactly once.
  return SecondsSince(engine_t0);
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

PlannerFactory MakeParallelGreedyDpFactory(PlannerConfig config) {
  return [config](PlanningContext* ctx, Fleet* fleet) {
    return std::make_unique<ParallelGreedyDpPlanner>(ctx, fleet, config,
                                                     ctx->thread_pool());
  };
}

}  // namespace urpsm
