// Tests for the batched dispatch-window engine and the lock-step windowed
// event loop: window = 0 bit-identity with sequential pruneGreedyDP at
// every thread count, thread-count determinism of real windows,
// per-window invariant checks on accept- and rejection-heavy workloads, a
// contention fuzz of the read-only planning stage (threads evaluating
// shared workers with no lock, then the ordered apply), random-workload
// and commit-conflict fuzzes of the full loop, the overload levers (slack
// floor, window budget, drain), the kill switch and sub-ulp windows. The
// suites run under tsan by the tsan preset.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/shortest/hub_labels.h"
#include "src/sim/dispatch_window.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/workload/city.h"
#include "src/workload/requests.h"
#include "tests/test_util.h"

namespace urpsm {
namespace {

// ----------------------------------------------- window=0 bit-identity

struct WorkloadRun {
  SimReport report;
  std::vector<bool> served;
};

WorkloadRun RunOnce(const RoadNetwork& graph, DistanceOracle* oracle,
                    const std::vector<Worker>& workers,
                    const std::vector<Request>& requests,
                    const PlannerFactory& factory, int num_threads,
                    double batch_window_s = 0.0) {
  SimOptions options;
  options.num_threads = num_threads;
  options.batch_window_s = batch_window_s;
  Simulation sim(&graph, oracle, workers, &requests, options);
  WorkloadRun run;
  run.report = sim.Run(factory);
  run.served = sim.served();
  return run;
}

// Bit-identical on every deterministic field (wall-clock response-time
// stats are inherently run-dependent and excluded).
void ExpectIdentical(const WorkloadRun& a, const WorkloadRun& b,
                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.report.served_requests, b.report.served_requests);
  EXPECT_EQ(a.report.unified_cost, b.report.unified_cost);
  EXPECT_EQ(a.report.total_distance, b.report.total_distance);
  EXPECT_EQ(a.report.penalty_sum, b.report.penalty_sum);
  EXPECT_EQ(a.report.mean_pickup_wait_min, b.report.mean_pickup_wait_min);
  EXPECT_EQ(a.report.mean_detour_ratio, b.report.mean_detour_ratio);
  EXPECT_EQ(a.report.makespan_min, b.report.makespan_min);
  EXPECT_EQ(a.served, b.served);
}

class DispatchWindowDeterminismTest : public ::testing::TestWithParam<double> {
};

TEST_P(DispatchWindowDeterminismTest, WindowZeroBitIdenticalToSequential) {
  const double penalty_factor = GetParam();
  const RoadNetwork graph = MakeChengduLike(0.05, 2);
  HubLabelOracle labels = HubLabelOracle::Build(graph);

  Rng rng(17);
  RequestParams rp;
  rp.count = 260;
  rp.duration_min = 240.0;
  rp.penalty_factor = penalty_factor;
  rp.seed = 23;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &labels, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 14, 4.0, &rng);

  const PlannerConfig config;  // pruning on
  const WorkloadRun sequential = RunOnce(graph, &labels, workers, requests,
                                         MakePruneGreedyDpFactory(config), 1);
  ASSERT_GT(sequential.report.served_requests, 0);
  if (penalty_factor < 5.0) {
    ASSERT_LT(sequential.report.served_requests,
              sequential.report.total_requests);
  }

  // The acceptance bar: batch_window_s = 0 reproduces the sequential
  // pruneGreedyDP run exactly, for every thread count.
  for (int threads : {1, 2, 4, 8}) {
    const WorkloadRun windowed =
        RunOnce(graph, &labels, workers, requests,
                MakeDispatchWindowFactory(config), threads,
                /*batch_window_s=*/0.0);
    ExpectIdentical(sequential, windowed,
                    "window=0 threads=" + std::to_string(threads));
  }
}

TEST_P(DispatchWindowDeterminismTest, RealWindowsThreadCountIndependent) {
  const double penalty_factor = GetParam();
  const RoadNetwork graph = MakeChengduLike(0.05, 2);
  HubLabelOracle labels = HubLabelOracle::Build(graph);

  Rng rng(19);
  RequestParams rp;
  rp.count = 220;
  rp.duration_min = 200.0;
  rp.penalty_factor = penalty_factor;
  rp.seed = 29;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &labels, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 12, 4.0, &rng);

  const PlannerConfig config;
  for (double window_s : {2.0, 15.0}) {
    const WorkloadRun base =
        RunOnce(graph, &labels, workers, requests,
                MakeDispatchWindowFactory(config), 1, window_s);
    ASSERT_GT(base.report.served_requests, 0);
    for (int threads : {2, 4, 8}) {
      const WorkloadRun run =
          RunOnce(graph, &labels, workers, requests,
                  MakeDispatchWindowFactory(config), threads, window_s);
      ExpectIdentical(base, run, "window=" + std::to_string(window_s) +
                                     " threads=" + std::to_string(threads));
      // The task decomposition is structural, so even the distance-query
      // count must not depend on the pool size.
      EXPECT_EQ(base.report.distance_queries, run.report.distance_queries);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, DispatchWindowDeterminismTest,
                         ::testing::Values(10.0,   // default penalties
                                           1.7,    // rejection-heavy
                                           30.0),  // accept-heavy
                         [](const ::testing::TestParamInfo<double>& info) {
                           if (info.param < 5.0) return "RejectionHeavy";
                           return info.param > 20.0 ? "AcceptHeavy"
                                                    : "DefaultPenalties";
                         });

// -------------------------------------------- per-window invariants

// Drives the engine window by window by hand and verifies the fleet
// invariants after every OnBatch — the mid-run mode tolerates passengers
// still on board and assignments whose drop-off is pending.
void CheckInvariantsAfterEveryWindow(double penalty_factor) {
  const RoadNetwork graph = MakeChengduLike(0.05, 4);
  HubLabelOracle labels = HubLabelOracle::Build(graph);
  Rng rng(31);
  RequestParams rp;
  rp.count = 180;
  rp.duration_min = 180.0;
  rp.penalty_factor = penalty_factor;
  rp.seed = 37;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &labels, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 10, 4.0, &rng);

  ThreadPool pool(4);
  Fleet fleet(workers, &graph);
  PlanningContext ctx(&graph, &labels, &requests);
  ctx.set_thread_pool(&pool);
  DispatchWindowPlanner planner(&ctx, &fleet, PlannerConfig{}, &pool);

  const double window_min = 6.0 / 60.0;
  std::size_t next = 0;
  int windows = 0;
  while (next < requests.size()) {
    const double window_end = requests[next].release_time + window_min;
    std::vector<RequestId> batch;
    while (next < requests.size() &&
           requests[next].release_time < window_end) {
      batch.push_back(requests[next].id);
      ++next;
    }
    fleet.AdvanceTo(window_end);
    planner.OnBatch(batch, window_end,
                    static_cast<WindowEpoch>(windows + 1));
    ++windows;
    const InvariantReport inv =
        VerifyInvariants(fleet, requests, /*mid_run=*/true);
    ASSERT_TRUE(inv.ok) << "after window " << windows << ": "
                        << inv.violation;
  }
  fleet.FinishAll();
  const InvariantReport final_inv = VerifyInvariants(fleet, requests);
  EXPECT_TRUE(final_inv.ok) << final_inv.violation;
  EXPECT_GT(windows, 10);  // the workload actually spans many windows
}

TEST(DispatchWindowInvariantsTest, AcceptHeavyEveryWindowClean) {
  CheckInvariantsAfterEveryWindow(/*penalty_factor=*/30.0);
}

TEST(DispatchWindowInvariantsTest, RejectionHeavyEveryWindowClean) {
  CheckInvariantsAfterEveryWindow(/*penalty_factor=*/1.7);
}

// --------------------------------------------- conflict resolution

TEST(DispatchWindowConflictTest, SecondRequestReplansOntoUpdatedRoute) {
  // One worker, two batch members: both propose the same worker against
  // the frozen fleet; the cheaper proposal applies first (unified-cost-
  // then-id order), the loser detects the route-version change and goes
  // through the sequential replan — ending up inserted into the updated
  // route rather than applying a stale (i, j).
  TestEnv env(MakeGridGraph(8, 8, 0.8));
  std::vector<Worker> workers = {{0, 27, 4}};
  Fleet fleet(workers, &env.graph());
  const Request r1 = env.AddRequest(28, 30, 0.0, 1e9, 1e9);
  const Request r2 = env.AddRequest(29, 31, 0.0, 1e9, 1e9);
  DispatchWindowPlanner planner(env.ctx(), &fleet, PlannerConfig{},
                                /*pool=*/nullptr);
  planner.OnBatch({r1.id, r2.id}, 0.0, /*epoch=*/1);
  EXPECT_EQ(fleet.AssignedWorker(r1.id), 0);
  EXPECT_EQ(fleet.AssignedWorker(r2.id), 0);
  EXPECT_EQ(planner.conflict_replans(), 1);
  fleet.FinishAll();
  const InvariantReport inv = VerifyInvariants(fleet, env.requests());
  EXPECT_TRUE(inv.ok) << inv.violation;
}

// ------------------------------------------------- contention fuzz

TEST(DispatchWindowContentionTest, ContendedEvaluationThenOrderedApplication) {
  // The engine's per-window pattern, fuzzed: the main thread touches
  // every worker and builds its route state, several threads then
  // evaluate the SAME workers concurrently with no lock (every Touch and
  // CachedState call only reads), and the main thread applies proposals
  // in order, replaying the conflict-resolution staleness check. Run
  // under tsan by the tsan preset; a fleet write left to the planning
  // threads is a data race here.
  TestEnv env(MakeGridGraph(10, 10, 0.8));
  constexpr int kWorkers = 4, kThreads = 4, kRounds = 20;
  std::vector<Worker> workers;
  for (int w = 0; w < kWorkers; ++w) workers.push_back({w, w * 7, 6});
  std::vector<Request> all;
  Rng rng(13);
  for (int i = 0; i < kThreads * kRounds; ++i) {
    const VertexId o = rng.UniformInt(0, 99);
    VertexId d = rng.UniformInt(0, 99);
    if (d == o) d = (d + 1) % 100;
    all.push_back(env.AddRequest(o, d, 0.0, 1e9, 1e9));
  }

  Fleet fleet(workers, &env.graph());
  Point lo, hi;
  env.graph().BoundingBox(&lo, &hi);
  GridIndex index(lo, hi, 2.0);
  fleet.AttachIndex(&index);

  struct Proposal {
    WorkerId worker = kInvalidWorker;
    int i = -1, j = -1;
    std::uint64_t version = 0;
  };
  int applied = 0, conflicts = 0;
  for (int round = 0; round < kRounds; ++round) {
    const double now = 0.4 * round;
    // Main thread: touch everyone (commits due stops, bumps idle clocks)
    // and build every route state, as the engine's prep does.
    std::vector<std::uint64_t> frozen;
    for (WorkerId w = 0; w < kWorkers; ++w) {
      fleet.Touch(w, now);
      fleet.CachedState(w, env.ctx());
      frozen.push_back(fleet.route(w).version());
    }
    // Parallel: every thread evaluates its request against ALL workers —
    // two requests contending for one worker is the common case here.
    std::vector<Proposal> proposals(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const Request& r =
            all[static_cast<std::size_t>(round * kThreads + t)];
        double best_delta = kInf;
        for (WorkerId w = 0; w < kWorkers; ++w) {
          // The scan touches an evaluated idle worker: a read here.
          if (fleet.route(w).empty()) fleet.Touch(w, now);
          const InsertionCandidate cand = LinearDpInsertion(
              fleet.worker(w), fleet.route(w),
              fleet.CachedState(w, env.ctx()), r, env.ctx());
          if (cand.feasible() && cand.delta < best_delta) {
            best_delta = cand.delta;
            proposals[static_cast<std::size_t>(t)] = {
                w, cand.i, cand.j, fleet.route(w).version()};
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    for (WorkerId w = 0; w < kWorkers; ++w) {
      EXPECT_EQ(fleet.route(w).version(),
                frozen[static_cast<std::size_t>(w)])
          << "the planning stage wrote worker " << w;
    }
    // Main thread: ordered application with the engine's staleness rule.
    for (int t = 0; t < kThreads; ++t) {
      const Proposal& p = proposals[static_cast<std::size_t>(t)];
      const Request& r = all[static_cast<std::size_t>(round * kThreads + t)];
      if (p.worker == kInvalidWorker) continue;
      if (fleet.route(p.worker).version() == p.version) {
        fleet.ApplyInsertion(p.worker, r, p.i, p.j, env.ctx()->oracle());
        ++applied;
      } else {
        ++conflicts;  // an earlier proposal took the worker: skip (reject)
      }
    }
  }
  fleet.FinishAll();
  EXPECT_GT(applied, 0);
  EXPECT_GT(conflicts, 0) << "fuzz never produced a worker conflict";
  const InvariantReport inv = VerifyInvariants(fleet, all);
  EXPECT_TRUE(inv.ok) << inv.violation;
}

// ------------------------------------------- lock-step loop: fuzzes

// ExpectIdentical plus the billed distance queries: the task
// decomposition is structural, so query counts are thread-independent.
void ExpectSameRun(const WorkloadRun& a, const WorkloadRun& b,
                   const std::string& label) {
  ExpectIdentical(a, b, label);
  EXPECT_EQ(a.report.distance_queries, b.report.distance_queries) << label;
}

// One random workload through the full windowed loop (4-s windows) at 4
// threads vs the 1-thread reference: results must match bit-for-bit and
// the 4-thread fleet must stay invariant-clean.
void ExpectFourThreadsMatchOne(const RoadNetwork& graph,
                               DistanceOracle* oracle,
                               const std::vector<Worker>& workers,
                               const std::vector<Request>& requests,
                               const std::string& label) {
  const WorkloadRun base = RunOnce(graph, oracle, workers, requests,
                                   MakeDispatchWindowFactory({}), 1, 4.0);
  SimOptions options;
  options.num_threads = 4;
  options.batch_window_s = 4.0;
  Simulation sim(&graph, oracle, workers, &requests, options);
  WorkloadRun run;
  run.report = sim.Run(MakeDispatchWindowFactory({}));
  run.served = sim.served();
  ExpectSameRun(base, run, label);
  const InvariantReport inv = VerifyInvariants(sim.fleet(), requests);
  EXPECT_TRUE(inv.ok) << label << ": " << inv.violation;
}

TEST(DispatchWindowFuzzTest, RandomWorkloadsMatchSingleThreadedRun) {
  // Run under tsan by the tsan preset — the parallel planning stage over
  // the fleet that prep froze is what it probes.
  for (const int seed : {3, 17}) {
    const RoadNetwork graph = MakeChengduLike(0.05, seed);
    HubLabelOracle labels = HubLabelOracle::Build(graph);
    Rng rng(100 + seed);
    RequestParams rp;
    rp.count = 150;
    rp.duration_min = 100.0;
    rp.penalty_factor = (seed % 2 == 0) ? 2.5 : 12.0;
    rp.seed = 200 + seed;
    const std::vector<Request> requests =
        GenerateRequests(graph, rp, &labels, &rng);
    const std::vector<Worker> workers = GenerateWorkers(graph, 9, 4.0, &rng);
    ExpectFourThreadsMatchOne(graph, &labels, workers, requests,
                              "seed=" + std::to_string(seed));
  }
}

TEST(DispatchWindowCommitConflictTest, ConcurrentFootprintsMatchSerialCommit) {
  // Conflict-heavy fuzz for the commit stage: a compact fleet on a small
  // graph makes accepted proposals contend for the same workers
  // constantly, so the replan path for proposals invalidated by an
  // earlier commit is exercised hard, and the 4-thread run must still
  // match the 1-thread one. Run under tsan by the tsan preset.
  for (const int seed : {5, 23}) {
    const RoadNetwork graph = MakeChengduLike(0.05, seed);
    HubLabelOracle labels = HubLabelOracle::Build(graph);
    Rng rng(300 + seed);
    RequestParams rp;
    rp.count = 150;
    rp.duration_min = 70.0;  // dense: many requests per window
    rp.penalty_factor = (seed % 2 == 0) ? 20.0 : 8.0;
    rp.seed = 400 + seed;
    const std::vector<Request> requests =
        GenerateRequests(graph, rp, &labels, &rng);
    const std::vector<Worker> workers = GenerateWorkers(graph, 7, 4.0, &rng);
    ExpectFourThreadsMatchOne(graph, &labels, workers, requests,
                              "seed=" + std::to_string(seed));
  }
}

// ------------------------------------------- admission control / drain

// Shared workload for the admission tests (tighter than the determinism
// sweeps: the levers, not the planner, are under test here).
struct AdmissionWorkload {
  explicit AdmissionWorkload(RoadNetwork g) : graph(std::move(g)) {}
  RoadNetwork graph;
  std::unique_ptr<HubLabelOracle> labels;
  std::vector<Request> requests;
  std::vector<Worker> workers;
};

const AdmissionWorkload& AdmissionSetup() {
  static const AdmissionWorkload* w = [] {
    auto* aw = new AdmissionWorkload(MakeChengduLike(0.05, 2));
    aw->labels =
        std::make_unique<HubLabelOracle>(HubLabelOracle::Build(aw->graph));
    Rng rng(67);
    RequestParams rp;
    rp.count = 180;
    rp.duration_min = 90.0;  // dense: several requests per 6 s window
    rp.seed = 71;
    aw->requests = GenerateRequests(aw->graph, rp, aw->labels.get(), &rng);
    // Every third request gets a near-impossible deadline (2 min of
    // slack against a 6 min admission floor) so the slack-floor tests
    // have a deterministic population to shed; the rest keep the
    // generator's 10 min offset.
    for (std::size_t i = 0; i < aw->requests.size(); i += 3) {
      aw->requests[i].deadline = aw->requests[i].release_time + 2.0;
    }
    aw->workers = GenerateWorkers(aw->graph, 10, 4.0, &rng);
    return aw;
  }();
  return *w;
}

WorkloadRun RunAdmission(SimOptions options) {
  const AdmissionWorkload& w = AdmissionSetup();
  options.batch_window_s = 6.0;
  HubLabelOracle labels = *w.labels;  // per-run query counters
  Simulation sim(&w.graph, &labels, w.workers, &w.requests, options);
  WorkloadRun run;
  run.report = sim.Run(MakeDispatchWindowFactory({}));
  run.served = sim.served();
  const InvariantReport acct = CheckAccounting(run.report);
  EXPECT_TRUE(acct.ok) << acct.violation;
  const InvariantReport inv = VerifyInvariants(sim.fleet(), w.requests);
  EXPECT_TRUE(inv.ok) << inv.violation;
  return run;
}

void ExpectSameShedAccounting(const WorkloadRun& a, const WorkloadRun& b,
                              const std::string& label) {
  SCOPED_TRACE(label);
  ExpectSameRun(a, b, label);
  EXPECT_EQ(a.report.rejected_requests, b.report.rejected_requests);
  EXPECT_EQ(a.report.shed_requests, b.report.shed_requests);
  EXPECT_EQ(a.report.dnf_requests, b.report.dnf_requests);
  EXPECT_EQ(a.report.shed_deadline, b.report.shed_deadline);
  EXPECT_EQ(a.report.shed_overload, b.report.shed_overload);
  EXPECT_EQ(a.report.shed_drain, b.report.shed_drain);
}

TEST(DispatchWindowAdmissionTest, BlockPolicyShedsNothingAndMatchesDefault) {
  SimOptions plain;
  plain.num_threads = 2;
  const WorkloadRun base = RunAdmission(plain);
  EXPECT_EQ(base.report.shed_requests, 0);
  EXPECT_EQ(base.report.dnf_requests, 0);
  EXPECT_EQ(base.report.rejected_requests,
            base.report.processed_requests - base.report.served_requests);
  // A shedding policy with no lever armed must be bit-identical to the
  // lossless kBlock run.
  SimOptions shed = plain;
  shed.admission_policy = AdmissionPolicy::kShedOldestSlack;
  const WorkloadRun unarmed = RunAdmission(shed);
  ExpectSameShedAccounting(base, unarmed, "unarmed kShedOldestSlack");
  EXPECT_EQ(unarmed.report.shed_requests, 0);
}

TEST(DispatchWindowAdmissionTest, SlackFloorShedsUnservableDeterministically) {
  SimOptions options;
  options.num_threads = 1;
  options.admission_policy = AdmissionPolicy::kShedOldestSlack;
  options.admission_slack_min = 6.0;  // deadline offset is 10 min: bites
  const WorkloadRun base = RunAdmission(options);
  EXPECT_GT(base.report.shed_deadline, 0);
  EXPECT_EQ(base.report.shed_overload, 0);
  EXPECT_EQ(base.report.shed_drain, 0);
  EXPECT_GT(base.report.served_requests, 0);
  // The floor is a pure function of the workload (Euclidean lower bound):
  // every thread count sheds the same set.
  for (const int threads : {2, 4}) {
    SimOptions o = options;
    o.num_threads = threads;
    ExpectSameShedAccounting(base, RunAdmission(o),
                             "slack floor threads=" + std::to_string(threads));
  }
}

TEST(DispatchWindowAdmissionTest, WindowBudgetShedsExcessDeterministically) {
  for (const AdmissionPolicy policy : {AdmissionPolicy::kShedOldestSlack,
                                       AdmissionPolicy::kRejectAtIngress}) {
    SimOptions options;
    options.num_threads = 1;
    options.admission_policy = policy;
    options.window_admit_budget = 4;  // windows carry ~12 requests: bites
    const WorkloadRun base = RunAdmission(options);
    EXPECT_GT(base.report.shed_overload, 0);
    EXPECT_EQ(base.report.shed_deadline, 0);
    EXPECT_GT(base.report.served_requests, 0);
    for (const int threads : {2, 4}) {
      SimOptions o = options;
      o.num_threads = threads;
      ExpectSameShedAccounting(
          base, RunAdmission(o),
          "budget policy=" +
              std::to_string(static_cast<int>(policy)) +
              " threads=" + std::to_string(threads));
    }
  }
}

TEST(DispatchWindowDrainTest, CutoffCommitsPrefixAndShedsRemainderGracefully) {
  SimOptions options;
  options.num_threads = 1;
  options.drain_after_s = 45.0 * 60.0;  // half the 90-min workload
  const WorkloadRun base = RunAdmission(options);
  EXPECT_EQ(base.report.drain_cutoff_min, 45.0);
  EXPECT_GT(base.report.shed_drain, 0);
  EXPECT_GT(base.report.served_requests, 0);
  // Graceful: everything admitted before the cutoff is planned and
  // committed (no DNFs, unlike the wall-limit kill switch) and the shed
  // remainder is billed its penalty.
  EXPECT_EQ(base.report.dnf_requests, 0);
  EXPECT_EQ(base.report.processed_requests,
            base.report.total_requests -
                static_cast<int>(base.report.shed_drain));
  EXPECT_GT(base.report.penalty_sum, 0.0);
  EXPECT_FALSE(base.report.timed_out);
  // The cutoff is simulated time: thread counts cannot move it, and drain
  // works under every admission policy.
  for (const int threads : {2, 4}) {
    SimOptions o = options;
    o.num_threads = threads;
    o.admission_policy = threads == 2 ? AdmissionPolicy::kBlock
                                      : AdmissionPolicy::kShedOldestSlack;
    ExpectSameShedAccounting(base, RunAdmission(o),
                             "drain threads=" + std::to_string(threads));
  }
}

// ------------------------------------------- kill switch / tiny windows

TEST(DispatchWindowTimeoutTest, KillSwitchStopsAfterFirstWindow) {
  // A zero wall budget: the loop plans the first window before it checks
  // the budget, then stops. The unplanned remainder is DNF, billed its
  // penalty, and the accounting partition stays exact.
  const RoadNetwork graph = MakeChengduLike(0.05, 5);
  HubLabelOracle labels = HubLabelOracle::Build(graph);
  Rng rng(73);
  RequestParams rp;
  rp.count = 300;
  rp.duration_min = 90.0;
  rp.penalty_factor = 10.0;
  rp.seed = 79;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &labels, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 10, 4.0, &rng);

  SimOptions options;
  options.num_threads = 2;
  options.batch_window_s = 6.0;
  options.wall_limit_seconds = 0.0;
  Simulation sim(&graph, &labels, workers, &requests, options);
  const SimReport rep = sim.Run(MakeDispatchWindowFactory({}));

  EXPECT_TRUE(rep.timed_out);
  EXPECT_GT(rep.processed_requests, 0);
  EXPECT_LT(rep.processed_requests, rep.total_requests);
  EXPECT_EQ(rep.response_stats.count(),
            static_cast<std::size_t>(rep.processed_requests));
  EXPECT_EQ(rep.dnf_requests, rep.total_requests - rep.processed_requests);
  EXPECT_EQ(rep.shed_requests, 0);
  double unserved_penalty = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!sim.served()[i]) unserved_penalty += requests[i].penalty;
  }
  EXPECT_DOUBLE_EQ(rep.penalty_sum, unserved_penalty);
  const InvariantReport acct = CheckAccounting(rep);
  EXPECT_TRUE(acct.ok) << acct.violation;
  const InvariantReport inv = VerifyInvariants(sim.fleet(), requests);
  EXPECT_TRUE(inv.ok) << inv.violation;
}

TEST(DispatchWindowTinyWindowTest, SubUlpWindowStillTakesEveryRequest) {
  // Near minute 1,000 a 1e-12 s window is below half an ulp of the
  // release time, so release + window rounds back to the release. The
  // window's first request must still be taken: admitting it only when
  // release < window_end would leave the loop spinning on an empty
  // batch. Every window is then a singleton planned at its release time
  // — the per-request semantics, so the run equals sequential
  // pruneGreedyDP.
  const RoadNetwork graph = MakeChengduLike(0.05, 3);
  HubLabelOracle labels = HubLabelOracle::Build(graph);
  Rng rng(83);
  RequestParams rp;
  rp.count = 20;
  rp.duration_min = 10.0;
  rp.seed = 89;
  std::vector<Request> requests = GenerateRequests(graph, rp, &labels, &rng);
  for (Request& r : requests) {
    r.release_time += 1000.0;
    r.deadline += 1000.0;
  }
  const std::vector<Worker> workers = GenerateWorkers(graph, 6, 4.0, &rng);
  const double window_s = 1e-12;
  ASSERT_EQ(requests.front().release_time + window_s / 60.0,
            requests.front().release_time);

  const WorkloadRun tiny = RunOnce(graph, &labels, workers, requests,
                                   MakeDispatchWindowFactory({}), 2, window_s);
  EXPECT_EQ(tiny.report.processed_requests, tiny.report.total_requests);
  EXPECT_FALSE(tiny.report.timed_out);
  const InvariantReport acct = CheckAccounting(tiny.report);
  EXPECT_TRUE(acct.ok) << acct.violation;
  const WorkloadRun sequential = RunOnce(
      graph, &labels, workers, requests, MakePruneGreedyDpFactory({}), 1);
  ExpectIdentical(sequential, tiny, "1e-12 s windows vs per-request");
}

}  // namespace
}  // namespace urpsm
