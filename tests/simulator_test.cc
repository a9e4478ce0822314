#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/algos/batch.h"
#include "src/shortest/hub_labels.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/workload/city.h"
#include "src/workload/requests.h"

namespace urpsm {
namespace {

struct SimFixture {
  SimFixture(std::uint64_t seed, int n_workers, int n_requests)
      : graph(MakeNycLike(0.02, seed)), oracle(&graph), rng(seed) {
    workers = GenerateWorkers(graph, n_workers, 3.0, &rng);
    RequestParams rp;
    rp.count = n_requests;
    rp.duration_min = 180.0;
    rp.seed = seed + 1;
    requests = GenerateRequests(graph, rp, &oracle, &rng);
  }
  RoadNetwork graph;
  DijkstraOracle oracle;
  Rng rng;
  std::vector<Worker> workers;
  std::vector<Request> requests;
};

TEST(SimulatorTest, ReportAggregatesAreConsistent) {
  SimFixture f(5, 10, 80);
  SimOptions options;
  options.alpha = 1.0;
  Simulation sim(&f.graph, &f.oracle, f.workers, &f.requests, options);
  const SimReport rep = sim.Run(MakePruneGreedyDpFactory({}));

  EXPECT_EQ(rep.total_requests, 80);
  EXPECT_GE(rep.served_requests, 0);
  EXPECT_LE(rep.served_requests, 80);
  EXPECT_NEAR(rep.served_rate, rep.served_requests / 80.0, 1e-12);
  EXPECT_NEAR(rep.unified_cost,
              options.alpha * rep.total_distance + rep.penalty_sum, 1e-9);
  EXPECT_GT(rep.distance_queries, 0);
  EXPECT_FALSE(rep.timed_out);
  // Penalty sum equals the sum over rejected requests.
  double expect_penalty = 0.0;
  for (const Request& r : f.requests) {
    if (!sim.served()[static_cast<std::size_t>(r.id)]) {
      expect_penalty += r.penalty;
    }
  }
  EXPECT_NEAR(rep.penalty_sum, expect_penalty, 1e-9);
}

TEST(SimulatorTest, InvariantsHoldAfterRun) {
  SimFixture f(6, 12, 100);
  Simulation sim(&f.graph, &f.oracle, f.workers, &f.requests, SimOptions{});
  sim.Run(MakePruneGreedyDpFactory({}));
  const InvariantReport rep = VerifyInvariants(sim.fleet(), f.requests);
  EXPECT_TRUE(rep.ok) << rep.violation;
}

TEST(SimulatorTest, ServedImpliesDeliveredByDeadline) {
  SimFixture f(7, 12, 100);
  Simulation sim(&f.graph, &f.oracle, f.workers, &f.requests, SimOptions{});
  sim.Run(MakePruneGreedyDpFactory({}));
  for (const Request& r : f.requests) {
    if (sim.served()[static_cast<std::size_t>(r.id)]) {
      EXPECT_LE(sim.fleet().DropoffTime(r.id), r.deadline + 1e-6)
          << "request " << r.id;
      EXPECT_LE(sim.fleet().PickupTime(r.id), sim.fleet().DropoffTime(r.id));
    } else {
      EXPECT_EQ(sim.fleet().AssignedWorker(r.id), kInvalidWorker);
    }
  }
}

TEST(SimulatorTest, TotalDistanceMatchesCommittedLegs) {
  SimFixture f(8, 10, 60);
  Simulation sim(&f.graph, &f.oracle, f.workers, &f.requests, SimOptions{});
  const SimReport rep = sim.Run(MakePruneGreedyDpFactory({}));
  EXPECT_NEAR(rep.total_distance, sim.fleet().committed_distance(), 1e-9);
  // After FinishAll, planned == committed.
  EXPECT_NEAR(sim.fleet().TotalPlannedDistance(),
              sim.fleet().committed_distance(), 1e-9);
}

TEST(SimulatorTest, WallLimitTriggersTimeout) {
  SimFixture f(9, 10, 200);
  SimOptions options;
  options.wall_limit_seconds = 0.0;  // instant kill after first request
  Simulation sim(&f.graph, &f.oracle, f.workers, &f.requests, options);
  const SimReport rep = sim.Run(MakePruneGreedyDpFactory({}));
  EXPECT_TRUE(rep.timed_out);
  EXPECT_LE(rep.served_requests, rep.total_requests);
  // The truncated run reports how far it got, so percentile stats over
  // the processed prefix are interpretable.
  EXPECT_LT(rep.processed_requests, rep.total_requests);
  EXPECT_EQ(static_cast<std::size_t>(rep.processed_requests),
            rep.response_stats.count());
}

TEST(SimulatorTest, ProcessedRequestsCoversFullRunWithoutTimeout) {
  SimFixture f(5, 10, 80);
  Simulation sim(&f.graph, &f.oracle, f.workers, &f.requests, SimOptions{});
  const SimReport rep = sim.Run(MakePruneGreedyDpFactory({}));
  EXPECT_FALSE(rep.timed_out);
  EXPECT_EQ(rep.processed_requests, rep.total_requests);
}

TEST(SimulatorTest, ReportPercentilesMatchItsCompactedDigest) {
  // Run fills the latency fields, then compacts the retained digest; the
  // fields and the digest must still agree bit for bit.
  SimFixture f(5, 10, 80);
  Simulation sim(&f.graph, &f.oracle, f.workers, &f.requests, SimOptions{});
  const SimReport rep = sim.Run(MakePruneGreedyDpFactory({}));
  EXPECT_EQ(rep.response_stats.count(), 80u);
  EXPECT_EQ(rep.p50_response_ms, rep.response_stats.Percentile(50));
  EXPECT_EQ(rep.p95_response_ms, rep.response_stats.Percentile(95));
  EXPECT_EQ(rep.p99_response_ms, rep.response_stats.Percentile(99));
  EXPECT_EQ(rep.max_response_ms, rep.response_stats.max());
  EXPECT_EQ(rep.avg_response_ms, rep.response_stats.mean());
}

TEST(SimulatorTest, TimedOutRunSkipsUnboundedFinalize) {
  // The batch baseline defers every assignment to Finalize-time flushes.
  // With the wall limit already exceeded, Finalize(0) must NOT plan the
  // buffered requests: before the budget was threaded through, a timed-out
  // run still paid for (and counted) an unbounded final flush.
  SimFixture f(9, 10, 120);
  SimOptions options;
  options.wall_limit_seconds = 0.0;
  Simulation sim(&f.graph, &f.oracle, f.workers, &f.requests, options);
  const SimReport rep = sim.Run(MakeBatchFactory({}));
  EXPECT_TRUE(rep.timed_out);
  EXPECT_EQ(rep.served_requests, 0);  // nothing was ever flushed
}

TEST(SimulatorTest, GappyRequestIdsAreHandled) {
  // Ids far from the dense 0..n-1 layout: formerly silent out-of-bounds
  // indexing (served_, direct-distance cache, request table) — now routed
  // through the id->index mapping end to end.
  SimFixture f(12, 8, 40);
  std::vector<Request> gappy = f.requests;
  for (std::size_t i = 0; i < gappy.size(); ++i) {
    gappy[i].id = static_cast<RequestId>(1000 + 7 * i);  // gappy, non-dense
  }
  Simulation sim(&f.graph, &f.oracle, f.workers, &gappy, SimOptions{});
  const SimReport rep = sim.Run(MakePruneGreedyDpFactory({}));
  EXPECT_EQ(rep.total_requests, static_cast<int>(gappy.size()));
  EXPECT_GT(rep.served_requests, 0);
  const InvariantReport inv = VerifyInvariants(sim.fleet(), gappy);
  EXPECT_TRUE(inv.ok) << inv.violation;
  // served() is position-indexed; request_served resolves by id. The two
  // must agree, and the penalty partition must hold under gappy ids.
  double expect_penalty = 0.0;
  int served_count = 0;
  for (std::size_t i = 0; i < gappy.size(); ++i) {
    EXPECT_EQ(sim.served()[i], sim.request_served(gappy[i].id));
    if (sim.served()[i]) {
      ++served_count;
    } else {
      expect_penalty += gappy[i].penalty;
    }
  }
  EXPECT_EQ(served_count, rep.served_requests);
  EXPECT_NEAR(rep.penalty_sum, expect_penalty, 1e-9);

  // The same workload with dense ids must produce the same outcomes —
  // ids are labels, not semantics.
  Simulation dense_sim(&f.graph, &f.oracle, f.workers, &f.requests,
                       SimOptions{});
  const SimReport dense_rep = dense_sim.Run(MakePruneGreedyDpFactory({}));
  EXPECT_EQ(dense_rep.served_requests, rep.served_requests);
  EXPECT_EQ(dense_rep.unified_cost, rep.unified_cost);
  EXPECT_EQ(dense_sim.served(), sim.served());
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  SimFixture f(10, 10, 80);
  Simulation a(&f.graph, &f.oracle, f.workers, &f.requests, SimOptions{});
  const SimReport ra = a.Run(MakePruneGreedyDpFactory({}));
  Simulation b(&f.graph, &f.oracle, f.workers, &f.requests, SimOptions{});
  const SimReport rb = b.Run(MakePruneGreedyDpFactory({}));
  EXPECT_EQ(ra.served_requests, rb.served_requests);
  EXPECT_NEAR(ra.unified_cost, rb.unified_cost, 1e-9);
  EXPECT_NEAR(ra.total_distance, rb.total_distance, 1e-9);
}

TEST(SimulatorTest, MoreWorkersNeverHurtMuch) {
  // The paper's Fig. 3 trend: unified cost decreases (served rate rises)
  // with fleet size. Greedy online planning is not strictly monotone, but
  // the trend must hold between a tiny and a larger fleet.
  SimFixture small(11, 3, 150);
  Simulation sim_small(&small.graph, &small.oracle, small.workers,
                       &small.requests, SimOptions{});
  const SimReport rep_small = sim_small.Run(MakePruneGreedyDpFactory({}));

  SimFixture big(11, 30, 150);  // same seed => same graph & requests
  Simulation sim_big(&big.graph, &big.oracle, big.workers, &big.requests,
                     SimOptions{});
  const SimReport rep_big = sim_big.Run(MakePruneGreedyDpFactory({}));

  EXPECT_GT(rep_big.served_rate, rep_small.served_rate);
  EXPECT_LT(rep_big.unified_cost, rep_small.unified_cost);
}

// ------------------------------------------------ options validation

TEST(ValidateSimOptionsTest, CleanOptionsPassThroughSilently) {
  SimOptions options;
  options.batch_window_s = 6.0;
  options.num_threads = 8;
  std::vector<std::string> warnings;
  const SimOptions out = ValidateSimOptions(options, &warnings);
  EXPECT_TRUE(warnings.empty());
  EXPECT_EQ(out.num_threads, 8);
  EXPECT_EQ(out.batch_window_s, 6.0);
}

TEST(ValidateSimOptionsTest, InvalidNumericsClampToNearestSane) {
  SimOptions options;
  options.batch_window_s = -3.0;
  options.num_threads = -2;
  options.wall_limit_seconds = -1.0;
  options.admission_slack_min = -5.0;
  options.window_admit_budget = -7;
  std::vector<std::string> warnings;
  const SimOptions out = ValidateSimOptions(options, &warnings);
  EXPECT_EQ(out.batch_window_s, 0.0);
  EXPECT_EQ(out.num_threads, 1);
  EXPECT_EQ(out.wall_limit_seconds, 0.0);
  EXPECT_EQ(out.admission_slack_min, 0.0);
  EXPECT_EQ(out.window_admit_budget, 0);
  EXPECT_GE(warnings.size(), 5u);  // one message per clamp above
}

TEST(ValidateSimOptionsTest, FaultRatesAndDelaysAreClamped) {
  SimOptions options;
  options.faults.Arm(FaultSite::kOracleDelay, 1.5, -10.0);  // both invalid
  options.faults.Arm(FaultSite::kPoolTaskDelay, -0.2, 5.0);
  std::vector<std::string> warnings;
  const SimOptions out = ValidateSimOptions(options, &warnings);
  EXPECT_EQ(out.faults.site[static_cast<int>(FaultSite::kOracleDelay)].rate,
            1.0);
  EXPECT_EQ(
      out.faults.site[static_cast<int>(FaultSite::kOracleDelay)].delay_us,
      0.0);
  EXPECT_EQ(out.faults.site[static_cast<int>(FaultSite::kPoolTaskDelay)].rate,
            0.0);
  EXPECT_GE(warnings.size(), 3u);
}

TEST(ValidateSimOptionsTest, ConstructorAppliesValidation) {
  // The constructor routes its options through ValidateSimOptions, so a
  // degenerate configuration (a negative thread count) runs as its
  // clamped value instead of crashing or silently misbehaving.
  SimFixture f(23, 4, 20);
  SimOptions options;
  options.num_threads = -4;  // validation clamps this to 1
  Simulation sim(&f.graph, &f.oracle, f.workers, &f.requests, options);
  const SimReport rep = sim.Run(MakePruneGreedyDpFactory({}));
  EXPECT_EQ(rep.num_threads, 1);
  EXPECT_EQ(rep.processed_requests, rep.total_requests);
  const InvariantReport acct = CheckAccounting(rep);
  EXPECT_TRUE(acct.ok) << acct.violation;
}

TEST(SimulatorTest, LabelsAnswerEveryBilledQuery) {
  // Simulation bills each planner call once and forwards it to the
  // caller's oracle, so the labels answer exactly the run's
  // distance_queries: nothing is served on the side, on either loop.
  const RoadNetwork graph = MakeNycLike(0.02, 9);
  HubLabelOracle labels = HubLabelOracle::Build(graph);
  Rng rng(9);
  const std::vector<Worker> workers = GenerateWorkers(graph, 10, 3.0, &rng);
  RequestParams rp;
  rp.count = 120;
  rp.duration_min = 180.0;
  rp.seed = 10;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &labels, &rng);

  labels.ResetQueryCount();
  Simulation per_request(&graph, &labels, workers, &requests, SimOptions{});
  const SimReport a = per_request.Run(MakePruneGreedyDpFactory({}));
  EXPECT_GT(a.distance_queries, 0);
  EXPECT_EQ(labels.query_count(), a.distance_queries);

  labels.ResetQueryCount();
  SimOptions options;
  options.batch_window_s = 6.0;
  options.num_threads = 2;
  Simulation windowed(&graph, &labels, workers, &requests, options);
  const SimReport b = windowed.Run(MakePruneGreedyDpFactory({}));
  EXPECT_GT(b.distance_queries, 0);
  EXPECT_EQ(labels.query_count(), b.distance_queries);
}

TEST(SimulatorDeathTest, UnsortedReleaseTimesAbort) {
  // The release order is checked in every build, not only by assert.
  SimFixture f(29, 4, 20);
  std::vector<Request> requests = f.requests;
  requests[1].release_time = requests[0].release_time - 1.0;
  EXPECT_DEATH(Simulation(&f.graph, &f.oracle, f.workers, &requests,
                          SimOptions{}),
               "released before");
}

}  // namespace
}  // namespace urpsm
