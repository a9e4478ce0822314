#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "src/core/decision.h"
#include "src/core/planner.h"
#include "src/sim/simulator.h"
#include "src/workload/city.h"
#include "src/workload/requests.h"
#include "tests/test_util.h"

namespace urpsm {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() : env_(MakeGridGraph(10, 10, 0.8)) {}
  TestEnv env_;
};

TEST_F(PlannerTest, ServesTrivialRequest) {
  std::vector<Worker> workers = {{0, 0, 4}};
  Fleet fleet(workers, &env_.graph());
  PlannerConfig cfg;
  GreedyDpPlanner planner(env_.ctx(), &fleet, cfg);
  const Request r = env_.AddRequest(11, 22, 0.0, 1e9);
  EXPECT_EQ(planner.OnRequest(r), 0);
  EXPECT_EQ(fleet.AssignedWorker(r.id), 0);
  EXPECT_EQ(fleet.route(0).size(), 2);
}

TEST_F(PlannerTest, RejectsWhenPenaltyBelowLowerBound) {
  // alpha = 1 and a tiny penalty: serving costs more than rejecting.
  std::vector<Worker> workers = {{0, 99, 4}};  // far corner
  Fleet fleet(workers, &env_.graph());
  PlannerConfig cfg;
  cfg.alpha = 1.0;
  GreedyDpPlanner planner(env_.ctx(), &fleet, cfg);
  const Request r = env_.AddRequest(0, 1, 0.0, 1e9, /*penalty=*/1e-6);
  EXPECT_EQ(planner.OnRequest(r), kInvalidWorker);
}

TEST_F(PlannerTest, AlphaZeroNeverRejectsByPenalty) {
  // Maximize served count: alpha = 0 disables the penalty rejection.
  std::vector<Worker> workers = {{0, 99, 4}};
  Fleet fleet(workers, &env_.graph());
  PlannerConfig cfg;
  cfg.alpha = 0.0;
  GreedyDpPlanner planner(env_.ctx(), &fleet, cfg);
  const Request r = env_.AddRequest(0, 1, 0.0, 1e9, /*penalty=*/1e-6);
  EXPECT_EQ(planner.OnRequest(r), 0);
}

TEST_F(PlannerTest, RejectsUnservableDeadline) {
  std::vector<Worker> workers = {{0, 0, 4}};
  Fleet fleet(workers, &env_.graph());
  GreedyDpPlanner planner(env_.ctx(), &fleet, PlannerConfig{});
  const Request r = env_.AddRequest(98, 99, 0.0, 0.001);  // hopeless
  EXPECT_EQ(planner.OnRequest(r), kInvalidWorker);
}

TEST_F(PlannerTest, PicksTheCheaperWorker) {
  std::vector<Worker> workers = {{0, 0, 4}, {1, 23, 4}};
  Fleet fleet(workers, &env_.graph());
  GreedyDpPlanner planner(env_.ctx(), &fleet, PlannerConfig{});
  // Request right next to worker 1's anchor (vertex 23 = (3,2)).
  const Request r = env_.AddRequest(24, 27, 0.0, 1e9);
  EXPECT_EQ(planner.OnRequest(r), 1);
}

TEST_F(PlannerTest, ExactRejectCheckAblation) {
  // With the ablation on, a penalty between LB and Delta* flips to reject.
  std::vector<Worker> workers = {{0, 90, 4}};  // (0,9): euclid 7.2km but
                                               // road distance longer
  const Request probe = env_.AddRequest(9, 8, 0.0, 1e9);  // (9,0)->(8,0)
  {
    Fleet fleet(workers, &env_.graph());
    PlannerConfig cfg;
    cfg.exact_reject_check = false;
    GreedyDpPlanner planner(env_.ctx(), &fleet, cfg);
    Request r = probe;
    // Penalty below the exact cost but above the Euclidean lower bound:
    // straight-line (9,9 apart... vertices (0,9) to (9,0)) at motorway
    // speed is far less than grid travel at residential speed.
    r.penalty = env_.graph().EuclideanLowerBoundMin(90, 9) * 1.5;
    EXPECT_EQ(planner.OnRequest(r), 0);  // paper-faithful: serves
  }
  {
    Fleet fleet(workers, &env_.graph());
    PlannerConfig cfg;
    cfg.exact_reject_check = true;
    GreedyDpPlanner planner(env_.ctx(), &fleet, cfg);
    Request r = probe;
    r.penalty = env_.graph().EuclideanLowerBoundMin(90, 9) * 1.5;
    EXPECT_EQ(planner.OnRequest(r), kInvalidWorker);  // ablation: rejects
  }
}

TEST_F(PlannerTest, CandidateRadiusNegativeWhenHopeless) {
  Request r;
  r.release_time = 10.0;
  r.deadline = 12.0;
  EXPECT_LT(CandidateRadiusKm(r, /*L=*/5.0, /*now=*/10.0), 0.0);
  EXPECT_GT(CandidateRadiusKm(r, /*L=*/1.0, /*now=*/10.0), 0.0);
}

/// Lemma 8 is lossless: pruneGreedyDP and GreedyDP must produce identical
/// assignments and unified costs on a full simulated day, while the pruned
/// variant issues no more distance queries.
TEST(PlannerEquivalenceTest, PruningIsLossless) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    const RoadNetwork g = MakeNycLike(0.02, seed);
    DijkstraOracle oracle(&g);
    Rng rng(seed);
    std::vector<Worker> workers = GenerateWorkers(g, 15, 3.0, &rng);
    RequestParams rp;
    rp.count = 120;
    rp.duration_min = 120.0;
    rp.seed = seed;
    std::vector<Request> requests = GenerateRequests(g, rp, &oracle, &rng);

    SimOptions options;
    Simulation sim_pruned(&g, &oracle, workers, &requests, options);
    const SimReport pruned = sim_pruned.Run(MakePruneGreedyDpFactory({}));
    std::vector<bool> served_pruned = sim_pruned.served();

    Simulation sim_plain(&g, &oracle, workers, &requests, options);
    const SimReport plain = sim_plain.Run(MakeGreedyDpFactory({}));

    EXPECT_EQ(pruned.served_requests, plain.served_requests) << seed;
    EXPECT_NEAR(pruned.unified_cost, plain.unified_cost,
                1e-6 * std::max(1.0, plain.unified_cost))
        << seed;
    EXPECT_EQ(served_pruned, sim_plain.served()) << seed;
    EXPECT_LE(pruned.distance_queries, plain.distance_queries) << seed;
  }
}

TEST(SortByLowerBoundTest, SamePermutationAsIndexSortWithTies) {
  // Sorting the bounds in place must give the permutation of an index
  // sort over them: introsort makes the same comparisons and moves on the
  // same positions either way. Ties matter — they decide the winner
  // among equal exact costs. Few distinct values make long tie runs;
  // lengths cross the insertion-sort threshold and go up to a full fleet.
  Rng rng(2024);
  int tied = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const int n = iter < 3 ? iter : rng.UniformInt(0, 700);
    std::vector<double> values(
        static_cast<std::size_t>(rng.UniformInt(1, 6)));
    for (double& v : values) v = rng.Uniform(0.0, 20.0);
    std::vector<WorkerBound> bounds(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      const int pick = rng.UniformInt(0, static_cast<int>(values.size()) - 1);
      bounds[static_cast<std::size_t>(k)] = {
          k, values[static_cast<std::size_t>(pick)]};
    }
    // Reference: an index sort with the same comparator.
    std::vector<std::size_t> order(bounds.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return bounds[a].lower_bound < bounds[b].lower_bound;
    });
    std::vector<WorkerBound> sorted = bounds;
    SortByLowerBound(&sorted);
    ASSERT_EQ(sorted.size(), order.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      EXPECT_EQ(sorted[k].worker, bounds[order[k]].worker)
          << "iter " << iter << " n=" << n << " k=" << k;
      EXPECT_EQ(sorted[k].lower_bound, bounds[order[k]].lower_bound);
    }
    if (n > 16 && values.size() < static_cast<std::size_t>(n)) ++tied;
  }
  EXPECT_GT(tied, 250);
}

/// Two identical worlds, each with its own oracle so billed queries
/// compare one to one.
struct TwinWorld {
  explicit TwinWorld(const std::vector<Worker>& workers)
      : env(MakeGridGraph(12, 12, 0.6)), fleet(workers, &env.graph()) {}
  TestEnv env;
  Fleet fleet;
};

TEST(PlanRequestSequentialTest, UntouchedIdleFleetPlansLikePreTouched) {
  // An idle candidate's bound is closed-form, and the scan touches only
  // the idle workers it evaluates. Planning a day on a fleet nobody
  // touches must pick the same worker, positions and delta, bill the same
  // queries and run the same evaluations as on a twin whose candidates
  // are all touched before each scan — and write only to the evaluated
  // idle workers.
  for (const bool pruning : {true, false}) {
    SCOPED_TRACE(pruning ? "pruneGreedyDP" : "GreedyDP");
    Rng rng(pruning ? 71 : 73);
    std::vector<Worker> workers;
    for (WorkerId w = 0; w < 40; ++w) {
      workers.push_back({w, rng.UniformInt(0, 143), rng.UniformInt(1, 4)});
    }
    TwinWorld lazy(workers);
    TwinWorld touched(workers);
    std::vector<WorkerId> candidates(workers.size());
    std::iota(candidates.begin(), candidates.end(), WorkerId{0});
    PlannerConfig config;
    config.use_pruning = pruning;

    double now = 0.0;
    int served = 0, idle_touches = 0;
    for (int step = 0; step < 250; ++step) {
      now += rng.Uniform(0.0, 0.6);
      const VertexId o = rng.UniformInt(0, 143);
      VertexId d = rng.UniformInt(0, 143);
      if (d == o) d = (d + 1) % 144;
      const double deadline = now + rng.Uniform(4.0, 25.0);
      const double penalty = rng.Uniform(2.0, 40.0);
      const int capacity = rng.UniformInt(1, 3);
      const Request r =
          lazy.env.AddRequest(o, d, now, deadline, penalty, capacity);
      touched.env.AddRequest(o, d, now, deadline, penalty, capacity);

      lazy.fleet.AdvanceTo(now);
      touched.fleet.AdvanceTo(now);
      for (const WorkerId w : candidates) touched.fleet.Touch(w, now);

      // Expected writes on the lazy side: the idle workers among the
      // first `evals` entries of the scan order, whose clock is behind.
      std::vector<std::uint64_t> versions;
      std::vector<bool> idle_behind;  // empty route, clock before `now`
      std::vector<WorkerBound> expected_order;
      const double L_lazy = lazy.env.ctx()->DirectDist(r.id);
      const double L_touched = touched.env.ctx()->DirectDist(r.id);
      for (const WorkerId w : candidates) {
        const Route& rt = lazy.fleet.route(w);
        versions.push_back(rt.version());
        idle_behind.push_back(rt.empty() && rt.anchor_time() < now);
        const double lb =
            rt.empty()
                ? IdleDecisionLowerBound(workers[w], rt, r, L_lazy, now,
                                         lazy.env.graph())
                : DecisionLowerBound(workers[w], rt,
                                     BuildRouteState(rt, lazy.env.ctx()), r,
                                     L_lazy, lazy.env.graph());
        if (lb < kInf) expected_order.push_back({w, lb});
      }
      SortByLowerBound(&expected_order);

      const std::int64_t q_lazy = lazy.env.oracle()->query_count();
      const std::int64_t q_touched = touched.env.oracle()->query_count();
      InsertionCandidate best_lazy, best_touched;
      std::int64_t evals_lazy = 0, evals_touched = 0;
      const WorkerId w_lazy = PlanRequestSequential(
          lazy.env.ctx(), &lazy.fleet, config, r, L_lazy, now, candidates,
          &best_lazy, &evals_lazy);
      const WorkerId w_touched = PlanRequestSequential(
          touched.env.ctx(), &touched.fleet, config, r, L_touched, now,
          candidates, &best_touched, &evals_touched);
      ASSERT_EQ(w_lazy, w_touched) << "step " << step;
      EXPECT_EQ(evals_lazy, evals_touched) << "step " << step;
      EXPECT_EQ(lazy.env.oracle()->query_count() - q_lazy,
                touched.env.oracle()->query_count() - q_touched)
          << "step " << step;

      std::vector<bool> evaluated(workers.size(), false);
      ASSERT_LE(evals_lazy, static_cast<std::int64_t>(expected_order.size()));
      for (std::int64_t k = 0; k < evals_lazy; ++k) {
        evaluated[expected_order[static_cast<std::size_t>(k)].worker] = true;
      }
      for (const WorkerId w : candidates) {
        const bool moved = lazy.fleet.route(w).version() != versions[w];
        EXPECT_EQ(moved, evaluated[w] && idle_behind[w])
            << "step " << step << " worker " << w;
        if (moved) ++idle_touches;
      }

      if (w_lazy == kInvalidWorker) continue;
      EXPECT_EQ(best_lazy.i, best_touched.i);
      EXPECT_EQ(best_lazy.j, best_touched.j);
      EXPECT_EQ(best_lazy.delta, best_touched.delta);
      lazy.fleet.ApplyInsertion(w_lazy, r, best_lazy.i, best_lazy.j,
                                lazy.env.oracle());
      touched.fleet.ApplyInsertion(w_touched, r, best_touched.i,
                                   best_touched.j, touched.env.oracle());
      ++served;
    }
    lazy.fleet.FinishAll();
    touched.fleet.FinishAll();
    EXPECT_EQ(lazy.fleet.committed_distance(),
              touched.fleet.committed_distance());
    EXPECT_GT(served, 60);
    EXPECT_GT(idle_touches, 20);
  }
}

}  // namespace
}  // namespace urpsm
