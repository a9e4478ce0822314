#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/core/decision.h"
#include "src/insertion/insertion.h"
#include "src/sim/fleet.h"
#include "tests/test_util.h"

namespace urpsm {
namespace {

class DecisionTest : public ::testing::Test {
 protected:
  DecisionTest() : env_(MakeGridGraph(8, 8, 1.0)) {}
  TestEnv env_;
  Worker worker_{0, 0, 4};
};

TEST_F(DecisionTest, EmptyRouteBoundIsEuclideanPlusL) {
  const Request r = env_.AddRequest(18, 45, 0.0, 1e9);  // (2,2) -> (5,5)
  Route rt(0, 0.0);
  const RouteState st = BuildRouteState(rt, env_.ctx());
  const double L = env_.ctx()->DirectDist(r.id);
  const double lb =
      DecisionLowerBound(worker_, rt, st, r, L, env_.graph());
  // Only the i=j=n=0 case exists: euc(anchor, o)/v_max + L.
  EXPECT_NEAR(lb, env_.graph().EuclideanLowerBoundMin(0, 18) + L, 1e-12);
}

TEST_F(DecisionTest, BoundRequiresZeroExtraQueries) {
  const Request r1 = env_.AddRequest(9, 54, 0.0, 1e9);
  Route rt(0, 0.0);
  rt.Insert(r1, 0, 0, env_.oracle());
  const Request r2 = env_.AddRequest(18, 45, 0.0, 1e9);
  const double L = env_.ctx()->DirectDist(r2.id);
  const RouteState st = BuildRouteState(rt, env_.ctx());
  const std::int64_t before = env_.oracle()->query_count();
  DecisionLowerBound(worker_, rt, st, r2, L, env_.graph());
  EXPECT_EQ(env_.oracle()->query_count(), before);  // Lemma 7: 1 query total
}

TEST_F(DecisionTest, CapacityInfeasibleGivesInfiniteBound) {
  const Request r = env_.AddRequest(18, 45, 0.0, 1e9, 10.0, 9);  // K_r > K_w
  Route rt(0, 0.0);
  const RouteState st = BuildRouteState(rt, env_.ctx());
  EXPECT_EQ(DecisionLowerBound(worker_, rt, st, r,
                               env_.ctx()->DirectDist(r.id), env_.graph()),
            kInf);
}

TEST_F(DecisionTest, HopelessDeadlineGivesInfiniteBound) {
  // Worker at corner (0,0); request at far corner with a deadline shorter
  // than even the straight-line travel time.
  const Request r = env_.AddRequest(63, 62, 0.0, 0.5);  // (7,7)
  Route rt(0, 0.0);
  const RouteState st = BuildRouteState(rt, env_.ctx());
  EXPECT_EQ(DecisionLowerBound(worker_, rt, st, r,
                               env_.ctx()->DirectDist(r.id), env_.graph()),
            kInf);
}

TEST_F(DecisionTest, BoundIsNonNegative) {
  Rng rng(3);
  Route rt(0, 0.0);
  BuildRandomRoute(&env_, worker_, &rt, 6, 0.0, 60.0, &rng);
  for (int probe = 0; probe < 50; ++probe) {
    const VertexId o = rng.UniformInt(0, 63);
    VertexId d = rng.UniformInt(0, 63);
    if (d == o) d = (d + 1) % 64;
    const Request r = env_.AddRequest(o, d, 0.0, rng.Uniform(5.0, 80.0));
    const RouteState st = BuildRouteState(rt, env_.ctx());
    const double lb = DecisionLowerBound(worker_, rt, st, r,
                                         env_.ctx()->DirectDist(r.id),
                                         env_.graph());
    if (lb < kInf) {
      EXPECT_GE(lb, 0.0);
    }
  }
}

TEST_F(DecisionTest, TighterForCloserWorkers) {
  // The bound should order an adjacent worker ahead of a distant one for
  // an empty-route pickup (this ordering drives Lemma 8 pruning).
  const Request r = env_.AddRequest(9, 18, 0.0, 1e9);  // (1,1) -> (2,2)
  Route near_rt(1, 0.0);   // vertex (1,0)
  Route far_rt(63, 0.0);   // vertex (7,7)
  const RouteState near_st = BuildRouteState(near_rt, env_.ctx());
  const RouteState far_st = BuildRouteState(far_rt, env_.ctx());
  const double L = env_.ctx()->DirectDist(r.id);
  EXPECT_LT(DecisionLowerBound(worker_, near_rt, near_st, r, L, env_.graph()),
            DecisionLowerBound(worker_, far_rt, far_st, r, L, env_.graph()));
}

TEST(DecisionColumnTest, ColumnPathBitIdenticalToReferenceFuzz) {
  // The column-gathered DecisionLowerBound vs the on-demand reference on
  // random routes/requests, including tight deadlines (exercising the
  // gather cutoff) and capacity pressure: results must be EXACTLY equal —
  // this bound feeds the engine determinism contract, so even an ulp of
  // drift between the paths would be a bug.
  TestEnv env(MakeGridGraph(12, 12, 0.7));
  Rng rng(97);
  Worker worker{0, 0, 3};
  Route route(0, 0.0);
  int compared = 0, finite = 0, cutoff_hit = 0;
  for (int iter = 0; iter < 400; ++iter) {
    if (iter % 5 == 0 && route.size() < 24) {
      // Grow the route through a real insertion so schedules stay valid.
      const VertexId o = rng.UniformInt(0, 143);
      VertexId d = rng.UniformInt(0, 143);
      if (d == o) d = (d + 1) % 144;
      const Request grow = env.AddRequest(o, d, 0.0, 1e9, 10.0, 1);
      const InsertionCandidate c = LinearDpInsertion(
          worker, route, BuildRouteState(route, env.ctx()), grow, env.ctx());
      if (c.feasible()) route.Insert(grow, c.i, c.j, env.oracle());
    }
    const VertexId o = rng.UniformInt(0, 143);
    VertexId d = rng.UniformInt(0, 143);
    if (d == o) d = (d + 1) % 144;
    // Mix loose, tight and hopeless deadlines.
    const double deadline =
        iter % 3 == 0 ? rng.Uniform(0.5, 20.0) : rng.Uniform(20.0, 1e4);
    const Request probe =
        env.AddRequest(o, d, 0.0, deadline, 10.0, rng.UniformInt(1, 3));
    const RouteState st = BuildRouteState(route, env.ctx());
    const double L = env.ctx()->DirectDist(probe.id);
    const double fast =
        DecisionLowerBound(worker, route, st, probe, L, env.graph());
    const double ref =
        DecisionLowerBoundReference(worker, route, st, probe, L, env.graph());
    EXPECT_EQ(fast, ref) << "iter " << iter << " n=" << st.n;
    ++compared;
    if (fast < kInf) ++finite;
    if (!st.arr.empty() && st.arr[static_cast<std::size_t>(st.n)] > deadline) {
      ++cutoff_hit;  // gather stopped before the end of the route
    }
  }
  EXPECT_EQ(compared, 400);
  EXPECT_GT(finite, 50);     // the fuzz really exercised feasible bounds
  EXPECT_GT(cutoff_hit, 20);  // ...and the deadline-cutoff gather
}

TEST(IdleDecisionBoundTest, ClosedFormBitIdenticalToTouchedDpFuzz) {
  // An idle worker's closed-form bound, taken on the untouched route, must
  // equal the DP's bound on the route Fleet::Touch(w, now) leaves — bit
  // for bit, since the planner's scan order depends on it. The fuzz
  // covers anchors all over the grid, anchor clocks behind, at and ahead
  // of `now`, capacities on both sides of the request's, and deadlines on
  // both sides of feasibility, the exact boundary and the next double
  // below it included.
  TestEnv env(MakeGridGraph(12, 12, 0.7));
  Rng rng(131);
  int finite = 0, capacity_inf = 0, deadline_inf = 0, boundary = 0;
  for (int iter = 0; iter < 600; ++iter) {
    const Worker worker{0, rng.UniformInt(0, 143), rng.UniformInt(1, 4)};
    Fleet fleet({worker}, &env.graph());
    const double now = rng.Uniform(0.0, 500.0);
    // Mostly behind `now`, as after AdvanceTo; sometimes at or ahead.
    const int clock = iter % 10;
    const double anchor_time = clock == 0   ? now
                               : clock == 1 ? now + rng.Uniform(0.0, 5.0)
                                            : now - rng.Uniform(0.0, 60.0);
    fleet.Touch(0, anchor_time);
    const VertexId o = rng.UniformInt(0, 143);
    VertexId d = rng.UniformInt(0, 143);
    if (d == o) d = (d + 1) % 144;
    const Point po = env.graph().coord(o);
    const double euc =
        EuclideanDistance(env.graph().coord(worker.initial_location), po) /
        MaxSpeedKmPerMin();
    const double t0 = std::max(fleet.route(0).anchor_time(), now);
    // Deadline: loose, tight, hopeless, or exactly on the feasibility edge
    // (computed with the bound's own expression) and one ulp below it.
    const Request probe0 = env.AddRequest(o, d, now, 1e9, 10.0, 1);
    const double L = env.ctx()->DirectDist(probe0.id);
    const double edge = t0 + euc + L;
    double deadline = 0.0;
    switch (iter % 5) {
      case 0: deadline = edge; break;
      case 1: deadline = std::nextafter(edge, 0.0); break;
      case 2: deadline = edge + rng.Uniform(0.0, 30.0); break;
      case 3: deadline = edge - rng.Uniform(0.0, 30.0); break;
      default: deadline = now + rng.Uniform(0.0, 1e4); break;
    }
    Request r = probe0;
    r.deadline = deadline;
    r.capacity = rng.UniformInt(1, 5);

    const double closed = IdleDecisionLowerBound(worker, fleet.route(0), r, L,
                                                 now, env.graph());
    fleet.Touch(0, now);
    const Route& touched = fleet.route(0);
    const RouteState st = BuildRouteState(touched, env.ctx());
    const double dp =
        DecisionLowerBound(worker, touched, st, r, L, env.graph());
    EXPECT_EQ(closed, dp) << "iter " << iter;
    if (closed < kInf) ++finite;
    if (worker.capacity < r.capacity) {
      ++capacity_inf;
    } else if (closed == kInf) {
      ++deadline_inf;
    }
    if (iter % 5 == 0 && closed < kInf) ++boundary;
  }
  EXPECT_GT(finite, 150);        // feasible bounds were compared
  EXPECT_GT(capacity_inf, 60);   // ...and capacity rejections
  EXPECT_GT(deadline_inf, 100);  // ...and deadline rejections
  EXPECT_GT(boundary, 40);       // the exact edge is feasible
}

}  // namespace
}  // namespace urpsm
