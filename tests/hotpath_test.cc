// Tests for the flat-memory hot path: CSR hub labels, the fleet's
// version-keyed route-state cache, the O(1) arrival prefix, and the
// per-request distance columns feeding the insertion operators.

#include <algorithm>
#include <gtest/gtest.h>

#include <vector>

#include "src/graph/builders.h"
#include "src/insertion/insertion.h"
#include "src/model/feasibility.h"
#include "src/shortest/dijkstra.h"
#include "src/shortest/hub_labels.h"
#include "src/shortest/oracle.h"
#include "src/sim/fleet.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace urpsm {
namespace {

// ------------------------------------------------------- CSR hub labels

RoadNetwork MakeTwoComponentGraph() {
  // Two 3x4 grids with no connecting edge.
  std::vector<Point> coords;
  std::vector<EdgeSpec> edges;
  const auto add_grid = [&](double x0, double y0) {
    const VertexId base = static_cast<VertexId>(coords.size());
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 4; ++c) {
        coords.push_back({x0 + c * 1.0, y0 + r * 1.0});
      }
    }
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 4; ++c) {
        const VertexId v = base + static_cast<VertexId>(r * 4 + c);
        if (c + 1 < 4) edges.push_back({v, v + 1, 1.0, RoadClass::kPrimary});
        if (r + 1 < 3) edges.push_back({v, v + 4, 1.0, RoadClass::kPrimary});
      }
    }
  };
  add_grid(0.0, 0.0);
  add_grid(100.0, 100.0);
  return RoadNetwork::FromEdges(std::move(coords), edges);
}

TEST(HubLabelCsrTest, MatchesDijkstraOracleOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng grng(40 + seed);
    const RoadNetwork g = MakeRandomGeometricGraph(160, 12.0, 4, &grng);
    HubLabelOracle labels = HubLabelOracle::Build(g);
    DijkstraOracle truth(&g);
    Rng rng(7 * seed);
    for (int trial = 0; trial < 150; ++trial) {
      const VertexId s = rng.UniformInt(0, g.num_vertices() - 1);
      const VertexId t = rng.UniformInt(0, g.num_vertices() - 1);
      EXPECT_NEAR(labels.Distance(s, t), truth.Distance(s, t), 1e-9)
          << "seed=" << seed << " s=" << s << " t=" << t;
    }
  }
}

TEST(HubLabelCsrTest, DisconnectedPairsAreInfinite) {
  const RoadNetwork g = MakeTwoComponentGraph();
  HubLabelOracle labels = HubLabelOracle::Build(g);
  DijkstraOracle truth(&g);
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      const double expect = truth.Distance(s, t);
      const double got = labels.Distance(s, t);
      if (expect == kInfDistance) {
        EXPECT_EQ(got, kInfDistance) << "s=" << s << " t=" << t;
      } else {
        EXPECT_NEAR(got, expect, 1e-12) << "s=" << s << " t=" << t;
      }
    }
  }
}

// ------------------------------------------------- route version + arrivals

TEST(RouteVersionTest, MutatorsBumpVersionAndArrivalsStayExact) {
  TestEnv env(MakeGridGraph(8, 8, 0.5));
  Route rt(0, 5.0);
  EXPECT_EQ(rt.version(), 0u);

  const auto expect_arrivals_exact = [&](const Route& route) {
    for (int k = 0; k <= route.size(); ++k) {
      double t = route.anchor_time();
      for (int l = 0; l < k; ++l) {
        t += route.leg_costs()[static_cast<std::size_t>(l)];
      }
      // Bit-exact: the cache must match the fresh prefix walk exactly,
      // not just approximately.
      EXPECT_EQ(route.ArrivalAt(k), t) << "k=" << k;
    }
  };
  expect_arrivals_exact(rt);

  const Request r1 = env.AddRequest(3, 42, 0.0, 1e9);
  rt.Insert(r1, 0, 0, env.oracle());
  EXPECT_EQ(rt.version(), 1u);
  expect_arrivals_exact(rt);

  const Request r2 = env.AddRequest(10, 60, 0.0, 1e9);
  rt.Insert(r2, 1, 2, env.oracle());
  EXPECT_EQ(rt.version(), 2u);
  expect_arrivals_exact(rt);

  rt.PopFront();
  EXPECT_EQ(rt.version(), 3u);
  expect_arrivals_exact(rt);

  std::vector<Stop> stops(rt.stops().begin(), rt.stops().end());
  std::reverse(stops.begin(), stops.end());
  rt.SetStops(std::move(stops), env.oracle());
  EXPECT_EQ(rt.version(), 4u);
  expect_arrivals_exact(rt);

  rt.set_anchor_time(rt.anchor_time() + 2.5);
  EXPECT_EQ(rt.version(), 5u);
  expect_arrivals_exact(rt);
}

// ----------------------------------------------------- route-state cache

void ExpectStateEqual(const RouteState& cached, const RouteState& fresh,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(cached.n, fresh.n);
  // Exact (bit-level) equality: the cache must be indistinguishable from a
  // fresh build, not merely close.
  EXPECT_EQ(cached.arr, fresh.arr);
  EXPECT_EQ(cached.ddl, fresh.ddl);
  EXPECT_EQ(cached.slack, fresh.slack);
  EXPECT_EQ(cached.picked, fresh.picked);
}

TEST(RouteStateCacheTest, FuzzChurnMatchesFreshBuildAfterEveryMutation) {
  Rng rng(67);
  const RoadNetwork g = MakeGridGraph(10, 10, 0.6);
  DijkstraOracle oracle(&g);
  std::vector<Request> requests;
  PlanningContext ctx(&g, &oracle, &requests);

  constexpr int kWorkers = 4;
  std::vector<Worker> workers;
  for (WorkerId w = 0; w < kWorkers; ++w) {
    workers.push_back(
        {w, rng.UniformInt(0, g.num_vertices() - 1), rng.UniformInt(3, 6)});
  }
  Fleet fleet(workers, &g);
  std::vector<RequestId> last_assigned(kWorkers, kInvalidRequest);

  double now = 0.0;
  for (int op = 0; op < 300; ++op) {
    const int kind = rng.UniformInt(0, 9);
    const auto w = static_cast<WorkerId>(rng.UniformInt(0, kWorkers - 1));
    if (kind < 5) {
      // Random insertion through the ground-truth operator; mixes tight
      // and loose deadlines so routes grow, shrink and reject.
      const VertexId o = rng.UniformInt(0, g.num_vertices() - 1);
      VertexId d = rng.UniformInt(0, g.num_vertices() - 1);
      if (d == o) d = (d + 1) % g.num_vertices();
      Request r;
      r.id = static_cast<RequestId>(requests.size());
      r.origin = o;
      r.destination = d;
      r.release_time = now;
      r.deadline = now + rng.Uniform(5.0, 40.0);
      r.capacity = rng.UniformInt(1, 2);
      requests.push_back(r);
      fleet.Touch(w, now);
      const InsertionCandidate c =
          BasicInsertion(fleet.worker(w), fleet.route(w), r, &ctx);
      if (c.feasible()) {
        fleet.ApplyInsertion(w, r, c.i, c.j, &oracle);
        last_assigned[static_cast<std::size_t>(w)] = r.id;
      }
    } else if (kind < 7) {
      now += rng.Uniform(0.0, 4.0);
      fleet.AdvanceTo(now);  // commits due stops (PopFront churn)
    } else if (kind < 9) {
      fleet.Touch(w, now);  // idle anchor-time bumps
    } else if (last_assigned[static_cast<std::size_t>(w)] !=
               kInvalidRequest) {
      // SetStops churn: re-commit the same stops wholesale (recomputes
      // legs, bumps the version) via ReplaceRoute.
      std::vector<Stop> stops(fleet.route(w).stops().begin(),
                              fleet.route(w).stops().end());
      fleet.ReplaceRoute(w, requests[static_cast<std::size_t>(
                                last_assigned[static_cast<std::size_t>(w)])],
                         std::move(stops), &oracle);
    }
    // The cache must equal a fresh build for every worker after every
    // mutation — including workers untouched this round (warm entries).
    for (WorkerId v = 0; v < kWorkers; ++v) {
      const RouteState& cached = fleet.CachedState(v, &ctx);
      const RouteState fresh = BuildRouteState(fleet.route(v), &ctx);
      ExpectStateEqual(cached, fresh,
                       "op " + std::to_string(op) + ", worker " +
                           std::to_string(v));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(RouteStateCacheTest, RepeatedCallsDoNotRebuild) {
  const RoadNetwork g = MakeGridGraph(6, 6, 0.5);
  DijkstraOracle oracle(&g);
  std::vector<Request> requests;
  PlanningContext ctx(&g, &oracle, &requests);
  Fleet fleet({{0, 0, 4}}, &g);

  const RouteState& a = fleet.CachedState(0, &ctx);
  const RouteState* a_ptr = &a;
  const std::int64_t queries_after_first = oracle.query_count();
  const RouteState& b = fleet.CachedState(0, &ctx);
  EXPECT_EQ(&b, a_ptr);  // same slot, no rebuild
  EXPECT_EQ(oracle.query_count(), queries_after_first);
}

// ----------------------------------------------------- distance columns

TEST(DistanceColumnsTest, GatherMatchesDirectDist) {
  TestEnv env(MakeGridGraph(9, 9, 0.5));
  Worker w{0, 0, 8};
  Route rt(w.initial_location, 0.0);
  Rng rng(71);
  BuildRandomRoute(&env, w, &rt, 10, 0.0, 60.0, &rng);
  const Request probe = env.AddRequest(5, 70, 0.0, 1e9);

  DistanceColumns cols;
  GatherDistanceColumns(rt, probe, env.ctx(), &cols);
  ASSERT_EQ(cols.to_origin.size(), static_cast<std::size_t>(rt.size() + 1));
  ASSERT_EQ(cols.to_destination.size(),
            static_cast<std::size_t>(rt.size() + 1));
  for (int k = 0; k <= rt.size(); ++k) {
    const auto ks = static_cast<std::size_t>(k);
    EXPECT_EQ(cols.to_origin[ks],
              env.ctx()->Dist(rt.VertexAt(k), probe.origin));
    EXPECT_EQ(cols.to_destination[ks],
              env.ctx()->Dist(rt.VertexAt(k), probe.destination));
  }
}

TEST(DistanceColumnsTest, ExplicitColumnsMatchImplicitGather) {
  TestEnv env(MakeGridGraph(9, 9, 0.5));
  Worker w{0, 0, 6};
  Route rt(w.initial_location, 0.0);
  Rng rng(73);
  BuildRandomRoute(&env, w, &rt, 12, 0.0, 45.0, &rng);
  const RouteState st = BuildRouteState(rt, env.ctx());

  for (int trial = 0; trial < 40; ++trial) {
    const VertexId o = rng.UniformInt(0, env.graph().num_vertices() - 1);
    VertexId d = rng.UniformInt(0, env.graph().num_vertices() - 1);
    if (d == o) d = (d + 1) % env.graph().num_vertices();
    const Request r =
        env.AddRequest(o, d, 0.0, rng.Uniform(10.0, 80.0), 10.0,
                       rng.UniformInt(1, 2));
    DistanceColumns cols;
    GatherDistanceColumns(rt, r, env.ctx(), &cols);

    const InsertionCandidate lin_tls =
        LinearDpInsertion(w, rt, st, r, env.ctx());
    const InsertionCandidate lin_cols =
        LinearDpInsertion(w, rt, st, r, cols, env.ctx());
    EXPECT_EQ(lin_tls.i, lin_cols.i);
    EXPECT_EQ(lin_tls.j, lin_cols.j);
    EXPECT_EQ(lin_tls.delta, lin_cols.delta);

    const InsertionCandidate nai_tls =
        NaiveDpInsertion(w, rt, st, r, env.ctx());
    const InsertionCandidate nai_cols =
        NaiveDpInsertion(w, rt, st, r, cols, env.ctx());
    EXPECT_EQ(nai_tls.i, nai_cols.i);
    EXPECT_EQ(nai_tls.j, nai_cols.j);
    EXPECT_EQ(nai_tls.delta, nai_cols.delta);
  }
}

TEST(DistanceColumnsTest, AllThreeOperatorsAgreeUnderFuzz) {
  // Column-fed basic (ground truth), naive DP and linear DP must pick
  // placements of identical cost on mixed feasible/infeasible workloads.
  Rng rng(79);
  for (int round = 0; round < 6; ++round) {
    TestEnv env(MakeGridGraph(8, 8, 0.6));
    Worker w{0, rng.UniformInt(0, env.graph().num_vertices() - 1),
             rng.UniformInt(2, 5)};
    Route rt(w.initial_location, 0.0);
    BuildRandomRoute(&env, w, &rt, 8, 0.0, 35.0, &rng);
    for (int trial = 0; trial < 25; ++trial) {
      const VertexId o = rng.UniformInt(0, env.graph().num_vertices() - 1);
      VertexId d = rng.UniformInt(0, env.graph().num_vertices() - 1);
      if (d == o) d = (d + 1) % env.graph().num_vertices();
      const Request r =
          env.AddRequest(o, d, 0.0, rng.Uniform(4.0, 50.0), 10.0,
                         rng.UniformInt(1, 3));
      const InsertionCandidate basic = BasicInsertion(w, rt, r, env.ctx());
      const InsertionCandidate naive = NaiveDpInsertion(w, rt, r, env.ctx());
      const InsertionCandidate lin = LinearDpInsertion(w, rt, r, env.ctx());
      ASSERT_EQ(basic.feasible(), naive.feasible())
          << "round " << round << " trial " << trial;
      ASSERT_EQ(basic.feasible(), lin.feasible())
          << "round " << round << " trial " << trial;
      if (basic.feasible()) {
        EXPECT_NEAR(basic.delta, naive.delta, 1e-9);
        EXPECT_NEAR(basic.delta, lin.delta, 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace urpsm
