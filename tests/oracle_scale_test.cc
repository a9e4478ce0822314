// Tests for the continental-scale oracle work: the CH contraction order
// the hub labels are built in, label edge cases (all-zero edge costs) and
// memory bookkeeping, and the batched multi-source BatchQuery sweep
// through HubLabelOracle / BillingOracle / GatherDistanceColumns, up to a
// full simulation on the unpruned planner's multi-route gather.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/builders.h"
#include "src/insertion/insertion.h"
#include "src/model/feasibility.h"
#include "src/shortest/contraction.h"
#include "src/shortest/dijkstra.h"
#include "src/shortest/hub_labels.h"
#include "src/shortest/oracle.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/workload/city.h"
#include "src/workload/requests.h"
#include "tests/test_util.h"

namespace urpsm {
namespace {

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

// --------------------------------------------- contraction order and layout

TEST(HubLabelOrderTest, ContractionOrderIsAPermutation) {
  Rng grng(91);
  const RoadNetwork g = MakeRandomGeometricGraph(150, 10.0, 4, &grng);
  const std::vector<int> rank = ContractionOrder(g);
  ASSERT_EQ(rank.size(), static_cast<std::size_t>(g.num_vertices()));
  std::vector<bool> seen(rank.size(), false);
  for (const int r : rank) {
    ASSERT_GE(r, 0);
    ASSERT_LT(r, static_cast<int>(rank.size()));
    ASSERT_FALSE(seen[static_cast<std::size_t>(r)]);
    seen[static_cast<std::size_t>(r)] = true;
  }
}

TEST(HubLabelOrderTest, ContractionOrderMatchesDijkstraOnRandomGraphs) {
  // Sparse graphs contract with few shortcuts, dense ones with many witness
  // searches; the labels built in either contraction order must reproduce
  // every entry of a full Dijkstra row.
  for (const int k : {2, 4, 7}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      Rng grng(60 + 10 * static_cast<std::uint64_t>(k) + seed);
      const RoadNetwork g = MakeRandomGeometricGraph(130, 11.0, k, &grng);
      HubLabelOracle labels = HubLabelOracle::Build(g);
      Rng rng(5 * seed + static_cast<std::uint64_t>(k));
      for (int trial = 0; trial < 6; ++trial) {
        const VertexId s = rng.UniformInt(0, g.num_vertices() - 1);
        const std::vector<double> row = DijkstraAll(g, s);
        for (VertexId t = 0; t < g.num_vertices(); ++t) {
          EXPECT_NEAR(labels.Distance(s, t), row[static_cast<std::size_t>(t)],
                      1e-9)
              << "k=" << k << " seed=" << seed << " s=" << s << " t=" << t;
        }
      }
    }
  }
}

TEST(HubLabelOrderTest, ZeroLengthEdgesGiveZeroDistances) {
  // All-zero edge costs make every finite distance 0: the contraction pass
  // and the pruned searches see nothing but ties, and the labels must
  // still answer exactly.
  const RoadNetwork g = MakePathGraph(12, 0.0);
  HubLabelOracle labels = HubLabelOracle::Build(g);
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    const VertexId s = rng.UniformInt(0, g.num_vertices() - 1);
    const VertexId t = rng.UniformInt(0, g.num_vertices() - 1);
    EXPECT_EQ(labels.Distance(s, t), 0.0);
  }
}

TEST(HubLabelOrderTest, MemoryBytesReportsExactCsrSize) {
  Rng grng(12);
  const RoadNetwork g = MakeRandomGeometricGraph(140, 11.0, 4, &grng);
  const auto n = static_cast<std::size_t>(g.num_vertices());

  HubLabelOracle labels = HubLabelOracle::Build(g);
  const auto total = static_cast<std::size_t>(
      std::llround(labels.average_label_size() * static_cast<double>(n)));
  // Exact formula: offsets (n+1 x int64) + ranks (total x int32) +
  // distances (total x double). Capacity slack must not inflate it.
  EXPECT_EQ(labels.MemoryBytes(),
            static_cast<std::int64_t>((n + 1) * sizeof(std::int64_t) +
                                      total * sizeof(VertexId) +
                                      total * sizeof(double)));
}

// -------------------------------------------------------------- BatchQuery

TEST(OracleBatchQueryTest, MatchesPointQueriesExactly) {
  Rng grng(31);
  const RoadNetwork g = MakeRandomGeometricGraph(200, 13.0, 4, &grng);
  HubLabelOracle labels = HubLabelOracle::Build(g);
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    const int ns = rng.UniformInt(1, 9);
    const int nt = rng.UniformInt(1, 4);
    std::vector<VertexId> sources, targets;
    for (int i = 0; i < ns; ++i) {
      sources.push_back(rng.UniformInt(0, g.num_vertices() - 1));
    }
    for (int j = 0; j < nt; ++j) {
      targets.push_back(rng.UniformInt(0, g.num_vertices() - 1));
    }
    if (trial % 3 == 0 && ns > 1) sources[1] = sources[0];  // duplicate
    if (trial % 4 == 0) targets[0] = sources[0];            // s == t cell
    const std::int64_t before = labels.query_count();
    std::vector<double> out;
    labels.BatchQuery(sources, targets, &out);
    EXPECT_EQ(labels.query_count() - before,
              static_cast<std::int64_t>(ns) * nt);
    ASSERT_EQ(out.size(),
              static_cast<std::size_t>(ns) * static_cast<std::size_t>(nt));
    for (int i = 0; i < ns; ++i) {
      for (int j = 0; j < nt; ++j) {
        // Bit-identical, not just close: the sweep forms the same
        // candidate sums and min over doubles is order-independent.
        EXPECT_EQ(out[static_cast<std::size_t>(i * nt + j)],
                  labels.Distance(sources[static_cast<std::size_t>(i)],
                                  targets[static_cast<std::size_t>(j)]))
            << "trial=" << trial << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(OracleBatchQueryTest, DisconnectedPairsStayInfinite) {
  const RoadNetwork g = MakeTwoComponentGraph();
  HubLabelOracle labels = HubLabelOracle::Build(g);
  const VertexId a = 0;   // first grid
  const VertexId b = 12;  // second grid
  std::vector<double> out;
  labels.BatchQuery({a, b}, {b, a}, &out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], kInfDistance);  // a -> b
  EXPECT_EQ(out[1], 0.0);           // a -> a
  EXPECT_EQ(out[2], 0.0);           // b -> b
  EXPECT_EQ(out[3], kInfDistance);  // b -> a
}

TEST(OracleBatchQueryTest, EmptySetsAreSafe) {
  Rng grng(8);
  const RoadNetwork g = MakeRandomGeometricGraph(60, 8.0, 4, &grng);
  HubLabelOracle labels = HubLabelOracle::Build(g);
  std::vector<double> out{1.0, 2.0};
  labels.BatchQuery({}, {0, 1}, &out);
  EXPECT_TRUE(out.empty());
  labels.BatchQuery({0, 1}, {}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(OracleBatchQueryTest, BillingOracleBatchMatchesAndBills) {
  Rng grng(44);
  const RoadNetwork g = MakeRandomGeometricGraph(150, 11.0, 4, &grng);
  HubLabelOracle labels = HubLabelOracle::Build(g);
  Rng rng(21);
  for (int round = 0; round < 2; ++round) {
    BillingOracle billing(&labels);
    BillingOracle reference(&labels);
    for (int trial = 0; trial < 20; ++trial) {
      const int ns = rng.UniformInt(1, 8);
      const int nt = rng.UniformInt(1, 3);
      std::vector<VertexId> sources, targets;
      for (int i = 0; i < ns; ++i) {
        sources.push_back(rng.UniformInt(0, g.num_vertices() - 1));
      }
      for (int j = 0; j < nt; ++j) {
        targets.push_back(rng.UniformInt(0, g.num_vertices() - 1));
      }
      std::vector<double> out;
      billing.BatchQuery(sources, targets, &out);
      for (int i = 0; i < ns; ++i) {
        for (int j = 0; j < nt; ++j) {
          EXPECT_EQ(out[static_cast<std::size_t>(i * nt + j)],
                    reference.Distance(sources[static_cast<std::size_t>(i)],
                                       targets[static_cast<std::size_t>(j)]));
        }
      }
      // Billing parity: the batch bills every cell, like per-pair calls.
      EXPECT_EQ(billing.query_count(), reference.query_count());
    }
  }
}

TEST(OracleBatchQueryTest, GatherColumnsMatchReferenceFuzz) {
  // Fuzz-pin GatherDistanceColumns (batched sweep) against the original
  // per-pair loop, over random routes and requests, through a BillingOracle
  // on hub labels — values bit-identical AND the same billed query count.
  Rng grng(52);
  TestEnv env(MakeRandomGeometricGraph(120, 10.0, 4, &grng));
  HubLabelOracle labels = HubLabelOracle::Build(env.graph());
  BillingOracle billing(&labels);
  PlanningContext ctx(&env.graph(), &billing, &env.requests());

  Rng rng(67);
  Worker w;
  w.id = 0;
  w.capacity = 4;
  w.initial_location = 0;
  for (int round = 0; round < 12; ++round) {
    Route route(w.initial_location, 0.0);
    BuildRandomRoute(&env, w, &route, 6, 0.0, 90.0, &rng);
    const VertexId o = rng.UniformInt(0, env.graph().num_vertices() - 1);
    const VertexId d = rng.UniformInt(0, env.graph().num_vertices() - 1);
    const Request r = env.AddRequest(o, d, 0.0, 120.0);
    for (int max_pos = 0; max_pos <= route.size(); ++max_pos) {
      DistanceColumns got, want;
      const std::int64_t before_got = billing.query_count();
      GatherDistanceColumns(route, r, &ctx, &got, max_pos);
      const std::int64_t got_queries = billing.query_count() - before_got;
      GatherDistanceColumnsReference(route, r, &ctx, &want, max_pos);
      const std::int64_t want_queries =
          billing.query_count() - before_got - got_queries;
      EXPECT_EQ(got_queries, want_queries);
      ASSERT_EQ(got.to_origin.size(), want.to_origin.size());
      for (std::size_t k = 0; k < want.to_origin.size(); ++k) {
        EXPECT_EQ(got.to_origin[k], want.to_origin[k]);
        EXPECT_EQ(got.to_destination[k], want.to_destination[k]);
      }
    }
  }
}

TEST(OracleBatchQueryTest, MultiRouteGatherMatchesPerRoute) {
  Rng grng(58);
  TestEnv env(MakeRandomGeometricGraph(120, 10.0, 4, &grng));
  HubLabelOracle labels = HubLabelOracle::Build(env.graph());
  BillingOracle billing(&labels);
  PlanningContext ctx(&env.graph(), &billing, &env.requests());

  Rng rng(71);
  std::vector<Route> routes;
  for (int c = 0; c < 5; ++c) {
    Worker w;
    w.id = static_cast<WorkerId>(c);
    w.capacity = 4;
    w.initial_location = rng.UniformInt(0, env.graph().num_vertices() - 1);
    Route route(w.initial_location, 0.0);
    BuildRandomRoute(&env, w, &route, 5, 0.0, 90.0, &rng);
    routes.push_back(route);
  }
  const VertexId o = rng.UniformInt(0, env.graph().num_vertices() - 1);
  const VertexId d = rng.UniformInt(0, env.graph().num_vertices() - 1);
  const Request r = env.AddRequest(o, d, 0.0, 120.0);

  std::vector<const Route*> route_ptrs;
  std::vector<int> max_pos;
  for (const Route& route : routes) {
    route_ptrs.push_back(&route);
    max_pos.push_back(route.size());
  }
  std::vector<DistanceColumns> multi;
  const std::int64_t before = billing.query_count();
  GatherDistanceColumnsMulti(route_ptrs, max_pos, r, &ctx, &multi);
  const std::int64_t multi_queries = billing.query_count() - before;

  std::int64_t per_route_queries = 0;
  for (std::size_t c = 0; c < routes.size(); ++c) {
    DistanceColumns want;
    const std::int64_t b = billing.query_count();
    GatherDistanceColumns(routes[c], r, &ctx, &want, max_pos[c]);
    per_route_queries += billing.query_count() - b;
    ASSERT_EQ(multi[c].to_origin.size(), want.to_origin.size());
    for (std::size_t k = 0; k < want.to_origin.size(); ++k) {
      EXPECT_EQ(multi[c].to_origin[k], want.to_origin[k]);
      EXPECT_EQ(multi[c].to_destination[k], want.to_destination[k]);
    }
  }
  EXPECT_EQ(multi_queries, per_route_queries);
}

// ------------------------------------------------- end-to-end gather path

int ServedCount(const RoadNetwork& graph, DistanceOracle* oracle,
                const std::vector<Worker>& workers,
                const std::vector<Request>& requests,
                const PlannerFactory& factory) {
  Simulation sim(&graph, oracle, workers, &requests, SimOptions{});
  return sim.Run(factory).served_requests;
}

TEST(OracleBatchQueryTest, UnprunedGatherServesSameCountAsPruned) {
  // The unpruned planner drives the batched multi-route gather path over
  // hub labels; Lemma 8 pruning only skips work, so both planners serve
  // the same number of requests on the determinism workload.
  const RoadNetwork graph = MakeChengduLike(0.05, 2);
  HubLabelOracle labels = HubLabelOracle::Build(graph);

  Rng rng(17);
  RequestParams rp;
  rp.count = 260;
  rp.duration_min = 240.0;
  rp.seed = 23;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &labels, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 14, 4.0, &rng);

  const int pruned = ServedCount(graph, &labels, workers, requests,
                                 MakePruneGreedyDpFactory({}));
  ASSERT_GT(pruned, 0);
  PlannerConfig unpruned;
  unpruned.use_pruning = false;
  EXPECT_EQ(ServedCount(graph, &labels, workers, requests,
                        MakeGreedyDpFactory(unpruned)),
            pruned);
}

}  // namespace
}  // namespace urpsm
