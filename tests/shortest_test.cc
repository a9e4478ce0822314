#include <gtest/gtest.h>

#include <memory>

#include "src/graph/builders.h"
#include "src/shortest/bidijkstra.h"
#include "src/shortest/dijkstra.h"
#include "src/shortest/hub_labels.h"
#include "src/shortest/oracle.h"
#include "src/util/rng.h"
#include "src/workload/city.h"

namespace urpsm {
namespace {

TEST(DijkstraTest, PathGraphDistances) {
  const RoadNetwork g = MakePathGraph(5, 1.0);  // residential, 1 km edges
  const double per_edge = 1.0 / SpeedKmPerMin(RoadClass::kResidential);
  EXPECT_NEAR(DijkstraDistance(g, 0, 4), 4 * per_edge, 1e-12);
  EXPECT_NEAR(DijkstraDistance(g, 2, 3), per_edge, 1e-12);
  EXPECT_DOUBLE_EQ(DijkstraDistance(g, 3, 3), 0.0);
}

TEST(DijkstraTest, CycleTakesShorterArc) {
  const RoadNetwork g = MakeCycleGraph(10, 1.0);
  const double per_edge = 1.0 / SpeedKmPerMin(RoadClass::kResidential);
  EXPECT_NEAR(DijkstraDistance(g, 0, 3), 3 * per_edge, 1e-12);
  EXPECT_NEAR(DijkstraDistance(g, 0, 7), 3 * per_edge, 1e-12);  // wrap
  EXPECT_NEAR(DijkstraDistance(g, 0, 5), 5 * per_edge, 1e-12);  // antipodal
}

TEST(DijkstraTest, UnreachableIsInfinite) {
  std::vector<Point> coords = {{0, 0}, {1, 0}, {5, 5}, {6, 5}};
  std::vector<EdgeSpec> edges = {{0, 1, 1.0, RoadClass::kResidential},
                                 {2, 3, 1.0, RoadClass::kResidential}};
  const RoadNetwork g = RoadNetwork::FromEdges(coords, edges);
  EXPECT_EQ(DijkstraDistance(g, 0, 2), kInfDistance);
  EXPECT_TRUE(DijkstraPath(g, 0, 2).empty());
}

TEST(DijkstraTest, PathEndpointsAndContinuity) {
  Rng rng(11);
  const RoadNetwork g = MakeRandomGeometricGraph(80, 8.0, 3, &rng);
  for (int trial = 0; trial < 20; ++trial) {
    const VertexId s = rng.UniformInt(0, g.num_vertices() - 1);
    const VertexId t = rng.UniformInt(0, g.num_vertices() - 1);
    const auto path = DijkstraPath(g, s, t);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), s);
    EXPECT_EQ(path.back(), t);
    // Path cost equals the distance.
    double cost = 0.0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      double best = kInfDistance;
      for (const auto& arc : g.Neighbors(path[i])) {
        if (arc.to == path[i + 1]) best = std::min(best, arc.cost);
      }
      ASSERT_LT(best, kInfDistance) << "path uses a non-edge";
      cost += best;
    }
    EXPECT_NEAR(cost, DijkstraDistance(g, s, t), 1e-9);
  }
}

TEST(DijkstraTest, AllDistancesMatchPointQueries) {
  Rng rng(13);
  const RoadNetwork g = MakeRandomGeometricGraph(60, 6.0, 3, &rng);
  const auto all = DijkstraAll(g, 7);
  for (VertexId v = 0; v < g.num_vertices(); v += 5) {
    EXPECT_NEAR(all[static_cast<std::size_t>(v)], DijkstraDistance(g, 7, v),
                1e-9);
  }
}

TEST(BidijkstraTest, MatchesDijkstraOnRandomGraphs) {
  Rng rng(17);
  for (int seed = 0; seed < 3; ++seed) {
    Rng grng(100 + static_cast<std::uint64_t>(seed));
    const RoadNetwork g = MakeRandomGeometricGraph(120, 10.0, 3, &grng);
    for (int trial = 0; trial < 30; ++trial) {
      const VertexId s = rng.UniformInt(0, g.num_vertices() - 1);
      const VertexId t = rng.UniformInt(0, g.num_vertices() - 1);
      EXPECT_NEAR(BidirectionalDistance(g, s, t), DijkstraDistance(g, s, t),
                  1e-9);
    }
  }
}

TEST(BidijkstraTest, DisconnectedReturnsInfinity) {
  std::vector<Point> coords = {{0, 0}, {1, 0}, {5, 5}, {6, 5}};
  std::vector<EdgeSpec> edges = {{0, 1, 1.0, RoadClass::kResidential},
                                 {2, 3, 1.0, RoadClass::kResidential}};
  const RoadNetwork g = RoadNetwork::FromEdges(coords, edges);
  EXPECT_EQ(BidirectionalDistance(g, 0, 3), kInfDistance);
}

TEST(HubLabelsTest, MatchesDijkstraOnCity) {
  CityParams p;
  p.rows = 12;
  p.cols = 12;
  const RoadNetwork g = MakeCity(p);
  HubLabelOracle oracle = HubLabelOracle::Build(g);
  Rng rng(19);
  for (int trial = 0; trial < 200; ++trial) {
    const VertexId s = rng.UniformInt(0, g.num_vertices() - 1);
    const VertexId t = rng.UniformInt(0, g.num_vertices() - 1);
    EXPECT_NEAR(oracle.Distance(s, t), DijkstraDistance(g, s, t), 1e-9)
        << "s=" << s << " t=" << t;
  }
}

TEST(HubLabelsTest, MatchesDijkstraOnRandomGeometric) {
  Rng grng(23);
  const RoadNetwork g = MakeRandomGeometricGraph(150, 12.0, 4, &grng);
  HubLabelOracle oracle = HubLabelOracle::Build(g);
  Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    const VertexId s = rng.UniformInt(0, g.num_vertices() - 1);
    const VertexId t = rng.UniformInt(0, g.num_vertices() - 1);
    EXPECT_NEAR(oracle.Distance(s, t), DijkstraDistance(g, s, t), 1e-9);
  }
}

TEST(HubLabelsTest, SelfDistanceZeroAndCounters) {
  const RoadNetwork g = MakeGridGraph(5, 5, 1.0);
  HubLabelOracle oracle = HubLabelOracle::Build(g);
  EXPECT_DOUBLE_EQ(oracle.Distance(3, 3), 0.0);
  EXPECT_EQ(oracle.query_count(), 1);
  EXPECT_GT(oracle.average_label_size(), 0.0);
  EXPECT_GT(oracle.MemoryBytes(), 0);
}

TEST(HubLabelsTest, PathFallbackIsExact) {
  const RoadNetwork g = MakeGridGraph(4, 4, 1.0);
  HubLabelOracle oracle = HubLabelOracle::Build(g);
  const auto path = oracle.Path(0, 15);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 15);
}

TEST(BillingOracleTest, ForwardsEveryCallAndBillsOnce) {
  // No cache and no short-circuit: every call reaches the inner oracle,
  // u == v and repeated pairs included, so the inner count equals the
  // billed count exactly.
  const RoadNetwork g = MakeGridGraph(6, 6, 1.0);
  HubLabelOracle inner = HubLabelOracle::Build(g);
  BillingOracle billing(&inner);
  EXPECT_EQ(billing.Distance(4, 4), 0.0);
  EXPECT_NEAR(billing.Distance(0, 35), DijkstraDistance(g, 0, 35), 1e-9);
  EXPECT_DOUBLE_EQ(billing.Distance(35, 0), billing.Distance(0, 35));
  EXPECT_EQ(billing.query_count(), 4);
  EXPECT_EQ(inner.query_count(), 4);

  std::vector<double> out;
  billing.BatchQuery({0, 7, 7}, {7, 35}, &out);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[2], 0.0);  // 7 -> 7
  EXPECT_EQ(out[5], inner.Distance(7, 35));
  EXPECT_EQ(billing.query_count(), 10);
  EXPECT_EQ(inner.query_count(), 11);  // + the reference Distance above

  EXPECT_EQ(billing.Path(0, 35), inner.Path(0, 35));
  EXPECT_EQ(billing.query_count(), 10);  // paths are not billed
}

}  // namespace
}  // namespace urpsm
