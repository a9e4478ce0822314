// Tests for the contraction pass (ContractionOrder) through the hub labels
// built in its order: the labels must stay exact whatever order the pass
// produces, and the order itself must be a deterministic permutation.

#include <gtest/gtest.h>

#include <tuple>

#include "src/graph/builders.h"
#include "src/shortest/contraction.h"
#include "src/shortest/dijkstra.h"
#include "src/shortest/hub_labels.h"
#include "src/util/rng.h"
#include "src/workload/city.h"

namespace urpsm {
namespace {

TEST(ContractionTest, PathGraphDistances) {
  const RoadNetwork g = MakePathGraph(6, 1.0);
  HubLabelOracle labels = HubLabelOracle::Build(g);
  const double e = 1.0 / SpeedKmPerMin(RoadClass::kResidential);
  EXPECT_NEAR(labels.Distance(0, 5), 5 * e, 1e-12);
  EXPECT_NEAR(labels.Distance(2, 4), 2 * e, 1e-12);
  EXPECT_DOUBLE_EQ(labels.Distance(3, 3), 0.0);
}

TEST(ContractionTest, DisconnectedIsInfinite) {
  std::vector<Point> coords = {{0, 0}, {1, 0}, {5, 5}, {6, 5}};
  std::vector<EdgeSpec> edges = {{0, 1, 1.0, RoadClass::kResidential},
                                 {2, 3, 1.0, RoadClass::kResidential}};
  const RoadNetwork g = RoadNetwork::FromEdges(coords, edges);
  HubLabelOracle labels = HubLabelOracle::Build(g);
  EXPECT_EQ(labels.Distance(0, 2), kInfDistance);
  EXPECT_TRUE(labels.Path(0, 2).empty());
}

TEST(ContractionTest, MultigraphLabelsMatchDijkstra) {
  // Parallel edges of different cost (the pass must keep the cheaper one),
  // a zero-cost edge, and an isolated vertex (5) next to a small cycle.
  std::vector<Point> coords = {{0, 0}, {1, 0}, {2, 0}, {2, 1},
                               {1, 1}, {9, 9}, {0, 1}};
  std::vector<EdgeSpec> edges = {
      {0, 1, 1.0, RoadClass::kResidential},
      {0, 1, 1.0, RoadClass::kMotorway},  // parallel, cheaper
      {1, 0, 3.0, RoadClass::kResidential},  // parallel, reversed, dearer
      {1, 2, 1.0, RoadClass::kPrimary},
      {2, 3, 0.0, RoadClass::kResidential},  // zero cost
      {3, 4, 1.0, RoadClass::kSecondary},
      {4, 6, 1.0, RoadClass::kResidential},
      {6, 0, 1.0, RoadClass::kResidential},
      {4, 1, 1.5, RoadClass::kResidential},
      {4, 1, 1.0, RoadClass::kResidential},  // parallel, cheaper
  };
  const RoadNetwork g = RoadNetwork::FromEdges(coords, edges);
  HubLabelOracle labels = HubLabelOracle::Build(g);
  EXPECT_EQ(labels.Distance(2, 3), 0.0);
  EXPECT_EQ(labels.Distance(0, 5), kInfDistance);
  EXPECT_EQ(labels.Distance(5, 5), 0.0);
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    const std::vector<double> row = DijkstraAll(g, s);
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      const double want = row[static_cast<std::size_t>(t)];
      if (want == kInfDistance) {
        EXPECT_EQ(labels.Distance(s, t), kInfDistance)
            << "s=" << s << " t=" << t;
      } else {
        EXPECT_NEAR(labels.Distance(s, t), want, 1e-12)
            << "s=" << s << " t=" << t;
      }
    }
  }
}

TEST(ContractionTest, NycLikeLabelsMatchDijkstraRows) {
  // The default-scale NYC-like city (10,000 vertices): full Dijkstra rows
  // from a few sources, so every target is checked, not a sample.
  const RoadNetwork g = MakeNycLike(1.0);
  ASSERT_EQ(g.num_vertices(), 10'000);
  HubLabelOracle labels = HubLabelOracle::Build(g);
  Rng rng(17);
  for (int trial = 0; trial < 3; ++trial) {
    const VertexId s = rng.UniformInt(0, g.num_vertices() - 1);
    const std::vector<double> row = DijkstraAll(g, s);
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      ASSERT_NEAR(labels.Distance(s, t), row[static_cast<std::size_t>(t)],
                  1e-9)
          << "s=" << s << " t=" << t;
    }
  }
}

/// Parameterized sweep over graph families and seeds: labels built in
/// contraction order must equal Dijkstra, and the order must be a
/// deterministic permutation.
class ContractionPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  RoadNetwork MakeGraph(int kind, Rng* rng) {
    switch (kind) {
      case 0:
        return MakeGridGraph(9, 9, 0.7);
      case 1:
        return MakeCycleGraph(30, 1.0);
      case 2:
        return MakeRandomGeometricGraph(120, 9.0, 3, rng);
      default: {
        CityParams p;
        p.rows = 14;
        p.cols = 14;
        p.seed = 5;
        return MakeCity(p);
      }
    }
  }
};

TEST_P(ContractionPropertyTest, DistancesMatchDijkstra) {
  const auto [kind, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 39119 + 1);
  const RoadNetwork g = MakeGraph(kind, &rng);
  HubLabelOracle labels = HubLabelOracle::Build(g);
  for (int trial = 0; trial < 60; ++trial) {
    const VertexId s = rng.UniformInt(0, g.num_vertices() - 1);
    const VertexId t = rng.UniformInt(0, g.num_vertices() - 1);
    EXPECT_NEAR(labels.Distance(s, t), DijkstraDistance(g, s, t), 1e-9)
        << "s=" << s << " t=" << t << " kind=" << kind;
  }
}

TEST_P(ContractionPropertyTest, PathsAreValidAndTight) {
  // The order is a permutation of the vertices and a pure function of the
  // graph; paths from the labels' oracle are real paths whose cost is the
  // label distance.
  const auto [kind, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 48271 + 3);
  const RoadNetwork g = MakeGraph(kind, &rng);
  const std::vector<int> rank = ContractionOrder(g);
  EXPECT_EQ(ContractionOrder(g), rank);
  ASSERT_EQ(rank.size(), static_cast<std::size_t>(g.num_vertices()));
  std::vector<bool> seen(rank.size(), false);
  for (const int r : rank) {
    ASSERT_GE(r, 0);
    ASSERT_LT(r, static_cast<int>(rank.size()));
    ASSERT_FALSE(seen[static_cast<std::size_t>(r)]);
    seen[static_cast<std::size_t>(r)] = true;
  }

  HubLabelOracle labels = HubLabelOracle::Build(g);
  for (int trial = 0; trial < 20; ++trial) {
    const VertexId s = rng.UniformInt(0, g.num_vertices() - 1);
    const VertexId t = rng.UniformInt(0, g.num_vertices() - 1);
    const auto path = labels.Path(s, t);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), s);
    EXPECT_EQ(path.back(), t);
    double cost = 0.0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      double leg = kInfDistance;
      for (const auto& arc : g.Neighbors(path[i])) {
        if (arc.to == path[i + 1]) leg = std::min(leg, arc.cost);
      }
      ASSERT_LT(leg, kInfDistance)
          << "path uses non-edge " << path[i] << "->" << path[i + 1];
      cost += leg;
    }
    EXPECT_NEAR(cost, labels.Distance(s, t), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ContractionPropertyTest,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace urpsm
