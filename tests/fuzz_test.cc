#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>

#include "src/index/grid_index.h"
#include "src/sim/fleet.h"
#include "src/sim/metrics.h"
#include "tests/test_util.h"

namespace urpsm {
namespace {

class FuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSweep, GridIndexMatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7243 + 5);
  const double cell = rng.Uniform(0.5, 3.0);
  GridIndex index({0, 0}, {20, 20}, cell);
  std::unordered_map<WorkerId, Point> truth;
  WorkerId next_id = 0;
  for (int op = 0; op < 2000; ++op) {
    const double roll = rng.Uniform(0, 1);
    if (roll < 0.4 || truth.empty()) {
      const Point p{rng.Uniform(0, 20), rng.Uniform(0, 20)};
      index.Insert(next_id, p);
      truth[next_id] = p;
      ++next_id;
    } else if (roll < 0.6) {
      auto it = truth.begin();
      std::advance(it, rng.UniformInt(0, static_cast<int>(truth.size()) - 1));
      index.Remove(it->first, it->second);
      truth.erase(it);
    } else if (roll < 0.8) {
      auto it = truth.begin();
      std::advance(it, rng.UniformInt(0, static_cast<int>(truth.size()) - 1));
      const Point to{rng.Uniform(0, 20), rng.Uniform(0, 20)};
      index.Move(it->first, it->second, to);
      it->second = to;
    } else {
      const Point q{rng.Uniform(0, 20), rng.Uniform(0, 20)};
      const double radius = rng.Uniform(0, 6);
      const auto got = index.WithinRadius(q, radius);
      const std::set<WorkerId> got_set(got.begin(), got.end());
      // Superset property: everything within the true radius is returned.
      for (const auto& [w, p] : truth) {
        if (EuclideanDistance(p, q) <= radius) {
          EXPECT_TRUE(got_set.contains(w))
              << "op " << op << " missing worker " << w;
        }
      }
      // And nothing outside the cell-box over-approximation: the scan box
      // spans floor(radius/cell)+2 cell widths per axis from the query
      // point, i.e. at most sqrt(2) * (radius + 2 * cell).
      const double slack = 1.41422 * (radius + 2 * cell) + 1e-9;
      for (WorkerId w : got_set) {
        EXPECT_LE(EuclideanDistance(truth.at(w), q), slack) << "op " << op;
      }
    }
  }
  EXPECT_EQ(index.All().size(), truth.size());
}

TEST_P(FuzzSweep, FleetScheduleConsistentUnderRandomOps) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 9173 + 11);
  TestEnv env(MakeGridGraph(7, 7, 0.9));
  std::vector<Worker> workers;
  const int num_workers = rng.UniformInt(2, 5);
  for (int w = 0; w < num_workers; ++w) {
    workers.push_back({w, static_cast<VertexId>(rng.UniformInt(0, 48)),
                       rng.UniformInt(2, 5)});
  }
  Fleet fleet(workers, &env.graph());
  GridIndex index({0, 0}, {6, 6}, 1.5);
  fleet.AttachIndex(&index);

  double now = 0.0;
  for (int op = 0; op < 120; ++op) {
    now += rng.Uniform(0.0, 2.0);
    fleet.AdvanceTo(now);
    const VertexId o = rng.UniformInt(0, 48);
    VertexId d = rng.UniformInt(0, 48);
    if (d == o) d = (d + 1) % 49;
    const Request r =
        env.AddRequest(o, d, now, now + rng.Uniform(4.0, 30.0), 10.0,
                       rng.UniformInt(1, 2));
    const WorkerId w = rng.UniformInt(0, num_workers - 1);
    fleet.Touch(w, now);
    const InsertionCandidate c = LinearDpInsertion(
        fleet.worker(w), fleet.route(w), r, env.ctx());
    if (!c.feasible()) continue;
    fleet.ApplyInsertion(w, r, c.i, c.j, env.oracle());
    // Leg-cost cache must stay in sync with the oracle.
    const Route& rt = fleet.route(w);
    for (int k = 0; k < rt.size(); ++k) {
      ASSERT_NEAR(rt.leg_costs()[static_cast<std::size_t>(k)],
                  env.oracle()->Distance(rt.VertexAt(k), rt.VertexAt(k + 1)),
                  1e-9);
    }
  }
  fleet.FinishAll();
  // Total distance bookkeeping and all execution invariants.
  EXPECT_NEAR(fleet.TotalPlannedDistance(), fleet.committed_distance(), 1e-9);
  const InvariantReport rep = VerifyInvariants(fleet, env.requests());
  EXPECT_TRUE(rep.ok) << rep.violation;
  // Grid index ends with every worker indexed exactly once.
  EXPECT_EQ(index.All().size(), static_cast<std::size_t>(num_workers));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(1, 13));

}  // namespace
}  // namespace urpsm
