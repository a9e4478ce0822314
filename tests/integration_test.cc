#include <gtest/gtest.h>

#include <map>

#include "src/algos/batch.h"
#include "src/algos/kinetic.h"
#include "src/algos/tshare.h"
#include "src/core/objective.h"
#include "src/shortest/hub_labels.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/workload/city.h"
#include "src/workload/requests.h"

namespace urpsm {
namespace {

/// End-to-end: full day, all five algorithms, hub-label oracle (as the
/// paper's setup), invariants checked for every run.
class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new RoadNetwork(MakeChengduLike(0.05, 21));
    labels_ = new HubLabelOracle(HubLabelOracle::Build(*graph_));
    Rng rng(99);
    workers_ = new std::vector<Worker>(GenerateWorkers(*graph_, 20, 3.0, &rng));
    RequestParams rp;
    rp.count = 250;
    rp.duration_min = 300.0;
    rp.seed = 100;
    requests_ = new std::vector<Request>(
        GenerateRequests(*graph_, rp, labels_, &rng));
  }
  static void TearDownTestSuite() {
    delete requests_;
    delete workers_;
    delete labels_;
    delete graph_;
  }

  SimReport RunAlgo(const PlannerFactory& factory, SimOptions options = {}) {
    Simulation sim(graph_, labels_, *workers_, requests_, options);
    const SimReport rep = sim.Run(factory);
    const InvariantReport inv = VerifyInvariants(sim.fleet(), *requests_);
    EXPECT_TRUE(inv.ok) << rep.algorithm << ": " << inv.violation;
    return rep;
  }

  static RoadNetwork* graph_;
  static HubLabelOracle* labels_;
  static std::vector<Worker>* workers_;
  static std::vector<Request>* requests_;
};

RoadNetwork* IntegrationTest::graph_ = nullptr;
HubLabelOracle* IntegrationTest::labels_ = nullptr;
std::vector<Worker>* IntegrationTest::workers_ = nullptr;
std::vector<Request>* IntegrationTest::requests_ = nullptr;

TEST_F(IntegrationTest, AllFiveAlgorithmsCompleteAndAreSane) {
  std::map<std::string, SimReport> reports;
  reports["prune"] = RunAlgo(MakePruneGreedyDpFactory({}));
  reports["greedy"] = RunAlgo(MakeGreedyDpFactory({}));
  reports["tshare"] = RunAlgo(MakeTShareFactory({}));
  reports["kinetic"] = RunAlgo(MakeKineticFactory({}));
  reports["batch"] = RunAlgo(MakeBatchFactory({}));
  for (const auto& [name, rep] : reports) {
    EXPECT_GT(rep.served_requests, 0) << name;
    EXPECT_GT(rep.total_distance, 0.0) << name;
    EXPECT_FALSE(rep.timed_out) << name;
  }
  // Pruning is lossless (same result as unpruned).
  EXPECT_EQ(reports["prune"].served_requests,
            reports["greedy"].served_requests);
  EXPECT_NEAR(reports["prune"].unified_cost, reports["greedy"].unified_cost,
              1e-6 * reports["greedy"].unified_cost);
  EXPECT_LE(reports["prune"].distance_queries,
            reports["greedy"].distance_queries);
}

TEST_F(IntegrationTest, ObjectivePresetMaxServedServesMore) {
  // alpha = 0 / p = 1 (max-served preset) must serve at least as many
  // requests as alpha = 1 with tiny penalties (which rejects aggressively).
  std::vector<Request> unit = *requests_;
  SetUnitPenalties(&unit);
  SimOptions served_opts;
  served_opts.alpha = 0.0;
  Simulation sim_served(graph_, labels_, *workers_, &unit, served_opts);
  const SimReport rep_served =
      sim_served.Run(MakePruneGreedyDpFactory(PlannerConfig{.alpha = 0.0}));

  std::vector<Request> tiny = *requests_;
  for (Request& r : tiny) r.penalty = 1e-9;
  SimOptions dist_opts;
  dist_opts.alpha = 1.0;
  Simulation sim_dist(graph_, labels_, *workers_, &tiny, dist_opts);
  const SimReport rep_dist =
      sim_dist.Run(MakePruneGreedyDpFactory(PlannerConfig{.alpha = 1.0}));

  EXPECT_GT(rep_served.served_requests, rep_dist.served_requests);
  // And with unit penalties, UC == number of unserved requests.
  EXPECT_NEAR(rep_served.unified_cost,
              rep_served.total_requests - rep_served.served_requests, 1e-9);
}

TEST_F(IntegrationTest, RevenueObjectiveIdentityHoldsEndToEnd) {
  const double cr = 3.0, cw = 0.4;
  std::vector<Request> rev = *requests_;
  SetRevenuePenalties(&rev, cr, labels_);
  SimOptions options;
  options.alpha = cw;
  Simulation sim(graph_, labels_, *workers_, &rev, options);
  const SimReport rep =
      sim.Run(MakePruneGreedyDpFactory(PlannerConfig{.alpha = cw}));

  double all_fares = 0.0;
  for (const Request& r : rev) {
    all_fares += cr * labels_->Distance(r.origin, r.destination);
  }
  const double revenue = Revenue(rev, sim.served(), rep.total_distance, cr,
                                 cw, labels_);
  // Eq. (4): revenue = c_r * sum dis - UC.
  EXPECT_NEAR(revenue, all_fares - rep.unified_cost, 1e-6 * all_fares);
}

TEST_F(IntegrationTest, LongerDeadlinesImproveService) {
  std::vector<Request> tight = *requests_;
  SetDeadlineOffsets(&tight, 5.0);
  SetPenaltyFactors(&tight, 10.0, labels_);
  Simulation sim_tight(graph_, labels_, *workers_, &tight, SimOptions{});
  const SimReport rep_tight = sim_tight.Run(MakePruneGreedyDpFactory({}));

  std::vector<Request> loose = *requests_;
  SetDeadlineOffsets(&loose, 25.0);
  SetPenaltyFactors(&loose, 10.0, labels_);
  Simulation sim_loose(graph_, labels_, *workers_, &loose, SimOptions{});
  const SimReport rep_loose = sim_loose.Run(MakePruneGreedyDpFactory({}));

  EXPECT_GT(rep_loose.served_rate, rep_tight.served_rate);
  EXPECT_LT(rep_loose.unified_cost, rep_tight.unified_cost);
}

TEST_F(IntegrationTest, HubLabelOracleAgreesWithDijkstraInSitu) {
  DijkstraOracle exact(graph_);
  Rng rng(55);
  for (int i = 0; i < 50; ++i) {
    const VertexId s = rng.UniformInt(0, graph_->num_vertices() - 1);
    const VertexId t = rng.UniformInt(0, graph_->num_vertices() - 1);
    EXPECT_NEAR(labels_->Distance(s, t), exact.Distance(s, t), 1e-9);
  }
}

TEST_F(IntegrationTest, SimulationIdenticalAcrossOracles) {
  // The planner's decisions depend only on distances; any exact oracle
  // must produce a bit-identical simulation outcome.
  DijkstraOracle dijkstra(graph_);

  Simulation sim_hub(graph_, labels_, *workers_, requests_, SimOptions{});
  const SimReport hub = sim_hub.Run(MakePruneGreedyDpFactory({}));
  Simulation sim_dij(graph_, &dijkstra, *workers_, requests_, SimOptions{});
  const SimReport dij = sim_dij.Run(MakePruneGreedyDpFactory({}));

  EXPECT_EQ(hub.served_requests, dij.served_requests);
  EXPECT_NEAR(hub.unified_cost, dij.unified_cost,
              1e-6 * hub.unified_cost);
  EXPECT_EQ(sim_hub.served(), sim_dij.served());
}

}  // namespace
}  // namespace urpsm
