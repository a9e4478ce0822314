#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "src/sim/fleet.h"
#include "src/sim/metrics.h"
#include "tests/test_util.h"

namespace urpsm {
namespace {

class FleetTest : public ::testing::Test {
 protected:
  FleetTest() : env_(MakePathGraph(10, 1.0)) {}
  double EdgeMin() const {
    return 1.0 / SpeedKmPerMin(RoadClass::kResidential);
  }
  Fleet MakeFleet() {
    std::vector<Worker> workers = {{0, 0, 4}, {1, 9, 4}};
    return Fleet(workers, &env_.graph());
  }
  TestEnv env_;
};

TEST_F(FleetTest, InitialState) {
  Fleet fleet = MakeFleet();
  EXPECT_EQ(fleet.size(), 2);
  EXPECT_EQ(fleet.route(0).anchor(), 0);
  EXPECT_EQ(fleet.route(1).anchor(), 9);
  EXPECT_DOUBLE_EQ(fleet.committed_distance(), 0.0);
  EXPECT_EQ(fleet.AssignedWorker(0), kInvalidWorker);
}

TEST_F(FleetTest, AdvanceCommitsDueStops) {
  const double e = EdgeMin();
  Fleet fleet = MakeFleet();
  const Request r = env_.AddRequest(2, 5, 0.0, 1e9);
  fleet.ApplyInsertion(0, r, 0, 0, env_.oracle());
  EXPECT_EQ(fleet.AssignedWorker(r.id), 0);

  fleet.AdvanceTo(1.9 * e);  // before pickup at 2e
  EXPECT_EQ(fleet.route(0).size(), 2);
  fleet.AdvanceTo(2.1 * e);  // pickup committed
  EXPECT_EQ(fleet.route(0).size(), 1);
  EXPECT_EQ(fleet.route(0).anchor(), 2);
  EXPECT_NEAR(fleet.PickupTime(r.id), 2 * e, 1e-12);
  EXPECT_EQ(fleet.DropoffTime(r.id), kInf);
  fleet.AdvanceTo(5.0 * e);  // dropoff at 5e
  EXPECT_TRUE(fleet.route(0).empty());
  EXPECT_NEAR(fleet.DropoffTime(r.id), 5 * e, 1e-12);
  EXPECT_NEAR(fleet.committed_distance(), 5 * e, 1e-12);
}

TEST_F(FleetTest, TouchBumpsIdleWorkers) {
  Fleet fleet = MakeFleet();
  fleet.Touch(0, 42.0);
  EXPECT_DOUBLE_EQ(fleet.route(0).anchor_time(), 42.0);
  // Touch never moves a worker's clock backwards.
  fleet.Touch(0, 10.0);
  EXPECT_DOUBLE_EQ(fleet.route(0).anchor_time(), 42.0);
}

TEST_F(FleetTest, TouchCommitsDueStopsForOneWorker) {
  const double e = EdgeMin();
  Fleet fleet = MakeFleet();
  const Request r = env_.AddRequest(2, 5, 0.0, 1e9);
  fleet.ApplyInsertion(0, r, 0, 0, env_.oracle());
  fleet.Touch(0, 3.0 * e);
  EXPECT_EQ(fleet.route(0).anchor(), 2);  // pickup committed
  EXPECT_EQ(fleet.route(0).size(), 1);
}

TEST_F(FleetTest, StopTimesReadTheCommitLogUnderGappyIds) {
  // Pickup and drop-off times come from the assigned worker's commit log:
  // ids need not be dense, and a request that is unassigned, or assigned
  // but not yet committed, reads kInf — mid-run and after FinishAll.
  const double e = EdgeMin();
  Fleet fleet = MakeFleet();
  const auto make = [](RequestId id, VertexId o, VertexId d) {
    Request r;
    r.id = id;
    r.origin = o;
    r.destination = d;
    r.deadline = 1e9;
    return r;
  };
  const Request far = make(1'000'003, 2, 5);  // worker 0: 2e, 5e
  const Request near = make(7, 8, 6);         // worker 1: 1e, 3e
  const Request later = make(42, 6, 7);       // worker 0 after far: 6e, 7e
  const RequestId never = 5;
  fleet.ApplyInsertion(0, far, 0, 0, env_.oracle());
  fleet.ApplyInsertion(1, near, 0, 0, env_.oracle());
  fleet.ApplyInsertion(0, later, 2, 2, env_.oracle());

  fleet.AdvanceTo(2.5 * e);
  EXPECT_DOUBLE_EQ(fleet.PickupTime(far.id), 2 * e);
  EXPECT_EQ(fleet.DropoffTime(far.id), kInf);
  EXPECT_DOUBLE_EQ(fleet.PickupTime(near.id), 1 * e);
  EXPECT_EQ(fleet.DropoffTime(near.id), kInf);
  EXPECT_EQ(fleet.PickupTime(later.id), kInf);  // assigned, not committed
  EXPECT_EQ(fleet.DropoffTime(later.id), kInf);
  EXPECT_EQ(fleet.PickupTime(never), kInf);
  EXPECT_EQ(fleet.DropoffTime(never), kInf);

  fleet.AdvanceTo(5.5 * e);
  EXPECT_DOUBLE_EQ(fleet.DropoffTime(far.id), 5 * e);
  EXPECT_DOUBLE_EQ(fleet.DropoffTime(near.id), 3 * e);
  EXPECT_EQ(fleet.PickupTime(later.id), kInf);

  fleet.FinishAll();
  EXPECT_DOUBLE_EQ(fleet.PickupTime(far.id), 2 * e);
  EXPECT_DOUBLE_EQ(fleet.DropoffTime(far.id), 5 * e);
  EXPECT_DOUBLE_EQ(fleet.PickupTime(later.id), 6 * e);
  EXPECT_DOUBLE_EQ(fleet.DropoffTime(later.id), 7 * e);
  EXPECT_EQ(fleet.PickupTime(never), kInf);
  EXPECT_EQ(fleet.DropoffTime(never), kInf);
  // Each time is the logged commit time, bit for bit.
  for (const auto& c : fleet.CommitLog(0)) {
    const double t = c.stop.kind == StopKind::kPickup
                         ? fleet.PickupTime(c.stop.request)
                         : fleet.DropoffTime(c.stop.request);
    EXPECT_EQ(t, c.time);
  }
}

TEST_F(FleetTest, FinishAllFlushesEverything) {
  Fleet fleet = MakeFleet();
  const Request r1 = env_.AddRequest(2, 5, 0.0, 1e9);
  const Request r2 = env_.AddRequest(8, 6, 0.0, 1e9);
  fleet.ApplyInsertion(0, r1, 0, 0, env_.oracle());
  fleet.ApplyInsertion(1, r2, 0, 0, env_.oracle());
  fleet.FinishAll();
  EXPECT_TRUE(fleet.route(0).empty());
  EXPECT_TRUE(fleet.route(1).empty());
  EXPECT_LT(fleet.DropoffTime(r1.id), kInf);
  EXPECT_LT(fleet.DropoffTime(r2.id), kInf);
  EXPECT_DOUBLE_EQ(fleet.TotalPlannedDistance(), fleet.committed_distance());
}

TEST_F(FleetTest, TotalPlannedIncludesPendingLegs) {
  const double e = EdgeMin();
  Fleet fleet = MakeFleet();
  const Request r = env_.AddRequest(2, 5, 0.0, 1e9);
  fleet.ApplyInsertion(0, r, 0, 0, env_.oracle());
  EXPECT_NEAR(fleet.TotalPlannedDistance(), 5 * e, 1e-12);
  fleet.AdvanceTo(2.0 * e);
  EXPECT_NEAR(fleet.TotalPlannedDistance(), 5 * e, 1e-12);  // invariant
}

TEST_F(FleetTest, GridIndexTracksAnchors) {
  Fleet fleet = MakeFleet();
  GridIndex index({0, 0}, {9, 1}, 1.0);
  fleet.AttachIndex(&index);
  EXPECT_EQ(index.All().size(), 2u);
  const Request r = env_.AddRequest(5, 7, 0.0, 1e9);
  fleet.ApplyInsertion(0, r, 0, 0, env_.oracle());
  fleet.FinishAll();
  // Worker 0 ends at vertex 7 (x = 7); the index must see it there.
  const auto near7 = index.WithinRadius({7.0, 0.0}, 0.4);
  bool found = false;
  for (WorkerId w : near7) found |= (w == 0);
  EXPECT_TRUE(found);
}

TEST_F(FleetTest, CommitLogRecordsExecution) {
  Fleet fleet = MakeFleet();
  const Request r = env_.AddRequest(2, 5, 0.0, 1e9);
  fleet.ApplyInsertion(0, r, 0, 0, env_.oracle());
  fleet.FinishAll();
  const auto& log = fleet.CommitLog(0);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].stop.kind, StopKind::kPickup);
  EXPECT_EQ(log[1].stop.kind, StopKind::kDropoff);
  EXPECT_LE(log[0].time, log[1].time);
  const InvariantReport rep = VerifyInvariants(fleet, env_.requests());
  EXPECT_TRUE(rep.ok) << rep.violation;
}

TEST_F(FleetTest, ReplaceRouteReordersStops) {
  Fleet fleet = MakeFleet();
  const Request r1 = env_.AddRequest(2, 6, 0.0, 1e9);
  fleet.ApplyInsertion(0, r1, 0, 0, env_.oracle());
  const Request r2 = env_.AddRequest(3, 4, 0.0, 1e9);
  std::vector<Stop> stops = {{2, r1.id, StopKind::kPickup},
                             {3, r2.id, StopKind::kPickup},
                             {4, r2.id, StopKind::kDropoff},
                             {6, r1.id, StopKind::kDropoff}};
  fleet.ReplaceRoute(0, r2, stops, env_.oracle());
  EXPECT_EQ(fleet.AssignedWorker(r2.id), 0);
  fleet.FinishAll();
  const InvariantReport rep = VerifyInvariants(fleet, env_.requests());
  EXPECT_TRUE(rep.ok) << rep.violation;
}

// Fixed leg costs, so the test controls exactly which doubles are summed.
class LegTableOracle : public DistanceOracle {
 public:
  explicit LegTableOracle(std::map<std::pair<VertexId, VertexId>, double> t)
      : table_(std::move(t)) {}
  double Distance(VertexId u, VertexId v) override {
    const auto it = table_.find({u, v});
    EXPECT_NE(it, table_.end()) << "no leg " << u << " -> " << v;
    return it == table_.end() ? kInf : it->second;
  }
  std::vector<VertexId> Path(VertexId u, VertexId v) override {
    return {u, v};
  }

 private:
  std::map<std::pair<VertexId, VertexId>, double> table_;
};

TEST_F(FleetTest, CommittedDistanceIndependentOfCommitOrder) {
  // Worker 0 drives legs 0.1 then 0.7, worker 1 drives 0.3 then 0.2. The
  // arrival heap commits them in time order (0.1, 0.3, 0.2, 0.7) while
  // Touch and FinishAll commit worker by worker (0.1, 0.7, 0.3, 0.2); a
  // single running sum rounds those two orders to different doubles
  // (1.3 vs 1.2999999999999998).
  LegTableOracle legs({{{0, 1}, 0.1}, {{1, 2}, 0.7},
                       {{9, 8}, 0.3}, {{8, 7}, 0.2}});
  const Request r0 = env_.AddRequest(1, 2, 0.0, 1e9);
  const Request r1 = env_.AddRequest(8, 7, 0.0, 1e9);
  Fleet by_heap = MakeFleet();
  Fleet by_touch = MakeFleet();
  Fleet by_finish = MakeFleet();
  for (Fleet* f : {&by_heap, &by_touch, &by_finish}) {
    f->ApplyInsertion(0, r0, 0, 0, &legs);
    f->ApplyInsertion(1, r1, 0, 0, &legs);
  }
  by_heap.AdvanceTo(10.0);
  by_touch.Touch(0, 10.0);
  by_touch.Touch(1, 10.0);
  by_finish.FinishAll();

  for (const Fleet* f : {&by_heap, &by_touch, &by_finish}) {
    EXPECT_TRUE(f->route(0).empty());
    EXPECT_TRUE(f->route(1).empty());
  }
  EXPECT_EQ(by_heap.committed_distance(), by_touch.committed_distance());
  EXPECT_EQ(by_heap.committed_distance(), by_finish.committed_distance());
  EXPECT_EQ(by_heap.TotalPlannedDistance(), by_heap.committed_distance());
}

TEST_F(FleetTest, InvariantCheckerCatchesViolations) {
  // Deliberately violate the deadline by replaying with a tighter one.
  Fleet fleet = MakeFleet();
  const Request r = env_.AddRequest(2, 5, 0.0, 1e9);
  fleet.ApplyInsertion(0, r, 0, 0, env_.oracle());
  fleet.FinishAll();
  std::vector<Request> tampered = env_.requests();
  tampered[0].deadline = 0.0;  // drop-off definitely later than this
  const InvariantReport rep = VerifyInvariants(fleet, tampered);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.violation.find("deadline"), std::string::npos);
}

}  // namespace
}  // namespace urpsm
