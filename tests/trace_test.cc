#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "src/shortest/oracle.h"
#include "src/workload/city.h"
#include "src/workload/trace.h"
#include "src/util/rng.h"

namespace urpsm {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() : graph_(MakeChengduLike(0.04, 4)), oracle_(&graph_) {}
  void TearDown() override { std::remove(path_.c_str()); }

  std::vector<TripRecord> MakeTrips(int n) {
    Rng rng(8);
    Point lo, hi;
    graph_.BoundingBox(&lo, &hi);
    std::vector<TripRecord> trips;
    for (int i = 0; i < n; ++i) {
      TripRecord t;
      t.release_min = rng.Uniform(0, 600);
      t.pickup = {rng.Uniform(lo.x, hi.x), rng.Uniform(lo.y, hi.y)};
      t.dropoff = {rng.Uniform(lo.x, hi.x), rng.Uniform(lo.y, hi.y)};
      t.passengers = rng.UniformInt(1, 4);
      trips.push_back(t);
    }
    return trips;
  }

  RoadNetwork graph_;
  DijkstraOracle oracle_;
  // One file per test: ctest runs the cases as parallel processes.
  std::string path_ =
      ::testing::TempDir() + "/urpsm_trips_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
};

TEST_F(TraceTest, CsvRoundTrip) {
  const auto trips = MakeTrips(50);
  ASSERT_TRUE(SaveTripCsv(trips, path_));
  std::vector<TripRecord> loaded;
  ASSERT_TRUE(LoadTripCsv(path_, &loaded));
  ASSERT_EQ(loaded.size(), trips.size());
  for (std::size_t i = 0; i < trips.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded[i].release_min, trips[i].release_min);
    EXPECT_DOUBLE_EQ(loaded[i].pickup.x, trips[i].pickup.x);
    EXPECT_DOUBLE_EQ(loaded[i].dropoff.y, trips[i].dropoff.y);
    EXPECT_EQ(loaded[i].passengers, trips[i].passengers);
  }
}

TEST_F(TraceTest, LoadRejectsMissingAndMalformed) {
  std::vector<TripRecord> out;
  EXPECT_FALSE(LoadTripCsv(path_ + ".missing", &out));
  std::ofstream(path_) << "header\n1,2,3\n";  // wrong arity
  EXPECT_FALSE(LoadTripCsv(path_, &out));
}

TEST_F(TraceTest, NearestVertexIndexMatchesLinearScan) {
  const NearestVertexIndex index(graph_);
  Rng rng(9);
  Point lo, hi;
  graph_.BoundingBox(&lo, &hi);
  for (int i = 0; i < 100; ++i) {
    // Include points outside the bounding box.
    const Point p{rng.Uniform(lo.x - 2, hi.x + 2),
                  rng.Uniform(lo.y - 2, hi.y + 2)};
    const VertexId fast = index.Nearest(p);
    const VertexId slow = graph_.NearestVertex(p);
    // Ties are possible; distances must match exactly.
    EXPECT_DOUBLE_EQ(EuclideanDistance(graph_.coord(fast), p),
                     EuclideanDistance(graph_.coord(slow), p));
  }
}

TEST_F(TraceTest, RequestsFromTripsMapsAndSorts) {
  const auto trips = MakeTrips(80);
  const auto requests =
      RequestsFromTrips(graph_, trips, /*deadline=*/12.0, /*penalty=*/10.0,
                        &oracle_);
  ASSERT_FALSE(requests.empty());
  ASSERT_LE(requests.size(), trips.size());
  double prev = -1.0;
  const NearestVertexIndex index(graph_);
  for (const Request& r : requests) {
    EXPECT_EQ(r.id, &r - requests.data());
    EXPECT_GE(r.release_time, prev);
    prev = r.release_time;
    EXPECT_NE(r.origin, r.destination);
    EXPECT_NEAR(r.deadline - r.release_time, 12.0, 1e-12);
    EXPECT_NEAR(r.penalty, 10.0 * oracle_.Distance(r.origin, r.destination),
                1e-9);
  }
}

TEST_F(TraceTest, DegenerateTripsDropped) {
  // Both endpoints at the same coordinate map to one vertex -> dropped.
  std::vector<TripRecord> trips = {{10.0, graph_.coord(5), graph_.coord(5), 1}};
  const auto requests =
      RequestsFromTrips(graph_, trips, 10.0, 10.0, &oracle_);
  EXPECT_TRUE(requests.empty());
}

}  // namespace
}  // namespace urpsm
