#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "src/shortest/dijkstra.h"
#include "src/shortest/oracle.h"
#include "src/workload/city.h"
#include "src/workload/io.h"
#include "src/workload/requests.h"
#include "src/util/rng.h"

namespace urpsm {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // One file per test: ctest runs the cases as parallel processes.
  std::string path_ =
      ::testing::TempDir() + "/urpsm_io_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".inst";
};

Instance SmallInstance() {
  Instance inst;
  inst.name = "roundtrip";
  CityParams p;
  p.rows = 8;
  p.cols = 8;
  inst.graph = MakeCity(p);
  DijkstraOracle oracle(&inst.graph);
  Rng rng(3);
  inst.workers = GenerateWorkers(inst.graph, 5, 4.0, &rng);
  RequestParams rp;
  rp.count = 20;
  inst.requests = GenerateRequests(inst.graph, rp, &oracle, &rng);
  return inst;
}

TEST_F(IoTest, RoundTripPreservesEverything) {
  const Instance orig = SmallInstance();
  ASSERT_TRUE(SaveInstance(orig, path_));
  Instance loaded;
  ASSERT_TRUE(LoadInstance(path_, &loaded));

  EXPECT_EQ(loaded.name, orig.name);
  ASSERT_EQ(loaded.graph.num_vertices(), orig.graph.num_vertices());
  ASSERT_EQ(loaded.graph.edges().size(), orig.graph.edges().size());
  for (VertexId v = 0; v < orig.graph.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(loaded.graph.coord(v).x, orig.graph.coord(v).x);
    EXPECT_DOUBLE_EQ(loaded.graph.coord(v).y, orig.graph.coord(v).y);
  }
  for (std::size_t i = 0; i < orig.graph.edges().size(); ++i) {
    EXPECT_EQ(loaded.graph.edges()[i].u, orig.graph.edges()[i].u);
    EXPECT_EQ(loaded.graph.edges()[i].v, orig.graph.edges()[i].v);
    EXPECT_DOUBLE_EQ(loaded.graph.edges()[i].length_km,
                     orig.graph.edges()[i].length_km);
    EXPECT_EQ(loaded.graph.edges()[i].cls, orig.graph.edges()[i].cls);
  }
  ASSERT_EQ(loaded.workers.size(), orig.workers.size());
  for (std::size_t i = 0; i < orig.workers.size(); ++i) {
    EXPECT_EQ(loaded.workers[i].initial_location,
              orig.workers[i].initial_location);
    EXPECT_EQ(loaded.workers[i].capacity, orig.workers[i].capacity);
  }
  ASSERT_EQ(loaded.requests.size(), orig.requests.size());
  for (std::size_t i = 0; i < orig.requests.size(); ++i) {
    EXPECT_EQ(loaded.requests[i].origin, orig.requests[i].origin);
    EXPECT_EQ(loaded.requests[i].destination, orig.requests[i].destination);
    EXPECT_DOUBLE_EQ(loaded.requests[i].release_time,
                     orig.requests[i].release_time);
    EXPECT_DOUBLE_EQ(loaded.requests[i].deadline, orig.requests[i].deadline);
    EXPECT_DOUBLE_EQ(loaded.requests[i].penalty, orig.requests[i].penalty);
    EXPECT_EQ(loaded.requests[i].capacity, orig.requests[i].capacity);
  }
  EXPECT_EQ(ValidateInstance(loaded), "");
}

TEST_F(IoTest, RoundTripPreservesShortestDistances) {
  const Instance orig = SmallInstance();
  ASSERT_TRUE(SaveInstance(orig, path_));
  Instance loaded;
  ASSERT_TRUE(LoadInstance(path_, &loaded));
  for (int trial = 0; trial < 20; ++trial) {
    const VertexId s = (trial * 7) % orig.graph.num_vertices();
    const VertexId t = (trial * 13 + 5) % orig.graph.num_vertices();
    EXPECT_DOUBLE_EQ(DijkstraDistance(loaded.graph, s, t),
                     DijkstraDistance(orig.graph, s, t));
  }
}

TEST_F(IoTest, LoadRejectsMissingFile) {
  Instance out;
  EXPECT_FALSE(LoadInstance(path_ + ".does-not-exist", &out));
}

TEST_F(IoTest, LoadRejectsBadMagic) {
  std::ofstream(path_) << "not-an-instance v1\n";
  Instance out;
  EXPECT_FALSE(LoadInstance(path_, &out));
}

TEST_F(IoTest, LoadRejectsTruncatedFile) {
  const Instance orig = SmallInstance();
  ASSERT_TRUE(SaveInstance(orig, path_));
  // Truncate to half.
  std::ifstream in(path_);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path_) << content.substr(0, content.size() / 2);
  Instance out;
  EXPECT_FALSE(LoadInstance(path_, &out));
}

TEST_F(IoTest, LoadRejectsBadRoadClass) {
  std::ofstream(path_) << "urpsm-instance v1\nname x\nvertices 2\n0 0\n1 0\n"
                       << "edges 1\n0 1 1.0 9\nworkers 0\nrequests 0\n";
  Instance out;
  EXPECT_FALSE(LoadInstance(path_, &out));
}

// A two-vertex instance with one edge, one worker and one request; each
// id is spliced in so one test can move a single endpoint out of range.
std::string TwoVertexInstance(const std::string& edge,
                              const std::string& worker,
                              const std::string& request) {
  return "urpsm-instance v1\nname x\nvertices 2\n0 0\n1 0\nedges 1\n" +
         edge + "\nworkers 1\n" + worker + "\nrequests 1\n" + request +
         "\n";
}

TEST_F(IoTest, LoadAcceptsEveryVertexIdInRange) {
  std::ofstream(path_) << TwoVertexInstance("0 1 1.0 0", "1 4",
                                            "1 0 0 30 5 1");
  Instance out;
  ASSERT_TRUE(LoadInstance(path_, &out));
  EXPECT_EQ(out.workers[0].initial_location, 1);
  EXPECT_EQ(out.requests[0].origin, 1);
}

TEST_F(IoTest, LoadRejectsOutOfRangeEdgeVertex) {
  std::ofstream(path_) << TwoVertexInstance("0 7 1.0 0", "1 4",
                                            "1 0 0 30 5 1");
  Instance out;
  EXPECT_FALSE(LoadInstance(path_, &out));
}

TEST_F(IoTest, LoadRejectsOutOfRangeWorkerVertex) {
  std::ofstream(path_) << TwoVertexInstance("0 1 1.0 0", "2 4",
                                            "1 0 0 30 5 1");
  Instance out;
  EXPECT_FALSE(LoadInstance(path_, &out));
}

TEST_F(IoTest, LoadRejectsOutOfRangeRequestVertex) {
  std::ofstream(path_) << TwoVertexInstance("0 1 1.0 0", "1 4",
                                            "1 -1 0 30 5 1");
  Instance out;
  EXPECT_FALSE(LoadInstance(path_, &out));
}

}  // namespace
}  // namespace urpsm
