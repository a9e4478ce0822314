// Outcome pins: a small NYC-like day on hub labels, planned four ways —
// pruneGreedyDP and GreedyDP request by request, and the dispatch-window
// engine with 6-s windows at 1 and at 4 threads. The constants below are
// the outcomes the planners produced when this file was added; a change
// that moves any of them changes what the system decides, not just how
// fast it decides. Such a change updates the constants and says why in
// CHANGES.md. The windowed suite's name starts with DispatchWindow so the
// tsan preset runs it.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/shortest/hub_labels.h"
#include "src/sim/dispatch_window.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/workload/city.h"
#include "src/workload/requests.h"

namespace urpsm {
namespace {

/// The pinned instance: 1,500 hotspot requests over 100 minutes (dense
/// enough that 6-s windows hold several members and commits conflict),
/// 150 workers, 10-minute deadlines.
class PinnedDay {
 public:
  PinnedDay()
      : graph_(MakeNycLike(0.08, 1)),
        labels_(HubLabelOracle::Build(graph_)) {
    Rng rng(41);
    RequestParams rp;
    rp.count = 1500;
    rp.duration_min = 100.0;
    rp.penalty_factor = 20.0;
    rp.seed = 43;
    requests_ = GenerateRequests(graph_, rp, &labels_, &rng);
    workers_ = GenerateWorkers(graph_, 150, 4.0, &rng);
  }

  SimReport Run(const PlannerFactory& factory, int num_threads,
                double batch_window_s) {
    SimOptions options;
    options.num_threads = num_threads;
    options.batch_window_s = batch_window_s;
    Simulation sim(&graph_, &labels_, workers_, &requests_, options);
    SimReport report = sim.Run(factory);
    EXPECT_TRUE(CheckAccounting(report).ok);
    EXPECT_TRUE(VerifyInvariants(sim.fleet(), requests_).ok);
    return report;
  }

 private:
  RoadNetwork graph_;
  HubLabelOracle labels_;
  std::vector<Request> requests_;
  std::vector<Worker> workers_;
};

PinnedDay& Day() {
  static PinnedDay day;
  return day;
}

struct Pin {
  int served;
  std::int64_t billed_queries;
  double unified_cost;
};

void ExpectPinned(const SimReport& report, const Pin& pin) {
  EXPECT_EQ(report.served_requests, pin.served);
  EXPECT_EQ(report.distance_queries, pin.billed_queries);
  EXPECT_DOUBLE_EQ(report.unified_cost, pin.unified_cost);
}

TEST(OutcomePinTest, PruneGreedyDpPerRequest) {
  ExpectPinned(Day().Run(MakePruneGreedyDpFactory(PlannerConfig{}), 1, 0.0),
               {810, 257330, 102501.21282122946});
}

TEST(OutcomePinTest, GreedyDpPerRequest) {
  ExpectPinned(Day().Run(MakeGreedyDpFactory(PlannerConfig{}), 1, 0.0),
               {810, 371294, 102501.21282122946});
}

TEST(DispatchWindowOutcomePinTest, SixSecondWindowsOneThread) {
  ExpectPinned(Day().Run(MakeDispatchWindowFactory(PlannerConfig{}), 1, 6.0),
               {824, 248992, 107313.85963888461});
}

TEST(DispatchWindowOutcomePinTest, SixSecondWindowsFourThreads) {
  ExpectPinned(Day().Run(MakeDispatchWindowFactory(PlannerConfig{}), 4, 6.0),
               {824, 248992, 107313.85963888461});
}

}  // namespace
}  // namespace urpsm
