// Parallel dispatch: the same day simulated with pruneGreedyDP in 6-second
// dispatch windows (the paper's batch setting) on one thread and on every
// hardware thread, demonstrating (1) how SimOptions::num_threads plumbs
// the pool through the simulation and (2) the windowed planner's core
// guarantee — for a fixed window length the results are bit-identical at
// every thread count; only the wall time moves.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/parallel_dispatch

#include <algorithm>
#include <cstdio>
#include <thread>

#include "src/shortest/hub_labels.h"
#include "src/sim/simulator.h"
#include "src/workload/city.h"
#include "src/workload/requests.h"

using namespace urpsm;

int main() {
  // A small Chengdu-like city, one morning of requests, a modest fleet.
  const RoadNetwork graph = MakeChengduLike(0.08, 2);
  HubLabelOracle labels = HubLabelOracle::Build(graph);
  Rng rng(5);
  RequestParams rp;
  rp.count = 600;
  rp.duration_min = 360.0;
  const std::vector<Request> requests = GenerateRequests(graph, rp, &labels, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 40, 4.0, &rng);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("parallel dispatch demo: %d requests, %zu workers, 6-s windows, "
              "%u hardware threads\n\n",
              rp.count, workers.size(), hw);

  const auto run = [&](int threads) {
    SimOptions options;
    options.batch_window_s = 6.0;
    options.num_threads = threads;
    Simulation sim(&graph, &labels, workers, &requests, options);
    return sim.Run(MakePruneGreedyDpFactory({}));
  };
  const SimReport one = run(1);
  const SimReport many = run(static_cast<int>(hw));

  for (const SimReport* rep : {&one, &many}) {
    std::printf("%-20s %d thread(s) | unified cost %9.1f | served %4d/%d | "
                "queries %lld | wall %6.2fs\n",
                rep->algorithm.c_str(), rep->num_threads,
                rep->unified_cost, rep->served_requests, rep->total_requests,
                static_cast<long long>(rep->distance_queries),
                rep->wall_seconds);
  }
  const bool identical = one.unified_cost == many.unified_cost &&
                         one.served_requests == many.served_requests &&
                         one.total_distance == many.total_distance &&
                         one.distance_queries == many.distance_queries;
  std::printf("\nbit-identical results: %s | speedup: %.2fx\n",
              identical ? "YES" : "NO",
              one.wall_seconds / std::max(1e-9, many.wall_seconds));
  return identical ? 0 : 1;
}
