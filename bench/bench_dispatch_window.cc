// Batched dispatch-window trajectory bench: DispatchWindowPlanner swept
// over thread counts x window lengths against sequential pruneGreedyDP,
// plus the batch baseline driven through the same window plumbing.
//
// Writes BENCH_dispatch.json (one JSON object per line, the shared
// BENCH_JSON schema — every line carries hw_concurrency and num_threads)
// via the shared trajectory writer: full runs refresh the tracked
// repo-root file, smoke runs are redirected to the build tree
// (BENCH_smoke_dispatch.json) so the CTest smoke entry can never corrupt
// the full-run trajectory. Two gates: window = 0 must reproduce the
// sequential pruneGreedyDP results bit-for-bit at every thread count,
// and every real window must be bit-identical across thread counts
// (the engine's determinism contract).
//
// Note: thread counts beyond std::thread::hardware_concurrency (1 in the
// usual CI container — see the hw_concurrency field) oversubscribe and
// mainly validate determinism, not speedup.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/sim/dispatch_window.h"

using namespace urpsm;
using namespace urpsm::bench;

namespace {

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = InitBench(argc, argv);
  const City city = LoadCity(/*nyc=*/false);
  Rng rng(7);
  const Defaults d;
  const int worker_count = smoke ? 40 : 2 * city.default_workers;
  const std::vector<Worker> workers =
      GenerateWorkers(city.graph, worker_count, d.capacity_mean, &rng);

  std::printf("=== Dispatch windows (%s, %zu requests, %d workers, "
              "hardware threads: %u) ===\n\n",
              city.name.c_str(), city.requests.size(), worker_count,
              std::thread::hardware_concurrency());

  SimOptions base_options;
  base_options.wall_limit_seconds = EnvWallLimit();

  std::vector<std::string> lines;
  const auto record = [&](const SimReport& rep, double window_s) {
    std::vector<std::pair<std::string, std::string>> params = {
        {"city", city.name},
        {"window_s", Fmt(window_s)},
        {"algorithm", rep.algorithm},
        {"num_threads", std::to_string(rep.num_threads)}};
    if (smoke) params.emplace_back("smoke", "1");
    if (rep.timed_out) params.emplace_back("timed_out", "1");
    params.emplace_back("trace", rep.trace_enabled ? "1" : "0");
    const double throughput =
        rep.wall_seconds > 0.0 ? rep.total_requests / rep.wall_seconds : 0.0;
    lines.push_back(FormatJsonLine("bench_dispatch_window", params,
                                   rep.wall_seconds * 1e3, throughput,
                                   rep.p50_response_ms, rep.p95_response_ms,
                                   rep.p99_response_ms));
    EmitReportJson("bench_dispatch_window", rep,
                   {{"city", city.name}, {"window_s", Fmt(window_s)}});
  };

  // Sequential reference: the per-request pruneGreedyDP run.
  Simulation seq_sim(&city.graph, city.labels.get(), workers, &city.requests,
                     base_options);
  const SimReport seq = seq_sim.Run(MakePruneGreedyDpFactory({}));
  record(seq, /*window_s=*/0.0);

  const std::vector<double> windows =
      smoke ? std::vector<double>{0.0, 6.0} :
              std::vector<double>{0.0, 2.0, 6.0, 15.0};
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};

  TablePrinter t({"window (s)", "threads", "wall (s)", "req/s",
                  "unified cost", "served", "identical"});
  bool all_identical = true;
  bool any_compared = false;
  for (double window_s : windows) {
    // Gate reference per window: the sequential pruneGreedyDP run for
    // window = 0 (the acceptance bar), the same window's threads = 1 run
    // for real windows (thread-count independence of the parallel
    // machinery). DNF rows cannot be compared: a run the wall-limit kill
    // switch cut off planned a wall-clock-dependent prefix, so comparing
    // it would report divergence where none exists.
    SimReport ref = seq;
    for (int threads : thread_counts) {
      SimOptions options = base_options;
      options.num_threads = threads;
      options.batch_window_s = window_s;
      Simulation sim(&city.graph, city.labels.get(), workers, &city.requests,
                     options);
      const SimReport rep = sim.Run(MakeDispatchWindowFactory({}));
      record(rep, window_s);
      if (window_s > 0.0 && threads == thread_counts.front()) ref = rep;
      const double rps =
          rep.wall_seconds > 0.0 ? rep.total_requests / rep.wall_seconds : 0.0;
      const bool comparable = !rep.timed_out && !ref.timed_out;
      const bool identical = comparable &&
                             rep.unified_cost == ref.unified_cost &&
                             rep.served_requests == ref.served_requests &&
                             rep.total_distance == ref.total_distance;
      any_compared = any_compared || comparable;
      all_identical = all_identical && (identical || !comparable);
      t.AddRow({Fmt(window_s), std::to_string(threads),
                TablePrinter::Num(rep.wall_seconds, 2),
                TablePrinter::Num(rps, 1),
                TablePrinter::Num(rep.unified_cost, 1),
                std::to_string(rep.served_requests),
                !comparable ? "DNF" : identical ? "YES" : "NO"});
    }
  }

  // The paper's batch baseline through the same window plumbing (its
  // classic 6-second interval), for a like-for-like quality comparison.
  for (double window_s : {6.0}) {
    SimOptions options = base_options;
    options.batch_window_s = window_s;
    Simulation sim(&city.graph, city.labels.get(), workers, &city.requests,
                   options);
    const SimReport rep = sim.Run(MakeBatchFactory({}));
    record(rep, window_s);
    const double rps =
        rep.wall_seconds > 0.0 ? rep.total_requests / rep.wall_seconds : 0.0;
    t.AddRow({Fmt(window_s), "1", TablePrinter::Num(rep.wall_seconds, 2),
              TablePrinter::Num(rps, 1),
              TablePrinter::Num(rep.unified_cost, 1),
              std::to_string(rep.served_requests), "-"});
  }
  std::printf("%s\n", t.ToString().c_str());

  WriteTrajectory("dispatch", smoke, lines);

  if (!all_identical) {
    std::printf("FAIL: dispatch results diverged (window=0 vs sequential "
                "pruneGreedyDP, or a window across thread counts)\n");
    return 1;
  }
  if (!any_compared) {
    std::printf("FAIL: all runs timed out before the identity gates could "
                "compare anything — raise URPSM_BENCH_WALL_LIMIT\n");
    return 1;
  }
  std::printf("window=0 identical to sequential AND windows thread-count "
              "independent: YES\n");
  return 0;
}
