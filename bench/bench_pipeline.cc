// Windowed dispatch-engine trajectory bench: the dispatch-window engine
// on the lock-step windowed loop, swept over window length x thread
// count, recording throughput and latency percentiles.
//
// Writes BENCH_pipeline.json (one JSON object per line, the shared
// BENCH_JSON schema — every line carries hw_concurrency, num_threads,
// git_sha and timestamp) via the shared trajectory writer: full runs
// refresh the tracked repo-root file, smoke runs are redirected to the
// build tree (BENCH_smoke_pipeline.json) so the CTest smoke entry can
// never corrupt the full-run trajectory. Determinism gate: for every
// window length the deterministic report fields must be bit-identical
// across thread counts.
//
// Overload axis: arrival-rate multipliers {1, 2, 4} compress release
// times while preserving each request's deadline gap (ingress slack is
// unchanged), so a fixed per-window admit budget turns rising arrival
// rate into shed load. Those records carry arrival_mult, policy,
// shed_rate and deadline_miss_rate; the shed/rejected/dnf accounting
// must be bit-identical across thread counts, and CheckAccounting must
// pass on every recorded report.
//
// Note: thread counts beyond std::thread::hardware_concurrency (see the
// hw_concurrency field) oversubscribe and mainly validate determinism,
// not speedup.

#include <cstddef>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
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

bool SameResults(const SimReport& a, const SimReport& b) {
  return a.unified_cost == b.unified_cost &&
         a.served_requests == b.served_requests &&
         a.total_distance == b.total_distance &&
         a.distance_queries == b.distance_queries;
}

// Overload runs additionally gate the whole accounting partition: the
// shed/rejected/dnf split must be a pure function of simulated
// quantities, so it must not move with the thread count.
bool SameOverloadResults(const SimReport& a, const SimReport& b) {
  return SameResults(a, b) && a.rejected_requests == b.rejected_requests &&
         a.shed_requests == b.shed_requests &&
         a.dnf_requests == b.dnf_requests &&
         a.shed_deadline == b.shed_deadline &&
         a.shed_overload == b.shed_overload && a.shed_drain == b.shed_drain;
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

  std::printf("=== Windowed dispatch (%s, %zu requests, %d workers, "
              "hardware threads: %u) ===\n\n",
              city.name.c_str(), city.requests.size(), worker_count,
              std::thread::hardware_concurrency());

  SimOptions base_options;
  base_options.wall_limit_seconds = EnvWallLimit();

  std::vector<std::string> lines;
  bool accounting_ok = true;
  const auto record =
      [&](const SimReport& rep, double window_s,
          const std::vector<std::pair<std::string, std::string>>& extra =
              {}) {
    const InvariantReport acc = CheckAccounting(rep);
    if (!acc.ok) {
      accounting_ok = false;
      std::printf("FAIL: accounting violation: %s\n", acc.violation.c_str());
    }
    std::vector<std::pair<std::string, std::string>> params = {
        {"city", city.name},
        {"window_s", Fmt(window_s)},
        {"algorithm", rep.algorithm},
        {"num_threads", std::to_string(rep.num_threads)}};
    params.insert(params.end(), extra.begin(), extra.end());
    if (smoke) params.emplace_back("smoke", "1");
    if (rep.timed_out) params.emplace_back("timed_out", "1");
    params.emplace_back("trace", rep.trace_enabled ? "1" : "0");
    const double throughput =
        rep.wall_seconds > 0.0 ? rep.total_requests / rep.wall_seconds : 0.0;
    lines.push_back(FormatJsonLine("bench_pipeline", params,
                                   rep.wall_seconds * 1e3, throughput,
                                   rep.p50_response_ms, rep.p95_response_ms,
                                   rep.p99_response_ms));
  };

  const std::vector<double> windows =
      smoke ? std::vector<double>{6.0} : std::vector<double>{2.0, 6.0, 15.0};
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};

  TablePrinter t({"window (s)", "threads", "wall (s)", "req/s",
                  "unified cost", "served", "identical"});
  bool all_identical = true;
  bool any_compared = false;
  for (double window_s : windows) {
    // Thread-count identity against the first thread count's run.
    SimReport ref;
    bool have_ref = false;
    for (int threads : thread_counts) {
      SimOptions options = base_options;
      options.num_threads = threads;
      options.batch_window_s = window_s;
      Simulation sim(&city.graph, city.labels.get(), workers, &city.requests,
                     options);
      const SimReport rep = sim.Run(MakeDispatchWindowFactory({}));
      record(rep, window_s);
      if (!have_ref) {
        ref = rep;
        have_ref = true;
      }
      const double rps = rep.wall_seconds > 0.0
                             ? rep.total_requests / rep.wall_seconds
                             : 0.0;
      const bool comparable = !rep.timed_out && !ref.timed_out;
      const bool identical = comparable && SameResults(rep, ref);
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
  std::printf("%s\n", t.ToString().c_str());

  // ---- Overload axis: arrival-rate multiplier sweep ----
  // Release times are divided by the multiplier with each request's
  // deadline gap preserved, so ingress slack (deadline - release -
  // euclid) is unchanged and the per-window admit budget is the lever
  // that converts rising arrival rate into shed load. Policies are the
  // two shedding disciplines; kBlock is the (shed-free) baseline already
  // covered by the main sweep above.
  const double overload_window_s = smoke ? 6.0 : 15.0;
  const int overload_budget = 2;
  const std::vector<double> mults =
      smoke ? std::vector<double>{1.0, 4.0}
            : std::vector<double>{1.0, 2.0, 4.0};
  std::vector<std::pair<std::string, AdmissionPolicy>> policies = {
      {"shed_oldest_slack", AdmissionPolicy::kShedOldestSlack}};
  if (!smoke) {
    policies.emplace_back("reject_ingress", AdmissionPolicy::kRejectAtIngress);
  }
  TablePrinter ot({"mult", "policy", "threads", "wall (s)", "served",
                   "shed", "shed rate", "miss rate", "identical"});
  for (double mult : mults) {
    std::vector<Request> compressed = city.requests;
    for (Request& r : compressed) {
      const double gap = r.deadline - r.release_time;
      r.release_time /= mult;
      r.deadline = r.release_time + gap;
    }
    for (const auto& [policy_name, policy] : policies) {
      SimReport ref;
      bool have_ref = false;
      for (int threads : {thread_counts.front(), thread_counts.back()}) {
        SimOptions options = base_options;
        options.num_threads = threads;
        options.batch_window_s = overload_window_s;
        options.admission_policy = policy;
        options.window_admit_budget = overload_budget;
        Simulation sim(&city.graph, city.labels.get(), workers, &compressed,
                       options);
        const SimReport rep = sim.Run(MakeDispatchWindowFactory({}));
        const double total = rep.total_requests > 0
                                 ? static_cast<double>(rep.total_requests)
                                 : 1.0;
        const double shed_rate = rep.shed_requests / total;
        // Deadline misses: requests that could not be served by their
        // deadline — planned-but-rejected plus shed for lack of slack.
        const double miss_rate =
            (rep.rejected_requests + static_cast<double>(rep.shed_deadline)) /
            total;
        record(rep, overload_window_s,
               {{"arrival_mult", Fmt(mult)},
                {"policy", policy_name},
                {"admit_budget", std::to_string(overload_budget)},
                {"shed_rate", Fmt(shed_rate)},
                {"deadline_miss_rate", Fmt(miss_rate)},
                {"shed_deadline", std::to_string(rep.shed_deadline)},
                {"shed_overload", std::to_string(rep.shed_overload)},
                {"shed_drain", std::to_string(rep.shed_drain)}});
        if (!have_ref) {
          ref = rep;
          have_ref = true;
        }
        const bool comparable = !rep.timed_out && !ref.timed_out;
        const bool identical = comparable && SameOverloadResults(rep, ref);
        any_compared = any_compared || comparable;
        all_identical = all_identical && (identical || !comparable);
        ot.AddRow({Fmt(mult), policy_name, std::to_string(threads),
                   TablePrinter::Num(rep.wall_seconds, 2),
                   std::to_string(rep.served_requests),
                   std::to_string(rep.shed_requests),
                   TablePrinter::Num(shed_rate, 3),
                   TablePrinter::Num(miss_rate, 3),
                   !comparable ? "DNF" : identical ? "YES" : "NO"});
      }
    }
  }
  std::printf("=== Overload (window %gs, admit budget %d) ===\n%s\n",
              overload_window_s, overload_budget, ot.ToString().c_str());

  WriteTrajectory("pipeline", smoke, lines);

  if (!accounting_ok) {
    std::printf("FAIL: overload accounting partition violated "
                "(served + rejected + shed + dnf != total)\n");
    return 1;
  }
  if (!all_identical) {
    std::printf("FAIL: windowed results diverged across thread counts\n");
    return 1;
  }
  if (!any_compared) {
    std::printf("FAIL: all runs timed out before the identity gates could "
                "compare anything — raise URPSM_BENCH_WALL_LIMIT\n");
    return 1;
  }
  std::printf("windows and shed accounting thread-count independent: "
              "YES\n");
  return 0;
}
