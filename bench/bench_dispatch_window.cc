// Dispatch-window trajectory bench: pruneGreedyDP in dispatch windows
// (GreedyDpPlanner::OnBatch) swept over window lengths x thread counts
// against sequential pruneGreedyDP, the batch baseline driven through the
// same window plumbing, and an overload axis.
//
// Writes BENCH_dispatch.json (one JSON object per line, the shared
// BENCH_JSON schema — every line carries hw_concurrency and num_threads)
// via the shared trajectory writer: full runs refresh the tracked
// repo-root file, smoke runs are redirected to the build tree
// (BENCH_smoke_dispatch.json) so the CTest smoke entry can never corrupt
// the full-run trajectory. Gates (exit 1 when one fails):
//   - window = 0 reproduces the sequential pruneGreedyDP run bit for bit
//     at every thread count;
//   - every real window is bit-identical across thread counts;
//   - overload runs keep the shed/rejected/dnf accounting identical
//     across thread counts;
//   - CheckAccounting passes on every recorded report.
// Every identity compares billed distance queries too: the task
// decomposition is structural, so query counts are thread-independent.
//
// Overload axis: arrival-rate multipliers {1, 2, 4} compress release
// times while preserving each request's deadline gap (ingress slack is
// unchanged), so a fixed per-window admit budget turns rising arrival
// rate into shed load. Those records carry arrival_mult, policy,
// shed_rate and deadline_miss_rate.
//
// Note: thread counts beyond std::thread::hardware_concurrency (see the
// hw_concurrency field) oversubscribe and mainly validate determinism,
// not speedup.

#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/harness.h"

using namespace urpsm;
using namespace urpsm::bench;

namespace {

using Params = std::vector<std::pair<std::string, std::string>>;

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

double Throughput(const SimReport& rep) {
  return rep.wall_seconds > 0.0 ? rep.total_requests / rep.wall_seconds
                                : 0.0;
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
  bool accounting_ok = true;
  const auto record = [&](const SimReport& rep, double window_s,
                          const Params& extra = {}) {
    const InvariantReport acc = CheckAccounting(rep);
    if (!acc.ok) {
      accounting_ok = false;
      std::printf("FAIL: accounting violation: %s\n", acc.violation.c_str());
    }
    Params params = {{"city", city.name},
                     {"window_s", Fmt(window_s)},
                     {"algorithm", rep.algorithm},
                     {"num_threads", std::to_string(rep.num_threads)}};
    params.insert(params.end(), extra.begin(), extra.end());
    if (smoke) params.emplace_back("smoke", "1");
    if (rep.timed_out) params.emplace_back("timed_out", "1");
    params.emplace_back("trace", rep.trace_enabled ? "1" : "0");
    lines.push_back(FormatJsonLine("bench_dispatch_window", params,
                                   rep.wall_seconds * 1e3, Throughput(rep),
                                   rep.p50_response_ms, rep.p95_response_ms,
                                   rep.p99_response_ms));
    Params emitted = {{"city", city.name}, {"window_s", Fmt(window_s)}};
    emitted.insert(emitted.end(), extra.begin(), extra.end());
    EmitReportJson("bench_dispatch_window", rep, emitted);
  };

  // Gate bookkeeping. DNF rows cannot be compared: a run the wall-limit
  // kill switch cut off planned a wall-clock-dependent prefix, so
  // comparing it would report divergence where none exists.
  bool all_identical = true;
  bool any_compared = false;
  const auto compare = [&](const SimReport& rep, const SimReport& ref,
                           bool identical) -> const char* {
    const bool comparable = !rep.timed_out && !ref.timed_out;
    any_compared = any_compared || comparable;
    all_identical = all_identical && (identical || !comparable);
    return !comparable ? "DNF" : identical ? "YES" : "NO";
  };

  // Sequential reference: the per-request pruneGreedyDP run.
  Simulation seq_sim(&city.graph, city.labels.get(), workers, &city.requests,
                     base_options);
  const SimReport seq = seq_sim.Run(MakePruneGreedyDpFactory({}));
  record(seq, /*window_s=*/0.0, {{"axis", "sequential_reference"}});

  const std::vector<double> windows =
      smoke ? std::vector<double>{0.0, 6.0} :
              std::vector<double>{0.0, 2.0, 6.0, 15.0};
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};

  TablePrinter t({"window (s)", "threads", "wall (s)", "req/s",
                  "unified cost", "served", "identical"});
  for (double window_s : windows) {
    // Gate reference per window: the sequential pruneGreedyDP run for
    // window = 0, the same window's first thread count for real windows.
    SimReport ref = seq;
    for (int threads : thread_counts) {
      SimOptions options = base_options;
      options.num_threads = threads;
      options.batch_window_s = window_s;
      Simulation sim(&city.graph, city.labels.get(), workers, &city.requests,
                     options);
      const SimReport rep = sim.Run(MakePruneGreedyDpFactory({}));
      record(rep, window_s);
      if (window_s > 0.0 && threads == thread_counts.front()) ref = rep;
      t.AddRow({Fmt(window_s), std::to_string(threads),
                TablePrinter::Num(rep.wall_seconds, 2),
                TablePrinter::Num(Throughput(rep), 1),
                TablePrinter::Num(rep.unified_cost, 1),
                std::to_string(rep.served_requests),
                compare(rep, ref, SameResults(rep, ref))});
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
    t.AddRow({Fmt(window_s), "1", TablePrinter::Num(rep.wall_seconds, 2),
              TablePrinter::Num(Throughput(rep), 1),
              TablePrinter::Num(rep.unified_cost, 1),
              std::to_string(rep.served_requests), "-"});
  }
  std::printf("%s\n", t.ToString().c_str());

  // ---- Overload axis: arrival-rate multiplier sweep ----
  // Release times are divided by the multiplier with each request's
  // deadline gap preserved, so ingress slack (deadline - release -
  // euclid) is unchanged and the per-window admit budget is the lever
  // that converts rising arrival rate into shed load. Policies are the
  // two shedding disciplines; kBlock is the (shed-free) baseline already
  // covered by the sweep above.
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
        const SimReport rep = sim.Run(MakePruneGreedyDpFactory({}));
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
        ot.AddRow({Fmt(mult), policy_name, std::to_string(threads),
                   TablePrinter::Num(rep.wall_seconds, 2),
                   std::to_string(rep.served_requests),
                   std::to_string(rep.shed_requests),
                   TablePrinter::Num(shed_rate, 3),
                   TablePrinter::Num(miss_rate, 3),
                   compare(rep, ref, SameOverloadResults(rep, ref))});
      }
    }
  }
  std::printf("=== Overload (window %gs, admit budget %d) ===\n%s\n",
              overload_window_s, overload_budget, ot.ToString().c_str());

  WriteTrajectory("dispatch", smoke, lines);

  if (!accounting_ok) {
    std::printf("FAIL: accounting partition violated "
                "(served + rejected + shed + dnf != total)\n");
    return 1;
  }
  if (!all_identical) {
    std::printf("FAIL: dispatch results diverged (window=0 vs sequential "
                "pruneGreedyDP, a window across thread counts, or overload "
                "shed accounting across thread counts)\n");
    return 1;
  }
  if (!any_compared) {
    std::printf("FAIL: all runs timed out before the identity gates could "
                "compare anything — raise URPSM_BENCH_WALL_LIMIT\n");
    return 1;
  }
  std::printf("window=0 identical to sequential AND windows and shed "
              "accounting thread-count independent: YES\n");
  return 0;
}
