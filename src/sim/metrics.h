#ifndef URPSM_SRC_SIM_METRICS_H_
#define URPSM_SRC_SIM_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/model/types.h"
#include "src/sim/fleet.h"
#include "src/util/stats.h"

namespace urpsm {

/// One simulation run's results: the three headline metrics of the paper's
/// evaluation (unified cost, served rate, response time; Sec. 6.1) plus
/// the supporting counters it also reports (distance queries saved by the
/// pruning strategy, grid-index memory).
struct SimReport {
  std::string algorithm;
  int total_requests = 0;
  /// Requests actually handed to the planner before the wall limit hit.
  /// Equals total_requests on a complete run; on a truncated (timed_out)
  /// run the latency percentiles below cover only these.
  int processed_requests = 0;
  int served_requests = 0;
  /// Overload/robustness partition of total_requests. Every request lands
  /// in exactly one bucket:
  ///   served   — delivered by its deadline;
  ///   rejected — handed to the planner but not served (penalty billed);
  ///   shed     — dropped by admission control or drain before planning
  ///              (penalty billed; by-reason split below);
  ///   dnf      — neither planned nor shed: cut off by the wall-limit
  ///              kill switch (penalty billed, as in the paper).
  /// CheckAccounting() verifies served + rejected + shed + dnf == total
  /// on every run, including timed-out, drained and fault-injected ones.
  int rejected_requests = 0;
  int shed_requests = 0;
  int dnf_requests = 0;
  /// Shed counts by reason; their sum equals shed_requests.
  std::int64_t shed_deadline = 0;  // ingress slack below the admission floor
  std::int64_t shed_overload = 0;  // window budget excess
  std::int64_t shed_drain = 0;     // released at/after the drain cutoff
  /// Graceful drain: the simulated cutoff (minutes, from SimOptions::
  /// drain_after_s or the kDrainTrigger fault site) that shed the rest of
  /// the table, or -1 when the run did not drain (shed_drain == 0).
  double drain_cutoff_min = -1.0;
  double served_rate = 0.0;
  double unified_cost = 0.0;
  double total_distance = 0.0;    // sum_w D(S_w), travel-time minutes
  double penalty_sum = 0.0;       // sum of p_r over rejected requests
  double avg_response_ms = 0.0;   // mean per-request planning wall time
  double p50_response_ms = 0.0;
  double p95_response_ms = 0.0;
  double p99_response_ms = 0.0;
  double max_response_ms = 0.0;
  /// The per-request planning-latency samples (ms) behind the summary
  /// fields above. Retained so multi-run aggregation can pool samples and
  /// report true percentiles of the pooled distribution — averaging each
  /// run's p50/p95 would not be a percentile of anything.
  StatsAccumulator response_stats;
  std::int64_t distance_queries = 0;
  std::int64_t index_memory_bytes = 0;
  double wall_seconds = 0.0;
  bool timed_out = false;
  /// SimOptions::num_threads of the run, recorded so every emitted result
  /// line carries its thread count machine-readably (the bench JSON also
  /// records std::thread::hardware_concurrency, making oversubscribed
  /// container runs distinguishable from real multicore measurements).
  int num_threads = 1;

  // Service-quality extras (not headline paper metrics, but standard in
  // the ride-sharing literature the paper cites).
  double mean_pickup_wait_min = 0.0;   // pickup time - release, served only
  double mean_detour_ratio = 0.0;      // (dropoff-pickup) / dis(o,d), served
  double makespan_min = 0.0;           // completion time of the last dropoff

  /// Whether SimOptions::trace_path was set for the run (recorded in
  /// every BENCH line so trajectory comparisons stay apples-to-apples).
  bool trace_enabled = false;
  /// Final snapshot of the run's obs::Registry (empty when
  /// SimOptions::collect_metrics was off): flat metric name -> value,
  /// histograms expanded to .count/.sum/.min/.max/.p50/.p95/.p99.
  std::map<std::string, double> metrics;
};

/// Averages the numeric fields of several runs of the same algorithm
/// (the paper repeats every setting and reports means, Sec. 6.1).
/// `timed_out` is OR-ed; counters are rounded means. Latency percentiles
/// (p50/p95) are computed over the POOLED per-request samples of all runs,
/// not as a mean of per-run percentiles; avg/max likewise come from the
/// pooled distribution.
SimReport AverageReports(const std::vector<SimReport>& reports);

/// Violation found by the invariant checker; empty string means clean.
struct InvariantReport {
  bool ok = true;
  std::string violation;
};

/// Replays the fleet's commit log and verifies the model invariants that
/// Def. 3 / Def. 4 promise:
///   (1) every assigned request is picked up exactly once, then dropped
///       off exactly once, by the same worker, in that order;
///   (2) every drop-off happens by the request's deadline;
///   (3) the onboard load never exceeds the worker's capacity;
///   (4) every request is either served or rejected — never both.
/// Requests are matched by id (ids need not be dense or 0..n-1).
///
/// With `mid_run = true` the end-of-simulation conditions are relaxed for
/// checks between dispatch windows: passengers may still be on board, and
/// an assigned request may not have been delivered yet (its drop-off is
/// still pending). Prefix properties (1)-(3) are enforced in full.
InvariantReport VerifyInvariants(const Fleet& fleet,
                                 const std::vector<Request>& requests,
                                 bool mid_run = false);

/// Verifies the overload-accounting partition of a finished run:
/// served + rejected + shed + dnf == total, rejected == processed -
/// served, the by-reason shed counts sum to shed_requests, and no bucket
/// is negative. Holds by construction for Simulation::Run reports
/// (including timed-out, drained and fault-injected runs); tests and
/// benches call it on every report they emit.
InvariantReport CheckAccounting(const SimReport& report);

}  // namespace urpsm

#endif  // URPSM_SRC_SIM_METRICS_H_
