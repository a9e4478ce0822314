#ifndef URPSM_SRC_SIM_SIMULATOR_H_
#define URPSM_SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/planner.h"
#include "src/model/feasibility.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/parallel/thread_pool.h"
#include "src/sim/fleet.h"
#include "src/sim/metrics.h"
#include "src/util/fault.h"

namespace urpsm {

/// Which deterministic overload levers the windowed event loop arms.
/// kBlock (the default) leaves SimOptions::admission_slack_min and
/// SimOptions::window_admit_budget off; the two shedding policies arm
/// both and pick the budget's victims. The drain cutoff
/// (SimOptions::drain_after_s) works under every policy.
enum class AdmissionPolicy : int {
  kBlock = 0,            // slack floor and admit budget off
  kRejectAtIngress = 1,  // an over-budget window sheds its latest releases
  kShedOldestSlack = 2,  // an over-budget window sheds the least slack first
};

/// Options for one simulation run.
struct SimOptions {
  double alpha = 1.0;  // distance weight of the unified cost
  /// Abort when cumulative planning wall time exceeds this (seconds);
  /// mirrors the paper's 10/20-hour kill switch under which kinetic DNFs.
  double wall_limit_seconds = 1e18;
  /// Threads available to windowed planning: GreedyDpPlanner::OnBatch
  /// fans one window's per-request planning across them; its prep and
  /// commit stay on the loop thread. 1 keeps the run fully sequential;
  /// above 1 the simulation owns a ThreadPool of this size and exposes it
  /// via PlanningContext::thread_pool(). The per-request loop and the
  /// other planners ignore it. The event loop itself stays
  /// single-threaded — requests and windows are serialized by release
  /// time, as in the paper.
  int num_threads = 1;
  /// Dispatch-window length in simulated *seconds*. When > 0 and the
  /// planner implements BatchPlanner, Run() switches to the windowed
  /// event loop: requests released within one window are buffered, the
  /// fleet advances to the window close, and the whole batch is planned
  /// in one OnBatch call (the paper's batch baseline uses 6 s). 0 — the
  /// default — keeps the per-request loop for every planner: each
  /// release goes to OnRequest, and the results do not depend on
  /// num_threads.
  double batch_window_s = 0.0;
  /// Collect engine metrics (obs::Registry) for the run and attach the
  /// final snapshot to SimReport::metrics. Off by default: the
  /// instrumentation is compiled in everywhere but its hot paths reduce
  /// to a single branch when disabled (<2% overhead, measured by
  /// bench_hotpath's obs_overhead lines).
  bool collect_metrics = false;
  /// When non-empty, record engine spans (per-request plans, windows
  /// with their epochs, per-proposal commits with their requests) and
  /// write Chrome trace-event JSON here at the end of the run — loadable
  /// in Perfetto or chrome://tracing. Independent of collect_metrics.
  std::string trace_path;
  /// Overload levers of the windowed event loop (batch_window_s > 0 and
  /// a BatchPlanner; the per-request loop ignores them). All three act
  /// at window assembly and are pure functions of simulated time and the
  /// request table, so shed sets are identical across thread counts.
  /// kBlock (default) turns the slack floor and the admit budget off;
  /// the drain cutoff works under every policy.
  AdmissionPolicy admission_policy = AdmissionPolicy::kBlock;
  /// Ingress deadline-slack floor (simulated minutes): a request whose
  /// deadline minus release minus the Euclidean lower-bound travel time
  /// falls below this is shed (reason: deadline) before it can open or
  /// join a window — it could not be delivered in time even by an
  /// adjacent idle worker, so the drop is correct degradation, not data
  /// loss. Computed with the oracle-free Euclidean bound, so arming it
  /// perturbs no query count. <= 0 (default) disables the filter.
  double admission_slack_min = 0.0;
  /// Per-window admit budget: an assembled window keeps at most this many
  /// members and sheds the excess (reason: overload) — least slack first
  /// (ties: lowest id) under kShedOldestSlack, latest releases under
  /// kRejectAtIngress. 0 (default) = unlimited.
  int window_admit_budget = 0;
  /// Graceful drain: the first request released at or after this
  /// simulated instant (seconds, same clock as batch_window_s) sheds the
  /// rest of the table (reason: drain); the window being assembled still
  /// plans and commits, so accounting stays exact — the serving-loop
  /// shutdown path, as opposed to the wall-limit kill switch, which
  /// DNFs. < 0 (default) never drains.
  double drain_after_s = -1.0;
  /// Deterministic fault injection (tests/benches): a seeded splitmix64
  /// schedule of wall-clock perturbations at named engine sites (see
  /// FaultSite). Every perturbation is timing-only, so deterministic
  /// SimReport fields must survive any schedule. Disabled by default;
  /// the compiled-in-but-disabled cost is one null-pointer branch per
  /// site.
  FaultSpec faults;
};

/// Validates and normalizes a SimOptions in ONE documented place (called
/// by the Simulation constructor, so every run sees sane options instead
/// of per-site silent clamps). Invalid combinations are clamped to the
/// nearest sane value with a warning on stderr:
///   - negative batch_window_s / wall limit / slack floor / budget -> 0
///   - num_threads < 1                      -> 1
///   - fault rates outside [0, 1] / negative delays -> clamped
/// When `warnings` is non-null every emitted warning is also appended to
/// it (tests assert on the messages without capturing stderr).
SimOptions ValidateSimOptions(SimOptions options,
                              std::vector<std::string>* warnings = nullptr);

/// Event-driven day simulation (Sec. 6.1): requests are replayed in
/// release order; before each release the fleet advances to the release
/// time; the planner then serves or rejects the request. With
/// SimOptions::batch_window_s > 0 and a BatchPlanner, the replay loop is
/// windowed instead: whole release windows are handed over in one OnBatch
/// call, in lock step with the fleet. At the end all committed+planned
/// work is flushed and the unified cost, served rate and response times
/// are collected.
class Simulation {
 public:
  /// `requests` must be sorted by release time (ascending), and ids must
  /// be unique and non-negative — they need NOT be the dense positions
  /// 0..n-1 (gappy id spaces from trace extracts are fine; everything
  /// downstream resolves ids through an id->index map). Both are checked
  /// in every build: a violation prints a message and aborts.
  Simulation(const RoadNetwork* graph, DistanceOracle* oracle,
             std::vector<Worker> workers, const std::vector<Request>* requests,
             SimOptions options);

  SimReport Run(const PlannerFactory& factory);

  /// Fleet state after Run() (for invariant checks and inspection).
  const Fleet& fleet() const { return *fleet_; }
  /// served()[k] — whether the k-th request of the input vector was
  /// served (indexed by table *position*; for the common dense workloads
  /// position and id coincide). For arbitrary ids use request_served().
  const std::vector<bool>& served() const { return served_; }
  /// Whether the request with this id was served (id-safe lookup).
  bool request_served(RequestId id) const;

 private:
  // The two event loops Run dispatches between. Each processes the
  // request stream, mutates the loop-specific SimReport fields
  // (processed_requests, response samples, timed_out, shed counts) and
  // returns the planning wall time consumed — the Finalize budget and
  // kill-switch accounting are shared by both.
  double RunPerRequest(RoutePlanner* planner, SimReport* report);
  double RunWindowed(BatchPlanner* batcher, SimReport* report);

  const RoadNetwork* graph_;
  DistanceOracle* oracle_;
  std::vector<Worker> workers_;
  const std::vector<Request>* requests_;
  SimOptions options_;
  // Bills this run's queries to the borrowed oracle_ (recreated per Run).
  std::unique_ptr<BillingOracle> billing_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Fleet> fleet_;
  // Observability of the current run (recreated per Run): the metrics
  // registry (disabled unless SimOptions::collect_metrics) and the span
  // tracer (disabled unless SimOptions::trace_path).
  std::unique_ptr<obs::Registry> registry_;
  std::unique_ptr<obs::TraceRecorder> tracer_;
  /// Fault injector of the run (null unless SimOptions::faults.enabled) —
  /// wired into BillingOracle and ThreadPool like the obs instruments, and
  /// read by RunWindowed for the drain trigger.
  std::unique_ptr<FaultInjector> faults_;
  std::vector<bool> served_;
};

/// Convenience wrapper: build a planner of the given kind.
PlannerFactory MakePruneGreedyDpFactory(PlannerConfig config);
PlannerFactory MakeGreedyDpFactory(PlannerConfig config);

}  // namespace urpsm

#endif  // URPSM_SRC_SIM_SIMULATOR_H_
