#ifndef URPSM_PERFBENCH_INSTRUMENTS_H_
#define URPSM_PERFBENCH_INSTRUMENTS_H_

// Instruments the benchmark puts around the library's public interfaces.
// Nothing here changes what a run computes: every decorator forwards each
// virtual it overrides to the wrapped object with the same arguments.
//
//   PlannerStopwatch  wraps the planner the factory builds. It times every
//                     OnRequest / OnBatch call (the decision latency of the
//                     end-to-end metrics) and, in traced runs, opens a span
//                     per planner call (the `core` layer).
//   TracedOracle      sits between the simulation's distance cache and the
//                     hub labels in traced runs only, and sums the calls,
//                     cells and busy time of every label query (the
//                     `shortest` layer) across all threads.
//   SpanLog           keeps the traced run's spans in memory; label work is
//                     aggregated per span instead of stored per call.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/planner.h"
#include "src/shortest/oracle.h"
#include "src/sim/dispatch_window.h"
#include "src/sim/simulator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Label-query work: calls into the labels, distance cells they answered
/// (1 per Distance, sources x targets per BatchQuery, 0 per Path) and the
/// nanoseconds spent inside them, summed over threads.
struct LabelWork {
  std::int64_t calls = 0;
  std::int64_t cells = 0;
  std::int64_t ns = 0;

  LabelWork operator-(const LabelWork& o) const {
    return {calls - o.calls, cells - o.cells, ns - o.ns};
  }
  LabelWork& operator+=(const LabelWork& o) {
    calls += o.calls;
    cells += o.cells;
    ns += o.ns;
    return *this;
  }
};

/// Timing decorator over the hub labels. Forwards Distance, Path,
/// BatchQuery (to the wrapped oracle's own override) and
/// QuantizationErrorBound, and bills its own query counter exactly as the
/// wrapped oracle bills its.
class TracedOracle final : public urpsm::DistanceOracle {
 public:
  explicit TracedOracle(urpsm::DistanceOracle* inner) : inner_(inner) {}

  double Distance(urpsm::VertexId u, urpsm::VertexId v) override {
    const std::int64_t t0 = NowNs();
    const double d = inner_->Distance(u, v);
    Add(1, NowNs() - t0);
    query_count_.fetch_add(1, std::memory_order_relaxed);
    return d;
  }

  std::vector<urpsm::VertexId> Path(urpsm::VertexId u,
                                    urpsm::VertexId v) override {
    const std::int64_t t0 = NowNs();
    std::vector<urpsm::VertexId> path = inner_->Path(u, v);
    Add(0, NowNs() - t0);
    return path;
  }

  void BatchQuery(const std::vector<urpsm::VertexId>& sources,
                  const std::vector<urpsm::VertexId>& targets,
                  std::vector<double>* out) override {
    const std::int64_t t0 = NowNs();
    inner_->BatchQuery(sources, targets, out);
    const auto cells =
        static_cast<std::int64_t>(sources.size() * targets.size());
    Add(cells, NowNs() - t0);
    query_count_.fetch_add(cells, std::memory_order_relaxed);
  }

  double QuantizationErrorBound() const override {
    return inner_->QuantizationErrorBound();
  }

  /// Work done so far; a span takes the difference of two readings.
  LabelWork totals() const {
    return {calls_.load(std::memory_order_relaxed),
            cells_.load(std::memory_order_relaxed),
            ns_.load(std::memory_order_relaxed)};
  }

 private:
  void Add(std::int64_t cells, std::int64_t ns) {
    calls_.fetch_add(1, std::memory_order_relaxed);
    cells_.fetch_add(cells, std::memory_order_relaxed);
    ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  urpsm::DistanceOracle* inner_;
  std::atomic<std::int64_t> calls_{0};
  std::atomic<std::int64_t> cells_{0};
  std::atomic<std::int64_t> ns_{0};
};

/// One recorded span. `label` is the label work done while the span was
/// open, by any thread, including the work of its child spans.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int thread = 0;
  LabelWork label;
};

/// In-memory span recorder of a traced run. Spans are opened and closed
/// only on the thread that calls Simulation::Run; label calls made on pool
/// threads while a planner span is open land in that span through the
/// oracle's totals.
class SpanLog {
 public:
  /// Label totals come from `oracle` while one is attached (traced
  /// replays); spans opened without one record no label work.
  void Attach(const TracedOracle* oracle) { oracle_ = oracle; }

  int Open(const char* name, int parent) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.thread = ThreadIndex();
    if (oracle_ != nullptr) s.label = oracle_->totals();
    s.start_ns = NowNs();
    spans_.push_back(s);
    return static_cast<int>(spans_.size()) - 1;
  }

  void Close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = NowNs();
    s.label = oracle_ != nullptr ? oracle_->totals() - s.label : LabelWork{};
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as Chrome trace events (loadable in Perfetto).
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"label_calls\":%lld,\"label_cells\":%lld,"
                   "\"label_ns\":%lld}}",
                   i == 0 ? "" : ",", s.name, s.thread, s.start_ns / 1e3,
                   (s.end_ns - s.start_ns) / 1e3, i, s.parent,
                   static_cast<long long>(s.label.calls),
                   static_cast<long long>(s.label.cells),
                   static_cast<long long>(s.label.ns));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static int ThreadIndex() {
    static std::atomic<int> next{0};
    thread_local const int index = next.fetch_add(1);
    return index;
  }

  const TracedOracle* oracle_ = nullptr;
  std::vector<Span> spans_;
};

/// What the planner stopwatch records during one replay.
struct PlannerProbe {
  /// Decision latency in ms: one sample per OnRequest call, or per member
  /// of an OnBatch call (each member is charged its window's call).
  std::vector<double> decision_ms;
  /// One sample per OnBatch call (windowed replays only).
  std::vector<double> window_ms;
  std::int64_t decision_calls = 0;
  /// exact_evaluations() of the wrapped planner, read when the planner is
  /// destroyed; -1 when the planner does not expose it.
  std::int64_t exact_evaluations = -1;
  /// Traced replays: spans go here, under `parent`.
  SpanLog* spans = nullptr;
  int parent = -1;

  int OpenSpan(const char* name) const {
    return spans != nullptr ? spans->Open(name, parent) : -1;
  }
  void CloseSpan(int id) const {
    if (id >= 0) spans->Close(id);
  }
};

inline double MsBetween(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

inline std::int64_t ExactEvaluationsOf(const urpsm::RoutePlanner& p) {
  if (const auto* g = dynamic_cast<const urpsm::GreedyDpPlanner*>(&p)) {
    return g->exact_evaluations();
  }
  if (const auto* d = dynamic_cast<const urpsm::DispatchWindowPlanner*>(&p)) {
    return d->exact_evaluations();
  }
  return -1;
}

/// Stopwatch decorator over a planner. `Interface` is the most derived
/// planner interface the simulation may drive (RoutePlanner or
/// BatchPlanner), so the simulation picks the same event loop with and
/// without the decorator.
template <typename Interface>
class PlannerStopwatchBase : public Interface {
 public:
  PlannerStopwatchBase(std::unique_ptr<urpsm::RoutePlanner> inner,
                       PlannerProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}
  ~PlannerStopwatchBase() override {
    probe_->exact_evaluations = ExactEvaluationsOf(*inner_);
  }

  urpsm::WorkerId OnRequest(const urpsm::Request& r) override {
    const int span = probe_->OpenSpan("core.on_request");
    const auto t0 = Clock::now();
    const urpsm::WorkerId w = inner_->OnRequest(r);
    const auto t1 = Clock::now();
    probe_->CloseSpan(span);
    probe_->decision_ms.push_back(MsBetween(t0, t1));
    ++probe_->decision_calls;
    return w;
  }

  std::string_view name() const override { return inner_->name(); }

  void Finalize(double budget_seconds) override {
    const int span = probe_->OpenSpan("core.finalize");
    inner_->Finalize(budget_seconds);
    probe_->CloseSpan(span);
  }

  std::int64_t index_memory_bytes() const override {
    return inner_->index_memory_bytes();
  }

 protected:
  std::unique_ptr<urpsm::RoutePlanner> inner_;
  PlannerProbe* probe_;
};

using PlannerStopwatch = PlannerStopwatchBase<urpsm::RoutePlanner>;

class BatchPlannerStopwatch final
    : public PlannerStopwatchBase<urpsm::BatchPlanner> {
 public:
  BatchPlannerStopwatch(std::unique_ptr<urpsm::RoutePlanner> inner,
                        urpsm::BatchPlanner* batch, PlannerProbe* probe)
      : PlannerStopwatchBase(std::move(inner), probe), batch_(batch) {}

  void OnBatch(const std::vector<urpsm::RequestId>& batch, double now,
               urpsm::WindowEpoch epoch) override {
    const int span = probe_->OpenSpan("core.on_batch");
    const auto t0 = Clock::now();
    batch_->OnBatch(batch, now, epoch);
    const auto t1 = Clock::now();
    probe_->CloseSpan(span);
    const double ms = MsBetween(t0, t1);
    probe_->window_ms.push_back(ms);
    probe_->decision_ms.insert(probe_->decision_ms.end(), batch.size(), ms);
    ++probe_->decision_calls;
  }

 private:
  urpsm::BatchPlanner* batch_;  // == inner_, viewed as a batch planner
};

/// Wraps `factory` so every planner it builds is timed into `probe`.
inline urpsm::PlannerFactory Stopwatched(urpsm::PlannerFactory factory,
                                         PlannerProbe* probe) {
  return [factory = std::move(factory), probe](
             urpsm::PlanningContext* ctx,
             urpsm::Fleet* fleet) -> std::unique_ptr<urpsm::RoutePlanner> {
    const int span = probe->OpenSpan("core.construct");
    std::unique_ptr<urpsm::RoutePlanner> planner = factory(ctx, fleet);
    probe->CloseSpan(span);
    if (auto* batch = dynamic_cast<urpsm::BatchPlanner*>(planner.get())) {
      return std::make_unique<BatchPlannerStopwatch>(std::move(planner),
                                                     batch, probe);
    }
    return std::make_unique<PlannerStopwatch>(std::move(planner), probe);
  };
}

}  // namespace perfbench

#endif  // URPSM_PERFBENCH_INSTRUMENTS_H_
