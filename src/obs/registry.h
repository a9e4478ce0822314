#ifndef URPSM_SRC_OBS_REGISTRY_H_
#define URPSM_SRC_OBS_REGISTRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/stats.h"

namespace urpsm::obs {

/// Monotonic event counter: one relaxed atomic. The hot path is one
/// branch when the owning registry is disabled. Every counter in the
/// engine is bumped on the simulation's loop thread, so the atomic sees
/// no contention there; it keeps Add safe from any thread all the same.
///
/// Thread-safe. Pointers returned by Registry::GetCounter stay valid
/// for the registry's lifetime.
class Counter {
 public:
  void Add(std::int64_t n = 1) {
    if (enabled_) value_.fetch_add(n, std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  Counter(std::string name, bool enabled);

  std::string name_;
  const bool enabled_;  // copied from the registry at creation
  std::atomic<std::int64_t> value_{0};
};

/// Value-distribution histogram backed by the digest-based
/// StatsAccumulator (mutex-guarded; Observe from any thread). Snapshot
/// expands it to <name>.count/.sum/.min/.max/.p50/.p95/.p99.
class Histogram {
 public:
  void Observe(double v);
  bool enabled() const { return enabled_; }
  const std::string& name() const { return name_; }
  /// Copy of the current accumulator (for report plumbing/tests).
  StatsAccumulator Snapshot() const;

 private:
  friend class Registry;
  Histogram(std::string name, bool enabled);

  std::string name_;
  const bool enabled_;
  mutable std::mutex mu_;
  StatsAccumulator acc_;
};

/// Names metrics and owns their storage. One Registry per Simulation
/// run; components fetch (find-or-create) their instruments by name at
/// setup time and hold raw pointers — stable for the registry's
/// lifetime.
///
/// Enabled/disabled is fixed at construction (instruments copy the
/// flag, so the disabled hot path is a single non-atomic branch and
/// tsan-clean). Pull-model metrics register a callback gauge; a
/// component that dies before the final Snapshot freezes its callbacks
/// first (FreezeCallbackGauge) so the last evaluated value still appears.
///
/// Locking rule for instrumented components: never invoke a registry
/// instrument while holding a component lock that a Snapshot callback
/// also takes — observe after unlocking. Snapshot itself evaluates
/// callbacks outside the registry mutex.
class Registry {
 public:
  explicit Registry(bool enabled = true);

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  bool enabled() const { return enabled_; }

  Counter* GetCounter(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Registers a pull-model gauge evaluated at Snapshot time; returns
  /// an id for FreezeCallbackGauge. The callback must stay valid until
  /// frozen or the registry is destroyed.
  std::size_t RegisterCallbackGauge(const std::string& name,
                                    std::function<double()> fn);
  /// Evaluates the callback one last time, stores the value, and drops
  /// the callback — call before destroying the component it reads.
  void FreezeCallbackGauge(std::size_t id);
  /// Freezes every registered callback gauge — run after the final
  /// Snapshot, before the instrumented components are destroyed, so the
  /// registry outliving them stays safe to snapshot.
  void FreezeAllCallbacks();

  /// Flat name -> value view of everything: counters, callback gauges
  /// (evaluated or frozen), and histograms expanded to
  /// .count/.sum/.min/.max/.p50/.p95/.p99 (histograms with no
  /// observations are omitted). Returns an empty map when the registry
  /// is disabled. Safe to call concurrently with instrument updates.
  std::map<std::string, double> Snapshot();

 private:
  struct Callback {
    std::string name;
    std::function<double()> fn;  // empty once frozen
    double frozen = 0.0;
  };

  const bool enabled_;

  std::mutex mu_;
  std::deque<std::unique_ptr<Counter>> counters_;  // deque: stable ptrs
  std::map<std::string, Counter*> counter_index_;
  std::deque<std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, Histogram*> histogram_index_;
  std::vector<Callback> callbacks_;
};

/// Null-safe increment: components hold Counter* that may be null when
/// no registry was wired in.
inline void Inc(Counter* c, std::int64_t n = 1) {
  if (c != nullptr) c->Add(n);
}

/// RAII timer observing elapsed milliseconds into a histogram on
/// destruction. Takes no clock reads when the histogram is null or
/// disabled, so the compiled-in-but-off cost is one branch.
class ScopedTimerMs {
 public:
  explicit ScopedTimerMs(Histogram* h)
      : h_(h != nullptr && h->enabled() ? h : nullptr) {
    if (h_ != nullptr) t0_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimerMs() {
    if (h_ != nullptr) {
      h_->Observe(std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0_)
                      .count());
    }
  }
  ScopedTimerMs(const ScopedTimerMs&) = delete;
  ScopedTimerMs& operator=(const ScopedTimerMs&) = delete;

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace urpsm::obs

#endif  // URPSM_SRC_OBS_REGISTRY_H_
