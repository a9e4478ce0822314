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
#include <thread>
#include <vector>

#include "src/util/stats.h"

namespace urpsm::obs {

class Registry;

/// Monotonic event counter. The hot path is one branch when the owning
/// registry is disabled (no atomics, no TLS lookup); when enabled, each
/// thread increments its own cache-line-private cell (relaxed atomics,
/// no contention) and Snapshot sums the cells.
///
/// Thread-safe. Pointers returned by Registry::GetCounter stay valid
/// for the registry's lifetime.
class Counter {
 public:
  void Add(std::int64_t n = 1) {
    if (!enabled_) return;
    AddSlow(n);
  }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  Counter(Registry* owner, std::size_t id, std::string name, bool enabled);
  void AddSlow(std::int64_t n);

  Registry* owner_;
  std::size_t id_;
  std::string name_;
  const bool enabled_;  // copied from the registry at creation
};

/// Last-value-wins gauge (a single relaxed atomic double).
class Gauge {
 public:
  void Set(double v) {
    if (!enabled_) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  Gauge(std::string name, bool enabled);

  std::string name_;
  const bool enabled_;
  std::atomic<double> value_{0.0};
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
  Gauge* GetGauge(const std::string& name);
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

  /// Flat name -> value view of everything: counters summed across
  /// thread cells, gauges, callback gauges (evaluated or frozen), and
  /// histograms expanded to .count/.sum/.min/.max/.p50/.p95/.p99
  /// (histograms with no observations are omitted). Returns an empty
  /// map when the registry is disabled. Safe to call concurrently with
  /// instrument updates.
  std::map<std::string, double> Snapshot();

 private:
  friend class Counter;

  struct CellBlock {
    static constexpr std::size_t kCapacity = 256;
    std::atomic<std::int64_t> cells[kCapacity];  // zero-initialized
    CellBlock() {
      for (auto& c : cells) c.store(0, std::memory_order_relaxed);
    }
  };
  struct Callback {
    std::string name;
    std::function<double()> fn;  // empty once frozen
    double frozen = 0.0;
  };

  void AddToCell(std::size_t id, std::int64_t n);
  CellBlock* GetBlockSlow();

  const bool enabled_;
  const std::uint64_t uid_;  // process-unique; keys the TLS block cache

  std::mutex mu_;
  std::deque<std::unique_ptr<Counter>> counters_;  // deque: stable ptrs
  std::map<std::string, Counter*> counter_index_;
  std::deque<std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, Gauge*> gauge_index_;
  std::deque<std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, Histogram*> histogram_index_;
  std::vector<Callback> callbacks_;
  std::map<std::thread::id, std::unique_ptr<CellBlock>> thread_blocks_;
  std::map<std::size_t, std::int64_t> overflow_;  // counter id >= kCapacity
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
