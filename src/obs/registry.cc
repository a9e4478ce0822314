#include "src/obs/registry.h"

namespace urpsm::obs {

namespace {

/// Process-unique registry ids: the TLS cell-block cache is keyed by
/// uid, so a stale cached pointer from a destroyed registry (or a
/// recycled address) can never be dereferenced — the uid mismatch
/// forces a fresh lookup.
std::atomic<std::uint64_t> g_registry_uid{1};

}  // namespace

// ----------------------------------------------------------- instruments

Counter::Counter(Registry* owner, std::size_t id, std::string name,
                 bool enabled)
    : owner_(owner), id_(id), name_(std::move(name)), enabled_(enabled) {}

void Counter::AddSlow(std::int64_t n) { owner_->AddToCell(id_, n); }

Gauge::Gauge(std::string name, bool enabled)
    : name_(std::move(name)), enabled_(enabled) {}

Histogram::Histogram(std::string name, bool enabled)
    : name_(std::move(name)), enabled_(enabled) {}

void Histogram::Observe(double v) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> l(mu_);
  acc_.Add(v);
}

StatsAccumulator Histogram::Snapshot() const {
  std::lock_guard<std::mutex> l(mu_);
  return acc_;
}

// -------------------------------------------------------------- registry

Registry::Registry(bool enabled)
    : enabled_(enabled),
      uid_(g_registry_uid.fetch_add(1, std::memory_order_relaxed)) {}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return it->second;
  const std::size_t id = counters_.size();
  counters_.emplace_back(
      std::unique_ptr<Counter>(new Counter(this, id, name, enabled_)));
  Counter* c = counters_.back().get();
  counter_index_[name] = c;
  return c;
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = gauge_index_.find(name);
  if (it != gauge_index_.end()) return it->second;
  gauges_.emplace_back(std::unique_ptr<Gauge>(new Gauge(name, enabled_)));
  Gauge* g = gauges_.back().get();
  gauge_index_[name] = g;
  return g;
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) return it->second;
  histograms_.emplace_back(
      std::unique_ptr<Histogram>(new Histogram(name, enabled_)));
  Histogram* h = histograms_.back().get();
  histogram_index_[name] = h;
  return h;
}

std::size_t Registry::RegisterCallbackGauge(const std::string& name,
                                            std::function<double()> fn) {
  std::lock_guard<std::mutex> l(mu_);
  callbacks_.push_back(Callback{name, std::move(fn), 0.0});
  return callbacks_.size() - 1;
}

void Registry::FreezeCallbackGauge(std::size_t id) {
  std::function<double()> fn;
  {
    std::lock_guard<std::mutex> l(mu_);
    if (id >= callbacks_.size()) return;
    fn = std::move(callbacks_[id].fn);
    callbacks_[id].fn = nullptr;
  }
  if (!fn) return;  // already frozen
  // Evaluate outside mu_: the callback reads component state behind the
  // component's own lock.
  const double v = fn();
  std::lock_guard<std::mutex> l(mu_);
  callbacks_[id].frozen = v;
}

void Registry::FreezeAllCallbacks() {
  std::size_t n = 0;
  {
    std::lock_guard<std::mutex> l(mu_);
    n = callbacks_.size();
  }
  for (std::size_t i = 0; i < n; ++i) FreezeCallbackGauge(i);
}

void Registry::AddToCell(std::size_t id, std::int64_t n) {
  struct TlsCache {
    std::uint64_t uid = 0;
    CellBlock* block = nullptr;
  };
  static thread_local TlsCache cache;
  if (cache.uid != uid_) {
    cache.block = GetBlockSlow();
    cache.uid = uid_;
  }
  if (id < CellBlock::kCapacity) {
    // Single-writer cell (this thread's private block): relaxed
    // load+store, no RMW contention; Snapshot reads concurrently.
    std::atomic<std::int64_t>& cell = cache.block->cells[id];
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  } else {
    std::lock_guard<std::mutex> l(mu_);
    overflow_[id] += n;
  }
}

Registry::CellBlock* Registry::GetBlockSlow() {
  std::lock_guard<std::mutex> l(mu_);
  std::unique_ptr<CellBlock>& slot = thread_blocks_[std::this_thread::get_id()];
  if (!slot) slot = std::make_unique<CellBlock>();
  return slot.get();
}

std::map<std::string, double> Registry::Snapshot() {
  std::map<std::string, double> out;
  if (!enabled_) return out;
  std::vector<std::pair<std::string, std::function<double()>>> live;
  {
    std::lock_guard<std::mutex> l(mu_);
    for (const auto& c : counters_) {
      std::int64_t sum = 0;
      if (c->id_ < CellBlock::kCapacity) {
        for (const auto& [tid, block] : thread_blocks_) {
          sum += block->cells[c->id_].load(std::memory_order_relaxed);
        }
      }
      auto it = overflow_.find(c->id_);
      if (it != overflow_.end()) sum += it->second;
      out[c->name_] = static_cast<double>(sum);
    }
    for (const auto& g : gauges_) out[g->name_] = g->Value();
    for (const auto& cb : callbacks_) {
      if (cb.fn) {
        live.emplace_back(cb.name, cb.fn);
      } else {
        out[cb.name] = cb.frozen;
      }
    }
    for (const auto& h : histograms_) {
      const StatsAccumulator s = h->Snapshot();
      if (s.count() == 0) continue;
      out[h->name_ + ".count"] = static_cast<double>(s.count());
      out[h->name_ + ".sum"] = s.sum();
      out[h->name_ + ".min"] = s.min();
      out[h->name_ + ".max"] = s.max();
      out[h->name_ + ".p50"] = s.Percentile(50);
      out[h->name_ + ".p95"] = s.Percentile(95);
      out[h->name_ + ".p99"] = s.Percentile(99);
    }
  }
  // Pull-model gauges read component state behind component locks —
  // evaluate them with the registry mutex released (see class comment).
  for (const auto& [name, fn] : live) out[name] = fn();
  return out;
}

}  // namespace urpsm::obs
