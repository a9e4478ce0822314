#include "src/obs/registry.h"

namespace urpsm::obs {

// ----------------------------------------------------------- instruments

Counter::Counter(std::string name, bool enabled)
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

Registry::Registry(bool enabled) : enabled_(enabled) {}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return it->second;
  counters_.emplace_back(
      std::unique_ptr<Counter>(new Counter(name, enabled_)));
  Counter* c = counters_.back().get();
  counter_index_[name] = c;
  return c;
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

std::map<std::string, double> Registry::Snapshot() {
  std::map<std::string, double> out;
  if (!enabled_) return out;
  std::vector<std::pair<std::string, std::function<double()>>> live;
  {
    std::lock_guard<std::mutex> l(mu_);
    for (const auto& c : counters_) {
      out[c->name_] = static_cast<double>(
          c->value_.load(std::memory_order_relaxed));
    }
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
