#ifndef URPSM_SRC_UTIL_FAULT_H_
#define URPSM_SRC_UTIL_FAULT_H_

#include <atomic>
#include <cstdint>

namespace urpsm {

/// Named fault-injection sites of the engine. The two timing sites are
/// points where a seeded schedule may perturb the *wall-clock* timing of
/// the run — never a planning input — so every deterministic SimReport
/// field must survive any schedule (the fault suite's core assertion).
/// The drain trigger instead moves a simulated-time cutoff.
enum class FaultSite : int {
  kOracleDelay = 0,   // query latency in BillingOracle::{Distance,BatchQuery}
  kPoolTaskDelay = 1, // thread-pool chunk execution delay
  kDrainTrigger = 2,  // mid-run graceful drain at a seed-derived instant
};
inline constexpr int kNumFaultSites = 3;

const char* FaultSiteName(FaultSite site);

/// Per-site arming: fire probability per visit and the maximum injected
/// delay when a visit fires (the actual delay is drawn from the same
/// schedule word that decided the firing).
struct FaultConfig {
  double rate = 0.0;      // [0, 1] fire probability per visit
  double delay_us = 0.0;  // max sleep per firing (microseconds)
};

/// Seeded fault-injection plan, carried by SimOptions. Disabled (the
/// default) the engine never constructs an injector and every site costs
/// one null-pointer branch. kDrainTrigger ignores delay_us: arming it
/// picks a deterministic drain instant from the seed instead (see
/// FaultInjector::StableFraction).
struct FaultSpec {
  bool enabled = false;
  std::uint64_t seed = 1;
  FaultConfig site[kNumFaultSites];

  /// Arms one site (and the spec); chainable.
  FaultSpec& Arm(FaultSite s, double rate, double delay_us = 0.0) {
    enabled = true;
    site[static_cast<int>(s)] = {rate, delay_us};
    return *this;
  }
};

/// Deterministic, replayable fault injector. The n-th visit of a site
/// draws schedule word mix(site_seed + n) — a pure splitmix64 function of
/// (spec.seed, site, n) — so a failure run is replayable from its seed:
/// the decision and delay of every visit index are fixed; only the
/// interleaving of visit indices across threads varies, and that is
/// exactly the wall-clock nondeterminism the engine must already absorb.
///
/// Thread-safe; all hot-path state is relaxed atomics.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultSpec& spec);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  bool enabled() const { return spec_.enabled; }
  /// Whether the site has a nonzero fire rate.
  bool armed(FaultSite s) const {
    return spec_.enabled && spec_.site[static_cast<int>(s)].rate > 0.0;
  }

  /// One visit of `site`: advances the site's schedule and, when the
  /// drawn word fires, sleeps for the scheduled delay. Returns whether it
  /// fired. Unarmed sites return false without advancing anything.
  bool MaybeDelay(FaultSite site);

  /// Deterministic fraction in [0, 1) from (seed, site) — does NOT
  /// advance the schedule. The drain-trigger site derives its simulated
  /// drain instant from this, so the shed set stays a pure function of
  /// the workload and the seed.
  double StableFraction(FaultSite site) const;

  /// Visits / firings per site so far (test observability).
  std::int64_t visits(FaultSite site) const {
    return static_cast<std::int64_t>(
        cursor_[static_cast<int>(site)].load(std::memory_order_relaxed));
  }
  std::int64_t fired(FaultSite site) const {
    return fired_[static_cast<int>(site)].load(std::memory_order_relaxed);
  }

 private:
  const FaultSpec spec_;
  std::uint64_t site_seed_[kNumFaultSites];
  std::atomic<std::uint64_t> cursor_[kNumFaultSites];
  std::atomic<std::int64_t> fired_[kNumFaultSites];
};

/// Null-safe injection: components hold a FaultInjector* that is nullptr
/// for every un-faulted run, so the compiled-in-but-disabled cost of a
/// site is a single branch (same contract as the obs instruments).
inline bool MaybeInject(FaultInjector* f, FaultSite site) {
  return f != nullptr && f->MaybeDelay(site);
}

}  // namespace urpsm

#endif  // URPSM_SRC_UTIL_FAULT_H_
