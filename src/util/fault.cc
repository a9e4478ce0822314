#include "src/util/fault.h"

#include <chrono>
#include <thread>

namespace urpsm {

namespace {

/// splitmix64 output mix (Steele, Lea, Flood 2014).
std::uint64_t Mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;

/// Uniform double in [0, 1) from the top 53 bits of a schedule word.
double ToUnit(std::uint64_t w) {
  return static_cast<double>(w >> 11) * 0x1.0p-53;
}

}  // namespace

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kOracleDelay: return "oracle_delay";
    case FaultSite::kPoolTaskDelay: return "pool_task_delay";
    case FaultSite::kDrainTrigger: return "drain_trigger";
  }
  return "unknown";
}

FaultInjector::FaultInjector(const FaultSpec& spec) : spec_(spec) {
  for (int i = 0; i < kNumFaultSites; ++i) {
    // Per-site stream base: a mixed function of the seed and the site, so
    // arming one site never shifts another site's schedule.
    site_seed_[i] = Mix(spec_.seed + static_cast<std::uint64_t>(i + 1) * kGamma);
    cursor_[i].store(0, std::memory_order_relaxed);
    fired_[i].store(0, std::memory_order_relaxed);
  }
}

bool FaultInjector::MaybeDelay(FaultSite site) {
  const int i = static_cast<int>(site);
  const FaultConfig& c = spec_.site[i];
  if (!spec_.enabled || c.rate <= 0.0) return false;
  const std::uint64_t n = cursor_[i].fetch_add(1, std::memory_order_relaxed);
  const double u = ToUnit(Mix(site_seed_[i] + n * kGamma));
  if (u >= c.rate) return false;
  fired_[i].fetch_add(1, std::memory_order_relaxed);
  // Reuse the firing word for the magnitude: u/rate is uniform in [0, 1)
  // conditioned on firing, so the delay is also replayable per visit.
  const auto us = static_cast<std::int64_t>((u / c.rate) * c.delay_us);
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  return true;
}

double FaultInjector::StableFraction(FaultSite site) const {
  return ToUnit(Mix(site_seed_[static_cast<int>(site)] ^ kGamma));
}

}  // namespace urpsm
