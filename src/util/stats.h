#ifndef URPSM_SRC_UTIL_STATS_H_
#define URPSM_SRC_UTIL_STATS_H_

#include <cstddef>

#include "src/obs/tdigest.h"

namespace urpsm {

/// Online accumulator for scalar samples: count/sum/mean/min/max are
/// exact; percentiles come from a mergeable t-digest sketch
/// (src/obs/tdigest.h). Used by the simulator to report response-time
/// distributions the way the paper's Figures 3–7 do, and pooled across
/// runs by AverageReports.
///
/// Memory bound: O(compression) centroids plus a constant-size buffer
/// (~a few hundred KiB at the default compression of 400), regardless
/// of how many samples are added — million-request runs and multi-run
/// pooling on top of them stay bounded.
///
/// Accuracy contract: below the digest's first buffer flush (a few
/// thousand samples) percentiles are exact (every sample is a
/// singleton centroid and interpolation reduces to the classic
/// sorted-sample formula); beyond it the rank error at p50/p95/p99 is
/// tested under 1% on million-sample pooled input (tests/obs_test.cc).
///
/// Determinism: the digest has no randomness — the same Add/Merge
/// sequence always yields the same sketch and the same percentiles,
/// and Percentile queries never perturb later answers. Merge is
/// deterministic; it is not bit-exactly associative (no rank-clustered
/// sketch is), but any association agrees exactly on
/// count/sum/min/max and on every percentile within the rank-error
/// bound.
class StatsAccumulator {
 public:
  explicit StatsAccumulator(
      double compression = obs::TDigest::kDefaultCompression);

  void Add(double x);
  /// Pools `other` into this accumulator (pooling, not averaging):
  /// count/sum/min/max combine exactly, and the digests merge so
  /// percentiles of the result are percentiles of the pooled stream
  /// within the sketch's rank-error bound. An average of per-run
  /// percentiles is not a percentile of anything — this is how
  /// multi-run reports aggregate latency distributions.
  void Merge(const StatsAccumulator& other);

  /// Samples ever Added/Merged (exact).
  std::size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const;
  /// Exact min/max over ALL seen samples (tracked online, not
  /// sketched).
  double min() const;
  double max() const;
  /// p-th percentile of all seen samples, p in [0, 100], clamped to
  /// the exact [min, max] range. Exact for small inputs, digest-
  /// approximated (rank error < 1% at p50/p95/p99) beyond. Returns 0
  /// when empty.
  double Percentile(double p) const;

  /// Frees the digest's ingest buffer once no more samples will come
  /// (TDigest::Compact): every statistic above, percentiles included,
  /// stays bit-identical.
  void Compact() { digest_.Compact(); }

  /// The underlying sketch (tests and stage-timing aggregation).
  const obs::TDigest& digest() const { return digest_; }

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  obs::TDigest digest_;
};

}  // namespace urpsm

#endif  // URPSM_SRC_UTIL_STATS_H_
