#ifndef URPSM_SRC_OBS_TDIGEST_H_
#define URPSM_SRC_OBS_TDIGEST_H_

#include <cstddef>
#include <vector>

namespace urpsm::obs {

/// One cluster of the sketch: the weighted mean of `weight` samples.
struct Centroid {
  double mean = 0.0;
  double weight = 0.0;
};

/// Deterministic merging t-digest (Dunning's k1 scale function): a
/// mergeable quantile sketch whose clusters are tight near the tails
/// (relative rank error shrinks toward q = 0 and q = 1) and coarse in
/// the middle, bounded to O(compression) centroids regardless of how
/// many samples are added.
///
/// Determinism contract: no randomness anywhere — incoming points are
/// buffered, sorted with a total order (mean, then weight), and merged
/// left-to-right with a fixed floating-point operation order, so the
/// same Add/Merge sequence always produces the same centroid list and
/// the same quantile answers. Queries are const and never perturb the
/// sketch: interleaving Quantile calls with Adds cannot change any
/// later answer.
///
/// Merge(other) feeds the other sketch's centroids through this
/// sketch's own buffer, so it is deterministic given both inputs'
/// histories. It is NOT bit-exactly associative — no rank-clustered
/// sketch is — but (a ⊕ b) ⊕ c and a ⊕ (b ⊕ c) agree on total weight
/// exactly and on every quantile within the sketch's rank-error bound
/// (tested in tests/obs_test.cc).
///
/// Accuracy: with the default compression (400) the observed rank
/// error at p50/p95/p99 on million-sample inputs is well under 1%
/// (tested against an exact sort in tests/obs_test.cc).
///
/// Interpolation: quantiles interpolate piecewise-linearly between
/// centroid *rank centers* (cumulative weight before the centroid plus
/// (weight - 1) / 2), which reduces exactly to the classic sorted-
/// sample formula `lerp(sorted[floor(r)], sorted[ceil(r)])` with
/// r = q * (n - 1) while every centroid is a singleton — i.e. until
/// the first buffer compression, small inputs get exact percentiles.
class TDigest {
 public:
  static constexpr double kDefaultCompression = 400.0;

  explicit TDigest(double compression = kDefaultCompression);

  /// Adds one sample standing in for `weight` identical originals.
  void Add(double x, double weight = 1.0);

  /// Pools the other sketch's mass into this one (deterministic; see
  /// the class comment for the associativity contract). Self-merge is
  /// a no-op.
  void Merge(const TDigest& other);

  /// The q-th quantile, q in [0, 1], clamped to the observed value
  /// range. Returns 0 when the sketch is empty.
  double Quantile(double q) const;

  /// Total weight of all samples added/merged so far.
  double total_weight() const { return total_ + buffered_; }

  /// Folds any buffered points into the centroid list. Queries do this
  /// logically (on a scratch copy) without mutating; tests call it to
  /// inspect the compressed representation.
  void Compress();

  /// Moves the buffered points into the centroid list as they are, in the
  /// query view's order (no re-clustering), and frees the ingest buffer:
  /// for a sketch that is done taking samples. Every Quantile answer and
  /// the total weight stay bit-identical; only the buffer's memory goes.
  void Compact();

  /// Centroids after the last Compress or Compact (buffered points
  /// excluded); sorted by mean. Bounded by ~2 * compression entries after
  /// a Compress, ~6 * compression after a Compact.
  const std::vector<Centroid>& centroids() const { return centroids_; }

  double compression() const { return compression_; }

 private:
  // k1 scale function and its inverse, mapping quantile <-> cluster
  // index space; cluster capacity is one unit of k.
  double ScaleK(double q) const;
  double ScaleQ(double k) const;

  // Merges `points` (sorted by (mean, weight)) with centroids_ and
  // re-clusters into `out`. Used by Compress.
  void MergeSorted(const std::vector<Centroid>& points,
                   std::vector<Centroid>* out) const;

  // centroids_ merged with the sorted buffer, not re-clustered: the
  // sketch's content as Quantile reads it. Shared by Quantile and Compact.
  std::vector<Centroid> QueryView() const;

  double compression_;
  double total_ = 0.0;                // weight held in centroids_
  double buffered_ = 0.0;             // weight held in buffer_
  std::vector<Centroid> centroids_;   // sorted by mean
  std::vector<Centroid> buffer_;      // unsorted incoming points
};

}  // namespace urpsm::obs

#endif  // URPSM_SRC_OBS_TDIGEST_H_
