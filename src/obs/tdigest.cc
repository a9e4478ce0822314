#include "src/obs/tdigest.h"

#include <algorithm>
#include <cmath>

namespace urpsm::obs {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Total order on centroids: by mean, then weight. Strictness matters
/// for determinism — equal means must sort the same way every run.
bool CentroidLess(const Centroid& a, const Centroid& b) {
  if (a.mean != b.mean) return a.mean < b.mean;
  return a.weight < b.weight;
}

}  // namespace

TDigest::TDigest(double compression)
    : compression_(std::max(20.0, compression)) {}

double TDigest::ScaleK(double q) const {
  q = std::min(1.0, std::max(0.0, q));
  return compression_ / (2.0 * kPi) * std::asin(2.0 * q - 1.0);
}

double TDigest::ScaleQ(double k) const {
  const double x = 2.0 * kPi * k / compression_;
  if (x >= kPi / 2.0) return 1.0;
  if (x <= -kPi / 2.0) return 0.0;
  return 0.5 * (std::sin(x) + 1.0);
}

void TDigest::Add(double x, double weight) {
  if (weight <= 0.0) return;
  buffer_.push_back(Centroid{x, weight});
  buffered_ += weight;
  // Amortized compression: flush once the buffer holds a few multiples
  // of the final centroid count, so Add stays O(1) amortized and small
  // inputs (below the threshold) keep every point as a singleton —
  // exact percentiles until the first flush.
  if (buffer_.size() >= static_cast<std::size_t>(4.0 * compression_)) {
    Compress();
  }
}

void TDigest::Merge(const TDigest& other) {
  if (&other == this) return;
  // Feed the other sketch's full logical content through our own
  // buffer; both inputs are deterministic, so the result is too. Copy
  // first: `other` may share storage lifetime quirks with `this` only
  // in the self-merge case handled above, but the buffer_ push_backs
  // below can reallocate, so never iterate other's vectors while
  // mutating our own if they aliased.
  for (const Centroid& c : other.centroids_) Add(c.mean, c.weight);
  for (const Centroid& c : other.buffer_) Add(c.mean, c.weight);
}

void TDigest::Compress() {
  if (buffer_.empty()) return;
  std::sort(buffer_.begin(), buffer_.end(), CentroidLess);
  std::vector<Centroid> merged;
  MergeSorted(buffer_, &merged);
  centroids_ = std::move(merged);
  total_ += buffered_;
  buffered_ = 0.0;
  buffer_.clear();
}

void TDigest::Compact() {
  centroids_ = QueryView();
  total_ += buffered_;
  buffered_ = 0.0;
  std::vector<Centroid>().swap(buffer_);
}

void TDigest::MergeSorted(const std::vector<Centroid>& points,
                          std::vector<Centroid>* out) const {
  std::vector<Centroid> all;
  all.reserve(centroids_.size() + points.size());
  std::merge(centroids_.begin(), centroids_.end(), points.begin(),
             points.end(), std::back_inserter(all), CentroidLess);
  out->clear();
  if (all.empty()) return;
  // Sum in list order so W is deterministic.
  double w_total = 0.0;
  for (const Centroid& c : all) w_total += c.weight;

  // One left-to-right pass: grow the current cluster while it fits
  // within one unit of the k1 scale function, else emit it and start
  // the next. The weighted-mean update order is fixed, so the output
  // is a pure function of `all`.
  Centroid cur = all[0];
  double w_so_far = 0.0;
  double q_limit = ScaleQ(ScaleK(0.0) + 1.0);
  for (std::size_t i = 1; i < all.size(); ++i) {
    const Centroid& c = all[i];
    const double q_new = (w_so_far + cur.weight + c.weight) / w_total;
    if (q_new <= q_limit) {
      cur.mean += (c.weight / (cur.weight + c.weight)) * (c.mean - cur.mean);
      cur.weight += c.weight;
    } else {
      out->push_back(cur);
      w_so_far += cur.weight;
      q_limit = ScaleQ(ScaleK(w_so_far / w_total) + 1.0);
      cur = c;
    }
  }
  out->push_back(cur);
}

std::vector<Centroid> TDigest::QueryView() const {
  std::vector<Centroid> pts(buffer_);
  std::sort(pts.begin(), pts.end(), CentroidLess);
  std::vector<Centroid> view;
  view.reserve(centroids_.size() + pts.size());
  std::merge(centroids_.begin(), centroids_.end(), pts.begin(), pts.end(),
             std::back_inserter(view), CentroidLess);
  return view;
}

double TDigest::Quantile(double q) const {
  const double w_total = total_weight();
  if (w_total <= 0.0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));

  // Query view: centroids merged with the *uncompressed* buffer — a
  // scratch copy, never written back, so queries cannot perturb the
  // sketch and small (pre-flush) inputs stay exact singletons.
  const std::vector<Centroid> view = QueryView();
  if (view.size() == 1) return view[0].mean;

  // Piecewise-linear interpolation between centroid rank centers
  // (cumulative weight before the centroid + (weight - 1) / 2). With
  // all-singleton centroids the centers are 0, 1, ..., n-1 and this is
  // exactly lerp(sorted[floor(r)], sorted[ceil(r)]) at r = q * (n-1).
  const double t = q * (w_total - 1.0);
  double cum = 0.0;  // weight before view[i]
  double prev_center = (view[0].weight - 1.0) / 2.0;
  double prev_mean = view[0].mean;
  if (t <= prev_center) return prev_mean;
  for (std::size_t i = 1; i < view.size(); ++i) {
    cum += view[i - 1].weight;
    const double center = cum + (view[i].weight - 1.0) / 2.0;
    if (t <= center) {
      const double span = center - prev_center;
      if (span <= 0.0) return view[i].mean;
      const double u = (t - prev_center) / span;
      return prev_mean * (1.0 - u) + view[i].mean * u;
    }
    prev_center = center;
    prev_mean = view[i].mean;
  }
  return view.back().mean;
}

}  // namespace urpsm::obs
