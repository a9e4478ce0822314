#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "src/obs/tdigest.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace urpsm {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int x = rng.UniformInt(3, 7);
    EXPECT_GE(x, 3);
    EXPECT_LE(x, 7);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, UniformRealInRange) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(-1.0, 1.0);
    EXPECT_GE(x, -1.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(3);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) ++counts[rng.Categorical({0.7, 0.2, 0.1})];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_NEAR(counts[0] / 30000.0, 0.7, 0.03);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(StatsTest, EmptyAccumulator) {
  StatsAccumulator s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.Percentile(50), 0.0);
}

TEST(StatsTest, BasicMoments) {
  StatsAccumulator s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(StatsTest, PercentilesInterpolate) {
  StatsAccumulator s;
  for (int i = 1; i <= 100; ++i) s.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_NEAR(s.Percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(95), 95.05, 1e-9);
}

TEST(StatsTest, PercentileAfterMoreSamples) {
  StatsAccumulator s;
  s.Add(10.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 10.0);
  s.Add(20.0);  // accumulator must re-sort lazily
  EXPECT_DOUBLE_EQ(s.Percentile(100), 20.0);
}

// Rank of a value in a sorted sample set: the midpoint of its
// equal-range window (handles ties and between-sample estimates).
double RankIn(const std::vector<double>& sorted, double v) {
  const double lo = static_cast<double>(
      std::lower_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
  const double hi = static_cast<double>(
      std::upper_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
  if (lo == hi) return lo - 0.5;      // absent: between ranks lo-1 and lo
  return 0.5 * (lo + hi - 1.0);       // present: midpoint of the tie run
}

TEST(StatsTest, DigestCapsMemoryKeepsExactMoments) {
  StatsAccumulator s;
  const int n = 50'000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(i % 1000);
    s.Add(x);
    sum += x;
  }
  // The digest is bounded; count/sum/min/max stay exact regardless.
  obs::TDigest d = s.digest();  // copy: Compress() is mutating
  d.Compress();
  EXPECT_LE(d.centroids().size(), static_cast<std::size_t>(2 * 400 + 16));
  EXPECT_EQ(s.count(), static_cast<std::size_t>(n));
  EXPECT_DOUBLE_EQ(s.sum(), sum);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 999.0);
}

TEST(StatsTest, DigestDeterministicAcrossRuns) {
  // Same Add sequence => same sketch => identical percentiles, even
  // when Percentile() queries interleave differently (queries build a
  // scratch view and must not perturb the digest).
  StatsAccumulator a, b;
  Rng rng(77);
  std::vector<double> stream;
  for (int i = 0; i < 20'000; ++i) stream.push_back(rng.Uniform(0.0, 50.0));
  for (std::size_t i = 0; i < stream.size(); ++i) {
    a.Add(stream[i]);
    if (i % 997 == 0) a.Percentile(50);  // interleaved queries
  }
  for (const double x : stream) b.Add(x);
  obs::TDigest da = a.digest(), db = b.digest();
  da.Compress();
  db.Compress();
  ASSERT_EQ(da.centroids().size(), db.centroids().size());
  for (std::size_t i = 0; i < da.centroids().size(); ++i) {
    EXPECT_EQ(da.centroids()[i].mean, db.centroids()[i].mean);
    EXPECT_EQ(da.centroids()[i].weight, db.centroids()[i].weight);
  }
  EXPECT_DOUBLE_EQ(a.Percentile(50), b.Percentile(50));
  EXPECT_DOUBLE_EQ(a.Percentile(95), b.Percentile(95));
}

TEST(StatsTest, DigestRankErrorBounded) {
  // Rank-accuracy pin vs an exact sort on a skewed (lognormal-ish)
  // stream far above the digest's buffer: the estimate's rank must sit
  // within 1% of the target rank. Everything is seeded and the digest
  // has no randomness, so the observed error is a fixed number — this
  // re-breaks only if the sketch changes.
  StatsAccumulator s;
  std::vector<double> exact;
  Rng rng(123);
  for (int i = 0; i < 60'000; ++i) {
    const double x = std::exp(rng.Uniform(0.0, 4.0));  // heavy right tail
    s.Add(x);
    exact.push_back(x);
  }
  std::sort(exact.begin(), exact.end());
  const double n = static_cast<double>(exact.size());
  for (const double p : {50.0, 95.0, 99.0}) {
    const double approx = s.Percentile(p);
    const double target_rank = p / 100.0 * (n - 1.0);
    const double got_rank = RankIn(exact, approx);
    EXPECT_NEAR(got_rank, target_rank, 0.01 * n)
        << "p" << p << " rank drifted: estimate " << approx;
  }
}

TEST(StatsTest, MergePoolsExactlyUnderBuffer) {
  // Below the digest's first flush every sample is a singleton
  // centroid, so pooled percentiles are exact — not approximations.
  StatsAccumulator a, b;
  for (int i = 0; i < 9; ++i) a.Add(1.0);
  a.Add(1000.0);
  for (int i = 0; i < 10; ++i) b.Add(100.0);
  StatsAccumulator pooled;
  pooled.Merge(a);
  pooled.Merge(b);
  EXPECT_EQ(pooled.count(), 20u);
  EXPECT_DOUBLE_EQ(pooled.min(), 1.0);
  EXPECT_DOUBLE_EQ(pooled.max(), 1000.0);
  // Sorted pool: 1.0 x9, 100.0 x10, 1000.0; rank 9.5 lands inside the
  // 100.0 run.
  EXPECT_DOUBLE_EQ(pooled.Percentile(50), 100.0);
}

TEST(StatsTest, MergeStaysBoundedAndClose) {
  StatsAccumulator a, b, merged;
  std::vector<double> exact;
  Rng rng(5);
  for (int i = 0; i < 30'000; ++i) {
    const double x = rng.Uniform(0.0, 10.0);
    (i % 2 == 0 ? a : b).Add(x);
    exact.push_back(x);
  }
  merged.Merge(a);
  merged.Merge(b);
  std::sort(exact.begin(), exact.end());
  EXPECT_EQ(merged.count(), 30'000u);
  obs::TDigest d = merged.digest();
  d.Compress();
  EXPECT_LE(d.centroids().size(), static_cast<std::size_t>(2 * 400 + 16));
  const double n = static_cast<double>(exact.size());
  for (const double p : {50.0, 95.0, 99.0}) {
    EXPECT_NEAR(RankIn(exact, merged.Percentile(p)), p / 100.0 * (n - 1.0),
                0.01 * n)
        << "p" << p;
  }
}

TEST(TableTest, AlignedRendering) {
  TablePrinter t({"algo", "cost"});
  t.AddRow({"tshare", "12.5"});
  t.AddRow({"pruneGreedyDP", "3.25"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| algo"), std::string::npos);
  EXPECT_NE(s.find("pruneGreedyDP"), std::string::npos);
  EXPECT_NE(s.find("|-"), std::string::npos);
}

TEST(TableTest, CsvRendering) {
  TablePrinter t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(1000.0, 0), "1000");
}

}  // namespace
}  // namespace urpsm
