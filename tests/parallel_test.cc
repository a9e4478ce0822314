// Tests for the parallel building blocks of the dispatch engine:
// ThreadPool/ParallelFor, ShardedLruCache and the concurrent
// CachedOracle path.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/parallel/thread_pool.h"
#include "src/shortest/oracle.h"
#include "src/util/sharded_lru_cache.h"
#include "src/workload/city.h"

namespace urpsm {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 20000;
  std::vector<std::atomic<int>> counts(kN);
  for (auto& c : counts) c.store(0);
  pool.ParallelFor(0, kN, [&](std::int64_t i) {
    counts[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, RespectsNonZeroBeginAndGrain) {
  ThreadPool pool(3);
  constexpr std::int64_t kBegin = 17, kEnd = 4711;
  std::vector<std::atomic<int>> counts(kEnd);
  for (auto& c : counts) c.store(0);
  pool.ParallelFor(kBegin, kEnd,
                   [&](std::int64_t i) {
                     counts[static_cast<std::size_t>(i)].fetch_add(1);
                   },
                   /*grain=*/64);
  for (std::int64_t i = 0; i < kEnd; ++i) {
    ASSERT_EQ(counts[static_cast<std::size_t>(i)].load(), i >= kBegin ? 1 : 0);
  }
}

TEST(ThreadPoolTest, EmptyAndSingletonRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(3, 2, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // A single iteration runs inline on the caller.
  std::int64_t seen = -1;
  pool.ParallelFor(9, 10, [&](std::int64_t i) { seen = i; });
  EXPECT_EQ(seen, 9);
}

TEST(ThreadPoolTest, SizeOnePoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const auto caller = std::this_thread::get_id();
  bool all_inline = true;
  pool.ParallelFor(0, 100, [&](std::int64_t) {
    if (std::this_thread::get_id() != caller) all_inline = false;
  });
  EXPECT_TRUE(all_inline);
}

TEST(ThreadPoolTest, ReusableAcrossManyLoops) {
  // Stresses the epoch/wakeup logic: many small back-to-back jobs.
  ThreadPool pool(4);
  for (int round = 0; round < 300; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.ParallelFor(0, 64, [&](std::int64_t i) { sum.fetch_add(i); });
    ASSERT_EQ(sum.load(), 64 * 63 / 2) << "round " << round;
  }
}

TEST(ThreadPoolTest, WritesAreVisibleToCallerAfterReturn) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 5000;
  std::vector<std::int64_t> out(kN, -1);  // plain (non-atomic) slots
  pool.ParallelFor(0, kN,
                   [&](std::int64_t i) { out[static_cast<std::size_t>(i)] = i * i; });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(out[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(ThreadPoolTest, ParallelMapReturnsPerIndexValues) {
  ThreadPool pool(4);
  const std::vector<int> squares =
      pool.ParallelMap<int>(100, [](std::int64_t i) {
        return static_cast<int>(i * i);
      });
  ASSERT_EQ(squares.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(squares[static_cast<std::size_t>(i)], i * i);
}

// ---------------------------------------------------------- ShardedLruCache

TEST(ShardedLruCacheTest, PutGetAndCounters) {
  ShardedLruCache<int, int> cache(64, 4);
  EXPECT_EQ(cache.num_shards(), 4u);
  EXPECT_FALSE(cache.Get(1).has_value());
  cache.Put(1, 10);
  cache.Put(2, 20);
  ASSERT_TRUE(cache.Get(1).has_value());
  EXPECT_EQ(*cache.Get(1), 10);
  EXPECT_EQ(*cache.Get(2), 20);
  EXPECT_EQ(cache.hits(), 3);
  EXPECT_EQ(cache.misses(), 1);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get(1).has_value());
}

TEST(ShardedLruCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  ShardedLruCache<int, int> cache(100, 5);
  EXPECT_EQ(cache.num_shards(), 8u);
  ShardedLruCache<int, int> one(100, 1);
  EXPECT_EQ(one.num_shards(), 1u);
  one.Put(3, 33);
  EXPECT_EQ(*one.Get(3), 33);
}

TEST(ShardedLruCacheTest, EvictionKeepsSizeBounded) {
  // Per-shard capacity is ceil(64/4) = 16, so the total never exceeds 64
  // no matter how the keys hash.
  ShardedLruCache<int, int> cache(64, 4);
  for (int k = 0; k < 10000; ++k) cache.Put(k, k);
  EXPECT_LE(cache.size(), 64u);
  EXPECT_GT(cache.size(), 0u);
}

TEST(ShardedLruCacheTest, ZeroCapacityDisablesCaching) {
  ShardedLruCache<int, int> cache(0, 8);
  cache.Put(1, 10);
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardedLruCacheTest, ConcurrentHammerNeverReturnsWrongValue) {
  ShardedLruCache<int, std::int64_t> cache(256, 8);
  constexpr int kThreads = 8, kOps = 20000, kKeys = 512;
  std::atomic<bool> corrupt{false};
  std::atomic<std::int64_t> gets{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t state = 0x9e3779b97f4a7c15ULL * (t + 1);
      for (int op = 0; op < kOps; ++op) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const int key = static_cast<int>(state >> 33) % kKeys;
        if ((state & 1) != 0u) {
          cache.Put(key, static_cast<std::int64_t>(key) * 3);
        } else {
          gets.fetch_add(1);
          if (auto hit = cache.Get(key)) {
            if (*hit != static_cast<std::int64_t>(key) * 3) corrupt.store(true);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(corrupt.load());
  EXPECT_LE(cache.size(), 256u);
  // Every Get is counted as exactly one hit or one miss, even under
  // contention.
  EXPECT_EQ(cache.hits() + cache.misses(), gets.load());
}

// ----------------------------------------------------- concurrent oracle

TEST(CachedOracleConcurrencyTest, ConcurrentDistancesMatchSequential) {
  const RoadNetwork graph = MakeCity({12, 12, 0.3, 4, 12, 0.1, 0.02, 5});
  DijkstraOracle inner(&graph);
  CachedOracle cached(&inner, 1 << 12);

  // Ground truth from an independent sequential oracle.
  DijkstraOracle truth(&graph);
  const int n = graph.num_vertices();
  constexpr int kThreads = 8, kPairs = 400;
  std::vector<std::pair<VertexId, VertexId>> pairs;
  pairs.reserve(kPairs);
  std::uint64_t state = 42;
  for (int i = 0; i < kPairs; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto u = static_cast<VertexId>((state >> 33) % static_cast<std::uint64_t>(n));
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto v = static_cast<VertexId>((state >> 33) % static_cast<std::uint64_t>(n));
    pairs.emplace_back(u, v);
  }

  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::vector<std::vector<double>> got(kThreads,
                                       std::vector<double>(kPairs, -1.0));
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPairs; ++i) {
        got[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] =
            cached.Distance(pairs[static_cast<std::size_t>(i)].first,
                            pairs[static_cast<std::size_t>(i)].second);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < kPairs; ++i) {
    const double expect = truth.Distance(pairs[static_cast<std::size_t>(i)].first,
                                         pairs[static_cast<std::size_t>(i)].second);
    for (int t = 0; t < kThreads; ++t) {
      if (got[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] != expect) {
        mismatch.store(true);
      }
    }
  }
  EXPECT_FALSE(mismatch.load());
  // Every top-level call is counted exactly once, concurrency or not.
  EXPECT_EQ(cached.query_count(), static_cast<std::int64_t>(kThreads) * kPairs);
}

}  // namespace
}  // namespace urpsm
