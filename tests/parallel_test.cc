// Tests for the parallel building blocks of the dispatch engine:
// ThreadPool/ParallelFor and the concurrent BillingOracle path over
// Dijkstra and over hub labels.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/parallel/thread_pool.h"
#include "src/shortest/hub_labels.h"
#include "src/shortest/oracle.h"
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

// ----------------------------------------------------- concurrent oracle

// 8 threads query the same pairs through one BillingOracle over `inner`:
// every value must be bit-identical to a sequential pass over `inner`
// before the threads start, and every top-level call is billed exactly
// once, concurrency or not. With `batched`, odd threads send each pair as
// a 1x1 BatchQuery, the call shape of the windowed engine's concurrent
// gathers.
void ExpectConcurrentQueriesMatchSequential(const RoadNetwork& graph,
                                            DistanceOracle* inner,
                                            bool batched) {
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
  std::vector<double> expect;
  for (const auto& [u, v] : pairs) expect.push_back(inner->Distance(u, v));
  inner->ResetQueryCount();

  BillingOracle billing(inner);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::vector<std::vector<double>> got(kThreads,
                                       std::vector<double>(kPairs, -1.0));
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<VertexId> source(1), target(1);
      std::vector<double> cell;
      for (int i = 0; i < kPairs; ++i) {
        const auto& [u, v] = pairs[static_cast<std::size_t>(i)];
        double& out = got[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
        if (batched && t % 2 == 1) {
          source[0] = u;
          target[0] = v;
          billing.BatchQuery(source, target, &cell);
          out = cell[0];
        } else {
          out = billing.Distance(u, v);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)], expect) << "thread " << t;
  }
  EXPECT_EQ(billing.query_count(), static_cast<std::int64_t>(kThreads) * kPairs);
  // Nothing is answered on the side: the inner oracle saw every call.
  EXPECT_EQ(inner->query_count(), billing.query_count());
}

TEST(BillingOracleConcurrencyTest, ConcurrentDistancesMatchSequential) {
  const RoadNetwork graph = MakeCity({12, 12, 0.3, 4, 12, 0.1, 0.02, 5});
  DijkstraOracle inner(&graph);
  ExpectConcurrentQueriesMatchSequential(graph, &inner, /*batched=*/false);
}

TEST(BillingOracleConcurrencyTest, ConcurrentLabelQueriesMatchSequential) {
  const RoadNetwork graph = MakeCity({12, 12, 0.3, 4, 12, 0.1, 0.02, 5});
  HubLabelOracle labels = HubLabelOracle::Build(graph);
  ExpectConcurrentQueriesMatchSequential(graph, &labels, /*batched=*/true);
}

}  // namespace
}  // namespace urpsm
