// Tests for the observability layer (src/obs): t-digest determinism,
// merge associativity and rank-error bounds against an exact sort on a
// million-sample pooled input; metrics-registry semantics (disabled
// inertness, thread-safe sharded counters under concurrent snapshots,
// histogram expansion, callback-gauge freeze); Chrome trace-event schema
// validation over a real windowed smoke run (well-formed JSON, balanced
// B/E spans per tid, non-decreasing timestamps per tid, one window span
// per epoch, epochs on plan and commit spans); and the NaN pins for
// zero-request and timed-out runs. The registry/trace suites run under
// the tsan preset (suite names match its Obs filter).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/registry.h"
#include "src/obs/tdigest.h"
#include "src/obs/trace.h"
#include "src/shortest/hub_labels.h"
#include "src/sim/dispatch_window.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/workload/city.h"
#include "src/workload/requests.h"
#include "tests/test_util.h"

namespace urpsm {
namespace {

// ----------------------------------------------------------- t-digest

// A skewed mixture (uniform bulk + exponential tail) so the digest's
// tail accuracy is actually exercised; deterministic from the seed.
std::vector<double> MixtureSamples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.8)) {
      xs.push_back(rng.Uniform(0.0, 100.0));
    } else {
      xs.push_back(100.0 + rng.Exponential(0.02));
    }
  }
  return xs;
}

// Rank (midpoint of the equal range, in [0, 1]) of `v` in sorted data.
double RankOf(const std::vector<double>& sorted, double v) {
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), v);
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), v);
  const double r = 0.5 * (static_cast<double>(lo - sorted.begin()) +
                          static_cast<double>(hi - sorted.begin()));
  return r / static_cast<double>(sorted.size());
}

TEST(ObsTDigestTest, SmallInputsGetExactSortedSamplePercentiles) {
  // Until the first buffer compression every centroid is a singleton and
  // Quantile reduces bit-for-bit to the classic sorted-sample formula
  // lerp(sorted[floor(r)], sorted[ceil(r)]) with r = q * (n - 1).
  StatsAccumulator acc;
  const std::vector<double> xs = {7.0, 1.0, 9.0, 3.0, 10.0,
                                  2.0, 8.0, 4.0, 6.0, 5.0};
  for (double x : xs) acc.Add(x);
  // n = 10, sorted = 1..10.
  EXPECT_DOUBLE_EQ(acc.Percentile(50), 5.5);    // r = 4.5
  EXPECT_DOUBLE_EQ(acc.Percentile(95), 9.55);   // r = 8.55
  EXPECT_DOUBLE_EQ(acc.Percentile(99), 9.91);   // r = 8.91
  EXPECT_DOUBLE_EQ(acc.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(acc.Percentile(100), 10.0);
  EXPECT_EQ(acc.count(), 10u);
  EXPECT_DOUBLE_EQ(acc.sum(), 55.0);
}

TEST(ObsTDigestTest, IdenticalHistoriesProduceIdenticalSketches) {
  // Same Add sequence -> bit-identical centroids and quantiles. Queries
  // on one sketch along the way must not perturb it (const scratch-view
  // quantiles), so interleaving them cannot break the equality.
  StatsAccumulator a;
  StatsAccumulator b;
  const std::vector<double> xs = MixtureSamples(50'000, 11);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    a.Add(xs[i]);
    b.Add(xs[i]);
    if (i % 977 == 0) (void)a.Percentile(95);  // must not perturb a
  }
  for (double p : {1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
    EXPECT_EQ(a.Percentile(p), b.Percentile(p)) << "p" << p;
  }
  obs::TDigest da = a.digest();
  obs::TDigest db = b.digest();
  da.Compress();
  db.Compress();
  ASSERT_EQ(da.centroids().size(), db.centroids().size());
  for (std::size_t i = 0; i < da.centroids().size(); ++i) {
    EXPECT_EQ(da.centroids()[i].mean, db.centroids()[i].mean) << i;
    EXPECT_EQ(da.centroids()[i].weight, db.centroids()[i].weight) << i;
  }
  // Bounded representation regardless of sample count.
  EXPECT_LE(da.centroids().size(),
            static_cast<std::size_t>(2 * da.compression()));
}

TEST(ObsTDigestTest, CompactKeepsEveryAnswerBitIdentical) {
  // A finished run's report compacts its latency digest: the buffered
  // points move into the centroid list as they are and the ingest buffer
  // is freed. Every percentile must stay bit-identical and count, sum,
  // min, max and the total weight exact — at sizes below, at and past
  // the buffer flush (4 * compression = 1,600 points).
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{10},
                              std::size_t{1599}, std::size_t{1600},
                              std::size_t{1601}, std::size_t{6000},
                              std::size_t{20'800}}) {
    SCOPED_TRACE(n);
    StatsAccumulator live;
    for (double x : MixtureSamples(n, 31)) live.Add(x);
    StatsAccumulator compact = live;
    compact.Compact();
    EXPECT_EQ(compact.count(), live.count());
    EXPECT_EQ(compact.sum(), live.sum());
    EXPECT_EQ(compact.min(), live.min());
    EXPECT_EQ(compact.max(), live.max());
    EXPECT_EQ(compact.digest().total_weight(), live.digest().total_weight());
    for (int k = 0; k <= 1000; ++k) {
      const double q = k / 1000.0;
      EXPECT_EQ(compact.digest().Quantile(q), live.digest().Quantile(q))
          << "q " << q;
    }
    for (double p : {1.0, 50.0, 95.0, 99.0, 99.9}) {
      EXPECT_EQ(compact.Percentile(p), live.Percentile(p)) << "p" << p;
    }
    // A compacted sketch still takes samples and pools.
    compact.Add(1.0);
    StatsAccumulator pooled;
    pooled.Merge(compact);
    EXPECT_EQ(pooled.count(), n + 1);
  }
}

TEST(ObsTDigestTest, MergeIsDeterministic) {
  StatsAccumulator a;
  StatsAccumulator b;
  for (double x : MixtureSamples(30'000, 21)) a.Add(x);
  for (double x : MixtureSamples(30'000, 22)) b.Add(x);
  StatsAccumulator m1 = a;
  m1.Merge(b);
  StatsAccumulator m2 = a;
  m2.Merge(b);
  EXPECT_EQ(m1.count(), m2.count());
  EXPECT_EQ(m1.sum(), m2.sum());
  for (double p : {5.0, 50.0, 95.0, 99.0}) {
    EXPECT_EQ(m1.Percentile(p), m2.Percentile(p)) << "p" << p;
  }
}

TEST(ObsTDigestTest, MergeAssociativeOnExactStatsAndWithinRankError) {
  // (a + b) + c vs a + (b + c): count/min/max exactly equal, sum equal
  // up to float addition reordering, and every quantile of both
  // groupings within the sketch's rank-error bound of the exact pooled
  // distribution.
  StatsAccumulator a;
  StatsAccumulator b;
  StatsAccumulator c;
  std::vector<double> pooled;
  for (double x : MixtureSamples(30'000, 31)) { a.Add(x); pooled.push_back(x); }
  for (double x : MixtureSamples(30'000, 32)) { b.Add(x); pooled.push_back(x); }
  for (double x : MixtureSamples(30'000, 33)) { c.Add(x); pooled.push_back(x); }
  std::sort(pooled.begin(), pooled.end());

  StatsAccumulator ab_c = a;
  ab_c.Merge(b);
  ab_c.Merge(c);
  StatsAccumulator bc = b;
  bc.Merge(c);
  StatsAccumulator a_bc = a;
  a_bc.Merge(bc);

  EXPECT_EQ(ab_c.count(), pooled.size());
  EXPECT_EQ(a_bc.count(), pooled.size());
  EXPECT_EQ(ab_c.min(), a_bc.min());
  EXPECT_EQ(ab_c.max(), a_bc.max());
  EXPECT_NEAR(ab_c.sum(), a_bc.sum(), 1e-9 * std::abs(ab_c.sum()));
  for (double q : {0.05, 0.5, 0.95, 0.99}) {
    const double e1 = ab_c.Percentile(q * 100.0);
    const double e2 = a_bc.Percentile(q * 100.0);
    EXPECT_NEAR(RankOf(pooled, e1), q, 0.01) << "q=" << q;
    EXPECT_NEAR(RankOf(pooled, e2), q, 0.01) << "q=" << q;
    // The two groupings agree with each other within the same bound.
    EXPECT_NEAR(RankOf(pooled, e1), RankOf(pooled, e2), 0.01) << "q=" << q;
  }
}

TEST(ObsTDigestTest, RankErrorUnderOnePercentOnMillionPooledSamples) {
  // The acceptance bar: four shards of 250k samples each, merged into
  // one digest, must place p50/p95/p99 within 1% rank error of an exact
  // sort of the full million-sample pooled input.
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kPerShard = 250'000;
  std::vector<double> pooled;
  pooled.reserve(kShards * kPerShard);
  StatsAccumulator merged;
  for (std::size_t s = 0; s < kShards; ++s) {
    StatsAccumulator shard;
    for (double x : MixtureSamples(kPerShard, 100 + s)) {
      shard.Add(x);
      pooled.push_back(x);
    }
    merged.Merge(shard);
  }
  ASSERT_EQ(merged.count(), pooled.size());
  std::sort(pooled.begin(), pooled.end());
  EXPECT_EQ(merged.min(), pooled.front());
  EXPECT_EQ(merged.max(), pooled.back());
  for (double q : {0.5, 0.95, 0.99}) {
    const double est = merged.Percentile(q * 100.0);
    const double err = std::abs(RankOf(pooled, est) - q);
    EXPECT_LE(err, 0.01) << "q=" << q << " est=" << est;
  }
}

TEST(ObsTDigestTest, EmptyAccumulatorIsFiniteZero) {
  // The zero-sample NaN pin: every summary of an empty accumulator is a
  // finite 0, never 0/0.
  const StatsAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  for (double v : {acc.mean(), acc.min(), acc.max(), acc.sum(),
                   acc.Percentile(50), acc.Percentile(99)}) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_EQ(v, 0.0);
  }
}

// ----------------------------------------------------------- registry

TEST(ObsRegistryTest, DisabledRegistryIsInertAndSnapshotsEmpty) {
  obs::Registry reg(/*enabled=*/false);
  EXPECT_FALSE(reg.enabled());
  obs::Counter* c = reg.GetCounter("c");
  obs::Gauge* g = reg.GetGauge("g");
  obs::Histogram* h = reg.GetHistogram("h");
  c->Add(7);
  obs::Inc(c);
  obs::Inc(nullptr);  // null-safe
  g->Set(3.0);
  h->Observe(1.0);
  { obs::ScopedTimerMs t(h); }
  reg.RegisterCallbackGauge("cb", [] { return 1.0; });
  EXPECT_TRUE(reg.Snapshot().empty());
}

TEST(ObsRegistryTest, CountersSumAcrossThreadsUnderConcurrentSnapshots) {
  obs::Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 20'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      // Each thread fetches its own pointers (concurrent find-or-create)
      // and hammers a shared counter, its own counter, a gauge and a
      // histogram while snapshots run.
      obs::Counter* shared = reg.GetCounter("shared");
      obs::Counter* own = reg.GetCounter("own." + std::to_string(t));
      obs::Histogram* h = reg.GetHistogram("lat");
      obs::Gauge* g = reg.GetGauge("depth");
      for (int i = 0; i < kIters; ++i) {
        shared->Add(1);
        if (i % 100 == 0) {
          own->Add(1);
          h->Observe(static_cast<double>(i % 7));
          g->Set(static_cast<double>(i));
        }
      }
    });
  }
  std::thread snapshotter([&reg] {
    for (int i = 0; i < 50; ++i) (void)reg.Snapshot();
  });
  for (auto& w : workers) w.join();
  snapshotter.join();
  const std::map<std::string, double> snap = reg.Snapshot();
  EXPECT_EQ(snap.at("shared"), static_cast<double>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.at("own." + std::to_string(t)), kIters / 100);
  }
  EXPECT_EQ(snap.at("lat.count"), static_cast<double>(kThreads) * (kIters / 100));
}

TEST(ObsRegistryTest, ManyCountersSpillPastTheCellBlock) {
  // Counter ids beyond the per-thread cell-block capacity (256) take the
  // mutex-guarded overflow path; sums must still be exact, from several
  // threads at once.
  obs::Registry reg;
  constexpr int kCounters = 300;
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      for (int i = 0; i < kCounters; ++i) {
        reg.GetCounter("c." + std::to_string(i))->Add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  const std::map<std::string, double> snap = reg.Snapshot();
  for (int i = 0; i < kCounters; ++i) {
    EXPECT_EQ(snap.at("c." + std::to_string(i)), kThreads) << i;
  }
}

TEST(ObsRegistryTest, HistogramsExpandAndEmptyOnesAreOmitted) {
  obs::Registry reg;
  obs::Histogram* h = reg.GetHistogram("h");
  reg.GetHistogram("never_observed");
  for (int i = 1; i <= 100; ++i) h->Observe(static_cast<double>(i));
  const std::map<std::string, double> snap = reg.Snapshot();
  EXPECT_EQ(snap.at("h.count"), 100.0);
  EXPECT_EQ(snap.at("h.sum"), 5050.0);
  EXPECT_EQ(snap.at("h.min"), 1.0);
  EXPECT_EQ(snap.at("h.max"), 100.0);
  EXPECT_NEAR(snap.at("h.p50"), 50.5, 1e-9);   // exact: singletons
  EXPECT_NEAR(snap.at("h.p95"), 95.05, 1e-9);
  EXPECT_NEAR(snap.at("h.p99"), 99.01, 1e-9);
  EXPECT_EQ(snap.count("never_observed.count"), 0u);
  // GetHistogram with the same name returns the same instrument.
  EXPECT_EQ(reg.GetHistogram("h"), h);
  EXPECT_EQ(reg.GetCounter("x"), reg.GetCounter("x"));
}

TEST(ObsRegistryTest, CallbackGaugesEvaluateLiveAndFreezeLastValue) {
  obs::Registry reg;
  double depth = 7.0;
  const std::size_t id =
      reg.RegisterCallbackGauge("queue.depth", [&depth] { return depth; });
  EXPECT_EQ(reg.Snapshot().at("queue.depth"), 7.0);
  depth = 9.0;
  EXPECT_EQ(reg.Snapshot().at("queue.depth"), 9.0);
  reg.FreezeCallbackGauge(id);  // evaluates one last time (9), drops fn
  depth = 11.0;
  EXPECT_EQ(reg.Snapshot().at("queue.depth"), 9.0);
}

// -------------------------------------------------------------- trace

struct TraceEvent {
  std::string name;
  char ph = '?';
  double ts = 0.0;
  int tid = -1;
  std::map<std::string, long long> args;
};

// Parses one `{"name":...}` line of the flushed trace (the writer emits
// exactly one event per line). Returns false on any malformed field.
bool ParseEvent(const std::string& raw, TraceEvent* e) {
  std::string line = raw;
  if (!line.empty() && line.back() == ',') line.pop_back();
  if (line.empty() || line.front() != '{' || line.back() != '}') return false;
  const auto field = [&line](const std::string& key) -> std::string {
    const std::string tag = "\"" + key + "\":";
    const std::size_t pos = line.find(tag);
    if (pos == std::string::npos) return "";
    std::size_t start = pos + tag.size();
    if (line[start] == '"') {
      const std::size_t end = line.find('"', start + 1);
      return line.substr(start + 1, end - start - 1);
    }
    std::size_t end = start;
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    return line.substr(start, end - start);
  };
  e->name = field("name");
  const std::string ph = field("ph");
  const std::string ts = field("ts");
  const std::string tid = field("tid");
  if (e->name.empty() || ph.size() != 1 || ts.empty() || tid.empty()) {
    return false;
  }
  e->ph = ph[0];
  e->ts = std::stod(ts);
  e->tid = std::stoi(tid);
  const std::size_t apos = line.find("\"args\":{");
  if (apos != std::string::npos) {
    std::size_t p = apos + 8;
    while (p < line.size() && line[p] != '}') {
      if (line[p] == ',') ++p;
      if (line[p] != '"') return false;
      const std::size_t kend = line.find('"', p + 1);
      const std::string key = line.substr(p + 1, kend - p - 1);
      p = kend + 2;  // skip closing quote and ':'
      std::size_t vend = p;
      while (vend < line.size() && line[vend] != ',' && line[vend] != '}') {
        ++vend;
      }
      e->args[key] = std::stoll(line.substr(p, vend - p));
      p = vend;
    }
  }
  return e->ph == 'B' || e->ph == 'E' || e->ph == 'i';
}

TEST(ObsTraceTest, DisabledRecorderRecordsNothing) {
  obs::TraceRecorder t{std::string()};
  EXPECT_FALSE(t.enabled());
  t.Begin("x", {{"k", 1}});
  t.End("x");
  t.Instant("i");
  { obs::TraceSpan s(&t, "span"); }
  { obs::TraceSpan s(nullptr, "span"); }  // null recorder is fine too
  EXPECT_EQ(t.event_count(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  t.Flush();  // no path, no file, no crash
}

TEST(ObsTraceTest, WindowedSmokeRunEmitsValidChromeTrace) {
  // Runs the lock-step windowed engine (4 threads) with tracing and
  // metrics on, then validates the flushed Chrome trace: well-formed JSON
  // envelope, every event parseable, B/E spans balanced per tid with
  // matching names, timestamps non-decreasing per tid, one window span
  // per epoch, and epochs on the window.plan and commit.apply spans. The
  // file is also the CI trace artifact
  // (obs_trace_smoke.json in the test working dir).
  const RoadNetwork graph = MakeChengduLike(0.05, 2);
  HubLabelOracle labels = HubLabelOracle::Build(graph);
  Rng rng(41);
  RequestParams rp;
  rp.count = 150;
  rp.duration_min = 100.0;
  rp.penalty_factor = 10.0;
  rp.seed = 43;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &labels, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 9, 4.0, &rng);

  const char* trace_path = "obs_trace_smoke.json";
  std::remove(trace_path);
  SimOptions options;
  options.num_threads = 4;
  options.batch_window_s = 4.0;
  options.collect_metrics = true;
  options.trace_path = trace_path;
  Simulation sim(&graph, &labels, workers, &requests, options);
  const SimReport rep = sim.Run(MakeDispatchWindowFactory({}));
  EXPECT_TRUE(rep.trace_enabled);
  EXPECT_FALSE(rep.timed_out);

  // --- the registry snapshot attached to the report ---
  ASSERT_FALSE(rep.metrics.empty());
  for (const auto& [key, value] : rep.metrics) {
    EXPECT_TRUE(std::isfinite(value)) << key;
  }
  EXPECT_GE(rep.metrics.at("engine.windows"), 1.0);
  EXPECT_EQ(rep.metrics.at("admission.admitted"),
            static_cast<double>(requests.size()));
  EXPECT_EQ(rep.metrics.at("oracle.queries"),
            static_cast<double>(rep.distance_queries));
  EXPECT_EQ(rep.metrics.at("pool.threads"), 4.0);

  // --- the flushed trace file ---
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_GE(lines.size(), 4u);
  EXPECT_EQ(lines.front(), "{\"displayTimeUnit\":\"ms\",");
  EXPECT_EQ(lines[1], "\"traceEvents\":[");
  EXPECT_EQ(lines.back(), "]}");

  std::map<int, std::vector<std::string>> open;  // per-tid span stack
  std::map<int, double> last_ts;
  std::map<std::string, int> begins;
  std::vector<std::int64_t> window_epochs;  // window spans, in B order
  for (std::size_t i = 2; i + 1 < lines.size(); ++i) {
    TraceEvent e;
    ASSERT_TRUE(ParseEvent(lines[i], &e)) << lines[i];
    // Timestamps are non-decreasing per tid (taken in program order).
    auto [it, fresh] = last_ts.emplace(e.tid, e.ts);
    if (!fresh) {
      EXPECT_GE(e.ts, it->second) << lines[i];
      it->second = e.ts;
    }
    if (e.ph == 'B') {
      open[e.tid].push_back(e.name);
      ++begins[e.name];
    } else if (e.ph == 'E') {
      auto& stack = open[e.tid];
      ASSERT_FALSE(stack.empty()) << "unmatched E: " << lines[i];
      EXPECT_EQ(stack.back(), e.name) << "mismatched span nesting";
      stack.pop_back();
    }
    if ((e.name == "window" || e.name == "window.plan") && e.ph == 'B') {
      ASSERT_EQ(e.args.count("epoch"), 1u) << lines[i];
      EXPECT_GE(e.args.at("epoch"), 1) << lines[i];
      if (e.name == "window") window_epochs.push_back(e.args.at("epoch"));
    }
    if (e.name == "commit.apply" && e.ph == 'B') {
      ASSERT_EQ(e.args.count("epoch"), 1u) << lines[i];
    }
  }
  for (const auto& [tid, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "unbalanced spans on tid " << tid;
  }
  // One window span per epoch, epochs 1, 2, ... in order; multi-request
  // windows also open a window.plan span inside theirs.
  ASSERT_GT(window_epochs.size(), 1u);
  for (std::size_t k = 0; k < window_epochs.size(); ++k) {
    EXPECT_EQ(window_epochs[k], static_cast<std::int64_t>(k + 1));
  }
  EXPECT_GT(begins["window.plan"], 0);
  EXPECT_LE(begins["window.plan"], begins["window"]);
  EXPECT_GT(begins["commit.apply"], 0);
}

// --------------------------------------------- multi-run aggregation

TEST(ObsAverageReportsTest, PoolsStageDigestsAndAveragesMetricMaps) {
  // AverageReports pools the per-request latency digests (true pooled
  // percentiles, not a mean of per-run ones), averages metric maps
  // element-wise over the runs that reported each key, and ORs
  // trace_enabled.
  SimReport a;
  SimReport b;
  for (int i = 1; i <= 50; ++i) {
    a.response_stats.Add(static_cast<double>(i));       // 1..50
    b.response_stats.Add(static_cast<double>(50 + i));  // 51..100
  }
  a.metrics["engine.windows"] = 10.0;
  b.metrics["engine.windows"] = 20.0;
  a.metrics["only_in_a"] = 8.0;
  b.trace_enabled = true;

  const SimReport avg = AverageReports({a, b});
  EXPECT_TRUE(avg.trace_enabled);
  // Pooled, not averaged: the p50 of 1..100, not a mean of per-run p50s.
  EXPECT_EQ(avg.response_stats.count(), 100u);
  EXPECT_NEAR(avg.response_stats.Percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(avg.p50_response_ms, 50.5, 1e-9);
  EXPECT_EQ(avg.max_response_ms, 100.0);
  EXPECT_EQ(avg.metrics.at("engine.windows"), 15.0);
  EXPECT_EQ(avg.metrics.at("only_in_a"), 8.0);  // over reporting runs only
}

// ----------------------------------------------------- report NaN pins

void ExpectFiniteReport(const SimReport& rep) {
  const double fields[] = {
      rep.served_rate,         rep.unified_cost,      rep.total_distance,
      rep.penalty_sum,         rep.avg_response_ms,   rep.p50_response_ms,
      rep.p95_response_ms,     rep.p99_response_ms,   rep.max_response_ms,
      rep.wall_seconds,        rep.mean_pickup_wait_min,
      rep.mean_detour_ratio,   rep.makespan_min};
  for (double f : fields) EXPECT_TRUE(std::isfinite(f)) << f;
  for (const auto& [key, value] : rep.metrics) {
    EXPECT_TRUE(std::isfinite(value)) << key;
  }
}

TEST(ObsSimReportTest, ZeroRequestRunHasFiniteRatios) {
  // total_requests == 0 historically produced 0/0 in served_rate and the
  // response-time summaries; every ratio must come out a finite 0.
  const RoadNetwork graph = MakeChengduLike(0.05, 2);
  HubLabelOracle labels = HubLabelOracle::Build(graph);
  Rng rng(7);
  const std::vector<Worker> workers = GenerateWorkers(graph, 4, 4.0, &rng);
  const std::vector<Request> requests;  // empty day
  SimOptions options;
  options.collect_metrics = true;
  Simulation sim(&graph, &labels, workers, &requests, options);
  const SimReport rep = sim.Run(MakePruneGreedyDpFactory({}));
  EXPECT_EQ(rep.total_requests, 0);
  EXPECT_EQ(rep.served_rate, 0.0);
  EXPECT_EQ(rep.avg_response_ms, 0.0);
  EXPECT_EQ(rep.p99_response_ms, 0.0);
  ExpectFiniteReport(rep);
  // The oracle's query gauge is registered and reads 0 on the empty day.
  ASSERT_EQ(rep.metrics.count("oracle.queries"), 1u);
  EXPECT_EQ(rep.metrics.at("oracle.queries"), 0.0);
  EXPECT_EQ(rep.distance_queries, 0);
}

TEST(ObsSimReportTest, TimedOutWindowedRunHasFiniteRatios) {
  // A zero wall budget stops the lock-step loop after its first window:
  // the report covers a processed prefix plus DNFs, and every ratio and
  // latency summary must still be finite.
  const RoadNetwork graph = MakeChengduLike(0.05, 5);
  HubLabelOracle labels = HubLabelOracle::Build(graph);
  Rng rng(73);
  RequestParams rp;
  rp.count = 120;
  rp.duration_min = 90.0;
  rp.penalty_factor = 10.0;
  rp.seed = 79;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &labels, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 8, 4.0, &rng);
  SimOptions options;
  options.num_threads = 2;
  options.batch_window_s = 6.0;
  options.wall_limit_seconds = 0.0;
  options.collect_metrics = true;
  Simulation sim(&graph, &labels, workers, &requests, options);
  const SimReport rep = sim.Run(MakeDispatchWindowFactory({}));
  EXPECT_TRUE(rep.timed_out);
  EXPECT_GT(rep.processed_requests, 0);
  EXPECT_LT(rep.processed_requests, rep.total_requests);
  EXPECT_EQ(rep.dnf_requests, rep.total_requests - rep.processed_requests);
  ExpectFiniteReport(rep);
}

}  // namespace
}  // namespace urpsm
