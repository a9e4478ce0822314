// Flat-memory hot-path trajectory bench: hub-label (CSR) distance queries
// and per-request insertion latency, recorded machine-readably per PR.
//
// Unlike the google-benchmark microbenches (bench_oracle/bench_insertion,
// which need libbenchmark and report to stdout only), this binary always
// builds, times the two hot paths with the shared harness, and *writes*
// `BENCH_oracle.json` and `BENCH_insertion.json` (one JSON object per
// line, same schema as the BENCH_JSON stdout lines, including per-op
// p50/p95 latency) via the shared trajectory writer: full runs refresh
// the tracked repo-root files, while the CTest smoke entry is redirected
// to the build tree (BENCH_smoke_*.json) so smoke-sized records can never
// corrupt the full-run trajectories CI uploads as artifacts.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/core/decision.h"
#include "src/graph/builders.h"
#include "src/insertion/insertion.h"
#include "src/model/feasibility.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/shortest/contraction.h"
#include "src/shortest/hub_labels.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/workload/city.h"

namespace urpsm::bench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

bool g_smoke = false;  // set once in main, before any Record call

void Record(std::vector<std::string>* out, const std::string& name,
            std::vector<std::pair<std::string, std::string>> params,
            double wall_ms, double throughput, double p50_ms, double p95_ms,
            double p99_ms) {
  // Mark smoke-sized runs so a trajectory refreshed by the CTest smoke
  // entry is never mistaken for a full measurement.
  if (g_smoke) params.emplace_back("smoke", "1");
  out->push_back(FormatJsonLine(name, params, wall_ms, throughput, p50_ms,
                                p95_ms, p99_ms));
  EmitJsonLine(name, params, wall_ms, throughput, p50_ms, p95_ms, p99_ms);
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// ------------------------------------------------------------------ oracle

void BenchOracle(bool smoke, std::vector<std::string>* lines) {
  const double s = EnvScale();
  const RoadNetwork graph = MakeNycLike(0.12 * s, 1);
  const auto n = graph.num_vertices();

  const auto build_t0 = Clock::now();
  HubLabelOracle labels = HubLabelOracle::Build(graph);
  const double build_ms = MsSince(build_t0);

  Record(lines, "hub_label_build",
         {{"graph", "nyc_like"},
          {"vertices", std::to_string(n)},
          {"threads", "1"},
          {"avg_label", Fmt(labels.average_label_size())}},
         build_ms, n / (build_ms / 1e3), -1.0, -1.0, -1.0);

  // Random point-to-point queries; latency sampled per batch so the clock
  // overhead does not drown sub-microsecond queries.
  const std::int64_t kQueries = smoke ? 100'000 : 2'000'000;
  constexpr std::int64_t kBatch = 64;
  Rng rng(7);
  std::vector<std::pair<VertexId, VertexId>> pairs(
      static_cast<std::size_t>(kBatch));
  StatsAccumulator per_query_us;
  double sink = 0.0;
  const auto q_t0 = Clock::now();
  for (std::int64_t done = 0; done < kQueries; done += kBatch) {
    for (auto& [u, v] : pairs) {
      u = rng.UniformInt(0, n - 1);
      v = rng.UniformInt(0, n - 1);
    }
    const auto b_t0 = Clock::now();
    for (const auto& [u, v] : pairs) sink += labels.Distance(u, v);
    per_query_us.Add(
        std::chrono::duration<double, std::micro>(Clock::now() - b_t0)
            .count() /
        static_cast<double>(kBatch));
  }
  const double q_ms = MsSince(q_t0);
  if (sink < 0.0) std::printf("unreachable\n");  // keep the loop observable
  Record(lines, "hub_label_query",
         {{"graph", "nyc_like"},
          {"vertices", std::to_string(n)},
          {"layout", "csr"},
          {"queries", std::to_string(kQueries)}},
         q_ms, kQueries / (q_ms / 1e3), per_query_us.Percentile(50) * 1e-3,
         per_query_us.Percentile(95) * 1e-3,
         per_query_us.Percentile(99) * 1e-3);
}

// Times random point queries against `labels`, returning wall ms and
// filling per-query microsecond percentiles (batch-sampled like the main
// query bench so the clock never dominates).
double TimeQueries(HubLabelOracle* labels, VertexId n, std::int64_t queries,
                   StatsAccumulator* per_query_us) {
  constexpr std::int64_t kBatch = 64;
  Rng rng(7);
  std::vector<std::pair<VertexId, VertexId>> pairs(
      static_cast<std::size_t>(kBatch));
  double sink = 0.0;
  const auto t0 = Clock::now();
  for (std::int64_t done = 0; done < queries; done += kBatch) {
    for (auto& [u, v] : pairs) {
      u = rng.UniformInt(0, n - 1);
      v = rng.UniformInt(0, n - 1);
    }
    const auto b_t0 = Clock::now();
    for (const auto& [u, v] : pairs) sink += labels->Distance(u, v);
    per_query_us->Add(
        std::chrono::duration<double, std::micro>(Clock::now() - b_t0)
            .count() /
        static_cast<double>(kBatch));
  }
  const double ms = MsSince(t0);
  if (sink < 0.0) std::printf("unreachable\n");
  return ms;
}

// Peak resident set of this process so far, in MiB.
double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// The hub labels on NYC-like cities from ~1k to ~100k vertices (default
// scale): the contraction pass alone, the whole build (which runs the pass
// again), label size, the process's peak RSS after the build and
// point-query latency, then the batched gather against the point-query
// loop on the same labels. Sizes ascend, so the peak RSS of a record is
// set by its own build.
void BenchOracleConfigs(bool smoke, std::vector<std::string>* lines) {
  const double s = EnvScale();
  struct GraphPoint {
    const char* name;
    double scale;
    std::int64_t queries;
  };
  std::vector<GraphPoint> points = {
      {"nyc_like", 0.12 * s, smoke ? 20'000 : 500'000},
      {"nyc_like_s0.25", 0.25 * s, smoke ? 20'000 : 500'000},
      {"nyc_like_s0.49", 0.49 * s, smoke ? 20'000 : 500'000},
      {"nyc_like_s1", 1.0 * s, smoke ? 20'000 : 200'000},
      {"nyc_like_10x", 1.2 * s, smoke ? 20'000 : 200'000},
  };
  if (!smoke) points.push_back({"nyc_like_s10", 10.0 * s, 200'000});
  for (const GraphPoint& pt : points) {
    const RoadNetwork graph = MakeNycLike(pt.scale, 1);
    const auto n = graph.num_vertices();
    const auto c_t0 = Clock::now();
    const std::vector<int> rank = ContractionOrder(graph);
    const double contraction_ms = MsSince(c_t0);
    if (rank.size() != static_cast<std::size_t>(n)) {
      std::printf("unreachable\n");
    }
    const auto b_t0 = Clock::now();
    HubLabelOracle labels = HubLabelOracle::Build(graph);
    const double build_ms = MsSince(b_t0);
    StatsAccumulator per_query_us;
    const double q_ms = TimeQueries(&labels, n, pt.queries, &per_query_us);
    Record(lines, "hub_label_config",
           {{"graph", pt.name},
            {"vertices", std::to_string(n)},
            {"avg_label", Fmt(labels.average_label_size())},
            {"label_memory_bytes", std::to_string(labels.MemoryBytes())},
            {"contraction_ms", Fmt(contraction_ms)},
            {"build_ms", Fmt(build_ms)},
            {"peak_rss_mib", Fmt(PeakRssMib())},
            {"queries", std::to_string(pt.queries)}},
           q_ms, pt.queries / (q_ms / 1e3),
           per_query_us.Percentile(50) * 1e-3,
           per_query_us.Percentile(95) * 1e-3,
           per_query_us.Percentile(99) * 1e-3);

    // Batched multi-source gather vs the point-query loop, in the shape
    // the planner issues (route positions x {origin, destination}). Both
    // modes produce bit-identical cells; the trajectory records the
    // per-cell latency of each.
    constexpr int kSources = 16, kTargets = 2;
    const std::int64_t rounds = smoke ? 2'000 : 50'000;
    Rng rng(13);
    std::vector<VertexId> sources(kSources);
    std::vector<VertexId> targets(kTargets);
    std::vector<double> matrix;
    for (const bool batch : {false, true}) {
      StatsAccumulator per_cell_us;
      double sink = 0.0;
      Rng mode_rng(13);
      const auto t0 = Clock::now();
      for (std::int64_t round = 0; round < rounds; ++round) {
        for (auto& v : sources) v = mode_rng.UniformInt(0, n - 1);
        for (auto& v : targets) v = mode_rng.UniformInt(0, n - 1);
        const auto b_t0 = Clock::now();
        if (batch) {
          labels.BatchQuery(sources, targets, &matrix);
          for (const double d : matrix) sink += d;
        } else {
          for (const VertexId u : sources) {
            for (const VertexId v : targets) sink += labels.Distance(u, v);
          }
        }
        per_cell_us.Add(
            std::chrono::duration<double, std::micro>(Clock::now() - b_t0)
                .count() /
            static_cast<double>(kSources * kTargets));
      }
      const double ms = MsSince(t0);
      if (sink < 0.0) std::printf("unreachable\n");
      const std::int64_t cells = rounds * kSources * kTargets;
      Record(lines, "multi_source_gather",
             {{"graph", pt.name},
              {"vertices", std::to_string(n)},
              {"mode", batch ? "batch" : "point"},
              {"sources", std::to_string(kSources)},
              {"targets", std::to_string(kTargets)}},
             ms, cells / (ms / 1e3), per_cell_us.Percentile(50) * 1e-3,
             per_cell_us.Percentile(95) * 1e-3,
             per_cell_us.Percentile(99) * 1e-3);
    }
  }
}

// --------------------------------------------------------------- insertion

struct InsertionScenario {
  explicit InsertionScenario(int stops)
      : graph(MakeGridGraph(40, 40, 0.5)),
        labels(HubLabelOracle::Build(graph)),
        ctx(&graph, &labels, &requests) {
    Rng rng(42);
    worker = {0, 0, 1 << 20};  // capacity never binds; n drives the cost
    route = Route(worker.initial_location, 0.0);
    while (route.size() < stops) {
      const VertexId o = rng.UniformInt(0, graph.num_vertices() - 1);
      VertexId d = rng.UniformInt(0, graph.num_vertices() - 1);
      if (d == o) d = (d + 1) % graph.num_vertices();
      Request r;
      r.id = static_cast<RequestId>(requests.size());
      r.origin = o;
      r.destination = d;
      r.release_time = 0.0;
      r.deadline = 1e9;  // loose deadlines: operators pay full asymptotic cost
      r.penalty = 1.0;
      requests.push_back(r);
      const InsertionCandidate c = BasicInsertion(worker, route, r, &ctx);
      if (c.feasible()) route.Insert(r, c.i, c.j, &labels);
    }
    Request p;
    p.id = static_cast<RequestId>(requests.size());
    p.origin = 1;
    p.destination = graph.num_vertices() - 2;
    p.release_time = 0.0;
    p.deadline = 1e9;
    requests.push_back(p);
    probe = p;
    state = BuildRouteState(route, &ctx);
  }

  RoadNetwork graph;
  HubLabelOracle labels;
  std::vector<Request> requests;
  PlanningContext ctx;
  Worker worker;
  Route route;
  Request probe;
  RouteState state;
};

template <typename Op>
void TimeOp(std::vector<std::string>* lines, const std::string& name,
            int stops, std::int64_t ops, std::int64_t batch, Op&& op) {
  StatsAccumulator per_op_us;
  const auto t0 = Clock::now();
  for (std::int64_t done = 0; done < ops; done += batch) {
    const auto b_t0 = Clock::now();
    for (std::int64_t b = 0; b < batch; ++b) op();
    per_op_us.Add(
        std::chrono::duration<double, std::micro>(Clock::now() - b_t0)
            .count() /
        static_cast<double>(batch));
  }
  const double ms = MsSince(t0);
  Record(lines, name, {{"stops", std::to_string(stops)}}, ms, ops / (ms / 1e3),
         per_op_us.Percentile(50) * 1e-3, per_op_us.Percentile(95) * 1e-3,
         per_op_us.Percentile(99) * 1e-3);
}

void BenchInsertion(bool smoke, std::vector<std::string>* lines) {
  const std::vector<int> sizes = smoke ? std::vector<int>{8, 32}
                                       : std::vector<int>{16, 64, 128};
  for (const int stops : sizes) {
    InsertionScenario sc(stops);
    const std::int64_t ops = smoke ? 2'000 : 50'000;
    // Per-request planning path: gather the distance columns, then the
    // linear DP over flat arrays (route state comes from the fleet cache
    // in the real planner, so it is prebuilt here).
    TimeOp(lines, "linear_dp_insertion", stops, ops, 16, [&] {
      const InsertionCandidate c = LinearDpInsertion(
          sc.worker, sc.route, sc.state, sc.probe, &sc.ctx);
      if (c.i == -2) std::printf("impossible\n");
    });
    TimeOp(lines, "naive_dp_insertion", stops, ops / 4, 8, [&] {
      const InsertionCandidate c = NaiveDpInsertion(
          sc.worker, sc.route, sc.state, sc.probe, &sc.ctx);
      if (c.i == -2) std::printf("impossible\n");
    });
    TimeOp(lines, "basic_insertion", stops, smoke ? 50 : 500, 2, [&] {
      const InsertionCandidate c =
          BasicInsertion(sc.worker, sc.route, sc.probe, &sc.ctx);
      if (c.i == -2) std::printf("impossible\n");
    });
    TimeOp(lines, "build_route_state", stops, ops, 16, [&] {
      const RouteState st = BuildRouteState(sc.route, &sc.ctx);
      if (st.n < 0) std::printf("impossible\n");
    });
    // Decision-phase Euclidean lower bound, before/after: the reference
    // evaluates per-position hypot calls on demand; the production path
    // gathers the per-request columns once over RouteState::pts. Same
    // result bit-for-bit (decision_test fuzzes that); only the cost
    // profile differs.
    const std::int64_t lb_ops = smoke ? 5'000 : 200'000;
    TimeOp(lines, "decision_lb_reference", stops, lb_ops, 32, [&] {
      const double lb = DecisionLowerBoundReference(
          sc.worker, sc.route, sc.state, sc.probe,
          sc.ctx.DirectDist(sc.probe.id), sc.graph);
      if (lb < 0.0) std::printf("impossible\n");
    });
    TimeOp(lines, "decision_lb_columns", stops, lb_ops, 32, [&] {
      const double lb = DecisionLowerBound(
          sc.worker, sc.route, sc.state, sc.probe,
          sc.ctx.DirectDist(sc.probe.id), sc.graph);
      if (lb < 0.0) std::printf("impossible\n");
    });
  }
}

// ------------------------------------------------- observability overhead
//
// The engine ships with instrumentation compiled in everywhere; the
// registry/tracer contract is that a run with observability *disabled*
// pays only dead branches. This measures that contract on the hottest
// planning kernel: LinearDpInsertion bare vs. wrapped in exactly the
// per-operation instrumentation the engine adds (a disabled counter, a
// disabled scoped timer, a disabled trace span). The measured overhead
// is recorded in the BENCH line (`overhead_pct`; the guarantee is <2%).

void BenchObsOverhead(bool smoke, std::vector<std::string>* lines) {
  InsertionScenario sc(32);
  const std::int64_t ops = smoke ? 20'000 : 400'000;
  obs::Registry reg(/*enabled=*/false);
  obs::Counter* counter = reg.GetCounter("bench.ops");
  obs::Histogram* hist = reg.GetHistogram("bench.op_ms");
  obs::TraceRecorder tracer{std::string()};  // empty path: disabled
  double sink = 0.0;
  const auto op = [&] {
    const InsertionCandidate c =
        LinearDpInsertion(sc.worker, sc.route, sc.state, sc.probe, &sc.ctx);
    sink += c.delta;
  };
  // Best-of-3 per variant damps scheduler noise; both variants run the
  // identical kernel, so the delta isolates the disabled instruments.
  const auto best_of = [&](bool instrumented) {
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      for (std::int64_t i = 0; i < ops; ++i) {
        if (instrumented) {
          const obs::ScopedTimerMs timer(hist);
          const obs::TraceSpan span(&tracer, "bench.op");
          obs::Inc(counter);
          op();
        } else {
          op();
        }
      }
      best = std::min(best, MsSince(t0));
    }
    return best;
  };
  const double bare_ms = best_of(false);
  const double instrumented_ms = best_of(true);
  if (sink < 0.0) std::printf("impossible\n");  // keep the loops observable
  const double overhead_pct =
      bare_ms > 0.0 ? (instrumented_ms - bare_ms) / bare_ms * 100.0 : 0.0;
  Record(lines, "obs_overhead_disabled",
         {{"stops", "32"},
          {"ops", std::to_string(ops)},
          {"bare_ms", Fmt(bare_ms)},
          {"overhead_pct", Fmt(overhead_pct)}},
         instrumented_ms, ops / (instrumented_ms / 1e3), -1.0, -1.0, -1.0);
}

}  // namespace
}  // namespace urpsm::bench

int main(int argc, char** argv) {
  const bool smoke = urpsm::bench::InitBench(argc, argv);
  urpsm::bench::g_smoke = smoke;
  std::vector<std::string> oracle_lines;
  urpsm::bench::BenchOracle(smoke, &oracle_lines);
  urpsm::bench::BenchOracleConfigs(smoke, &oracle_lines);
  urpsm::bench::WriteTrajectory("oracle", smoke, oracle_lines);
  std::vector<std::string> insertion_lines;
  urpsm::bench::BenchInsertion(smoke, &insertion_lines);
  urpsm::bench::BenchObsOverhead(smoke, &insertion_lines);
  urpsm::bench::WriteTrajectory("insertion", smoke, insertion_lines);
  return 0;
}
