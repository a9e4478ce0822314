// Microbenchmark of the shortest-distance substrate: Dijkstra vs
// bidirectional Dijkstra vs hub labels (what the simulations query). Hub
// labels are the paper's O(1)-ish query assumption [9]; this shows why
// that assumption is reasonable.

#include <benchmark/benchmark.h>

#include <memory>

#include "src/shortest/bidijkstra.h"
#include "src/shortest/dijkstra.h"
#include "src/shortest/hub_labels.h"
#include "src/util/rng.h"
#include "src/workload/city.h"

namespace urpsm {
namespace {

struct OracleFixture {
  OracleFixture() : graph(MakeNycLike(0.08, 5)) {
    labels = std::make_unique<HubLabelOracle>(HubLabelOracle::Build(graph));
  }
  RoadNetwork graph;
  std::unique_ptr<HubLabelOracle> labels;
};

OracleFixture& Fixture() {
  static OracleFixture* f = new OracleFixture();
  return *f;
}

void BM_Dijkstra(benchmark::State& state) {
  auto& f = Fixture();
  Rng rng(1);
  for (auto _ : state) {
    const VertexId s = rng.UniformInt(0, f.graph.num_vertices() - 1);
    const VertexId t = rng.UniformInt(0, f.graph.num_vertices() - 1);
    benchmark::DoNotOptimize(DijkstraDistance(f.graph, s, t));
  }
}

void BM_BidirectionalDijkstra(benchmark::State& state) {
  auto& f = Fixture();
  Rng rng(1);
  for (auto _ : state) {
    const VertexId s = rng.UniformInt(0, f.graph.num_vertices() - 1);
    const VertexId t = rng.UniformInt(0, f.graph.num_vertices() - 1);
    benchmark::DoNotOptimize(BidirectionalDistance(f.graph, s, t));
  }
}

void BM_HubLabels(benchmark::State& state) {
  auto& f = Fixture();
  Rng rng(1);
  for (auto _ : state) {
    const VertexId s = rng.UniformInt(0, f.graph.num_vertices() - 1);
    const VertexId t = rng.UniformInt(0, f.graph.num_vertices() - 1);
    benchmark::DoNotOptimize(f.labels->Distance(s, t));
  }
  state.counters["label_bytes"] = static_cast<double>(f.labels->MemoryBytes());
}

// The planner's gather shape: route positions x {origin, destination} in
// one multi-source sweep vs the same cells as point queries.
void BM_HubLabelsBatchGather(benchmark::State& state) {
  auto& f = Fixture();
  Rng rng(1);
  const int ns = static_cast<int>(state.range(0));
  std::vector<VertexId> sources(static_cast<std::size_t>(ns));
  std::vector<VertexId> targets(2);
  std::vector<double> matrix;
  for (auto _ : state) {
    for (auto& v : sources) v = rng.UniformInt(0, f.graph.num_vertices() - 1);
    for (auto& v : targets) v = rng.UniformInt(0, f.graph.num_vertices() - 1);
    f.labels->BatchQuery(sources, targets, &matrix);
    benchmark::DoNotOptimize(matrix.data());
  }
  state.SetItemsProcessed(state.iterations() * ns * 2);
}

void BM_HubLabelsPointGather(benchmark::State& state) {
  auto& f = Fixture();
  Rng rng(1);
  const int ns = static_cast<int>(state.range(0));
  std::vector<VertexId> sources(static_cast<std::size_t>(ns));
  std::vector<VertexId> targets(2);
  for (auto _ : state) {
    for (auto& v : sources) v = rng.UniformInt(0, f.graph.num_vertices() - 1);
    for (auto& v : targets) v = rng.UniformInt(0, f.graph.num_vertices() - 1);
    double sink = 0.0;
    for (const VertexId s : sources) {
      for (const VertexId t : targets) sink += f.labels->Distance(s, t);
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * ns * 2);
}

BENCHMARK(BM_Dijkstra);
BENCHMARK(BM_BidirectionalDijkstra);
BENCHMARK(BM_HubLabels);
BENCHMARK(BM_HubLabelsBatchGather)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_HubLabelsPointGather)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace urpsm
