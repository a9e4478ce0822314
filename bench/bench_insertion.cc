// Microbenchmark of the paper's central claim (Sec. 4): insertion drops
// from O(n^3) (basic) through O(n^2) (naive DP) to O(n) (linear DP) in
// the route length n. google-benchmark sweeps n and reports per-op time;
// the complexity columns make the asymptotic gap visible directly.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/graph/builders.h"
#include "src/insertion/insertion.h"
#include "src/model/feasibility.h"
#include "src/shortest/hub_labels.h"
#include "src/util/rng.h"

namespace urpsm {
namespace {

/// Shared scenario: a worker with an n-stop route on a grid city, plus a
/// probe request. Distances come from hub labels (about 28 hubs per vertex
/// on this grid) so the benchmark measures insertion logic, not Dijkstra.
class InsertionScenario {
 public:
  explicit InsertionScenario(int stops)
      : graph_(MakeGridGraph(40, 40, 0.5)),
        labels_(HubLabelOracle::Build(graph_)),
        ctx_(&graph_, &labels_, &requests_) {
    Rng rng(42);
    worker_ = {0, 0, 1 << 20};  // capacity never binds; n drives the cost
    route_ = Route(worker_.initial_location, 0.0);
    while (route_.size() < stops) {
      const VertexId o = rng.UniformInt(0, graph_.num_vertices() - 1);
      VertexId d = rng.UniformInt(0, graph_.num_vertices() - 1);
      if (d == o) d = (d + 1) % graph_.num_vertices();
      Request r;
      r.id = static_cast<RequestId>(requests_.size());
      r.origin = o;
      r.destination = d;
      r.release_time = 0.0;
      r.deadline = 1e9;  // loose deadlines: no feasibility pruning, so the
      r.penalty = 1.0;   // operators pay their full asymptotic cost
      requests_.push_back(r);
      const InsertionCandidate c =
          BasicInsertion(worker_, route_, r, &ctx_);
      if (c.feasible()) route_.Insert(r, c.i, c.j, &labels_);
    }
    Request probe;
    probe.id = static_cast<RequestId>(requests_.size());
    probe.origin = 1;
    probe.destination = graph_.num_vertices() - 2;
    probe.release_time = 0.0;
    probe.deadline = 1e9;
    requests_.push_back(probe);
    probe_ = probe;
    state_ = BuildRouteState(route_, &ctx_);
  }

  const Worker& worker() const { return worker_; }
  const Route& route() const { return route_; }
  const Request& probe() const { return probe_; }
  const RouteState& state() const { return state_; }
  PlanningContext* ctx() { return &ctx_; }

 private:
  RoadNetwork graph_;
  HubLabelOracle labels_;
  std::vector<Request> requests_;
  PlanningContext ctx_;
  Worker worker_;
  Route route_;
  Request probe_;
  RouteState state_;
};

InsertionScenario* GetScenario(int stops) {
  // One scenario per size, built lazily and reused across iterations.
  static std::vector<std::unique_ptr<InsertionScenario>> cache(512);
  auto& slot = cache[static_cast<std::size_t>(stops)];
  if (!slot) slot = std::make_unique<InsertionScenario>(stops);
  return slot.get();
}

void BM_BasicInsertion(benchmark::State& state) {
  InsertionScenario* s = GetScenario(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BasicInsertion(s->worker(), s->route(), s->probe(), s->ctx()));
  }
  state.SetComplexityN(state.range(0));
}

void BM_NaiveDpInsertion(benchmark::State& state) {
  InsertionScenario* s = GetScenario(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveDpInsertion(s->worker(), s->route(),
                                              s->state(), s->probe(),
                                              s->ctx()));
  }
  state.SetComplexityN(state.range(0));
}

void BM_LinearDpInsertion(benchmark::State& state) {
  InsertionScenario* s = GetScenario(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LinearDpInsertion(s->worker(), s->route(),
                                               s->state(), s->probe(),
                                               s->ctx()));
  }
  state.SetComplexityN(state.range(0));
}

void BM_BuildRouteState(benchmark::State& state) {
  InsertionScenario* s = GetScenario(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildRouteState(s->route(), s->ctx()));
  }
  state.SetComplexityN(state.range(0));
}

BENCHMARK(BM_BasicInsertion)->RangeMultiplier(2)->Range(4, 128)->Complexity();
BENCHMARK(BM_NaiveDpInsertion)
    ->RangeMultiplier(2)
    ->Range(4, 256)
    ->Complexity();
BENCHMARK(BM_LinearDpInsertion)
    ->RangeMultiplier(2)
    ->Range(4, 256)
    ->Complexity();
BENCHMARK(BM_BuildRouteState)->RangeMultiplier(2)->Range(4, 256)->Complexity();

}  // namespace
}  // namespace urpsm
