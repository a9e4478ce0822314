#ifndef URPSM_SRC_MODEL_FEASIBILITY_H_
#define URPSM_SRC_MODEL_FEASIBILITY_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/graph/road_network.h"
#include "src/model/route.h"
#include "src/model/types.h"
#include "src/shortest/oracle.h"

namespace urpsm {

class ThreadPool;

namespace obs {
class Registry;
class TraceRecorder;
}  // namespace obs

/// Shared state threaded through decision/insertion/planning: the road
/// network, the distance oracle, the request table (indexed by RequestId)
/// and a per-request cache of the direct origin->destination shortest
/// distance L_r = dis(o_r, d_r). Caching L_r keeps the deadline array
/// (Eq. 6) free of repeat queries and makes the decision phase's
/// "exactly one shortest-distance query" property (Lemma 7) hold.
class PlanningContext {
 public:
  PlanningContext(const RoadNetwork* graph, DistanceOracle* oracle,
                  const std::vector<Request>* requests)
      : graph_(graph),
        oracle_(oracle),
        requests_(requests),
        direct_dist_(requests->size()) {
    for (auto& d : direct_dist_) d.store(kInf, std::memory_order_relaxed);
    // Ids are usually the dense positions 0..n-1 (generated workloads);
    // everything downstream used to *assume* that and silently indexed out
    // of bounds otherwise. Detect the dense layout once and keep the O(1)
    // path for it; any other id scheme gets an explicit id->index map.
    dense_ids_ = true;
    for (std::size_t i = 0; i < requests_->size(); ++i) {
      if ((*requests_)[i].id != static_cast<RequestId>(i)) {
        dense_ids_ = false;
        break;
      }
    }
    if (!dense_ids_) {
      id_to_index_.reserve(requests_->size());
      for (std::size_t i = 0; i < requests_->size(); ++i) {
        id_to_index_.emplace((*requests_)[i].id, i);
      }
    }
  }

  const RoadNetwork& graph() const { return *graph_; }
  DistanceOracle* oracle() const { return oracle_; }
  const std::vector<Request>& requests() const { return *requests_; }
  /// Position of request `id` in the request table. Ids need not be dense
  /// or equal to positions; unknown ids are a caller bug (asserted).
  /// Requests appended to the table after construction (a test-fixture
  /// pattern) must keep the dense id==position layout.
  std::size_t IndexOf(RequestId id) const {
    if (dense_ids_) return static_cast<std::size_t>(id);
    const auto it = id_to_index_.find(id);
    assert(it != id_to_index_.end() && "unknown request id");
    return it->second;
  }
  const Request& request(RequestId id) const {
    return (*requests_)[IndexOf(id)];
  }

  double Dist(VertexId u, VertexId v) const { return oracle_->Distance(u, v); }

  /// Multi-source sweep through the oracle (see
  /// DistanceOracle::BatchQuery): out[i * targets.size() + j] =
  /// Dist(sources[i], targets[j]), bit-identical per cell and billed as
  /// sources x targets queries. Label-backed oracles answer it in one pass
  /// per source label instead of per-pair point queries.
  void BatchDist(const std::vector<VertexId>& sources,
                 const std::vector<VertexId>& targets,
                 std::vector<double>* out) const {
    oracle_->BatchQuery(sources, targets, out);
  }

  /// L_r = dis(o_r, d_r); computed at most once per request. Safe to call
  /// concurrently (the lazy cache is mutex-guarded), so parallel candidate
  /// evaluations can share it.
  double DirectDist(RequestId id);

  /// Pool for planners that fan per-candidate work across threads, or
  /// nullptr when the run is sequential. Owned by the simulation.
  ThreadPool* thread_pool() const { return thread_pool_; }
  void set_thread_pool(ThreadPool* pool) { thread_pool_ = pool; }

  /// Metrics registry / span tracer of the run, or nullptr when
  /// observability is off. Owned by the simulation; components fetch
  /// instruments at setup time and hold pointers (stable for the run).
  obs::Registry* metrics() const { return metrics_; }
  void set_metrics(obs::Registry* reg) { metrics_ = reg; }
  obs::TraceRecorder* tracer() const { return tracer_; }
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }

 private:
  const RoadNetwork* graph_;
  DistanceOracle* oracle_;
  const std::vector<Request>* requests_;
  ThreadPool* thread_pool_ = nullptr;
  obs::Registry* metrics_ = nullptr;
  obs::TraceRecorder* tracer_ = nullptr;
  bool dense_ids_ = true;  // ids equal table positions (common case)
  std::unordered_map<RequestId, std::size_t> id_to_index_;  // non-dense only
  std::mutex direct_mu_;  // serializes direct_dist_ misses + the overflow map
  // One slot per request known at construction, kInf = not yet computed.
  // Hits are lock-free atomic loads — this cache sits inside the
  // per-placement inner loop of the parallel planner, so a lock on the
  // hit path would serialize it. Requests appended to the vector *after*
  // construction (a test-fixture pattern; simulations always pass the
  // full table) fall back to the mutex-guarded overflow map.
  std::vector<std::atomic<double>> direct_dist_;
  std::unordered_map<RequestId, double> direct_overflow_;
};

/// The auxiliary arrays of Sec. 4.3 for a route with n stops; all are
/// indexed by route position k in [0, n] (k = 0 is the anchor).
///
///   arr[k]    — arrival time at l_k (Eq. 7)
///   ddl[k]    — latest feasible arrival at l_k (Eq. 6); +inf at the anchor
///   slack[k]  — max tolerable detour between l_k and l_k+1 (Eq. 8); +inf at n
///   picked[k] — capacity units on board after visiting l_k (Eq. 9)
struct RouteState {
  int n = 0;
  std::vector<double> arr;
  std::vector<double> ddl;
  std::vector<double> slack;
  std::vector<int> picked;
  /// pts[k] — coordinate of the vertex at route position k (the flat
  /// coordinate column the decision phase gathers its per-request
  /// Euclidean lower bounds from, instead of chasing VertexAt(k) through
  /// the stop list per position). Rebuilt with the rest of the state, so
  /// the fleet's per-worker cache amortizes it across requests.
  std::vector<Point> pts;
};

/// Builds the auxiliary arrays for `route`. Uses only the route's cached
/// arrival prefix plus (cached) direct distances, so it issues no new
/// shortest-distance queries after the first time each onboard request's
/// L_r is seen.
RouteState BuildRouteState(const Route& route, PlanningContext* ctx);

/// In-place variant reusing `out`'s array capacity — the form the fleet's
/// per-worker route-state cache rebuilds through, so steady-state planning
/// allocates nothing here.
void BuildRouteState(const Route& route, PlanningContext* ctx,
                     RouteState* out);

/// Ground-truth feasibility check used by tests and the basic insertion:
/// recomputes the schedule of `stops` starting from (anchor, anchor_time)
/// with fresh distance queries and verifies Def. 4's three conditions
/// (pickup precedes drop-off, drop-off by deadline, capacity bound).
/// `onboard` is the load already on the vehicle at the anchor.
bool ValidateStops(VertexId anchor, double anchor_time,
                   const std::vector<Stop>& stops, int worker_capacity,
                   int onboard, PlanningContext* ctx,
                   double* total_cost = nullptr);

}  // namespace urpsm

#endif  // URPSM_SRC_MODEL_FEASIBILITY_H_
