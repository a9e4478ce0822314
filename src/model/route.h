#ifndef URPSM_SRC_MODEL_ROUTE_H_
#define URPSM_SRC_MODEL_ROUTE_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/model/types.h"
#include "src/shortest/oracle.h"

namespace urpsm {

class PlanningContext;

/// A worker's planned route (Def. 4): the anchor vertex l_0 (the vertex the
/// worker most recently reached, with the time it was/will be reached) plus
/// the ordered pending stops l_1..l_n. The route caches the travel time of
/// every leg so that schedules (arrival times) are recomputable with zero
/// shortest-distance queries, and keeps the arrival prefix itself cached so
/// ArrivalAt is O(1).
///
/// Every mutation (Insert, SetStops, PopFront, set_anchor_time) bumps a
/// monotonic version counter. Downstream caches — the fleet's per-worker
/// RouteState memo in particular — key on it: an unchanged version
/// guarantees the route (stops, legs, anchor, anchor time) is unchanged.
///
/// Model note: worker positions are resolved at vertex granularity, exactly
/// as in the paper's simulation — between stops the worker's location is
/// implied by the schedule, and re-planning always measures from the anchor.
class Route {
 public:
  Route() = default;
  Route(VertexId anchor, double anchor_time)
      : anchor_(anchor), anchor_time_(anchor_time), arrivals_{anchor_time} {}

  VertexId anchor() const { return anchor_; }
  double anchor_time() const { return anchor_time_; }
  void set_anchor_time(double t) {
    anchor_time_ = t;
    ++version_;
    RecomputeArrivals();
  }

  /// Mutation counter: bumped by Insert, SetStops, PopFront and
  /// set_anchor_time. Equal versions of the same Route object imply an
  /// identical route; cache RouteState and schedules against it.
  /// GreedyDpPlanner's window commit also stamps each proposal with the
  /// version it planned against and replans when the version moved, so
  /// the counter must bump on EVERY mutation, even one that restores a
  /// previous byte-identical state (no consumer compares content).
  std::uint64_t version() const { return version_; }

  const std::vector<Stop>& stops() const { return stops_; }
  /// Travel time of leg k (from vertex k to vertex k+1), k in [0, size).
  const std::vector<double>& leg_costs() const { return leg_costs_; }

  int size() const { return static_cast<int>(stops_.size()); }
  bool empty() const { return stops_.empty(); }

  /// Vertex at route position k: k = 0 is the anchor, k in [1, size] is
  /// stops()[k-1].
  VertexId VertexAt(int k) const {
    return k == 0 ? anchor_ : stops_[static_cast<std::size_t>(k - 1)].location;
  }

  /// Arrival time at route position k. O(1): served from the cached
  /// arrival prefix, which is recomputed eagerly on every mutation with
  /// the same left-to-right accumulation a fresh prefix walk would use
  /// (bit-identical results, and safe for concurrent readers since reads
  /// never mutate).
  double ArrivalAt(int k) const {
    assert(k >= 0 && k <= size());
    return arrivals_[static_cast<std::size_t>(k)];
  }

  /// Total planned travel time from the anchor through the last stop.
  double RemainingCost() const;

  /// Inserts the pickup of `r` after position i and the drop-off after
  /// position j (i <= j, positions in [0, size]), looking up the new legs'
  /// costs in `oracle`. Matches the paper's insertion semantics exactly.
  void Insert(const Request& r, int i, int j, DistanceOracle* oracle);

  /// Replaces all pending stops, recomputing every leg cost via `oracle`.
  /// Used by planners that reorder routes wholesale (kinetic trees).
  void SetStops(std::vector<Stop> stops, DistanceOracle* oracle);

  /// Removes the front stop, making it the new anchor; its arrival time
  /// becomes the anchor time. Returns the removed stop.
  Stop PopFront();

  /// Number of capacity units on board at the anchor: requests whose
  /// drop-off is pending but whose pickup already happened. Request
  /// capacities resolve through the context's id->index mapping, so
  /// non-dense id spaces are handled like dense ones.
  int OnboardAtAnchor(const PlanningContext& ctx) const;

  /// Full vertex-level driving path from the anchor through every pending
  /// stop, materialized with shortest-path queries (each stop-to-stop leg
  /// expanded; consecutive duplicates collapsed). Used when exporting
  /// planned routes for navigation/visualization.
  std::vector<VertexId> MaterializePath(DistanceOracle* oracle) const;

 private:
  void RecomputeArrivals();

  VertexId anchor_ = kInvalidVertex;
  double anchor_time_ = 0.0;
  std::uint64_t version_ = 0;
  std::vector<Stop> stops_;
  std::vector<double> leg_costs_;  // leg_costs_[k] = cost(VertexAt(k), VertexAt(k+1))
  std::vector<double> arrivals_{0.0};  // arrivals_[k] = ArrivalAt(k), size()+1 entries
};

}  // namespace urpsm

#endif  // URPSM_SRC_MODEL_ROUTE_H_
