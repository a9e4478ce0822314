#ifndef URPSM_SRC_SIM_FLEET_H_
#define URPSM_SRC_SIM_FLEET_H_

#include <cstdint>
#include <queue>
#include <unordered_map>
#include <vector>

#include "src/index/grid_index.h"
#include "src/model/feasibility.h"
#include "src/model/route.h"
#include "src/model/types.h"
#include "src/shortest/oracle.h"

namespace urpsm {

/// The moving fleet: every worker's committed route, its progress along it,
/// and the spatial index of worker anchors.
///
/// Motion model (matching the paper's simulation): a worker follows its
/// planned schedule; its position is resolved at stop granularity. When the
/// simulated clock passes a stop's scheduled arrival, the stop is
/// *committed* — it becomes the new route anchor, it is appended to the
/// worker's commit log (the pickup and drop-off record), and the grid
/// index is updated. Workers with empty routes idle in place; their anchor
/// time is bumped to "now" (Touch) before an insertion is planned on them,
/// so no schedule can depart in the past.
class Fleet {
 public:
  Fleet(std::vector<Worker> workers, const RoadNetwork* graph);

  /// Registers the grid index that should track anchor movement (owned by
  /// the caller); inserts all current anchors.
  void AttachIndex(GridIndex* index);

  int size() const { return static_cast<int>(workers_.size()); }
  const std::vector<Worker>& workers() const { return workers_; }
  const Worker& worker(WorkerId w) const {
    return workers_[static_cast<std::size_t>(w)];
  }
  const Route& route(WorkerId w) const {
    return routes_[static_cast<std::size_t>(w)];
  }

  /// The auxiliary arrays (Sec. 4.3) of worker `w`'s current route,
  /// memoized on Route::version(): a rebuild happens only after the route
  /// actually mutated (Insert/SetStops/PopFront/anchor-time bump), so the
  /// decision and planning phases stop re-deriving O(n) state per
  /// candidate. Equivalent to a fresh BuildRouteState at every call.
  ///
  /// Thread-safety: calls for *distinct* workers may run concurrently
  /// (each worker owns its slot). Calls for the same worker may overlap
  /// only when the entry is already current, since a current entry is
  /// only read: GreedyDpPlanner::OnBatch builds every candidate's entry
  /// in its serial prep, so its parallel planning tasks share workers
  /// without a lock. Otherwise calls for one worker must be externally
  /// ordered — the sequential planning scan (PlanRequestSequential) is:
  /// its decision phase builds the states of busy candidates, and its
  /// planning phase builds an idle worker's state right after touching
  /// it. The returned reference stays valid while the route's version is
  /// stable.
  const RouteState& CachedState(WorkerId w, PlanningContext* ctx);
  const Point& anchor_point(WorkerId w) const {
    return graph_->coord(route(w).anchor());
  }

  /// Commits every stop scheduled at or before `t`, fleet-wide. Amortized
  /// O(log |W|) per committed stop via the arrival heap.
  void AdvanceTo(double t);

  /// Ensures worker `w` can be planned at time `t`: commits its due stops
  /// and, if idle, moves its clock forward to `t` (a version bump when the
  /// clock moves). After AdvanceTo(t) only the idle clock can move, so the
  /// sequential planning scan touches just the idle workers it evaluates
  /// (their bounds need no touch, IdleDecisionLowerBound); a window's
  /// prep (GreedyDpPlanner::OnBatch) and the baseline planners touch
  /// every candidate. A touch that finds nothing to commit and the clock
  /// at `t` only reads, so such calls may overlap — as a window's
  /// planning tasks do.
  void Touch(WorkerId w, double t);

  /// Applies an insertion (pickup after position i, drop-off after j) to
  /// worker `w`'s route and records the assignment.
  void ApplyInsertion(WorkerId w, const Request& r, int i, int j,
                      DistanceOracle* oracle);

  /// Replaces worker `w`'s pending stops wholesale (kinetic-tree planners
  /// may reorder existing stops) and records that `r` is now assigned to
  /// `w`. Leg costs are recomputed through `oracle`.
  void ReplaceRoute(WorkerId w, const Request& r, std::vector<Stop> stops,
                    DistanceOracle* oracle);

  /// Commits all remaining stops (end of simulation).
  void FinishAll();

  /// Worker assigned to a request, or kInvalidWorker.
  WorkerId AssignedWorker(RequestId r) const;
  /// Committed pickup / drop-off times, read from the assigned worker's
  /// commit log (kInf when the request is unassigned or the stop is not
  /// committed yet).
  double PickupTime(RequestId r) const;
  double DropoffTime(RequestId r) const;

  /// One executed stop: what was committed, when, at which vertex.
  struct CommittedStop {
    Stop stop;
    double time = 0.0;
  };

  /// Full execution log of worker `w`, in commit order. Used by the
  /// invariant checker (capacity/ordering/deadline replay).
  const std::vector<CommittedStop>& CommitLog(WorkerId w) const {
    return commit_log_[static_cast<std::size_t>(w)];
  }

  /// Total distance (travel time) driven so far by all workers, committed
  /// legs only. Each worker's legs accumulate in route order into its own
  /// total, and the totals are summed in worker-id order, so the result is
  /// bit-identical whichever path committed the legs (the fleet-wide
  /// arrival heap interleaves workers by time; Touch commits one worker
  /// at a time).
  double committed_distance() const;
  /// Committed plus still-planned distance: equals sum_w D(S_w) over the
  /// full simulation once all requests are in.
  double TotalPlannedDistance() const;

 private:
  void CommitFront(WorkerId w);
  void PushHeap(WorkerId w);
  /// Time of `r`'s committed stop of `kind`, or kInf.
  double CommittedStopTime(RequestId r, StopKind kind) const;

  struct StateCacheEntry {
    std::uint64_t route_version = 0;
    bool valid = false;
    RouteState state;
  };

  struct HeapEntry {
    double arrival;
    WorkerId worker;
    // Route::version() at push time; a mismatch on pop means the route
    // mutated since and the entry is stale. (The route's counter is the
    // single mutation clock — the state cache keys on it too.)
    std::uint64_t version;
    bool operator>(const HeapEntry& o) const { return arrival > o.arrival; }
  };

  std::vector<Worker> workers_;
  const RoadNetwork* graph_;
  GridIndex* index_ = nullptr;
  std::vector<Route> routes_;
  std::vector<StateCacheEntry> state_cache_;  // slot w ↔ routes_[w]
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap_;

  std::unordered_map<RequestId, WorkerId> assignment_;
  std::vector<std::vector<CommittedStop>> commit_log_;
  std::vector<double> committed_by_worker_;  // slot w ↔ routes_[w]
};

}  // namespace urpsm

#endif  // URPSM_SRC_SIM_FLEET_H_
