#ifndef URPSM_SRC_PARALLEL_FLEET_SHARDS_H_
#define URPSM_SRC_PARALLEL_FLEET_SHARDS_H_

#include <memory>
#include <mutex>
#include <vector>

#include "src/geo/point.h"
#include "src/model/types.h"
#include "src/sim/fleet.h"

namespace urpsm {

/// Spatial partition of the fleet for whole-request parallel planning:
/// the road network's bounding box is covered by a coarse grid of region
/// cells, the region grid is split into a fixed set of contiguous
/// rectangular tiles (one per shard), and every worker belongs to the
/// shard of the tile its route anchor lies in.
///
/// The tiles are contiguous — unlike a scattered cells-modulo-shards
/// mapping — so each shard covers one bounded rectangle of the map and a
/// request's candidates, which lie within one candidate radius of its
/// origin, fall into few shards. That keeps the dispatch-window engine's
/// commit footprints (the shard sets of each proposal's candidates)
/// small, so proposals from distant parts of the map commit concurrently.
///
/// Worker mutations are serialized on a mutex *stripe* keyed by worker id
/// (mutex_of): the planning tasks' state-cache reads and the commit
/// stage's parallel applies lock the workers they touch. The stripe is
/// independent of the tile assignment, so a Rebuild that re-homes a
/// worker never changes which mutex guards it.
///
/// The shard count and region size are structural constants of the run:
/// they never depend on the thread count, so the task decomposition (and
/// with it every deterministic planning result) is identical for any pool
/// size. Shard membership is refreshed by Rebuild(), which the engine
/// calls once per window after the fleet has advanced to the window
/// close; between Rebuilds the worker->shard map is immutable and may be
/// read concurrently.
class FleetShards {
 public:
  static constexpr int kDefaultShards = 16;

  /// `fleet` is borrowed and must outlive the shards. `lo`/`hi` bound the
  /// anchor coordinates (the graph bounding box); `region_km` is the side
  /// of one region cell — coarser than the planners' candidate grid so
  /// small anchor moves rarely change a worker's shard.
  FleetShards(const Fleet* fleet, Point lo, Point hi, double region_km,
              int num_shards = kDefaultShards);

  /// Reassigns every worker to the shard of its current anchor tile.
  /// Single-writer only; must not run concurrently with anything that
  /// reads the assignment (planning phases that call ShardOf /
  /// workers_in).
  void Rebuild();

  int num_shards() const { return num_shards_; }
  int ShardOf(WorkerId w) const {
    return shard_of_[static_cast<std::size_t>(w)];
  }
  /// Mutex stripe of worker `w` — keyed by worker id, NOT by the tile
  /// assignment, so the lock map is stable across Rebuilds. Distinct
  /// workers may share a stripe; one worker always maps to one mutex.
  std::mutex& mutex_of(WorkerId w) {
    return mutexes_[static_cast<std::size_t>(w) %
                    static_cast<std::size_t>(num_shards_)];
  }
  /// Workers currently assigned to `shard`, in worker-id order.
  const std::vector<WorkerId>& workers_in(int shard) const {
    return members_[static_cast<std::size_t>(shard)];
  }

  /// Shard of an arbitrary point's tile (exposed for tests).
  int ShardOfPoint(const Point& p) const;

 private:
  const Fleet* fleet_;
  Point lo_;
  double region_km_;
  int cells_x_ = 0;
  int cells_y_ = 0;
  int tiles_x_ = 0;  // tile grid: tiles_x_ * tiles_y_ == num_shards_
  int tiles_y_ = 0;
  int num_shards_ = 0;
  std::vector<int> shard_of_;                // worker id -> shard
  std::vector<std::vector<WorkerId>> members_;  // shard -> worker ids
  std::unique_ptr<std::mutex[]> mutexes_;
};

}  // namespace urpsm

#endif  // URPSM_SRC_PARALLEL_FLEET_SHARDS_H_
