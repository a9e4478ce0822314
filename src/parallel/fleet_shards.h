#ifndef URPSM_SRC_PARALLEL_FLEET_SHARDS_H_
#define URPSM_SRC_PARALLEL_FLEET_SHARDS_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/geo/point.h"
#include "src/model/types.h"
#include "src/sim/fleet.h"

namespace urpsm {

class FaultInjector;

namespace obs {
class Counter;
class Histogram;
class Registry;
}  // namespace obs

/// Spatial partition of the fleet for whole-request parallel planning:
/// the road network's bounding box is covered by a coarse grid of region
/// cells, the region grid is split into a fixed set of contiguous
/// rectangular tiles (one per shard), and every worker belongs to the
/// shard of the tile its route anchor lies in.
///
/// The tiles are contiguous — unlike a scattered cells-modulo-shards
/// mapping — so each shard covers one bounded rectangle of the map. That
/// is what makes the pipeline's displacement gate non-degenerate: a
/// request's candidate workers can only come from shards whose tile lies
/// within its candidate radius plus a worker-displacement bound, so its
/// filtering can start as soon as THOSE shards advanced instead of
/// waiting for the global advance barrier (see TileDistanceKm /
/// MaxDisplacementKm and the DispatchWindowPlanner contract).
///
/// Worker mutations are serialized on a mutex *stripe* keyed by worker id
/// (mutex_of): the commit stage's parallel applies and the next window's
/// per-shard advance lock the workers they touch. The stripe is
/// independent of the tile assignment, so a Rebuild that re-homes a
/// worker never changes which mutex guards it.
///
/// The shard count and region size are structural constants of the run:
/// they never depend on the thread count, so the task decomposition (and
/// with it every deterministic planning result) is identical for any pool
/// size. Shard membership is refreshed by Rebuild(), which the engine
/// calls once per window after the committing thread has advanced the
/// fleet; between Rebuilds the worker->shard map is immutable and may be
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

  /// Reassigns every worker to the shard of its current anchor tile and
  /// records each shard's minimum member anchor time (the displacement
  /// bound's baseline). Single-writer only; must not run concurrently
  /// with anything that reads the assignment (planning phases that call
  /// ShardOf / workers_in / MaxDisplacementKm).
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

  /// Euclidean distance (km) from `p` to shard `s`'s tile rectangle
  /// (0 when inside). The rectangle covers every region cell of the tile,
  /// so every member anchor recorded by the last Rebuild lies within it.
  double TileDistanceKm(int s, const Point& p) const;

  /// Upper bound (km) on how far any member of shard `s` can sit from its
  /// last-Rebuild anchor once the fleet is advanced to `now`: a worker
  /// moves at most v_max * (now - anchor_time), and anchor times only
  /// grow after the Rebuild snapshot. Empty shards bound 0.
  double MaxDisplacementKm(int s, double now) const;

  // ---- Cross-window readiness (the pipelined engine's dependency graph).
  //
  // Each shard carries the epoch of the last dispatch window whose commit
  // stage can no longer touch it. The commit stage marks shards as their
  // last dependent proposal applies (and every shard when the window is
  // fully committed); the planning stage of a later window blocks in
  // WaitCommitted before advancing a shard's workers — so a window's
  // per-shard ADVANCE starts as soon as the previous window released that
  // shard, not when it finished globally. Epochs start at 0, so waiting
  // on epoch 0 is always satisfied (the non-pipelined OnBatch path relies
  // on that).

  /// Blocks until shard `s` has been released by window `epoch`'s commit
  /// stage (no-op when already released or epoch == 0).
  void WaitCommitted(int s, std::uint64_t epoch) const;
  /// Marks shard `s` as released by window `epoch`. Monotone: a smaller
  /// epoch than the current mark is ignored.
  void MarkCommitted(int s, std::uint64_t epoch);
  /// Marks every shard released by window `epoch` (end of a commit stage).
  void MarkAllCommitted(std::uint64_t epoch);
  /// Last epoch shard `s` was released by (locked read; for tests).
  std::uint64_t CommittedEpoch(int s) const;

  /// Hooks the per-shard commit-lock wait blind spot: WaitCommitted calls
  /// that actually block record their wall wait on the
  /// shards.commit_wait_ms histogram and bump shards.commit_blocking_waits.
  /// Instruments are owned by `reg`, which must outlive this object's last
  /// WaitCommitted. No-op when reg is null or disabled.
  void RegisterMetrics(obs::Registry* reg);

  /// Arms the kShardLockHold fault site: MarkCommitted may hold the epoch
  /// mutex for a seeded delay before releasing a shard — stretching
  /// exactly the cross-window dependency edge the pipelined engine waits
  /// on. Timing-only; the release order is unchanged.
  void set_faults(FaultInjector* faults) { faults_ = faults; }

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
  /// Tile rectangles in km ({min, max} per shard), fixed at construction.
  std::vector<Point> tile_min_;
  std::vector<Point> tile_max_;
  /// Minimum member anchor time at the last Rebuild (kInf when empty).
  std::vector<double> min_anchor_time_;
  std::unique_ptr<std::mutex[]> mutexes_;

  // Epoch tracker state: one mark per shard behind a single mutex — marks
  // and waits happen at most a few times per shard per window, far off
  // the per-candidate hot path, so striping would buy nothing.
  mutable std::mutex epoch_mu_;
  mutable std::condition_variable epoch_cv_;
  std::vector<std::uint64_t> committed_epoch_;

  // Borrowed instruments (null until RegisterMetrics); WaitCommitted is
  // const, so it observes through the pointers without mutating them.
  obs::Histogram* commit_wait_hist_ = nullptr;
  obs::Counter* commit_blocking_waits_ = nullptr;
  FaultInjector* faults_ = nullptr;
};

}  // namespace urpsm

#endif  // URPSM_SRC_PARALLEL_FLEET_SHARDS_H_
