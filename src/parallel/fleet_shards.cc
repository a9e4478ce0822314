#include "src/parallel/fleet_shards.h"

#include <algorithm>
#include <cmath>

namespace urpsm {

namespace {

/// Largest divisor of `n` that is <= sqrt(n) — the tile grid is as close
/// to square as the shard count allows (16 -> 4x4, 8 -> 2x4, 7 -> 1x7).
int SquarestDivisor(int n) {
  int best = 1;
  for (int d = 1; d * d <= n; ++d) {
    if (n % d == 0) best = d;
  }
  return best;
}

}  // namespace

FleetShards::FleetShards(const Fleet* fleet, Point lo, Point hi,
                         double region_km, int num_shards)
    : fleet_(fleet),
      lo_(lo),
      region_km_(region_km > 0.0 ? region_km : 1.0),
      num_shards_(std::max(1, num_shards)) {
  cells_x_ = std::max(1, static_cast<int>(std::ceil((hi.x - lo.x) /
                                                    region_km_)));
  cells_y_ = std::max(1, static_cast<int>(std::ceil((hi.y - lo.y) /
                                                    region_km_)));
  // Orient the tile grid along the longer cell axis so tiles stay as
  // square as the region grid allows.
  const int d = SquarestDivisor(num_shards_);
  if (cells_x_ >= cells_y_) {
    tiles_x_ = num_shards_ / d;
    tiles_y_ = d;
  } else {
    tiles_x_ = d;
    tiles_y_ = num_shards_ / d;
  }
  shard_of_.assign(static_cast<std::size_t>(fleet_->size()), 0);
  members_.resize(static_cast<std::size_t>(num_shards_));
  mutexes_ = std::make_unique<std::mutex[]>(
      static_cast<std::size_t>(num_shards_));
  Rebuild();
}

int FleetShards::ShardOfPoint(const Point& p) const {
  const int cx = std::clamp(
      static_cast<int>(std::floor((p.x - lo_.x) / region_km_)), 0,
      cells_x_ - 1);
  const int cy = std::clamp(
      static_cast<int>(std::floor((p.y - lo_.y) / region_km_)), 0,
      cells_y_ - 1);
  const int tcx = std::min(tiles_x_ - 1, cx * tiles_x_ / cells_x_);
  const int tcy = std::min(tiles_y_ - 1, cy * tiles_y_ / cells_y_);
  return tcy * tiles_x_ + tcx;
}

void FleetShards::Rebuild() {
  for (std::vector<WorkerId>& m : members_) m.clear();
  for (WorkerId w = 0; w < fleet_->size(); ++w) {
    const int s = ShardOfPoint(fleet_->anchor_point(w));
    shard_of_[static_cast<std::size_t>(w)] = s;
    members_[static_cast<std::size_t>(s)].push_back(w);
  }
}

}  // namespace urpsm
