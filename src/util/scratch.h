#ifndef URPSM_SRC_UTIL_SCRATCH_H_
#define URPSM_SRC_UTIL_SCRATCH_H_

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <vector>

namespace urpsm {

/// Shrink-past-high-water policy for reusable scratch buffers.
///
/// Hot-path scratch vectors (thread_local planner columns, the window
/// workspace) are recycled across uses so steady state allocates nothing —
/// but a single giant window would otherwise pin their capacity at the
/// largest size ever seen for the rest of the run. A HighWaterClamp sits
/// next to each such buffer: Observe() records the size of every use, and
/// once per `period` uses it reallocates the buffer down to the recent
/// high-water mark if the retained capacity overshoots it by more than 2x.
/// Peak residency then tracks ~2x the *recent* working set instead of the
/// all-time maximum, while the common case (stable window sizes) never
/// touches the allocator.
class HighWaterClamp {
 public:
  explicit HighWaterClamp(std::size_t min_keep = 64, int period = 64)
      : min_keep_(min_keep), period_(period) {}

  /// Records one use of `v` (measured at its current size, i.e. call after
  /// the buffer is filled) and periodically trims excess capacity.
  template <typename T>
  void Observe(std::vector<T>* v) {
    high_water_ = std::max(high_water_, v->size());
    if (++uses_ < period_) return;
    if (v->capacity() > min_keep_ && v->capacity() > 2 * high_water_) {
      std::vector<T> trimmed;
      trimmed.reserve(std::max(min_keep_, high_water_));
      trimmed.assign(std::make_move_iterator(v->begin()),
                     std::make_move_iterator(v->end()));
      v->swap(trimmed);
    }
    uses_ = 0;
    high_water_ = v->size();
  }

  std::size_t high_water() const { return high_water_; }

 private:
  std::size_t min_keep_;
  int period_;
  int uses_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace urpsm

#endif  // URPSM_SRC_UTIL_SCRATCH_H_
