#ifndef URPSM_SRC_ALGOS_BATCH_H_
#define URPSM_SRC_ALGOS_BATCH_H_

#include <memory>
#include <string_view>
#include <vector>

#include "src/core/planner.h"
#include "src/index/grid_index.h"

namespace urpsm {

/// Batch baseline (Alonso-Mora et al., PNAS'17 [11], simplified).
///
/// Requests are buffered into fixed wall-clock batches (6 simulated
/// seconds, as in the paper's description). At each batch boundary the
/// buffered requests are grouped by pickup proximity (same grid cell,
/// bounded group size), groups are ordered by earliest deadline, and each
/// group is assigned to the single worker that can serve the most of its
/// members with the least total increased distance — members are inserted
/// greedily with linear DP insertion. Members that do not fit the chosen
/// worker are rejected, which is where batch loses served rate relative to
/// per-request greedy planning.
///
/// Two driving modes share the one FlushBatch implementation:
///  - per-request (OnRequest): the planner buffers internally and flushes
///    when a release crosses its own `batch_interval_min` boundary — the
///    legacy standalone behaviour;
///  - windowed (OnBatch): the simulation owns the windowing
///    (SimOptions::batch_window_s) and hands whole release windows over,
///    so the baseline rides the same windowed event loop as
///    GreedyDpPlanner::OnBatch and the two become directly comparable
///    under identical window semantics.
class BatchBaselinePlanner : public BatchPlanner {
 public:
  BatchBaselinePlanner(PlanningContext* ctx, Fleet* fleet,
                       PlannerConfig config, double batch_interval_min = 0.1,
                       int max_group_size = 3);

  WorkerId OnRequest(const Request& r) override;
  void OnBatch(const std::vector<RequestId>& batch, double now,
               WindowEpoch epoch) override;
  void Finalize(double budget_seconds) override;
  std::string_view name() const override { return "batch"; }
  std::int64_t index_memory_bytes() const override {
    return index_->MemoryBytes();
  }

 private:
  /// Plans the buffered batch at simulated time `now`. `budget_seconds`
  /// bounds the wall time spent: group planning stops once it is
  /// exhausted and the remaining members stay rejected (DNF). The
  /// in-simulation driving paths pass an unbounded budget — their time
  /// is accounted by the simulator's own per-request/per-window clock.
  void FlushBatch(double now, double budget_seconds = kInf);
  /// Greedy multi-insert evaluation: how many of `group` fit into worker
  /// `w`'s route (virtually), and at what total cost.
  struct GroupFit {
    int count = 0;
    double delta = 0.0;
  };
  GroupFit EvaluateGroup(WorkerId w, const std::vector<RequestId>& group,
                         double now, bool commit);

  PlanningContext* ctx_;
  Fleet* fleet_;
  PlannerConfig config_;
  double batch_interval_;
  int max_group_size_;
  std::unique_ptr<GridIndex> index_;
  std::vector<RequestId> buffer_;
  double batch_start_ = 0.0;
  bool batch_open_ = false;
};

PlannerFactory MakeBatchFactory(PlannerConfig config,
                                double batch_interval_min = 0.1,
                                int max_group_size = 3);

}  // namespace urpsm

#endif  // URPSM_SRC_ALGOS_BATCH_H_
