#ifndef URPSM_SRC_SHORTEST_HUB_LABELS_H_
#define URPSM_SRC_SHORTEST_HUB_LABELS_H_

#include <cstdint>
#include <vector>

#include "src/graph/road_network.h"
#include "src/shortest/oracle.h"

namespace urpsm {

/// Two-hop hub labeling built with pruned landmark labeling (PLL).
///
/// Stand-in for the hub-based labeling algorithm of Abraham et al. [9] that
/// the paper uses for on-the-fly shortest distance and path queries
/// (Sec. 6.1). The label of a vertex v is a sorted list of (hub, distance)
/// pairs; dis(u, v) = min over common hubs h of d(u,h) + d(h,v). Like the
/// labels of [9], the pruned Dijkstras run from roots in contraction order:
/// descending Contraction Hierarchies rank (ContractionOrder), so the
/// vertices contracted last — the structurally important ones — become
/// hubs first, which keeps labels small on road-like planar graphs. The
/// order only sizes the labels: PLL is exact for any root order, and
/// distances are stored exactly (doubles).
///
/// Labels are stored in CSR layout: one contiguous hub-rank array and one
/// contiguous hub-distance array (structure of arrays), plus per-vertex
/// offsets. A query scatters the shorter label into a rank-indexed dense
/// column and scans the longer one — no per-vertex vector indirection, no
/// padding (12 bytes per label entry).
class HubLabelOracle : public DistanceOracle {
 public:
  /// Builds labels for `graph`: one contraction pass for the root order,
  /// then the pruned searches. O(sum label sizes * log) after the
  /// contraction pass. On the NYC-like cities the whole build takes about
  /// 1 s at 10,000 vertices and 20 s at 100,000, where the pruned searches
  /// are the larger share.
  static HubLabelOracle Build(const RoadNetwork& graph);

  double Distance(VertexId u, VertexId v) override;

  /// Multi-source sweep: each target label is scattered into its own
  /// rank-indexed dense column once, then each source label is walked once
  /// against all target columns — O(sum(label(s)) * |targets| +
  /// sum(label(t))) instead of per-pair scatter/restore. Every cell is
  /// bit-identical to the corresponding Distance call (min over the same
  /// candidate sums); bills sources x targets queries.
  void BatchQuery(const std::vector<VertexId>& sources,
                  const std::vector<VertexId>& targets,
                  std::vector<double>* out) override;

  /// Path queries fall back to Dijkstra on the underlying graph (the paper
  /// issues far fewer path queries than distance queries; the planner only
  /// needs paths when materializing final routes).
  std::vector<VertexId> Path(VertexId u, VertexId v) override;

  /// Average number of (hub, distance) pairs per vertex label.
  double average_label_size() const;

  /// Total memory consumed by the labels, in bytes. Exact: the build sizes
  /// each CSR array once, and this sums size() * element width.
  std::int64_t MemoryBytes() const;

 private:
  explicit HubLabelOracle(const RoadNetwork* graph) : graph_(graph) {}

  double QueryByLabels(VertexId u, VertexId v) const;

  /// Scatters vertex v's label distances into the rank-indexed column
  /// `col` at `stride` doubles per rank; RestoreColumn undoes it. Stride 1
  /// serves the point query's dense column; the batched sweep interleaves
  /// its per-target columns rank-major (stride = number of targets) so one
  /// cache line holds every target's entry for a rank.
  void ScatterLabel(VertexId v, double* col, std::size_t stride) const;
  void RestoreColumn(VertexId v, double* col, std::size_t stride) const;

  const RoadNetwork* graph_;
  // CSR label storage: vertex v's label occupies [offsets_[v], offsets_[v+1])
  // in hub_rank_ and hub_dist_, sorted by hub rank ascending (ranks are
  // positions in the build order, so lists are sorted by construction).
  std::vector<std::int64_t> offsets_;
  std::vector<VertexId> hub_rank_;
  std::vector<double> hub_dist_;
};

}  // namespace urpsm

#endif  // URPSM_SRC_SHORTEST_HUB_LABELS_H_
