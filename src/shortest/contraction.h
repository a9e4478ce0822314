#ifndef URPSM_SRC_SHORTEST_CONTRACTION_H_
#define URPSM_SRC_SHORTEST_CONTRACTION_H_

#include <cstdint>
#include <vector>

#include "src/graph/road_network.h"
#include "src/shortest/oracle.h"

namespace urpsm {

/// Contraction rank of every vertex: rank[v] is the step at which the lazy
/// edge-difference contraction loop contracts v, so a high rank means
/// "contracted late" = structurally important (a hub). Shares the exact
/// contraction sequence with ContractionHierarchy::Build; HubLabelOracle
/// builds its labels from roots in descending rank order.
std::vector<int> ContractionOrder(const RoadNetwork& graph);

/// Contraction Hierarchies (Geisberger et al.) distance/path oracle.
///
/// Second high-performance oracle besides HubLabelOracle: the same family
/// of road-network speedup techniques the paper's hub-based labeling [9]
/// descends from. Vertices are contracted in ascending importance (lazy
/// edge-difference heuristic); witness searches keep the shortcut count
/// low; queries run a bidirectional Dijkstra restricted to upward edges.
/// Path queries unpack shortcuts recursively into original vertices.
class ContractionHierarchy : public DistanceOracle {
 public:
  /// Preprocesses `graph`. O(E log V)-ish on road-like graphs.
  static ContractionHierarchy Build(const RoadNetwork& graph);

  double Distance(VertexId u, VertexId v) override;
  std::vector<VertexId> Path(VertexId u, VertexId v) override;

  std::int64_t num_shortcuts() const { return num_shortcuts_; }
  std::int64_t MemoryBytes() const;

 private:
  struct UpArc {
    VertexId to = kInvalidVertex;
    double cost = 0.0;
    VertexId middle = kInvalidVertex;  // contracted vertex, -1 if original
  };

  ContractionHierarchy() = default;

  /// Distance + meeting vertex for path reconstruction; meeting is
  /// kInvalidVertex when unreachable.
  double Query(VertexId s, VertexId t, VertexId* meeting,
               std::vector<VertexId>* parent_f,
               std::vector<VertexId>* parent_b) const;

  void UnpackArc(VertexId from, VertexId to, std::vector<VertexId>* out) const;

  /// Cost and middle vertex of the up-arc from `from` to `to`.
  const UpArc* FindUpArc(VertexId from, VertexId to) const;

  std::vector<std::vector<UpArc>> up_;  // upward adjacency per vertex
  std::vector<int> rank_;
  std::int64_t num_shortcuts_ = 0;
};

}  // namespace urpsm

#endif  // URPSM_SRC_SHORTEST_CONTRACTION_H_
