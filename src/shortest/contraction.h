#ifndef URPSM_SRC_SHORTEST_CONTRACTION_H_
#define URPSM_SRC_SHORTEST_CONTRACTION_H_

#include <vector>

#include "src/graph/road_network.h"

namespace urpsm {

/// Contraction rank of every vertex: rank[v] is the step at which the
/// Contraction Hierarchies preprocessing of Geisberger et al. (WEA 2008)
/// contracts v, so a high rank means "contracted late" = structurally
/// important (a hub). HubLabelOracle builds its labels from roots in
/// descending rank order.
///
/// Vertices are contracted in ascending lazy edge-difference priority
/// (shortcuts added - degree + 2 * contracted neighbours), ties by vertex
/// id. Shortcuts are found with one bounded one-to-many witness search per
/// neighbour over flat arrays; a truncated search only adds shortcuts, so
/// it changes the order, never a distance. The result is a pure function
/// of the graph: the same graph always yields the same ranks.
std::vector<int> ContractionOrder(const RoadNetwork& graph);

}  // namespace urpsm

#endif  // URPSM_SRC_SHORTEST_CONTRACTION_H_
