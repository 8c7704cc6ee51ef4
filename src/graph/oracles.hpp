// Naive reference implementations ("oracles") used only by tests to
// cross-check the production graph algorithms on small random instances.
// Deliberately simple and obviously correct; never used on hot paths.
#pragma once  // lint:allow unused-header -- test oracle

#include <vector>

#include "graph/graph.hpp"
#include "graph/mst.hpp"

namespace uavcov::oracle {

/// Floyd–Warshall all-pairs hop distances (kUnreachable for disconnected).
std::vector<std::vector<std::int32_t>> all_pairs_hops(const Graph& g);

/// MST weight by trying every spanning tree on tiny graphs (n <= 8) via
/// edge-subset enumeration.  Returns +inf if disconnected.
double brute_force_mst_weight(NodeId node_count,
                              const std::vector<WeightedEdge>& edges);

/// Connectivity by DFS over an adjacency matrix.
bool brute_force_connected(NodeId node_count,
                           const std::vector<std::pair<NodeId, NodeId>>& edges);

}  // namespace uavcov::oracle
