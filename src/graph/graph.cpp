#include "graph/graph.hpp"

#include <algorithm>

namespace uavcov {

Graph Graph::from_edges(NodeId node_count,
                        const std::vector<std::pair<NodeId, NodeId>>& edges) {
  UAVCOV_CHECK_MSG(node_count >= 0, "node count must be nonnegative");
  Graph g;
  g.offsets_.assign(static_cast<std::size_t>(node_count) + 1, 0);
  for (const auto& [u, v] : edges) {
    UAVCOV_CHECK_MSG(u >= 0 && u < node_count && v >= 0 && v < node_count,
                     "edge endpoint out of range");
    UAVCOV_CHECK_MSG(u != v, "self-loops are not allowed");
    ++g.offsets_[static_cast<std::size_t>(u) + 1];
    ++g.offsets_[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t i = 1; i < g.offsets_.size(); ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  g.targets_.resize(static_cast<std::size_t>(g.offsets_.back()));
  std::vector<std::int64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [u, v] : edges) {
    g.targets_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] = v;
    g.targets_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++)] = u;
  }
  for (NodeId u = 0; u < node_count; ++u) {
    auto nb = g.neighbors(u);
    std::sort(const_cast<NodeId*>(nb.data()),
              const_cast<NodeId*>(nb.data() + nb.size()));
    for (std::size_t i = 1; i < nb.size(); ++i) {
      UAVCOV_CHECK_MSG(nb[i] != nb[i - 1], "parallel edges are not allowed");
    }
  }
  return g;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

Graph build_location_graph(const Grid& grid, double range) {
  UAVCOV_CHECK_MSG(range > 0, "UAV communication range must be positive");
  std::vector<std::pair<NodeId, NodeId>> edges;
  const NodeId m = grid.size();
  for (NodeId u = 0; u < m; ++u) {
    for (const LocationId v :
         grid.centers_within(grid.center(to_cell(u)), range)) {
      if (to_node(v) <= u) continue;  // emit each undirected edge once
      edges.emplace_back(u, to_node(v));
    }
  }
  return Graph::from_edges(m, edges);
}

}  // namespace uavcov
