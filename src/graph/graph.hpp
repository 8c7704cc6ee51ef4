// Undirected graph over hovering locations (unit-weight edges = one UAV-to-
// UAV wireless hop).  Compact adjacency-list representation with builders.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "geometry/grid.hpp"

namespace uavcov {

/// Node index type shared across graph algorithms.  Deliberately an
/// untyped int32: graph/ is generic infrastructure reused over several
/// node universes (grid cells, deployment indices, test graphs), so the
/// strong typing lives at the boundary — `to_node`/`to_cell` below convert
/// explicitly for the hovering-location graph, where node i *is* cell i.
using NodeId = std::int32_t;

/// Location-graph boundary: CellId <-> NodeId (identity mapping).
inline NodeId to_node(CellId cell) { return cell.value(); }
inline CellId to_cell(NodeId node) { return CellId{node}; }

/// Immutable undirected graph in CSR (compressed sparse row) layout.
class Graph {
 public:
  Graph() = default;

  /// Build from an edge list over nodes [0, node_count).  Parallel edges and
  /// self-loops are rejected (the hovering-location graph has neither).
  static Graph from_edges(NodeId node_count,
                          const std::vector<std::pair<NodeId, NodeId>>& edges);

  NodeId node_count() const { return static_cast<NodeId>(offsets_.size()) - 1; }
  std::int64_t edge_count() const {
    return static_cast<std::int64_t>(targets_.size()) / 2;
  }

  /// Neighbors of `u` as a contiguous span (sorted ascending).
  std::span<const NodeId> neighbors(NodeId u) const {
    UAVCOV_DCHECK(u >= 0 && u < node_count());
    const auto lo =
        static_cast<std::size_t>(offsets_[static_cast<std::size_t>(u)]);
    const auto hi =
        static_cast<std::size_t>(offsets_[static_cast<std::size_t>(u) + 1]);
    return {targets_.data() + lo, hi - lo};
  }

  NodeId degree(NodeId u) const {
    return static_cast<NodeId>(neighbors(u).size());
  }

  /// True if edge (u, v) exists.  O(log degree(u)).
  bool has_edge(NodeId u, NodeId v) const;

 private:
  std::vector<std::int64_t> offsets_{0};
  std::vector<NodeId> targets_;
};

/// Builds the hovering-location connectivity graph: nodes are grid centers,
/// edge (i, j) iff Euclidean distance <= range (paper: R_uav).
Graph build_location_graph(const Grid& grid, double range);

}  // namespace uavcov
