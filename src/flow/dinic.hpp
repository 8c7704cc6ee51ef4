// Dinic's maximum-flow algorithm with integral capacities and support for
// incremental probing.
//
// The optimal user→UAV assignment of §II-D is an integral max flow:
//   s → user (cap 1) → deployed UAV (cap 1 if eligible) → t (cap C_k).
// Algorithm 2's greedy placement needs the *marginal* gain of deploying one
// more UAV thousands of times; recomputing the whole flow each time would
// be ruinous.  Instead, callers take a checkpoint, add the candidate UAV's
// node x and edges, push what they can route directly (push()), find the
// rest with a bounded augment into x, read the gain, and roll back.
//
// augment() is the one search routine.  Each Dinic phase levels the
// network *backward* from the target over the reverse residual and stops
// as soon as the source is labelled, then pushes blocking paths forward
// from the source.  A phase therefore touches only the nodes within the
// source's distance of the target: for a probe, the saturated region
// behind x, not the whole network.  Rollback restores every touched
// residual capacity via a journal and truncates the added nodes/edges, so
// the structure is bit-identical to its checkpointed state.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace uavcov {

class DinicFlow {
 public:
  using FlowNode = std::int32_t;
  using EdgeId = std::int32_t;

  DinicFlow() = default;

  /// Pre-allocate for `nodes` nodes and `edges` directed edges.
  void reserve(std::int32_t nodes, std::int64_t edges);

  FlowNode add_node();
  std::int32_t node_count() const {
    return static_cast<std::int32_t>(head_.size());
  }

  /// Adds directed edge u→v with capacity `cap` (and its zero-capacity
  /// residual twin).  Returns the forward edge id.
  EdgeId add_edge(FlowNode u, FlowNode v, std::int64_t cap);

  std::int32_t edge_count() const {
    return static_cast<std::int32_t>(to_.size());
  }

  /// Current flow on forward edge `e` (initial capacity minus residual).
  std::int64_t edge_flow(EdgeId e) const {
    UAVCOV_DCHECK(e >= 0 && e < edge_count() && e % 2 == 0);
    return initial_cap_[static_cast<std::size_t>(e)] -
           cap_[static_cast<std::size_t>(e)];
  }

  // Read-only structural accessors for external invariant auditing
  // (src/analysis/audit.hpp): edges come in forward/residual pairs, the
  // forward edge is the even id and `e ^ 1` is its twin.

  /// Endpoints (u, v) of forward edge `e`; the residual twin runs v → u.
  std::pair<FlowNode, FlowNode> edge_endpoints(EdgeId e) const {
    UAVCOV_DCHECK(e >= 0 && e < edge_count() && e % 2 == 0);
    return {to_[static_cast<std::size_t>(e ^ 1)],
            to_[static_cast<std::size_t>(e)]};
  }

  /// Capacity edge `e` was created with (0 for residual twins).
  std::int64_t edge_capacity(EdgeId e) const {
    UAVCOV_DCHECK(e >= 0 && e < edge_count());
    return initial_cap_[static_cast<std::size_t>(e)];
  }

  /// Current residual capacity of edge `e` (forward or twin).
  std::int64_t edge_residual(EdgeId e) const {
    UAVCOV_DCHECK(e >= 0 && e < edge_count());
    return cap_[static_cast<std::size_t>(e)];
  }

  static constexpr FlowNode kNoNode = -1;
  static constexpr std::int64_t kUnbounded = std::int64_t{1} << 62;

  /// Pushes up to `limit` more units from `s` to `t` along residual paths;
  /// returns the amount added.  Calling on a fresh network with no limit
  /// computes the max flow; calling after edge additions augments
  /// incrementally.  No path passes through `closed`: a caller routing
  /// into an interior node passes the network's sink there, because no
  /// augmenting path can cross a sink whose inflow is already maximum.
  std::int64_t augment(FlowNode s, FlowNode t, std::int64_t limit = kUnbounded,
                       FlowNode closed = kNoNode);

  /// Moves `units` of flow along edge `e` (journaled like augment()).
  void push(EdgeId e, std::int64_t units);

  /// Opaque token capturing the full state (nodes, edges, residuals).
  struct Checkpoint {
    std::int32_t node_count = 0;
    std::int32_t edge_count = 0;
    std::size_t journal_size = 0;
  };

  /// Begin (or nest) a journaled region.  All residual-capacity changes and
  /// node/edge additions after this call are undone by rollback().
  Checkpoint checkpoint();

  /// Restore the state captured by `cp` (checkpoints must be rolled back
  /// in LIFO order).
  void rollback(const Checkpoint& cp);

 private:
  void journal_touch(EdgeId e);
  bool level_backward(FlowNode s, FlowNode t, FlowNode closed);
  std::int64_t push_path(FlowNode u, FlowNode t, std::int64_t limit);

  // Linked-list adjacency: head_[u] is the first edge id out of u, next_[e]
  // chains edges.  New edges prepend, which makes truncation-on-rollback a
  // simple pop.
  std::vector<EdgeId> head_;
  std::vector<EdgeId> next_;
  std::vector<FlowNode> to_;
  std::vector<std::int64_t> cap_;
  std::vector<std::int64_t> initial_cap_;

  // Journal of (edge, previous residual cap); only filled while at least
  // one checkpoint is active.
  std::vector<std::pair<EdgeId, std::int64_t>> journal_;
  std::vector<std::int32_t> journal_epoch_;  // last epoch an edge was journaled
  std::int32_t epoch_ = 0;
  std::int32_t active_checkpoints_ = 0;

  // Scratch for BFS/DFS (kept as members to avoid per-call allocation).
  // level_ is -1 except on the nodes queue_ labelled during a phase, which
  // augment() clears when the phase ends.
  std::vector<std::int32_t> level_;
  std::vector<EdgeId> iter_;
  std::vector<FlowNode> queue_;
};

}  // namespace uavcov
