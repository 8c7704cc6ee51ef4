#include "flow/dinic.hpp"

#include <algorithm>

namespace uavcov {

void DinicFlow::reserve(std::int32_t nodes, std::int64_t edges) {
  head_.reserve(static_cast<std::size_t>(nodes));
  const auto directed = static_cast<std::size_t>(edges) * 2;
  next_.reserve(directed);
  to_.reserve(directed);
  cap_.reserve(directed);
  initial_cap_.reserve(directed);
  journal_epoch_.reserve(directed);
}

DinicFlow::FlowNode DinicFlow::add_node() {
  head_.push_back(-1);
  return static_cast<FlowNode>(head_.size()) - 1;
}

DinicFlow::EdgeId DinicFlow::add_edge(FlowNode u, FlowNode v,
                                      std::int64_t cap) {
  UAVCOV_CHECK_MSG(u >= 0 && u < node_count() && v >= 0 && v < node_count(),
                   "flow edge endpoint out of range");
  UAVCOV_CHECK_MSG(cap >= 0, "flow capacity must be nonnegative");
  const auto push_half = [this](FlowNode from, FlowNode to, std::int64_t c) {
    const EdgeId e = static_cast<EdgeId>(to_.size());
    to_.push_back(to);
    cap_.push_back(c);
    initial_cap_.push_back(c);
    next_.push_back(head_[static_cast<std::size_t>(from)]);
    head_[static_cast<std::size_t>(from)] = e;
    journal_epoch_.push_back(-1);
    return e;
  };
  const EdgeId forward = push_half(u, v, cap);
  push_half(v, u, 0);
  return forward;
}

void DinicFlow::journal_touch(EdgeId e) {
  if (active_checkpoints_ == 0) return;
  auto& stamp = journal_epoch_[static_cast<std::size_t>(e)];
  if (stamp == epoch_) return;
  stamp = epoch_;
  journal_.emplace_back(e, cap_[static_cast<std::size_t>(e)]);
}

void DinicFlow::push(EdgeId e, std::int64_t units) {
  UAVCOV_DCHECK(e >= 0 && e < edge_count());
  UAVCOV_DCHECK(units <= cap_[static_cast<std::size_t>(e)]);
  journal_touch(e);
  journal_touch(e ^ 1);
  cap_[static_cast<std::size_t>(e)] -= units;
  cap_[static_cast<std::size_t>(e ^ 1)] += units;
}

// Labels nodes with their residual distance *to* t, walking edges into each
// labelled node backward.  Stops the moment s is labelled: every node
// closer to t than s already is, and no shortest s→t path needs the rest.
bool DinicFlow::level_backward(FlowNode s, FlowNode t, FlowNode closed) {
  if (level_.size() < head_.size()) {
    level_.resize(head_.size(), -1);
    iter_.resize(head_.size(), -1);
  }
  queue_.clear();
  const auto label = [this](FlowNode v, std::int32_t level) {
    level_[static_cast<std::size_t>(v)] = level;
    iter_[static_cast<std::size_t>(v)] = head_[static_cast<std::size_t>(v)];
    queue_.push_back(v);
  };
  label(t, 0);
  for (std::size_t qi = 0; qi < queue_.size(); ++qi) {
    const FlowNode v = queue_[qi];
    const std::int32_t next = level_[static_cast<std::size_t>(v)] + 1;
    for (EdgeId e = head_[static_cast<std::size_t>(v)]; e != -1;
         e = next_[static_cast<std::size_t>(e)]) {
      // e runs v → u, so its twin e ^ 1 is the residual edge u → v.
      const FlowNode u = to_[static_cast<std::size_t>(e)];
      if (cap_[static_cast<std::size_t>(e ^ 1)] <= 0 ||
          level_[static_cast<std::size_t>(u)] != -1 || u == closed) {
        continue;
      }
      label(u, next);
      if (u == s) return true;
    }
  }
  return false;
}

std::int64_t DinicFlow::push_path(FlowNode u, FlowNode t, std::int64_t limit) {
  if (u == t) return limit;
  const std::int32_t closer = level_[static_cast<std::size_t>(u)] - 1;
  for (EdgeId& e = iter_[static_cast<std::size_t>(u)]; e != -1;
       e = next_[static_cast<std::size_t>(e)]) {
    const FlowNode v = to_[static_cast<std::size_t>(e)];
    if (cap_[static_cast<std::size_t>(e)] <= 0 ||
        level_[static_cast<std::size_t>(v)] != closer) {
      continue;
    }
    const std::int64_t pushed = push_path(
        v, t, std::min(limit, cap_[static_cast<std::size_t>(e)]));
    if (pushed > 0) {
      push(e, pushed);
      return pushed;
    }
  }
  return 0;
}

std::int64_t DinicFlow::augment(FlowNode s, FlowNode t, std::int64_t limit,
                                FlowNode closed) {
  UAVCOV_CHECK_MSG(s >= 0 && s < node_count() && t >= 0 && t < node_count(),
                   "source/sink out of range");
  UAVCOV_CHECK_MSG(s != t, "source and sink must differ");
  UAVCOV_CHECK_MSG(closed != s && closed != t,
                   "closed node must not be an endpoint");
  UAVCOV_CHECK_MSG(limit >= 0, "augment limit must be nonnegative");
  std::int64_t total = 0;
  for (bool reachable = true; reachable && total < limit;) {
    reachable = level_backward(s, t, closed);
    for (std::int64_t pushed = 1; reachable && pushed > 0 && total < limit;) {
      pushed = push_path(s, t, limit - total);
      total += pushed;
    }
    for (const FlowNode v : queue_) level_[static_cast<std::size_t>(v)] = -1;
  }
  return total;
}

DinicFlow::Checkpoint DinicFlow::checkpoint() {
  ++active_checkpoints_;
  ++epoch_;
  return Checkpoint{node_count(), edge_count(), journal_.size()};
}

void DinicFlow::rollback(const Checkpoint& cp) {
  UAVCOV_CHECK_MSG(active_checkpoints_ > 0, "rollback without checkpoint");
  UAVCOV_CHECK_MSG(cp.node_count <= node_count() &&
                       cp.edge_count <= edge_count() &&
                       cp.journal_size <= journal_.size(),
                   "stale or out-of-order checkpoint");
  // Undo residual-capacity changes newest-first so repeated touches of one
  // edge across epochs resolve to the oldest recorded value.
  while (journal_.size() > cp.journal_size) {
    const auto [e, old_cap] = journal_.back();
    journal_.pop_back();
    cap_[static_cast<std::size_t>(e)] = old_cap;
  }
  // Drop edges added after the checkpoint.  Edges come in (forward,
  // backward) pairs and prepend to their owners' adjacency lists, so the
  // head pointers unwind by walking the removed pairs newest-first
  // (backward twin before forward within each pair).
  UAVCOV_DCHECK(cp.edge_count % 2 == 0 && edge_count() % 2 == 0);
  for (EdgeId fe = edge_count() - 2; fe >= cp.edge_count; fe -= 2) {
    const FlowNode fwd_owner = to_[static_cast<std::size_t>(fe) + 1];
    const FlowNode bwd_owner = to_[static_cast<std::size_t>(fe)];
    UAVCOV_DCHECK(head_[static_cast<std::size_t>(bwd_owner)] == fe + 1);
    head_[static_cast<std::size_t>(bwd_owner)] =
        next_[static_cast<std::size_t>(fe) + 1];
    UAVCOV_DCHECK(head_[static_cast<std::size_t>(fwd_owner)] == fe);
    head_[static_cast<std::size_t>(fwd_owner)] =
        next_[static_cast<std::size_t>(fe)];
    for (int twice = 0; twice < 2; ++twice) {
      to_.pop_back();
      cap_.pop_back();
      initial_cap_.pop_back();
      next_.pop_back();
      journal_epoch_.pop_back();
    }
  }
  head_.resize(static_cast<std::size_t>(cp.node_count));
  --active_checkpoints_;
  ++epoch_;  // invalidate journal stamps from the rolled-back region
}

}  // namespace uavcov
