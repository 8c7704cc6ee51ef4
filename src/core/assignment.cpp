#include "core/assignment.hpp"

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace uavcov {

namespace {

/// Flow-substrate metrics (docs/OBSERVABILITY.md).  `probes` is the
/// counter tests/obs_test.cpp cross-checks against ApproAlgStats::probes:
/// IncrementalAssignment::probe() is its only increment site, so the two
/// counts must agree exactly.
struct AssignmentMetrics {
  obs::Counter builds = obs::counter("core.assignment.builds");
  obs::Counter probes = obs::counter("core.assignment.probes");
  obs::Counter deploys = obs::counter("core.assignment.deploys");
  obs::Counter solves = obs::counter("core.assignment.solves");
  obs::Histogram probe_seconds =
      obs::histogram("core.assignment.probe_seconds");
  obs::Histogram solve_seconds =
      obs::histogram("core.assignment.solve_seconds");
};

const AssignmentMetrics& assignment_metrics() {
  static const AssignmentMetrics metrics;
  return metrics;
}

}  // namespace

AssignmentResult solve_assignment(const Scenario& scenario,
                                  const CoverageModel& coverage,
                                  std::span<const Deployment> deployments) {
  assignment_metrics().solves.inc();
  const obs::ScopedTimer timer(assignment_metrics().solve_seconds);
  DinicFlow flow;
  const std::int32_t n = scenario.user_count();
  flow.reserve(n + static_cast<std::int32_t>(deployments.size()) + 2,
               /*edges=*/n * 4);
  const auto source = flow.add_node();
  const auto sink = flow.add_node();
  IdVector<UserTag, DinicFlow::FlowNode> user_node(
      static_cast<std::size_t>(n));
  for (const UserId i : scenario.user_ids()) {
    user_node[i] = flow.add_node();
    flow.add_edge(source, user_node[i], 1);
  }
  // Remember (edge id → deployment index) for each user→UAV edge so the
  // integral flow can be read back as an assignment.
  IdVector<UserTag, std::vector<std::pair<DinicFlow::EdgeId, std::int32_t>>>
      edges_by_user(static_cast<std::size_t>(n));
  for (std::size_t d = 0; d < deployments.size(); ++d) {
    const Deployment& dep = deployments[d];
    const auto uav_node = flow.add_node();
    const std::int32_t cls = coverage.radio_class_of(dep.uav);
    for (const UserId u : coverage.eligible_users(dep.loc, cls)) {
      const auto e = flow.add_edge(user_node[u], uav_node, 1);
      edges_by_user[u].emplace_back(e, static_cast<std::int32_t>(d));
    }
    flow.add_edge(uav_node, sink,
                  coverage.flat().uav_capacity()[dep.uav.index()]);
  }

  AssignmentResult result;
  result.served = flow.augment(source, sink);
  result.user_to_deployment.assign(static_cast<std::size_t>(n), -1);
  for (const UserId u : scenario.user_ids()) {
    for (const auto& [e, d] : edges_by_user[u]) {
      if (flow.edge_flow(e) == 1) {
        result.user_to_deployment[u] = d;
        break;
      }
    }
  }
  return result;
}

IncrementalAssignment::IncrementalAssignment(const Scenario& scenario,
                                             const CoverageModel& coverage)
    : scenario_(scenario), coverage_(coverage) {
  assignment_metrics().builds.inc();
  const std::int32_t n = scenario.user_count();
  flow_.reserve(n + scenario.uav_count() + 2, n * 4);
  source_ = flow_.add_node();
  sink_ = flow_.add_node();
  user_node_.resize(static_cast<std::size_t>(n));
  source_edge_.resize(static_cast<std::size_t>(n));
  for (const UserId i : scenario.user_ids()) {
    user_node_[i] = flow_.add_node();
    source_edge_[i] = flow_.add_edge(source_, user_node_[i], 1);
  }
}

std::int64_t IncrementalAssignment::add_uav_and_augment(UavId k,
                                                        LocationId loc) {
  const std::int64_t cap = coverage_.flat().uav_capacity()[k.index()];
  const auto uav_node = flow_.add_node();
  std::int64_t direct = 0;
  for (const UserId u :
       coverage_.eligible_users(loc, coverage_.radio_class_of(k))) {
    const auto e = flow_.add_edge(user_node_[u], uav_node, 1);
    if (direct < cap && is_free(u)) {
      flow_.push(source_edge_[u], 1);
      flow_.push(e, 1);
      ++direct;
    }
  }
  // The flow into t is already maximum, so every reroute ends at x and no
  // augmenting path crosses t.
  const std::int64_t gain =
      direct + flow_.augment(source_, uav_node, cap - direct, sink_);
  flow_.push(flow_.add_edge(uav_node, sink_, cap), gain);
  return gain;
}

std::int64_t IncrementalAssignment::probe(UavId k, LocationId loc) {
  assignment_metrics().probes.inc();
  const obs::ScopedTimer timer(assignment_metrics().probe_seconds);
  const std::int64_t cap = coverage_.flat().uav_capacity()[k.index()];
  std::int64_t free = 0;
  for (const UserId u :
       coverage_.eligible_users(loc, coverage_.radio_class_of(k))) {
    if (is_free(u) && ++free == cap) return cap;
  }
  const auto cp = flow_.checkpoint();
  const std::int64_t gain = add_uav_and_augment(k, loc);
  flow_.rollback(cp);
  return gain;
}

std::int64_t IncrementalAssignment::deploy(UavId k, LocationId loc) {
  assignment_metrics().deploys.inc();
  const std::int64_t gain = add_uav_and_augment(k, loc);
  deployments_.push_back({k, loc});
  served_ += gain;
  return gain;
}

IncrementalAssignment::Scope IncrementalAssignment::begin_scope() {
  return Scope{flow_.checkpoint(), deployments_.size(), served_};
}

void IncrementalAssignment::end_scope(const Scope& scope) {
  flow_.rollback(scope.checkpoint);
  UAVCOV_CHECK_MSG(deployments_.size() >= scope.deployment_count,
                   "scope misuse: deployments shrank");
  deployments_.resize(scope.deployment_count);
  served_ = scope.served;
}

}  // namespace uavcov
