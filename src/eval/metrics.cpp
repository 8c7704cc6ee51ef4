#include "eval/metrics.hpp"

#include <algorithm>
#include <limits>

#include "channel/link_budget.hpp"
#include "common/check.hpp"
#include "core/planner.hpp"
#include "graph/articulation.hpp"

namespace uavcov::eval {

double jain_fairness(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0, sum_sq = 0.0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0.0) return 1.0;  // all-zero loads are "fair"
  return (sum * sum) / (static_cast<double>(values.size()) * sum_sq);
}

SolutionMetrics compute_metrics(const Scenario& scenario,
                                const CoverageModel& coverage,
                                const Solution& solution) {
  validate_solution(scenario, coverage, solution);
  SolutionMetrics metrics;
  metrics.served = solution.served;
  metrics.deployed_uavs =
      static_cast<std::int32_t>(solution.deployments.size());
  metrics.coverage_fraction =
      scenario.user_count() > 0
          ? static_cast<double>(solution.served) / scenario.user_count()
          : 0.0;

  // Per-deployment loads and capacity utilization.
  std::vector<std::int64_t> load(solution.deployments.size(), 0);
  for (std::int32_t d : solution.user_to_deployment) {
    if (d >= 0) ++load[static_cast<std::size_t>(d)];
  }
  std::int64_t deployed_capacity = 0;
  std::vector<double> load_ratio;
  for (std::size_t d = 0; d < solution.deployments.size(); ++d) {
    const auto cap = scenario.fleet[solution.deployments[d].uav].capacity;
    deployed_capacity += cap;
    load_ratio.push_back(static_cast<double>(load[d]) /
                         static_cast<double>(cap));
    if (load[d] == 0) ++metrics.relay_only_uavs;
  }
  metrics.capacity_utilization =
      deployed_capacity > 0
          ? static_cast<double>(solution.served) /
                static_cast<double>(deployed_capacity)
          : 0.0;
  metrics.load_fairness = jain_fairness(load_ratio);

  // Achievable rates of served users.
  double rate_sum = 0.0;
  double rate_min = std::numeric_limits<double>::infinity();
  std::int64_t served_count = 0;
  for (const UserId u : scenario.user_ids()) {
    const std::int32_t d = solution.user_to_deployment[u];
    if (d < 0) continue;
    const Deployment& dep =
        solution.deployments[static_cast<std::size_t>(d)];
    const UavSpec& spec = scenario.fleet[dep.uav];
    const double rate = a2g_rate_bps(
        scenario.channel, spec.radio, scenario.receiver,
        distance(scenario.users[u].pos, scenario.grid.center(dep.loc)),
        scenario.altitude_m);
    rate_sum += rate;
    rate_min = std::min(rate_min, rate);
    ++served_count;
  }
  metrics.mean_user_rate_bps =
      served_count > 0 ? rate_sum / static_cast<double>(served_count) : 0.0;
  metrics.min_user_rate_bps = served_count > 0 ? rate_min : 0.0;

  // Critical UAVs: articulation points of the deployment-range graph.
  const auto q = static_cast<NodeId>(solution.deployments.size());
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i < q; ++i) {
    for (NodeId j = i + 1; j < q; ++j) {
      if (planner::linked(
              scenario, solution.deployments[static_cast<std::size_t>(i)].loc,
              solution.deployments[static_cast<std::size_t>(j)].loc)) {
        edges.emplace_back(i, j);
      }
    }
  }
  const Graph network = Graph::from_edges(q, edges);
  for (NodeId cut : articulation_points(network)) {
    metrics.critical_uavs.push_back(
        solution.deployments[static_cast<std::size_t>(cut)].uav);
  }
  return metrics;
}

}  // namespace uavcov::eval
