#include "core/solution.hpp"

#include <set>
#include <string>

#include "common/check.hpp"
#include "common/fingerprint.hpp"
#include "core/planner.hpp"

namespace uavcov {

std::int64_t Solution::load_of(std::int32_t d) const {
  std::int64_t load = 0;
  for (std::int32_t assigned : user_to_deployment) {
    if (assigned == d) ++load;
  }
  return load;
}

std::uint64_t Solution::fingerprint() const {
  Fnv1a h;
  h.mix(static_cast<std::int64_t>(deployments.size()));
  for (const Deployment& d : deployments) h.mix(d.uav.value()).mix(d.loc.value());
  h.mix(static_cast<std::int64_t>(user_to_deployment.size()));
  for (const std::int32_t d : user_to_deployment) h.mix(d);
  h.mix(served);
  return h.digest();
}

bool deployments_connected(const Scenario& scenario,
                           const std::vector<Deployment>& deployments) {
  return planner::deployment_components(scenario, deployments).size() <= 1;
}

void validate_solution(const Scenario& scenario, const CoverageModel& coverage,
                       const Solution& solution) {
  const auto& deps = solution.deployments;
  UAVCOV_CHECK_MSG(
      static_cast<std::int32_t>(deps.size()) <= scenario.uav_count(),
      "more deployments than available UAVs");
  std::set<UavId> uavs;
  std::set<LocationId> locs;
  for (const Deployment& d : deps) {
    UAVCOV_CHECK_MSG(d.uav.valid() && d.uav.value() < scenario.uav_count(),
                     "deployment references unknown UAV");
    UAVCOV_CHECK_MSG(d.loc.valid() && d.loc.value() < scenario.grid.size(),
                     "deployment references unknown location");
    UAVCOV_CHECK_MSG(uavs.insert(d.uav).second,
                     "UAV deployed at two locations");
    UAVCOV_CHECK_MSG(locs.insert(d.loc).second,
                     "two UAVs share one grid cell");
  }
  UAVCOV_CHECK_MSG(deployments_connected(scenario, deps),
                   "UAV network is disconnected");

  UAVCOV_CHECK_MSG(solution.user_to_deployment.size() ==
                       scenario.users.size(),
                   "assignment vector size mismatch");
  std::vector<std::int64_t> load(deps.size(), 0);
  std::int64_t served = 0;
  for (const UserId u : scenario.user_ids()) {
    const std::int32_t d = solution.user_to_deployment[u];
    if (d == -1) continue;
    UAVCOV_CHECK_MSG(d >= 0 && d < static_cast<std::int32_t>(deps.size()),
                     "assignment references unknown deployment");
    const Deployment& dep = deps[static_cast<std::size_t>(d)];
    UAVCOV_CHECK_MSG(
        coverage.is_eligible(scenario, u, dep.loc, dep.uav),
        "user " + std::to_string(u.value()) + " not eligible under its UAV");
    ++load[static_cast<std::size_t>(d)];
    ++served;
  }
  for (std::size_t d = 0; d < deps.size(); ++d) {
    const auto cap = scenario.fleet[deps[d].uav].capacity;
    UAVCOV_CHECK_MSG(load[d] <= cap, "UAV load exceeds its capacity");
  }
  UAVCOV_CHECK_MSG(served == solution.served,
                   "served count inconsistent with assignment");
}

}  // namespace uavcov
