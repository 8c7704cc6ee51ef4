#include "baselines/common.hpp"

#include "analysis/audit.hpp"
#include "common/check.hpp"
#include "core/planner.hpp"
#include "obs/metrics.hpp"

namespace uavcov::baselines {

Solution finalize(const Scenario& scenario, const CoverageModel& coverage,
                  std::span<const LocationId> locations,
                  std::string algorithm_name, double solve_seconds,
                  BaselineStats* stats) {
  // Every baseline funnels through here, so this is the one place that
  // gives all five solvers a uniform "solve.<algorithm>.*" metrics surface
  // (approAlg records its own in src/core/appro_alg.cpp).
  obs::counter("solve." + algorithm_name + ".runs").inc();
  obs::histogram("solve." + algorithm_name + ".seconds")
      .observe_seconds(solve_seconds);
  if (stats) {
    stats->locations_selected = static_cast<std::int64_t>(locations.size());
    stats->seconds = solve_seconds;
  }
  UAVCOV_CHECK_MSG(
      static_cast<std::int32_t>(locations.size()) <= scenario.uav_count(),
      "baseline selected more locations than UAVs");
  std::vector<Deployment> deployments;
  deployments.reserve(locations.size());
  for (std::size_t i = 0; i < locations.size(); ++i) {
    deployments.push_back({UavId{i}, locations[i]});
  }
  Solution solution = planner::finalize(
      scenario, coverage, std::move(deployments), std::move(algorithm_name));
  solution.solve_seconds = solve_seconds;
  if (analysis::audit_env_enabled()) {
    // Baselines are exempt from the connectivity constraint only when
    // their published logic is (they all claim connected outputs), so the
    // full feasibility audit applies to them too.
    analysis::AuditReport report =
        analysis::audit_solution(scenario, coverage, solution);
    report.subject = "baselines." + solution.algorithm;
    analysis::require_clean(report);
  }
  return solution;
}

CoverageCounter::CoverageCounter(const Scenario& scenario,
                                 const CoverageModel& coverage)
    : coverage_(coverage),
      covered_(static_cast<std::size_t>(scenario.user_count()), false) {}

std::int64_t CoverageCounter::marginal(LocationId v, std::int32_t cls) const {
  std::int64_t add = 0;
  for (const UserId u : coverage_.eligible_users(v, cls)) {
    if (!covered_[u.index()]) ++add;
  }
  return add;
}

void CoverageCounter::add(LocationId v, std::int32_t cls) {
  for (const UserId u : coverage_.eligible_users(v, cls)) {
    covered_[u.index()] = true;
  }
}

void CoverageCounter::reset() {
  std::fill(covered_.begin(), covered_.end(), false);
}

std::int64_t greedy_served_estimate(const Scenario& scenario,
                                    const CoverageModel& coverage,
                                    std::span<const Deployment> deployments) {
  std::vector<bool> taken(static_cast<std::size_t>(scenario.user_count()),
                          false);
  std::int64_t served = 0;
  for (const Deployment& d : deployments) {
    std::int64_t cap =
        scenario.fleet[d.uav].capacity;
    const std::int32_t cls = coverage.radio_class_of(d.uav);
    for (const UserId u : coverage.eligible_users(d.loc, cls)) {
      if (cap == 0) break;
      if (!taken[u.index()]) {
        taken[u.index()] = true;
        --cap;
        ++served;
      }
    }
  }
  return served;
}

}  // namespace uavcov::baselines
