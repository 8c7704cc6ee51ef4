#include "core/planner.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "graph/dsu.hpp"

namespace uavcov::planner {

FillResult fill_frontier(IncrementalAssignment& ia, const Graph& g,
                         const CoverageModel& coverage,
                         std::span<const Deployment> standing,
                         std::span<const UavId> order) {
  UAVCOV_CHECK_MSG(ia.deployments().empty(),
                   "fill_frontier: the assignment must start empty");
  // `seen` marks occupied cells and cells already on the frontier.  The
  // frontier is kept incrementally: a deploy removes its cell and appends
  // the new cell's unseen neighbours, which is the first-seen order a
  // rescan of ia.deployments() would produce.
  std::vector<bool> seen(static_cast<std::size_t>(g.node_count()), false);
  std::vector<LocationId> frontier;
  const auto extend = [&](LocationId loc) {
    for (const NodeId nb : g.neighbors(to_node(loc))) {
      const LocationId cell = to_cell(nb);
      if (seen[cell.index()] || coverage.max_coverage(cell) == 0) continue;
      seen[cell.index()] = true;
      frontier.push_back(cell);
    }
  };
  // A disconnected standing set keeps only its max-served component; the
  // other standing UAVs become idle and are re-homed with the rest.
  FillResult out;
  const std::vector<std::vector<Deployment>> components =
      deployment_components(ia.scenario(), standing);
  if (components.size() > 1) {
    const std::vector<Deployment>& kept =
        components[max_served_component(ia.scenario(), coverage, components)
                       .index];
    out.dropped = static_cast<std::int32_t>(standing.size() - kept.size());
    standing = kept;
  }
  for (const Deployment& d : standing) {
    ia.deploy(d.uav, d.loc);
    seen[d.loc.index()] = true;
  }
  for (const Deployment& d : standing) extend(d.loc);

  for (const UavId k : order) {
    if (std::ranges::any_of(standing,
                            [k](const Deployment& d) { return d.uav == k; })) {
      continue;
    }
    std::int64_t best_gain = 0;
    std::size_t best = frontier.size();
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const std::int64_t gain = ia.probe(k, frontier[i]);
      ++out.probes;
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == frontier.size()) continue;  // no positive gain: next UAV
    const LocationId cell = frontier[best];
    frontier.erase(frontier.begin() + static_cast<std::ptrdiff_t>(best));
    ia.deploy(k, cell);
    extend(cell);
    ++out.added;
  }
  return out;
}

bool linked(const Scenario& scenario, LocationId a, LocationId b) {
  return distance(scenario.grid.center(a), scenario.grid.center(b)) <=
         scenario.uav_range_m;
}

std::vector<std::vector<Deployment>> deployment_components(
    const Scenario& scenario, std::span<const Deployment> deployments) {
  const auto n = static_cast<std::int32_t>(deployments.size());
  Dsu dsu(n);
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = i + 1; j < n; ++j) {
      if (linked(scenario, deployments[static_cast<std::size_t>(i)].loc,
                 deployments[static_cast<std::size_t>(j)].loc)) {
        dsu.unite(i, j);
      }
    }
  }
  std::vector<std::vector<Deployment>> components;
  std::vector<std::int32_t> slot(static_cast<std::size_t>(n), -1);  // by root
  for (std::int32_t i = 0; i < n; ++i) {
    std::int32_t& s = slot[static_cast<std::size_t>(dsu.find(i))];
    if (s < 0) {
      s = static_cast<std::int32_t>(components.size());
      components.emplace_back();
    }
    components[static_cast<std::size_t>(s)].push_back(
        deployments[static_cast<std::size_t>(i)]);
  }
  return components;
}

ComponentPick max_served_component(
    const Scenario& scenario, const CoverageModel& coverage,
    const std::vector<std::vector<Deployment>>& components) {
  UAVCOV_CHECK_MSG(!components.empty(),
                   "max_served_component: no component to pick");
  ComponentPick best;
  for (std::size_t i = 0; i < components.size(); ++i) {
    const std::int64_t served =
        solve_assignment(scenario, coverage, components[i]).served;
    if (i == 0 || served > best.served) best = {i, served};
  }
  return best;
}

Solution finalize(const Scenario& scenario, const CoverageModel& coverage,
                  std::vector<Deployment> deployments, std::string algorithm) {
  AssignmentResult assignment =
      solve_assignment(scenario, coverage, deployments);
  Solution solution;
  solution.algorithm = std::move(algorithm);
  solution.deployments = std::move(deployments);
  solution.user_to_deployment = std::move(assignment.user_to_deployment);
  solution.served = assignment.served;
  return solution;
}

}  // namespace uavcov::planner
