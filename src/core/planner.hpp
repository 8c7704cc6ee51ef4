// The incremental planning steps shared by approAlg's leftover fill, the
// streaming patch, local repair, the sharded-mission stitch, impact
// analysis, the solution validator and the baselines.  Each rule lives
// here once:
//
//   * Frontier — the unoccupied neighbours (location graph, <= R_uav) of
//     the deployed cells that can cover at least one user
//     (max_coverage > 0), in first-seen order: deployments in deployment
//     order, each one's neighbours in adjacency order.  A strict `>` on
//     the probed gain breaks ties, so equal gains go to the first-seen
//     cell.
//   * No gain — an idle UAV with no positive gain on any frontier cell is
//     skipped and the scan moves on to the next UAV of `order`.  Only
//     positive-gain deployments are added, so the fill never serves fewer
//     users than stopping at the first such UAV would.
//   * Link — two deployments are linked when their cell centres are at
//     most R_uav apart (the §II-C connectivity rule validate_solution
//     checks).
//   * Reconnect — a standing set that is disconnected under Link keeps
//     only the component whose Lemma-1 assignment serves the most users
//     (the earlier component on a tie); its other UAVs go back to idle
//     and the fill re-homes them on the kept component's frontier.
//   * Finalize — the optimal Lemma-1 assignment over a deployment set,
//     packaged as a Solution.
//
// The paper's Algorithm 2 grounds the K − q_j UAVs that neither serve nor
// relay; spending them on the frontier is this project's engineering
// extension (ApproAlgParams::fill_leftover_uavs).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/assignment.hpp"
#include "core/coverage.hpp"
#include "core/scenario.hpp"
#include "core/solution.hpp"
#include "graph/graph.hpp"

namespace uavcov::planner {

struct FillResult {
  std::int32_t added = 0;    ///< idle UAVs deployed on the frontier.
  std::int32_t dropped = 0;  ///< standing deployments left out (Reconnect).
  std::int64_t probes = 0;   ///< IncrementalAssignment::probe calls spent.
};

/// Deploys `standing` into `ia` (which must hold no deployments; a scoped
/// one works), then walks `order` and puts every UAV not deployed on its
/// best frontier cell while that cell's probed gain is positive.  `g` is
/// the location graph at R_uav.  A disconnected `standing` is reconnected
/// first (see Reconnect above).  On return ia.deployments() is the kept
/// standing deployments, in input order, followed by the added UAVs.
FillResult fill_frontier(IncrementalAssignment& ia, const Graph& g,
                         const CoverageModel& coverage,
                         std::span<const Deployment> standing,
                         std::span<const UavId> order);

/// The Link rule: UAVs hovering at `a` and `b` can hear each other.
bool linked(const Scenario& scenario, LocationId a, LocationId b);

/// Connected components of the deployment network under the Link rule,
/// each in input order, components ordered by their first member.
std::vector<std::vector<Deployment>> deployment_components(
    const Scenario& scenario, std::span<const Deployment> deployments);

struct ComponentPick {
  std::size_t index = 0;    ///< position in the component list.
  std::int64_t served = 0;  ///< its Lemma-1 served count.
};

/// The component whose optimal assignment serves the most users; a tie
/// keeps the earlier component.  `components` must be non-empty.
ComponentPick max_served_component(
    const Scenario& scenario, const CoverageModel& coverage,
    const std::vector<std::vector<Deployment>>& components);

/// Solves the optimal assignment over `deployments` and packages it as a
/// Solution named `algorithm` (solve_seconds is left to the caller).
Solution finalize(const Scenario& scenario, const CoverageModel& coverage,
                  std::vector<Deployment> deployments, std::string algorithm);

}  // namespace uavcov::planner
