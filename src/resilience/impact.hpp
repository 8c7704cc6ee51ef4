// Impact analysis: what does a fault plan cost if nobody reacts?
//
// Reuses the graph machinery the solver already trusts — Tarjan
// articulation points (graph/articulation.hpp) name the single points of
// failure of the standing network, and planner::deployment_components
// (core/planner.hpp) groups the survivors into connected components as
// events accumulate.  The "remaining"
// numbers are optimal for the surviving main component (Lemma 1
// assignment), so the report is a lower bound on damage: any real system
// without repair does no better.
#pragma once

#include "core/solution.hpp"
#include "resilience/fault_plan.hpp"

namespace uavcov::resilience {

/// State of the un-repaired network right after one event (cumulative:
/// every earlier event of the plan has already been applied).
struct EventImpact {
  FaultEvent event;
  std::int32_t deployments_alive = 0;   ///< deployments still flying.
  std::int32_t components = 0;          ///< connected components among them.
  /// Deployments in the *main* component — the one whose optimal served
  /// count is highest (ties: lowest deployment index).  Everything outside
  /// it is cut off from the mesh and effectively lost.
  std::int32_t main_component_size = 0;
  /// Optimal served count using only the main component, under the
  /// degraded UAV range.  0 once the fleet is gone.
  std::int64_t served_remaining = 0;
  /// Users the initial solution served that the main component can no
  /// longer serve: initial served − served_remaining (>= 0).
  std::int64_t users_stranded = 0;
};

struct ImpactReport {
  /// UAVs whose deployment is an articulation point of the *initial*
  /// network — losing any one of them disconnects survivors (§II-A's
  /// connectivity requirement makes these the critical airframes).
  std::vector<UavId> single_points_of_failure;
  std::vector<EventImpact> events;  ///< one entry per plan event, in order.
};

/// Pure analysis: `solution` is never modified and no repair is attempted.
/// The plan must validate against `scenario`.
[[nodiscard]] ImpactReport analyze_impact(const Scenario& scenario,
                            const Solution& solution, const FaultPlan& plan);

}  // namespace uavcov::resilience
