// Shared machinery for the reimplemented comparison algorithms.
//
// Every baseline is *capacity-order-unaware by design*: it selects a set of
// hovering locations (its published logic) and then places the fleet's
// UAVs on them in input (arbitrary) order — exactly the deficiency the
// paper argues makes homogeneous-UAV algorithms lose on heterogeneous
// fleets (§I).  The final served-user count is always computed with the
// same optimal max-flow assignment as approAlg, so the comparison isolates
// the placement decision.
#pragma once

#include <span>
#include <vector>

#include "core/assignment.hpp"
#include "core/coverage.hpp"
#include "core/scenario.hpp"
#include "core/solution.hpp"
#include "graph/graph.hpp"

namespace uavcov::baselines {

/// Search counters shared by every baseline's unified solve() entry point
/// (the baseline-side counterpart of ApproAlgStats).  `iterations` is the
/// algorithm's natural outer-loop count: growth trials for MCS, hill-climb
/// rounds for MotionCtrl, random trials for RandomConnected, profit rounds
/// for GreedyAssign, stitched seeds for maxThroughput.
struct BaselineStats {
  std::int64_t locations_selected = 0;  ///< cells handed to finalize().
  std::int64_t iterations = 0;          ///< algorithm-specific loop count.
  double seconds = 0.0;                 ///< end-to-end wall clock.
};

/// Place fleet UAVs 0..q-1 on `locations` in input order, solve the optimal
/// assignment, and package a Solution.  When `stats` is non-null its
/// locations_selected / seconds fields are filled here (iterations is the
/// caller's).
Solution finalize(const Scenario& scenario, const CoverageModel& coverage,
                  std::span<const LocationId> locations,
                  std::string algorithm_name, double solve_seconds,
                  BaselineStats* stats = nullptr);

/// Incremental uncapacitated coverage counter: tracks which users are
/// already covered and reports how many *new* users a location would add
/// under radio class `cls`.  The capacity-agnostic objective used by MCS
/// and GreedyAssign's profit labeling.
class CoverageCounter {
 public:
  CoverageCounter(const Scenario& scenario, const CoverageModel& coverage);

  std::int64_t marginal(LocationId v, std::int32_t cls) const;
  void add(LocationId v, std::int32_t cls);
  void reset();

 private:
  const CoverageModel& coverage_;
  std::vector<bool> covered_;
};

/// Cheap capacity-aware served-count proxy (greedy, not optimal): scan
/// deployments in order, each grabs up to its capacity of still-free
/// eligible users.  Used inside MotionCtrl's local search where thousands
/// of candidate moves are scored.
std::int64_t greedy_served_estimate(const Scenario& scenario,
                                    const CoverageModel& coverage,
                                    std::span<const Deployment> deployments);

}  // namespace uavcov::baselines
