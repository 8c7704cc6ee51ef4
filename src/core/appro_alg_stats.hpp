// Search counters reported by Algorithm 2 (separate header so callers that
// only want the stats type need not pull in the full solver).
#pragma once

#include <cstdint>

#include "core/segment_plan.hpp"

namespace uavcov {

/// Per-phase wall-clock breakdown of one appro_alg() call.  Every value is
/// a delta of the *same* Stopwatch that produces ApproAlgStats::seconds
/// (docs/OBSERVABILITY.md), so sum_s() <= seconds holds by construction —
/// tests/obs_test.cpp asserts it.  The identical values are also observed
/// into the "appro.phase.*_seconds" metrics histograms.
struct ApproAlgPhases {
  double plan_s = 0.0;      ///< Algorithm 1 segment planning (+ audit).
  double prepare_s = 0.0;   ///< candidates, location graph, BFS tables.
  double search_s = 0.0;    ///< subset enumeration + greedy + stitching.
  double finalize_s = 0.0;  ///< leftover fill + final optimal assignment.

  double sum_s() const { return plan_s + prepare_s + search_s + finalize_s; }
};

struct ApproAlgStats {
  SegmentPlan plan;                   ///< Algorithm 1 output used.
  ApproAlgPhases phases;              ///< wall-clock per solver phase.
  std::int64_t candidates = 0;        ///< candidate locations after pruning.
  std::int64_t subsets_evaluated = 0; ///< seed subsets greedy ran on.
  std::int64_t subsets_stitched = 0;  ///< subsets with a <= K stitching.
  std::int64_t probes = 0;            ///< marginal-gain flow probes.
  double seconds = 0.0;               ///< end-to-end wall clock.
  /// True iff ApproAlgParams::time_budget_s bound the search: the subset
  /// enumeration (or a greedy round) was cut short and the returned
  /// solution is the best evaluated so far rather than the full search's
  /// winner.  The solution is still fully §II-C feasible.
  bool deadline_hit = false;
};

}  // namespace uavcov
