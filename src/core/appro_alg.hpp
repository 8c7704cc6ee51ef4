// Algorithm 2 (§III-E): the O(sqrt(s/K))-approximation for the maximum
// connected coverage problem.
//
// Pipeline per seed subset V*_j ⊆ V, |V*_j| = s:
//   1. hop distances d(v) to the seeds (multi-source BFS over G);
//   2. greedy submodular maximization under M1 (each UAV once, capacities
//      descending) ∩ M2 (hop quotas Q_h) — the 1/(ρ+1) = 1/3 greedy of
//      Fisher–Nemhauser–Wolsey, with lazy evaluation and incremental
//      max-flow marginal gains;
//   3. relay stitching (MST over pairwise hop distances, union of shortest
//      paths); reject if the stitched network needs more than K UAVs;
//   4. deploy the leftover (small-capacity) UAVs on the relay cells and
//      evaluate the served-user count.
// The best subset wins; its deployment gets a final optimal assignment.
//
// Scaling knobs (all default to the paper-faithful behavior except the
// lossless seed-pair pruning — see DESIGN.md §3):
//   * candidate_cap    — keep only the top-M locations by coverable users
//                        (0 = every location that covers at least 1 user);
//   * prune_seed_pairs — skip subsets with pairwise hop distance > L_max−1
//                        (lossless for the approximation guarantee: the
//                        seeds used by the analysis lie on one Euler
//                        subpath with at most L_max nodes);
//   * lazy_greedy      — lazy vs plain greedy evaluation (same output).
#pragma once

#include "core/appro_alg_stats.hpp"
#include "core/coverage.hpp"
#include "core/scenario.hpp"
#include "core/segment_plan.hpp"
#include "core/solution.hpp"

namespace uavcov {

struct ApproAlgParams {
  std::int32_t s = 3;
  std::int32_t candidate_cap = 0;
  bool prune_seed_pairs = true;
  bool lazy_greedy = true;
  /// Ablation knob: deploy smallest-capacity UAVs first instead of the
  /// paper's largest-first rule.  Quantifies how much of approAlg's win
  /// comes from steering big UAVs onto coverage spots (§I's argument).
  bool capacity_ascending = false;
  /// Engineering extension beyond the paper (which grounds the K − q_j
  /// UAVs left after relay stitching): deploy them on cells adjacent to
  /// the winning network while the marginal gain is positive
  /// (planner::fill_frontier, core/planner.hpp).  Connectivity is
  /// preserved by construction.  Set false for the
  /// paper-faithful behavior; the ablation bench measures the difference.
  bool fill_leftover_uavs = true;
  /// Safety valve for pathological inputs: stop after this many evaluated
  /// subsets (0 = unlimited).  Deterministic: enumeration order is fixed.
  std::int64_t max_seed_subsets = 0;
  /// Worker threads for the seed-subset search: 0 = hardware concurrency,
  /// 1 = the caller's thread, N > 1 = a fixed pool of N workers, worker i
  /// evaluating the subsets whose enumeration index is i mod N.  Every
  /// count gives a bit-identical result (each worker owns its flow
  /// network; the reduction is deterministic — best served count wins,
  /// ties broken by enumeration index), so this is purely a wall-clock
  /// knob.  See DESIGN.md §7.
  std::int32_t threads = 1;
  /// Run the deep invariant auditors (src/analysis/audit.hpp) on every
  /// greedy round and on the final solution, throwing AuditError on any
  /// violation.  Expensive; also enabled process-wide by the UAVCOV_AUDIT
  /// environment variable regardless of this field.
  bool audit = false;
  /// Wall-clock budget for the whole solve [s]; 0 = unlimited (the
  /// default, bit-identical to the pre-deadline behavior).  The search
  /// checks the budget cooperatively between seed subsets and between
  /// greedy rounds and, once expired, returns the best *valid* solution
  /// found so far with stats.deadline_hit = true.  At least one subset is
  /// always evaluated, so the result is never gratuitously empty; a run
  /// whose budget never binds is bit-identical to an unbudgeted run.
  /// Used by the resilience repair controller (docs/RESILIENCE.md) to
  /// bound repair latency in emergency operation.
  double time_budget_s = 0.0;

  /// Throws std::invalid_argument on any out-of-domain field (s < 1,
  /// candidate_cap < 0, threads < 0, max_seed_subsets < 0,
  /// time_budget_s < 0 or non-finite).  Called at every appro_alg / solve
  /// entry, so bad parameters fail loudly instead of being silently
  /// clamped.
  void validate() const;
};

/// Runs Algorithm 2.  `stats`, when non-null, receives search counters and
/// the Algorithm 1 plan (used by the benches and tests).
Solution appro_alg(const Scenario& scenario, const ApproAlgParams& params,
                   ApproAlgStats* stats = nullptr);

/// Overload reusing a precomputed coverage model (the model only depends on
/// the scenario, so sweeps over s reuse it).
Solution appro_alg(const Scenario& scenario, const CoverageModel& coverage,
                   const ApproAlgParams& params,
                   ApproAlgStats* stats = nullptr);

/// Unified solver entry point: every solver in the system — approAlg here
/// and each baseline in src/baselines/ — exposes the same
/// solve(scenario, coverage, params, stats) shape, dispatched on the
/// params type, so sweeps can share one precomputed CoverageModel across
/// all of them and call them generically.
inline Solution solve(const Scenario& scenario, const CoverageModel& coverage,
                      const ApproAlgParams& params,
                      ApproAlgStats* stats = nullptr) {
  return appro_alg(scenario, coverage, params, stats);
}

}  // namespace uavcov
