// StreamEngine: incremental coverage maintenance over a churn stream
// (docs/STREAMING.md).
//
// Per epoch the engine ingests the event batch and then chooses between
// two paths, RedeployController-style:
//
//   * delta patch — rebuild the live flow network (core/assignment's
//     incremental add-node/rollback journal), re-deploy the standing
//     placement against the churned user set, spend idle UAVs on the
//     network frontier while a probe shows positive gain (connectivity
//     preserved by construction), and finish with the optimal Lemma-1
//     assignment — all three steps from core/planner.hpp;
//   * full re-solve — run approAlg from scratch on the materialized
//     scenario.
//
// Hysteresis decides the escalation: a patch is kept only while its served
// count stays at or above `served_floor` x (served at the last full solve)
// AND the cumulative structural churn (arrivals + departures) since that
// solve stays below `max_drift_fraction` of the live population.  Both thresholds share
// validate_unit_threshold with the redeploy/repair controllers.
#pragma once

#include <cstdint>
#include <vector>

#include "core/appro_alg.hpp"
#include "graph/graph.hpp"
#include "stream/churn.hpp"
#include "stream/ingest.hpp"

namespace uavcov::stream {

struct StreamPolicy {
  /// Keep a delta patch only while it serves at least this fraction of the
  /// served count right after the last full solve.  Must be in (0, 1].
  double served_floor = 0.9;
  /// Escalate once the *structural* churn (arrivals + departures) since
  /// the last full solve exceeds this fraction of the live population.
  /// Moves are excluded — mobility touches every user every epoch, so
  /// counting them would fire the trigger unconditionally; a move that
  /// actually costs coverage escalates through `served_floor` instead.
  /// Must be in (0, 1].
  double max_drift_fraction = 0.5;
  ApproAlgParams appro{};

  /// Throws std::invalid_argument on out-of-domain fields; called at every
  /// StreamEngine construction and step.
  void validate() const;
};

struct EpochResult {
  std::int32_t epoch = 0;
  bool full_solve = false;  ///< true = approAlg ran, false = delta patch.
  std::int64_t arrivals = 0;
  std::int64_t departures = 0;
  std::int64_t moves = 0;
  /// Served count the hysteresis floor demanded of a kept patch (0 at
  /// full-solve epochs and while the population is empty).
  std::int64_t served_at_last_full_solve = 0;
  std::uint64_t scenario_fingerprint = 0;  ///< post-ingest materialization.
  Solution solution;  ///< the engine's standing solution after this epoch.
};

/// The from-scratch solve used at escalation epochs: depends only on its
/// arguments, so tests can cross-check a streamed epoch against a cold
/// solve of the same materialized scenario.  An empty population yields
/// the canonical empty solution (approAlg's candidate machinery assumes
/// users exist).
Solution solve_snapshot(const Scenario& scenario,
                        const ApproAlgParams& params);

class StreamEngine {
 public:
  /// `base` supplies the immutable instance data (grid, fleet, channel)
  /// and the initial population (uids [0, n) — see Ingest).  The first
  /// non-empty epoch always escalates to a full solve.
  StreamEngine(const Scenario& base, StreamPolicy policy);

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Ingests one epoch and returns the refreshed standing solution.
  EpochResult step(const Epoch& epoch);

  /// Runs every epoch of `trace` in order.
  std::vector<EpochResult> run(const ChurnTrace& trace);

  const Ingest& ingest() const { return ingest_; }
  const Solution& current() const { return solution_; }
  std::int64_t full_solves() const { return full_solves_; }
  std::int64_t patches() const { return patches_; }
  std::int32_t epochs_processed() const { return epoch_; }

 private:
  Solution patch(const CoverageModel& coverage);

  StreamPolicy policy_;
  Ingest ingest_;
  Graph cell_graph_;  ///< hovering-location connectivity, static per run.
  Solution solution_;
  bool has_solution_ = false;
  std::int64_t served_at_last_full_ = 0;
  std::int64_t churn_since_full_ = 0;
  std::int64_t full_solves_ = 0;
  std::int64_t patches_ = 0;
  std::int32_t epoch_ = 0;
};

}  // namespace uavcov::stream
