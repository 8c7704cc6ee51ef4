// Re-deployment controller for moving users (§II-C): keep the current
// placement while it still serves well (only re-solving the cheap optimal
// assignment), and re-run Algorithm 2 when coverage decays past a
// threshold — the strategy the paper adopts from Xu et al. [37].
#pragma once

#include "core/appro_alg.hpp"

namespace uavcov {

/// Shared by RedeployPolicy, resilience::RepairPolicy and
/// stream::StreamPolicy: throws std::invalid_argument unless `value` is a
/// finite fraction in (0, 1].  `context` names the offending field in the
/// message, matching the ApproAlgParams::validate() style.
void validate_unit_threshold(const char* context, double value);

struct RedeployPolicy {
  /// Re-run approAlg when served users fall below this fraction of the
  /// served count right after the last full solve.  Must be in (0, 1].
  double degradation_threshold = 0.9;
  ApproAlgParams appro{};

  /// Throws std::invalid_argument on out-of-domain fields; called at
  /// every RedeployController::update entry.
  void validate() const;
};

class RedeployController {
 public:
  RedeployController(RedeployPolicy policy) : policy_(policy) {}

  /// Called with the current (possibly moved) users.  Re-assigns users to
  /// the standing deployment; if served count degraded past the policy
  /// threshold (or there is no deployment yet), re-runs approAlg.
  /// Returns the up-to-date solution.
  const Solution& update(const Scenario& scenario);

  /// Number of full approAlg re-solves performed so far.
  std::int32_t full_solves() const { return full_solves_; }

  /// Sum of UAV flight distances caused by re-deployments [m]: each UAV is
  /// matched to the nearest location of the new plan, greedily.
  double uav_travel_m() const { return uav_travel_m_; }

  const Solution& current() const { return solution_; }

 private:
  void account_travel(const Scenario& scenario,
                      const std::vector<Deployment>& before,
                      const std::vector<Deployment>& after);

  RedeployPolicy policy_;
  Solution solution_;
  std::int64_t served_at_last_solve_ = -1;
  std::int32_t full_solves_ = 0;
  double uav_travel_m_ = 0.0;
};

}  // namespace uavcov
