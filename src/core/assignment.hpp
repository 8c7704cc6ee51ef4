// The maximum assignment subproblem of §II-D (Lemma 1): given deployed
// UAVs, assign users so the served count is maximum, respecting per-UAV
// capacities.  Solved optimally as an integral max flow
//     s --1--> u_i --1--> (UAV k at v) --C_k--> t.
//
// Two interfaces:
//   * solve_assignment — one-shot optimal solve returning the user mapping;
//   * IncrementalAssignment — keeps a live flow network so Algorithm 2 can
//     probe "what if one more UAV were deployed?" and commit the winner,
//     instead of re-solving from scratch (the paper's complexity analysis
//     assumes exactly this kind of reuse is absent).  A probe costs what
//     the candidate changes: O(|eligible(x)|) when x's free eligible users
//     cover C_k, otherwise the backward-levelled search over the saturated
//     region behind x (src/flow/dinic.hpp).
#pragma once

#include <span>
#include <vector>

#include "core/coverage.hpp"
#include "core/solution.hpp"
#include "flow/dinic.hpp"

namespace uavcov {

struct AssignmentResult {
  std::int64_t served = 0;
  /// Per user: index into the input deployments span, or -1 if unserved.
  IdVector<UserTag, std::int32_t> user_to_deployment;
};

/// Optimal assignment (Lemma 1).  O(K n^2) worst case; in practice far
/// cheaper because augmenting paths have length 3.
AssignmentResult solve_assignment(const Scenario& scenario,
                                  const CoverageModel& coverage,
                                  std::span<const Deployment> deployments);

/// Live flow network for greedy placement.  Usage pattern per seed subset:
///
///   IncrementalAssignment ia(scenario, coverage);
///   auto scope = ia.begin_scope();          // checkpoint the empty state
///   for each greedy step:
///     gain = ia.probe(uav, loc);            // evaluate, state unchanged
///     ...
///     ia.deploy(best_uav, best_loc);        // keep the winner
///   served = ia.served();
///   ia.end_scope(scope);                    // wipe back to empty
class IncrementalAssignment {
 public:
  IncrementalAssignment(const Scenario& scenario,
                        const CoverageModel& coverage);

  /// Users currently served by the deployed set.
  std::int64_t served() const { return served_; }

  const std::vector<Deployment>& deployments() const { return deployments_; }
  const Scenario& scenario() const { return scenario_; }

  // Read-only views for the invariant auditors (src/analysis/audit.hpp).
  const DinicFlow& flow() const { return flow_; }
  DinicFlow::FlowNode source() const { return source_; }
  DinicFlow::FlowNode sink() const { return sink_; }
  /// Flow node carrying user `u` (audit: per-user unit-flow integrality).
  DinicFlow::FlowNode user_node(UserId u) const { return user_node_[u]; }
  /// True while no deployed UAV serves user `u` (its source edge is unused).
  bool is_free(UserId u) const {
    return flow_.edge_residual(source_edge_[u]) > 0;
  }

  /// Marginal gain of deploying UAV `k` at `loc`; the network is restored
  /// before returning.  When `k`'s free eligible users at `loc` cover its
  /// capacity the gain is C_k and the network is not touched at all.
  std::int64_t probe(UavId k, LocationId loc);

  /// Deploy UAV `k` at `loc` permanently (within the current scope);
  /// returns the marginal gain.
  std::int64_t deploy(UavId k, LocationId loc);

  /// Scope = rollback point for trying many seed subsets on one network.
  struct Scope {
    DinicFlow::Checkpoint checkpoint;
    std::size_t deployment_count = 0;
    std::int64_t served = 0;
  };
  Scope begin_scope();
  void end_scope(const Scope& scope);

 private:
  /// Adds UAV node x, routes free eligible users straight along s→u→x,
  /// levels the remaining ≤ C_k − direct units backward from x, then
  /// pushes the gain along x→t once.
  std::int64_t add_uav_and_augment(UavId k, LocationId loc);

  const Scenario& scenario_;
  const CoverageModel& coverage_;
  DinicFlow flow_;
  DinicFlow::FlowNode source_ = 0;
  DinicFlow::FlowNode sink_ = 0;
  IdVector<UserTag, DinicFlow::FlowNode> user_node_;
  IdVector<UserTag, DinicFlow::EdgeId> source_edge_;
  std::vector<Deployment> deployments_;
  std::int64_t served_ = 0;
};

}  // namespace uavcov
