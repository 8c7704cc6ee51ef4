// Tests for the §II-D assignment subproblem: optimality vs brute force,
// incremental probe/deploy/scope semantics, capacity handling.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/assignment.hpp"
#include "core/coverage.hpp"
#include "flow/oracles.hpp"

namespace uavcov {
namespace {

/// Tiny scenario factory: `width_cells` × 1 grid of 100 m cells, users at
/// explicit positions, UAVs with given capacities (shared default radio).
Scenario make_scenario(std::int32_t width_cells,
                       std::vector<Vec2> user_positions,
                       std::vector<std::int32_t> capacities,
                       double user_range_m = 120.0) {
  Scenario sc{
      .grid = Grid(width_cells * 100.0, 100.0, 100.0),
      .altitude_m = 50.0,
      .uav_range_m = 150.0,
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {},
  };
  for (const Vec2& p : user_positions) sc.users.push_back({p, 1e3});
  for (std::int32_t c : capacities) {
    sc.fleet.push_back({c, Radio{}, user_range_m});
  }
  return sc;
}

TEST(Assignment, EmptyDeploymentsServeNobody) {
  const Scenario sc = make_scenario(3, {{50, 50}, {150, 50}}, {5});
  const CoverageModel cov(sc);
  const auto result = solve_assignment(sc, cov, {});
  EXPECT_EQ(result.served, 0);
  EXPECT_EQ(result.user_to_deployment,
            (std::vector<std::int32_t>{-1, -1}));
}

TEST(Assignment, CapacityCapsServedUsers) {
  // 4 users under one cell, capacity 2 → exactly 2 served.
  const Scenario sc = make_scenario(
      1, {{50, 50}, {60, 50}, {40, 50}, {50, 60}}, {2});
  const CoverageModel cov(sc);
  const std::vector<Deployment> deps{{UavId{0}, LocationId{0}}};
  const auto result = solve_assignment(sc, cov, deps);
  EXPECT_EQ(result.served, 2);
  int assigned = 0;
  for (auto d : result.user_to_deployment) assigned += (d == 0);
  EXPECT_EQ(assigned, 2);
}

TEST(Assignment, FlowBeatsGreedyOnOverlap) {
  // Two cells 100 m apart, R_user = 120: users near the left cell are
  // eligible under both; a greedy left-first fill would strand the far-left
  // user, but max flow serves everyone.
  const Scenario sc = make_scenario(
      2, {{50, 50}, {90, 50}, {110, 50}, {150, 50}}, {2, 2});
  const CoverageModel cov(sc);
  const std::vector<Deployment> deps{{UavId{0}, LocationId{0}},
                                     {UavId{1}, LocationId{1}}};
  const auto result = solve_assignment(sc, cov, deps);
  EXPECT_EQ(result.served, 4);
}

TEST(Assignment, RespectsEligibilityInMapping) {
  const Scenario sc =
      make_scenario(3, {{50, 50}, {250, 50}}, {3, 3});
  const CoverageModel cov(sc);
  const std::vector<Deployment> deps{{UavId{0}, LocationId{0}},
                                     {UavId{1}, LocationId{2}}};
  const auto result = solve_assignment(sc, cov, deps);
  EXPECT_EQ(result.served, 2);
  for (const UserId u : sc.user_ids()) {
    const auto d = result.user_to_deployment[u];
    ASSERT_NE(d, -1);
    EXPECT_TRUE(cov.is_eligible(sc, u, deps[static_cast<std::size_t>(d)].loc,
                                deps[static_cast<std::size_t>(d)].uav));
  }
}

class AssignmentRandom : public testing::TestWithParam<int> {};

TEST_P(AssignmentRandom, OptimalVsBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 313 + 11);
  const std::int32_t cells = 4;
  const std::int32_t n = 2 + static_cast<std::int32_t>(rng.next_below(9));
  std::vector<Vec2> users;
  for (std::int32_t i = 0; i < n; ++i) {
    users.push_back({rng.uniform(0, 400), rng.uniform(0, 100)});
  }
  std::vector<std::int32_t> caps;
  const std::int32_t k = 1 + static_cast<std::int32_t>(rng.next_below(3));
  for (std::int32_t i = 0; i < k; ++i) {
    caps.push_back(1 + static_cast<std::int32_t>(rng.next_below(3)));
  }
  const Scenario sc = make_scenario(cells, users, caps);
  const CoverageModel cov(sc);

  std::vector<Deployment> deps;
  std::vector<LocationId> free_cells{LocationId{0}, LocationId{1},
                                     LocationId{2}, LocationId{3}};
  for (const UavId u : IdRange<UavId>{k}) {
    const std::size_t pick =
        static_cast<std::size_t>(rng.next_below(free_cells.size()));
    deps.push_back({u, free_cells[pick]});
    free_cells.erase(free_cells.begin() + static_cast<std::ptrdiff_t>(pick));
  }

  const auto result = solve_assignment(sc, cov, deps);

  // Oracle input: per-user list of eligible deployments.
  std::vector<std::vector<std::int32_t>> eligible(
      static_cast<std::size_t>(n));
  std::vector<std::int64_t> capacity;
  for (const Deployment& d : deps) {
    capacity.push_back(sc.fleet[d.uav].capacity);
  }
  for (const UserId u : IdRange<UserId>{n}) {
    for (std::size_t d = 0; d < deps.size(); ++d) {
      if (cov.is_eligible(sc, u, deps[d].loc, deps[d].uav)) {
        eligible[u.index()].push_back(
            static_cast<std::int32_t>(d));
      }
    }
  }
  EXPECT_EQ(result.served,
            oracle::brute_force_assignment(eligible, capacity));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssignmentRandom, testing::Range(0, 25));

TEST(IncrementalAssignment, ProbeEqualsDeployGain) {
  const Scenario sc = make_scenario(
      3, {{50, 50}, {60, 40}, {150, 50}, {250, 50}, {240, 60}}, {2, 2, 2});
  const CoverageModel cov(sc);
  IncrementalAssignment ia(sc, cov);
  for (const UavId k : IdRange<UavId>{3}) {
    const LocationId loc{k.value()};
    const auto probed = ia.probe(k, loc);
    const auto deployed = ia.deploy(k, loc);
    EXPECT_EQ(probed, deployed) << "UAV " << k.value();
  }
  EXPECT_EQ(ia.served(), 5);
}

TEST(IncrementalAssignment, ProbeLeavesStateUntouched) {
  const Scenario sc =
      make_scenario(2, {{50, 50}, {150, 50}}, {1, 1});
  const CoverageModel cov(sc);
  IncrementalAssignment ia(sc, cov);
  ia.deploy(UavId{0}, LocationId{0});
  const auto served_before = ia.served();
  for (int i = 0; i < 5; ++i) ia.probe(UavId{1}, LocationId{1});
  EXPECT_EQ(ia.served(), served_before);
  EXPECT_EQ(ia.deployments().size(), 1u);
  // Deploy after many probes must still work and match a fresh solve.
  ia.deploy(UavId{1}, LocationId{1});
  const std::vector<Deployment> deps{{UavId{0}, LocationId{0}},
                                     {UavId{1}, LocationId{1}}};
  EXPECT_EQ(ia.served(), solve_assignment(sc, cov, deps).served);
}

TEST(IncrementalAssignment, MatchesOneShotSolveOnRandomSequences) {
  Rng rng(5150);
  for (int trial = 0; trial < 10; ++trial) {
    const std::int32_t n = 12;
    std::vector<Vec2> users;
    for (std::int32_t i = 0; i < n; ++i) {
      users.push_back({rng.uniform(0, 500), rng.uniform(0, 100)});
    }
    const Scenario sc = make_scenario(5, users, {2, 3, 1, 2});
    const CoverageModel cov(sc);
    IncrementalAssignment ia(sc, cov);
    std::vector<Deployment> deps;
    std::vector<LocationId> cells{LocationId{0}, LocationId{1}, LocationId{2},
                                  LocationId{3}, LocationId{4}};
    rng.shuffle(cells);
    for (const UavId k : IdRange<UavId>{4}) {
      ia.probe(k, cells[k.index()]);  // interleaved noise
      ia.deploy(k, cells[k.index()]);
      deps.push_back({k, cells[k.index()]});
      EXPECT_EQ(ia.served(), solve_assignment(sc, cov, deps).served);
    }
  }
}

// Differential: every probe against a from-scratch max flow over random
// scenarios and random deploy sequences.  Counts which probe branch each
// candidate takes so the test fails if either one goes unexercised: free
// eligible users covering C_k (no mutation) and the backward-levelled
// reroute finding at least one unit beyond the direct pushes.
TEST(IncrementalAssignment, ProbeMatchesFromScratchSolve) {
  Rng rng(20231017);
  std::int64_t untouched = 0;
  std::int64_t rerouted = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::int32_t cells = 6;
    const std::int32_t n = 4 + static_cast<std::int32_t>(rng.next_below(21));
    std::vector<Vec2> users;
    for (std::int32_t i = 0; i < n; ++i) {
      users.push_back({rng.uniform(0, 600), rng.uniform(0, 100)});
    }
    std::vector<std::int32_t> caps;
    for (int k = 0; k < 4; ++k) {
      caps.push_back(1 + static_cast<std::int32_t>(rng.next_below(4)));
    }
    const Scenario sc = make_scenario(cells, users, caps);
    const CoverageModel cov(sc);
    IncrementalAssignment ia(sc, cov);
    std::vector<Deployment> deps;
    std::vector<LocationId> free_cells;
    for (std::int32_t c = 0; c < cells; ++c) free_cells.push_back(LocationId{c});
    rng.shuffle(free_cells);
    for (const UavId k : sc.uav_ids()) {
      for (const UavId j : sc.uav_ids()) {
        if (j < k) continue;  // already deployed
        for (const LocationId loc : free_cells) {
          std::int64_t free = 0;
          for (const UserId u : cov.eligible_users(loc, cov.radio_class_of(j))) {
            free += ia.is_free(u) ? 1 : 0;
          }
          std::vector<Deployment> with = deps;
          with.push_back({j, loc});
          const std::int64_t expected =
              solve_assignment(sc, cov, with).served - ia.served();
          const std::int64_t probed = ia.probe(j, loc);
          EXPECT_EQ(probed, expected) << "trial " << trial << " UAV "
                                      << j.value() << " cell " << loc.value();
          if (free >= sc.fleet[j].capacity) {
            ++untouched;
          } else if (probed > free) {
            ++rerouted;
          }
        }
      }
      const LocationId loc = free_cells.back();
      free_cells.pop_back();
      ia.deploy(k, loc);
      deps.push_back({k, loc});
      ASSERT_EQ(ia.served(), solve_assignment(sc, cov, deps).served);
    }
  }
  EXPECT_GT(untouched, 0);
  EXPECT_GT(rerouted, 0);
}

TEST(IncrementalAssignment, ScopesResetEverything) {
  const Scenario sc =
      make_scenario(2, {{50, 50}, {150, 50}}, {1, 1});
  const CoverageModel cov(sc);
  IncrementalAssignment ia(sc, cov);
  const auto scope = ia.begin_scope();
  ia.deploy(UavId{0}, LocationId{0});
  ia.deploy(UavId{1}, LocationId{1});
  EXPECT_EQ(ia.served(), 2);
  ia.end_scope(scope);
  EXPECT_EQ(ia.served(), 0);
  EXPECT_TRUE(ia.deployments().empty());
  // Reusable after reset.
  const auto scope2 = ia.begin_scope();
  EXPECT_EQ(ia.deploy(UavId{1}, LocationId{0}), 1);
  ia.end_scope(scope2);
  EXPECT_EQ(ia.served(), 0);
}

TEST(IncrementalAssignment, NestedScopes) {
  const Scenario sc =
      make_scenario(3, {{50, 50}, {150, 50}, {250, 50}}, {1, 1, 1});
  const CoverageModel cov(sc);
  IncrementalAssignment ia(sc, cov);
  const auto outer = ia.begin_scope();
  ia.deploy(UavId{0}, LocationId{0});
  const auto inner = ia.begin_scope();
  ia.deploy(UavId{1}, LocationId{1});
  EXPECT_EQ(ia.served(), 2);
  ia.end_scope(inner);
  EXPECT_EQ(ia.served(), 1);
  ia.end_scope(outer);
  EXPECT_EQ(ia.served(), 0);
}

}  // namespace
}  // namespace uavcov
