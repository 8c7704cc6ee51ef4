// Tests for core/planner: the frontier fill and its reconnect of a
// disconnected standing set, the deployment components with their
// max-served pick, and the Lemma-1 finalize.
#include <gtest/gtest.h>

#include <vector>

#include "core/appro_alg.hpp"
#include "core/assignment.hpp"
#include "core/coverage.hpp"
#include "core/planner.hpp"
#include "graph/graph.hpp"

namespace uavcov {
namespace {

/// A row of `cells` 100 m cells (centres at x = 50, 150, ...; y = 50),
/// hovering at 50 m, with R_uav = `uav_range_m`.
Scenario row_scenario(std::int32_t cells, double uav_range_m = 150.0) {
  return Scenario{
      .grid = Grid(100.0 * cells, 100, 100),
      .altitude_m = 50.0,
      .uav_range_m = uav_range_m,
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {},
  };
}

/// Heterogeneous radios on a 4-cell row: four users on the far-left edge
/// of cell 0 and one user X at x = 225.  UAV 0 (capacity 10) and UAV 1
/// (capacity 5) reach 40 m; UAV 2 (capacity 1) reaches 120 m.  From
/// cell 1, X is 75 m away: only UAV 2 can serve it there.
Scenario radio_mix_scenario() {
  Scenario sc = row_scenario(4);
  for (const double x : {12.0, 15.0, 18.0, 21.0}) {
    sc.users.push_back({{x, 50.0}, 1e3});
  }
  sc.users.push_back({{225.0, 50.0}, 1e3});
  sc.fleet.push_back({10, Radio{}, 40.0});
  sc.fleet.push_back({5, Radio{}, 40.0});
  sc.fleet.push_back({1, Radio{}, 120.0});
  sc.validate();
  return sc;
}

TEST(FillFrontier, SkipsAUavWithNoGainAndTriesTheNext) {
  const Scenario sc = radio_mix_scenario();
  const CoverageModel cov(sc);
  const Graph g = build_location_graph(sc.grid, sc.uav_range_m);
  ASSERT_EQ(cov.max_coverage(LocationId{0}), 4);
  ASSERT_EQ(cov.max_coverage(LocationId{1}), 1);  // X, long radio only

  IncrementalAssignment ia(sc, cov);
  const std::vector<Deployment> standing = {{UavId{0}, LocationId{0}}};
  const planner::FillResult fill = planner::fill_frontier(
      ia, g, cov, standing, sc.uavs_by_capacity_desc());

  // UAV 1 (the largest idle one) gains nothing on cell 1; UAV 2 does.
  EXPECT_EQ(fill.added, 1);
  EXPECT_EQ(fill.probes, 2);
  ASSERT_EQ(ia.deployments().size(), 2u);
  EXPECT_EQ(ia.deployments()[0], standing[0]);
  EXPECT_EQ(ia.deployments()[1], (Deployment{UavId{2}, LocationId{1}}));
  EXPECT_EQ(ia.served(), 5);
}

TEST(FillFrontier, ApproAlgLeftoverFillReachesTheLongRangeUav) {
  // One candidate cell, so the greedy places only UAV 0; the leftover fill
  // must not stop at UAV 1 (no gain) before trying UAV 2.
  const Scenario sc = radio_mix_scenario();
  const CoverageModel cov(sc);
  ApproAlgParams params;
  params.s = 1;
  params.candidate_cap = 1;
  const Solution sol = appro_alg(sc, cov, params);
  validate_solution(sc, cov, sol);
  EXPECT_EQ(sol.served, 5);
  EXPECT_EQ(sol.deployments.size(), 2u);

  params.fill_leftover_uavs = false;
  EXPECT_EQ(appro_alg(sc, cov, params).served, 4);
}

TEST(FillFrontier, NeverProbesCellsThatCoverNobody) {
  // Standing UAV in the middle cell; cell 0 covers nobody, cell 2 covers
  // the single user, which the standing long-range UAV already serves.
  Scenario sc = row_scenario(3);
  sc.users.push_back({{260.0, 50.0}, 1e3});
  sc.fleet.push_back({5, Radio{}, 120.0});
  sc.fleet.push_back({5, Radio{}, 40.0});
  sc.fleet.push_back({5, Radio{}, 40.0});
  sc.validate();
  const CoverageModel cov(sc);
  const Graph g = build_location_graph(sc.grid, sc.uav_range_m);
  ASSERT_EQ(cov.max_coverage(LocationId{0}), 0);
  ASSERT_GT(cov.max_coverage(LocationId{2}), 0);

  IncrementalAssignment ia(sc, cov);
  const std::vector<Deployment> standing = {{UavId{0}, LocationId{1}}};
  const planner::FillResult fill = planner::fill_frontier(
      ia, g, cov, standing, sc.uavs_by_capacity_desc());
  EXPECT_EQ(fill.added, 0);
  EXPECT_EQ(fill.probes, 2);  // each idle UAV probes cell 2 only
  EXPECT_EQ(ia.served(), 1);
}

TEST(FillFrontier, EqualGainsGoToTheFirstSeenCell) {
  // Users on the centres of cells 0 and 2; the short-range UAV at cell 1
  // reaches neither, so an idle UAV gains 1 on either neighbour.
  Scenario sc = row_scenario(3);
  sc.users.push_back({{50.0, 50.0}, 1e3});
  sc.users.push_back({{250.0, 50.0}, 1e3});
  sc.fleet.push_back({5, Radio{}, 40.0});
  sc.fleet.push_back({1, Radio{}, 40.0});
  sc.validate();
  const CoverageModel cov(sc);
  const Graph g = build_location_graph(sc.grid, sc.uav_range_m);

  IncrementalAssignment ia(sc, cov);
  const std::vector<Deployment> standing = {{UavId{0}, LocationId{1}}};
  const std::vector<UavId> order = {UavId{1}};
  const planner::FillResult fill =
      planner::fill_frontier(ia, g, cov, standing, order);
  ASSERT_EQ(fill.added, 1);
  const LocationId first_seen = to_cell(g.neighbors(1).front());
  EXPECT_EQ(ia.deployments()[1], (Deployment{UavId{1}, first_seen}));
}

TEST(FillFrontier, DisconnectedStandingKeepsTheMaxServedGroupAndReHomes) {
  // R_uav = 100 m = the cell pitch, so only adjacent cells link.  Group A
  // = {UAV 0 at cell 0, UAV 1 at cell 1} and group B = {UAV 2 at cell 3}
  // are unlinked; cell 2 holds one more user between them.
  Scenario sc = row_scenario(6, 100.0);
  for (const double x : {50.0, 150.0, 250.0, 340.0, 350.0, 360.0}) {
    sc.users.push_back({{x, 50.0}, 1e3});
  }
  for (int k = 0; k < 3; ++k) sc.fleet.push_back({5, Radio{}, 40.0});
  sc.validate();
  const CoverageModel cov(sc);
  const Graph g = build_location_graph(sc.grid, sc.uav_range_m);
  const std::vector<Deployment> standing = {{UavId{0}, LocationId{0}},
                                            {UavId{1}, LocationId{1}},
                                            {UavId{2}, LocationId{3}}};
  const std::vector<UavId> order = {UavId{0}, UavId{1}, UavId{2}};
  ASSERT_FALSE(deployments_connected(sc, standing));

  // B serves 3 against A's 2: A's UAVs are dropped and re-homed around B,
  // the first on cell 2 (first-seen) and the second on cell 1 behind it.
  IncrementalAssignment ia(sc, cov);
  const planner::FillResult fill =
      planner::fill_frontier(ia, g, cov, standing, order);
  EXPECT_EQ(fill.dropped, 2);
  EXPECT_EQ(fill.added, 2);
  EXPECT_EQ(ia.deployments(),
            (std::vector<Deployment>{{UavId{2}, LocationId{3}},
                                     {UavId{0}, LocationId{2}},
                                     {UavId{1}, LocationId{1}}}));
  EXPECT_TRUE(deployments_connected(sc, ia.deployments()));
  EXPECT_EQ(ia.served(), 5);

  // Drop one of B's users: the groups tie at 2 and the earlier one, A,
  // stays; UAV 2 is re-homed on cell 2, next to A.
  sc.users.pop_back();
  const CoverageModel cov_tie(sc);
  IncrementalAssignment ia_tie(sc, cov_tie);
  const planner::FillResult tie =
      planner::fill_frontier(ia_tie, g, cov_tie, standing, order);
  EXPECT_EQ(tie.dropped, 1);
  EXPECT_EQ(tie.added, 1);
  EXPECT_EQ(ia_tie.deployments(),
            (std::vector<Deployment>{standing[0], standing[1],
                                     {UavId{2}, LocationId{2}}}));
  EXPECT_TRUE(deployments_connected(sc, ia_tie.deployments()));
  EXPECT_EQ(ia_tie.served(), 3);
}

TEST(DeploymentComponents, LinksAtExactlyUavRangeInFirstMemberOrder) {
  // R_uav = 100 m = the cell pitch: neighbours are linked exactly at range.
  Scenario sc = row_scenario(5, 100.0);
  sc.users.push_back({{350.0, 50.0}, 1e3});  // cell 3
  sc.users.push_back({{50.0, 50.0}, 1e3});   // cell 0
  for (int k = 0; k < 4; ++k) sc.fleet.push_back({5, Radio{}, 40.0});
  sc.validate();
  const CoverageModel cov(sc);

  EXPECT_TRUE(planner::linked(sc, LocationId{0}, LocationId{1}));
  EXPECT_FALSE(planner::linked(sc, LocationId{0}, LocationId{2}));

  const std::vector<Deployment> deps = {{UavId{0}, LocationId{3}},
                                        {UavId{1}, LocationId{0}},
                                        {UavId{2}, LocationId{4}},
                                        {UavId{3}, LocationId{1}}};
  const auto components = planner::deployment_components(sc, deps);
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0], (std::vector<Deployment>{deps[0], deps[2]}));
  EXPECT_EQ(components[1], (std::vector<Deployment>{deps[1], deps[3]}));
  EXPECT_FALSE(deployments_connected(sc, deps));

  // Each component serves one user: the tie keeps the earlier one.
  const planner::ComponentPick tie =
      planner::max_served_component(sc, cov, components);
  EXPECT_EQ(tie.index, 0u);
  EXPECT_EQ(tie.served, 1);

  // A second user on cell 1 makes the later component strictly better.
  sc.users.push_back({{150.0, 50.0}, 1e3});
  const CoverageModel cov2(sc);
  const planner::ComponentPick best =
      planner::max_served_component(sc, cov2, components);
  EXPECT_EQ(best.index, 1u);
  EXPECT_EQ(best.served, 2);
}

TEST(Finalize, PackagesTheOptimalAssignment) {
  const Scenario sc = radio_mix_scenario();
  const CoverageModel cov(sc);
  const std::vector<Deployment> deps = {{UavId{0}, LocationId{0}},
                                        {UavId{2}, LocationId{1}}};
  const Solution sol = planner::finalize(sc, cov, deps, "test");
  EXPECT_EQ(sol.algorithm, "test");
  EXPECT_EQ(sol.deployments, deps);
  EXPECT_EQ(sol.served, solve_assignment(sc, cov, deps).served);
  EXPECT_EQ(sol.served, 5);
  validate_solution(sc, cov, sol);
}

}  // namespace
}  // namespace uavcov
