// Tests for the gateway/backhaul extension (paper Fig. 1).
#include <gtest/gtest.h>

#include "core/appro_alg.hpp"
#include "core/gateway.hpp"

namespace uavcov {
namespace {

/// Users clustered on the left of a 8×1 corridor; vehicle parked far right.
Scenario corridor_scenario(std::int32_t uavs) {
  Scenario sc{
      .grid = Grid(800, 100, 100),
      .altitude_m = 60.0,
      .uav_range_m = 150.0,
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {},
  };
  for (int i = 0; i < 6; ++i) {
    sc.users.push_back({{40.0 + 5 * i, 50.0}, 1e3});
  }
  for (std::int32_t k = 0; k < uavs; ++k) {
    sc.fleet.push_back({3, Radio{}, 120.0});
  }
  return sc;
}

TEST(Gateway, AlreadyConnectedIsNoop) {
  const Scenario sc = corridor_scenario(3);
  const CoverageModel cov(sc);
  ApproAlgParams params;
  params.s = 1;
  Solution sol = appro_alg(sc, cov, params);
  const auto before = sol.deployments;
  // Vehicle right under the serving cluster.
  const auto result = extend_to_gateway(sc, cov, sol, {50, 50});
  EXPECT_TRUE(result.connected);
  EXPECT_EQ(result.relays_added, 0);
  EXPECT_EQ(sol.deployments, before);
  EXPECT_GE(result.gateway_deployment, 0);
}

TEST(Gateway, BuildsRelayChainToFarVehicle) {
  const Scenario sc = corridor_scenario(8);
  const CoverageModel cov(sc);
  ApproAlgParams params;
  params.s = 1;
  Solution sol = appro_alg(sc, cov, params);
  const auto deployed_before = sol.deployments.size();
  const auto result = extend_to_gateway(sc, cov, sol, {750, 50});
  ASSERT_TRUE(result.connected);
  EXPECT_GT(result.relays_added, 0);
  EXPECT_EQ(sol.deployments.size(),
            deployed_before + static_cast<std::size_t>(result.relays_added));
  // Still a fully feasible §II-C solution.
  validate_solution(sc, cov, sol);
  // The gateway deployment really is within range of the vehicle.
  const auto& gw = sol.deployments[static_cast<std::size_t>(
      result.gateway_deployment)];
  EXPECT_LE(slant_range({750, 50}, sc.grid.center(gw.loc), sc.altitude_m),
            sc.uav_range_m);
}

TEST(Gateway, FleetTooSmallFailsGracefully) {
  const Scenario sc = corridor_scenario(2);  // not enough for a 7-hop chain
  const CoverageModel cov(sc);
  ApproAlgParams params;
  params.s = 1;
  Solution sol = appro_alg(sc, cov, params);
  const auto before = sol;
  const auto result = extend_to_gateway(sc, cov, sol, {750, 50});
  EXPECT_FALSE(result.connected);
  EXPECT_EQ(result.relays_added, 0);
  EXPECT_EQ(sol.deployments, before.deployments);
  EXPECT_EQ(sol.served, before.served);
}

TEST(Gateway, EmptySolutionNotConnected) {
  const Scenario sc = corridor_scenario(2);
  const CoverageModel cov(sc);
  Solution empty;
  empty.user_to_deployment.assign(sc.users.size(), -1);
  const auto result = extend_to_gateway(sc, cov, empty, {400, 50});
  EXPECT_FALSE(result.connected);
}

TEST(Gateway, RelaysMayPickUpUsers) {
  // Users both at the cluster AND along the chain: the refreshed
  // assignment should serve some chain-side users via relay UAVs.
  Scenario sc = corridor_scenario(8);
  sc.users.push_back({{450, 50}, 1e3});
  sc.users.push_back({{550, 50}, 1e3});
  const CoverageModel cov(sc);
  ApproAlgParams params;
  params.s = 1;
  Solution sol = appro_alg(sc, cov, params);
  const auto served_before = sol.served;
  const auto result = extend_to_gateway(sc, cov, sol, {750, 50});
  ASSERT_TRUE(result.connected);
  EXPECT_GE(sol.served, served_before);
  validate_solution(sc, cov, sol);
}

}  // namespace
}  // namespace uavcov
