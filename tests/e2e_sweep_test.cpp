// Broad end-to-end sweep: every algorithm × several workload shapes ×
// fleet sizes, checking full §II-C feasibility plus cross-algorithm
// invariants (approAlg with refinement dominates RandomConnected; metrics
// bounds hold; serialization round-trips the winner).
#include <gtest/gtest.h>

#include <sstream>

#include "baselines/greedy_assign.hpp"
#include "baselines/max_throughput.hpp"
#include "baselines/mcs.hpp"
#include "baselines/motion_ctrl.hpp"
#include "baselines/random_connected.hpp"
#include "core/appro_alg.hpp"
#include "core/refine.hpp"
#include "eval/metrics.hpp"
#include "io/serialize.hpp"
#include "workload/scenario_gen.hpp"

namespace uavcov {
namespace {

struct SweepCase {
  workload::UserDistribution distribution;
  std::int32_t users;
  std::int32_t uavs;
  std::uint64_t seed;
};

class EndToEndSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(EndToEndSweep, AllAlgorithmsFeasibleAndOrdered) {
  const SweepCase c = GetParam();
  Rng rng(c.seed);
  workload::ScenarioConfig config;
  config.width_m = 1800;
  config.height_m = 1800;
  config.cell_side_m = 300;
  config.user_count = c.users;
  config.distribution = c.distribution;
  config.fleet.uav_count = c.uavs;
  config.fleet.capacity_min = 5;
  config.fleet.capacity_max = 40;
  const Scenario sc = workload::make_disaster_scenario(config, rng);
  const CoverageModel cov(sc);

  ApproAlgParams params;
  params.s = 1;
  params.candidate_cap = 20;
  Solution ours = appro_alg(sc, cov, params);
  refine_solution(sc, cov, ours);

  std::vector<Solution> all;
  all.push_back(ours);
  all.push_back(baselines::solve(sc, cov, baselines::MaxThroughputParams{}));
  all.push_back(baselines::solve(sc, cov, baselines::MotionCtrlParams{}));
  all.push_back(baselines::solve(sc, cov, baselines::McsParams{}));
  all.push_back(baselines::solve(sc, cov, baselines::GreedyAssignParams{}));
  all.push_back(baselines::solve(sc, cov, baselines::RandomConnectedParams{}));

  for (const Solution& sol : all) {
    SCOPED_TRACE(sol.algorithm);
    // Full §II-C audit + metric sanity for every algorithm.
    ASSERT_NO_THROW(validate_solution(sc, cov, sol));
    const auto metrics = eval::compute_metrics(sc, cov, sol);
    EXPECT_EQ(metrics.served, sol.served);
    EXPECT_GE(metrics.coverage_fraction, 0.0);
    EXPECT_LE(metrics.coverage_fraction, 1.0 + 1e-12);
    EXPECT_LE(metrics.capacity_utilization, 1.0 + 1e-12);
    EXPECT_LE(sol.served, sc.total_capacity());
    EXPECT_LE(sol.served, sc.user_count());
  }

  // The refined paper algorithm must beat the random sanity baseline.
  EXPECT_GE(ours.served, all.back().served);

  // Winner survives a serialization round trip bit-exactly.
  std::stringstream buffer;
  io::save_solution(buffer, ours);
  const Solution loaded = io::load_solution(buffer, sc.user_count());
  EXPECT_EQ(loaded.served, ours.served);
  EXPECT_EQ(loaded.deployments, ours.deployments);
  EXPECT_NO_THROW(validate_solution(sc, cov, loaded));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EndToEndSweep,
    testing::Values(
        SweepCase{workload::UserDistribution::kFatTailed, 120, 4, 1},
        SweepCase{workload::UserDistribution::kFatTailed, 200, 8, 2},
        SweepCase{workload::UserDistribution::kFatTailed, 300, 12, 3},
        SweepCase{workload::UserDistribution::kUniform, 120, 4, 4},
        SweepCase{workload::UserDistribution::kUniform, 200, 8, 5},
        SweepCase{workload::UserDistribution::kUniform, 300, 12, 6}),
    [](const auto& info) {
      const SweepCase& c = info.param;
      return std::string(c.distribution ==
                                 workload::UserDistribution::kFatTailed
                             ? "fat"
                             : "uniform") +
             "_n" + std::to_string(c.users) + "_K" + std::to_string(c.uavs);
    });

}  // namespace
}  // namespace uavcov
