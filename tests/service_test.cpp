// Sharded mission-service acceptance suite (docs/SERVICE.md).  Registered
// with UAVCOV_AUDIT=1 (tests/CMakeLists.txt), so every stitched solution
// runs through the deep §II-C feasibility audits plus the shard-partition
// audit — the chaos drills below prove every injected shard failure is
// either recovered by retry/fallback or named in the DegradationReport,
// never silently lost.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "core/appro_alg.hpp"
#include "core/coverage.hpp"
#include "core/solution.hpp"
#include "service/chaos.hpp"
#include "service/service.hpp"
#include "service/supervisor.hpp"
#include "service/tiling.hpp"
#include "workload/scenario_gen.hpp"

namespace uavcov {
namespace {

using service::AttemptOutcome;
using service::AttemptRecord;
using service::CancelLatch;
using service::JobQueue;
using service::JobResult;
using service::JobSpec;
using service::make_shard_fault_plan;
using service::make_tiling;
using service::MissionConfig;
using service::ShardFault;
using service::ShardFaultConfig;
using service::ShardFaultKind;
using service::ShardFaultPlan;
using service::solve_mission;
using service::solve_tile_supervised;
using service::SupervisorPolicy;
using service::Tile;
using service::TilePlan;
using service::TileStatus;
using service::TilingParams;

Scenario mission_scenario(std::uint64_t seed, std::int32_t users = 120,
                          std::int32_t uavs = 8) {
  Rng rng(seed);
  workload::ScenarioConfig config;
  config.width_m = 1500;
  config.height_m = 1500;
  config.cell_side_m = 300;
  config.user_count = users;
  config.fleet.uav_count = uavs;
  config.fleet.capacity_min = 15;
  config.fleet.capacity_max = 40;
  return workload::make_disaster_scenario(config, rng);
}

MissionConfig mission_config(std::int32_t threads = 1) {
  MissionConfig config;
  config.tiling.tiles_x = 2;
  config.tiling.tiles_y = 2;
  config.tiling.halo_cells = 1;
  config.appro.s = 1;
  config.appro.threads = 1;
  config.threads = threads;
  return config;
}

// --- tiling ---------------------------------------------------------------

TEST(Tiling, CoreRectanglesPartitionGridAndUsers) {
  const Scenario sc = mission_scenario(7);
  const TilePlan plan = make_tiling(sc, TilingParams{2, 2, 1});
  ASSERT_EQ(plan.tile_count(), 4);

  // Core rectangles cover every grid cell exactly once.
  std::vector<std::int32_t> cell_owner(
      static_cast<std::size_t>(sc.grid.size()), -1);
  for (const Tile& tile : plan.tiles) {
    for (std::int32_t r = tile.row0; r < tile.row1; ++r) {
      for (std::int32_t c = tile.col0; c < tile.col1; ++c) {
        const std::size_t cell =
            static_cast<std::size_t>(sc.grid.id_of(r, c).value());
        EXPECT_EQ(cell_owner[cell], -1);
        cell_owner[cell] = tile.id.value();
      }
    }
    // Halo window contains the core.
    EXPECT_LE(tile.hcol0, tile.col0);
    EXPECT_LE(tile.hrow0, tile.row0);
    EXPECT_GE(tile.hcol1, tile.col1);
    EXPECT_GE(tile.hrow1, tile.row1);
  }
  EXPECT_EQ(std::count(cell_owner.begin(), cell_owner.end(), -1), 0);

  // Every user owned by exactly one tile; fleet slices disjoint; populated
  // tiles staffed.
  std::vector<std::int32_t> user_seen(
      static_cast<std::size_t>(sc.user_count()), 0);
  std::vector<std::int32_t> uav_seen(static_cast<std::size_t>(sc.uav_count()),
                                     0);
  for (const Tile& tile : plan.tiles) {
    for (const UserId u : tile.restricted.users) {
      ++user_seen[static_cast<std::size_t>(u.value())];
    }
    for (const UavId k : tile.restricted.fleet) {
      ++uav_seen[static_cast<std::size_t>(k.value())];
    }
    if (tile.user_count() > 0) {
      EXPECT_GE(tile.uav_count(), 1);
    }
  }
  for (const std::int32_t n : user_seen) EXPECT_EQ(n, 1);
  for (const std::int32_t n : uav_seen) EXPECT_LE(n, 1);
}

TEST(Tiling, DeterministicAcrossCalls) {
  const Scenario sc = mission_scenario(11);
  const TilePlan a = make_tiling(sc, TilingParams{2, 2, 1});
  const TilePlan b = make_tiling(sc, TilingParams{2, 2, 1});
  ASSERT_EQ(a.tile_count(), b.tile_count());
  for (std::int32_t t = 0; t < a.tile_count(); ++t) {
    const Tile& x = a.tiles[static_cast<std::size_t>(t)];
    const Tile& y = b.tiles[static_cast<std::size_t>(t)];
    EXPECT_EQ(x.restricted.users, y.restricted.users);
    EXPECT_EQ(x.restricted.fleet, y.restricted.fleet);
    EXPECT_EQ(x.restricted.scenario.fingerprint(),
              y.restricted.scenario.fingerprint());
  }
}

TEST(Tiling, RejectsBadParams) {
  const Scenario sc = mission_scenario(3);
  EXPECT_THROW(make_tiling(sc, TilingParams{0, 2, 1}), std::invalid_argument);
  EXPECT_THROW(make_tiling(sc, TilingParams{2, 2, -1}), std::invalid_argument);
}

// --- chaos plans ----------------------------------------------------------

TEST(Chaos, PlanIsSeededAndValid) {
  ShardFaultConfig config;
  config.faults = 2;
  const ShardFaultPlan a = make_shard_fault_plan(4, config, 42);
  const ShardFaultPlan b = make_shard_fault_plan(4, config, 42);
  const ShardFaultPlan c = make_shard_fault_plan(4, config, 43);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  ASSERT_EQ(a.faults.size(), 2u);
  a.validate(4);
  EXPECT_THROW(a.validate(1), std::invalid_argument);
  for (const ShardFault& f : a.faults) {
    EXPECT_NE(a.fault_for(f.tile), nullptr);
    EXPECT_GE(f.attempts, 1);
  }
}

// --- supervisor -----------------------------------------------------------

struct TileFixture {
  Scenario scenario;
  TilePlan plan;
  std::int32_t populated;  // id of a tile with users

  explicit TileFixture(std::uint64_t seed)
      : scenario(mission_scenario(seed)),
        plan(make_tiling(scenario, TilingParams{2, 2, 1})),
        populated(-1) {
    for (const Tile& tile : plan.tiles) {
      if (tile.user_count() > 0) {
        populated = tile.id.value();
        break;
      }
    }
  }
  const Tile& tile() const {
    return plan.tiles[static_cast<std::size_t>(populated)];
  }
};

TEST(Supervisor, CleanTileSolvesFirstTry) {
  const TileFixture fx(21);
  ASSERT_GE(fx.populated, 0);
  const CoverageModel coverage(fx.tile().restricted.scenario);
  ApproAlgParams appro;
  appro.s = 1;
  const auto out = solve_tile_supervised(fx.tile(), coverage, appro,
                                         SupervisorPolicy{}, nullptr, nullptr);
  EXPECT_EQ(out.status, TileStatus::kSolved);
  EXPECT_EQ(out.attempts, 1);
  ASSERT_EQ(out.journal.size(), 1u);
  EXPECT_EQ(out.journal[0].outcome, AttemptOutcome::kOk);
  EXPECT_GT(out.solution.served, 0);
}

TEST(Supervisor, FlakeIsAbsorbedByRetryWithPinnedBackoff) {
  const TileFixture fx(21);
  ShardFaultPlan chaos;
  chaos.faults.push_back(
      ShardFault{TileId{fx.populated}, ShardFaultKind::kFlake, 1});
  const CoverageModel coverage(fx.tile().restricted.scenario);
  ApproAlgParams appro;
  appro.s = 1;
  const auto out = solve_tile_supervised(fx.tile(), coverage, appro,
                                         SupervisorPolicy{}, &chaos, nullptr);
  EXPECT_EQ(out.status, TileStatus::kRecovered);
  EXPECT_EQ(out.attempts, 2);
  ASSERT_EQ(out.journal.size(), 2u);
  EXPECT_TRUE(out.journal[0].injected);
  EXPECT_EQ(out.journal[0].outcome, AttemptOutcome::kError);
  EXPECT_DOUBLE_EQ(out.journal[0].backoff_s, 0.25);  // base * 2^(1-1)
  EXPECT_EQ(out.journal[1].outcome, AttemptOutcome::kOk);
}

TEST(Supervisor, ExhaustedRetriesFallBackToGreedy) {
  const TileFixture fx(21);
  const SupervisorPolicy policy;  // max_attempts = 3
  ShardFaultPlan chaos;
  chaos.faults.push_back(ShardFault{TileId{fx.populated},
                                    ShardFaultKind::kSolverException,
                                    policy.max_attempts});
  const CoverageModel coverage(fx.tile().restricted.scenario);
  ApproAlgParams appro;
  appro.s = 1;
  const auto out = solve_tile_supervised(fx.tile(), coverage, appro, policy,
                                         &chaos, nullptr);
  EXPECT_EQ(out.status, TileStatus::kFallback);
  EXPECT_EQ(out.attempts, policy.max_attempts + 1);
  ASSERT_EQ(out.journal.size(), 4u);
  // Pinned deterministic exponential backoff: 0.25, 0.5, 1.0.
  EXPECT_DOUBLE_EQ(out.journal[0].backoff_s, 0.25);
  EXPECT_DOUBLE_EQ(out.journal[1].backoff_s, 0.5);
  EXPECT_DOUBLE_EQ(out.journal[2].backoff_s, 1.0);
  EXPECT_TRUE(out.journal[3].fallback);
  EXPECT_EQ(out.journal[3].outcome, AttemptOutcome::kOk);
  EXPECT_EQ(out.solution.algorithm, "service.fallback");
  EXPECT_GT(out.solution.served, 0);
}

TEST(Supervisor, UnrecoverableFaultDegradesToEmptyTile) {
  const TileFixture fx(21);
  ShardFaultPlan chaos;
  chaos.faults.push_back(
      ShardFault{TileId{fx.populated}, ShardFaultKind::kDeadlineOverrun, 64});
  const CoverageModel coverage(fx.tile().restricted.scenario);
  ApproAlgParams appro;
  appro.s = 1;
  const auto out = solve_tile_supervised(fx.tile(), coverage, appro,
                                         SupervisorPolicy{}, &chaos, nullptr);
  EXPECT_EQ(out.status, TileStatus::kEmpty);
  EXPECT_EQ(out.solution.served, 0);
  for (const AttemptRecord& rec : out.journal) {
    EXPECT_NE(rec.outcome, AttemptOutcome::kOk);
  }
}

TEST(Supervisor, CorruptResultIsCaughtAndRetried) {
  const TileFixture fx(21);
  ShardFaultPlan chaos;
  chaos.faults.push_back(
      ShardFault{TileId{fx.populated}, ShardFaultKind::kCorruptResult, 1});
  const CoverageModel coverage(fx.tile().restricted.scenario);
  ApproAlgParams appro;
  appro.s = 1;
  const auto out = solve_tile_supervised(fx.tile(), coverage, appro,
                                         SupervisorPolicy{}, &chaos, nullptr);
  EXPECT_EQ(out.status, TileStatus::kRecovered);
  ASSERT_GE(out.journal.size(), 2u);
  EXPECT_EQ(out.journal[0].outcome, AttemptOutcome::kCorrupt);
  EXPECT_TRUE(out.journal[0].injected);
}

TEST(Supervisor, CancelledJobEmptiesTileImmediately) {
  const TileFixture fx(21);
  CancelLatch latch;
  latch.cancel();
  const service::JobControl control(&latch, 0.0);
  const CoverageModel coverage(fx.tile().restricted.scenario);
  ApproAlgParams appro;
  appro.s = 1;
  const auto out = solve_tile_supervised(fx.tile(), coverage, appro,
                                         SupervisorPolicy{}, nullptr,
                                         &control);
  EXPECT_EQ(out.status, TileStatus::kEmpty);
  ASSERT_EQ(out.journal.size(), 1u);
  EXPECT_EQ(out.journal[0].outcome, AttemptOutcome::kCancelled);
}

// --- chaos acceptance: pinned fault seeds over whole missions -------------

// Every injected shard failure must be recovered (retry / fallback) or
// named in the DegradationReport; the stitched solution must survive the
// deep audits (forced on via UAVCOV_AUDIT=1) and be §II-C connected.
TEST(ChaosAcceptance, SixPinnedFaultSeedsAllRecoverOrDegradeLoudly) {
  const Scenario sc = mission_scenario(31);
  const MissionConfig config = mission_config();
  ShardFaultConfig chaos_config;
  chaos_config.faults = 2;
  chaos_config.max_poison_depth = 3;
  for (const std::uint64_t seed : {101u, 102u, 103u, 104u, 105u, 106u}) {
    const ShardFaultPlan chaos =
        make_shard_fault_plan(4, chaos_config, seed);
    const JobResult result = solve_mission(sc, config, &chaos);
    EXPECT_TRUE(deployments_connected(sc, result.solution.deployments))
        << "seed " << seed;
    for (const ShardFault& fault : chaos.faults) {
      const TileStatus status =
          result.report.tiles[static_cast<std::size_t>(fault.tile.value())]
              .status;
      if (status == TileStatus::kNoUsers) continue;  // fault never fired
      EXPECT_TRUE(status == TileStatus::kRecovered ||
                  status == TileStatus::kFallback ||
                  status == TileStatus::kEmpty)
          << "seed " << seed << " tile " << fault.tile.value() << " status "
          << service::to_string(status);
    }
    // Journal and report agree on the injected failures.
    std::int64_t injected = 0;
    for (const AttemptRecord& rec : result.attempts) {
      if (rec.injected) ++injected;
    }
    EXPECT_GT(injected, 0) << "seed " << seed;
  }
}

TEST(ChaosAcceptance, UnrecoverableTileIsNamedInDegradationReport) {
  const Scenario sc = mission_scenario(31);
  const MissionConfig config = mission_config();
  ShardFaultConfig chaos_config;
  chaos_config.faults = 1;
  chaos_config.include_unrecoverable = true;
  const ShardFaultPlan chaos = make_shard_fault_plan(4, chaos_config, 107);
  const JobResult result = solve_mission(sc, config, &chaos);
  const TileId victim = chaos.faults[0].tile;
  const TileStatus status =
      result.report.tiles[static_cast<std::size_t>(victim.value())].status;
  if (status != TileStatus::kNoUsers) {
    EXPECT_EQ(status, TileStatus::kEmpty);
    EXPECT_GE(result.report.degraded_tiles(), 1);
    EXPECT_NE(result.report.to_string().find(
                  "tile " + std::to_string(victim.value())),
              std::string::npos);
  }
  // Even with a dead tile, the stitched remainder is feasible & connected
  // (validated by the UAVCOV_AUDIT=1 deep audits inside solve_mission).
  EXPECT_TRUE(deployments_connected(sc, result.solution.deployments));
}

// --- determinism ----------------------------------------------------------

TEST(Mission, ZeroFaultShardedRunIsBitIdenticalSerialVsFourThreads) {
  const Scenario sc = mission_scenario(31);
  const JobResult serial = solve_mission(sc, mission_config(1));
  const JobResult parallel = solve_mission(sc, mission_config(4));
  EXPECT_EQ(serial.solution.fingerprint(), parallel.solution.fingerprint());
  EXPECT_EQ(serial.report.degraded_tiles(), 0);
  EXPECT_EQ(parallel.report.degraded_tiles(), 0);
  ASSERT_EQ(serial.report.tiles.size(), parallel.report.tiles.size());
  for (std::size_t t = 0; t < serial.report.tiles.size(); ++t) {
    EXPECT_EQ(serial.report.tiles[t].status, parallel.report.tiles[t].status);
    EXPECT_EQ(serial.report.tiles[t].served, parallel.report.tiles[t].served);
  }
  EXPECT_GT(serial.solution.served, 0);
  EXPECT_FALSE(serial.stats.cancelled);
  EXPECT_FALSE(serial.stats.deadline_hit);
}

TEST(Mission, FaultedRunIsDeterministicAcrossThreadCounts) {
  const Scenario sc = mission_scenario(31);
  ShardFaultConfig chaos_config;
  chaos_config.faults = 2;
  const ShardFaultPlan chaos = make_shard_fault_plan(4, chaos_config, 104);
  const JobResult serial = solve_mission(sc, mission_config(1), &chaos);
  const JobResult parallel = solve_mission(sc, mission_config(4), &chaos);
  EXPECT_EQ(serial.solution.fingerprint(), parallel.solution.fingerprint());
  EXPECT_EQ(serial.stats.retries, parallel.stats.retries);
  EXPECT_EQ(serial.stats.fallbacks, parallel.stats.fallbacks);
  EXPECT_EQ(serial.attempts.size(), parallel.attempts.size());
}

TEST(Mission, PreCancelledJobDegradesEveryPopulatedTile) {
  const Scenario sc = mission_scenario(31);
  CancelLatch latch;
  latch.cancel();
  const JobResult result =
      solve_mission(sc, mission_config(), nullptr, &latch);
  EXPECT_TRUE(result.stats.cancelled);
  EXPECT_EQ(result.solution.served, 0);
  for (const auto& tile : result.report.tiles) {
    if (tile.status == TileStatus::kNoUsers) continue;
    EXPECT_EQ(tile.status, TileStatus::kEmpty);
  }
}

// --- stitching against single-shot ---------------------------------------

/// bench_runner's service_sharded_s1 scenario: seed 110, 400 users, 8 UAVs,
/// C_max 150.
Scenario sharded_s1_scenario() {
  Rng rng(110);
  workload::ScenarioConfig config;
  config.user_count = 400;
  config.fleet.uav_count = 8;
  config.fleet.capacity_max = 150;
  return workload::make_disaster_scenario(config, rng);
}

TEST(Mission, OneTileMissionIsFingerprintIdenticalToSingleShot) {
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    const Scenario sc = mission_scenario(seed);
    MissionConfig config = mission_config();
    config.tiling.tiles_x = 1;
    config.tiling.tiles_y = 1;
    const JobResult mission = solve_mission(sc, config);
    const CoverageModel coverage(sc);
    const Solution single = appro_alg(sc, coverage, config.appro);
    EXPECT_EQ(mission.solution.fingerprint(), single.fingerprint())
        << "seed " << seed;
    EXPECT_EQ(mission.stats.dropped, 0) << "seed " << seed;
  }
}

TEST(Mission, NoFaultTwoByTwoServesNineTenthsOfSingleShot) {
  // The stitch keeps the max-served component and re-homes every other
  // UAV on its frontier instead of leaving them idle.
  const Scenario sc = sharded_s1_scenario();
  MissionConfig config = mission_config();
  config.appro.candidate_cap = 40;
  const JobResult mission = solve_mission(sc, config);
  const CoverageModel coverage(sc);
  const Solution single = appro_alg(sc, coverage, config.appro);
  EXPECT_EQ(mission.report.degraded_tiles(), 0);
  EXPECT_GE(10 * mission.solution.served, 9 * single.served)
      << mission.solution.served << " against " << single.served;
}

// --- job queue ------------------------------------------------------------

TEST(JobQueueTest, SubmitWaitMatchesDirectSolve) {
  const Scenario sc = mission_scenario(31);
  const JobResult direct = solve_mission(sc, mission_config());
  JobQueue queue(2);
  std::vector<std::int64_t> ids;
  for (std::int32_t i = 0; i < 3; ++i) {
    ids.push_back(queue.submit(JobSpec{sc, mission_config(), {}, 0.0}));
  }
  for (const std::int64_t id : ids) {
    const JobResult result = queue.wait(id);
    EXPECT_EQ(result.solution.fingerprint(), direct.solution.fingerprint());
    EXPECT_EQ(result.report.degraded_tiles(), 0);
  }
}

TEST(JobQueueTest, WaitTransfersOwnershipAndRejectsUnknownIds) {
  const Scenario sc = mission_scenario(31);
  JobQueue queue(1);
  const std::int64_t id = queue.submit(JobSpec{sc, mission_config(), {}, 0.0});
  (void)queue.wait(id);
  EXPECT_THROW((void)queue.wait(id), std::invalid_argument);   // second wait
  EXPECT_THROW((void)queue.wait(999), std::invalid_argument);  // never issued
  EXPECT_FALSE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(999));
}

TEST(JobQueueTest, ShutdownNowRetiresQueuedJobsAsCancelled) {
  const Scenario sc = mission_scenario(31);
  JobQueue queue(1);  // single worker => later jobs stay queued
  std::vector<std::int64_t> ids;
  for (std::int32_t i = 0; i < 4; ++i) {
    ids.push_back(queue.submit(JobSpec{sc, mission_config(), {}, 0.0}));
  }
  queue.shutdown_now();
  queue.drain();
  std::int32_t cancelled = 0;
  for (const std::int64_t id : ids) {
    const JobResult result = queue.wait(id);
    if (result.stats.cancelled) ++cancelled;
  }
  // At least the never-started tail was retired as cancelled; jobs that
  // had already begun ran their (cooperatively cancelled) mission.
  EXPECT_GE(cancelled, 1);
}

// --- thread-pool cancellation hook ---------------------------------------

TEST(ThreadPoolDiscard, DropsQueuedButNotRunningTasks) {
  ThreadPool pool(1);
  sync::Mutex mu;
  sync::CondVar cv;
  bool release = false;
  bool started = false;
  std::int32_t ran = 0;
  pool.submit([&] {
    sync::UniqueLock lock(mu);
    started = true;
    cv.notify_all();
    while (!release) cv.wait(lock);
  });
  {
    sync::UniqueLock lock(mu);
    while (!started) cv.wait(lock);
  }
  for (std::int32_t i = 0; i < 5; ++i) {
    pool.submit([&] {
      const sync::LockGuard lock(mu);
      ++ran;
    });
  }
  EXPECT_EQ(pool.discard_pending(), 5u);
  {
    const sync::LockGuard lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.wait_idle();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(pool.discard_pending(), 0u);  // empty queue is a no-op
}

}  // namespace
}  // namespace uavcov
