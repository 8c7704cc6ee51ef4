// Tests for the seed-subset search: a run with threads > 1 must be
// bit-identical to threads = 1 — same deployments, same user assignment,
// same served count, and the same ApproAlgStats subset counters — on
// randomized scenarios, with and without the max_seed_subsets budget.
// The rank split (worker wi evaluates rank r iff r % workers == wi) must
// evaluate every enumerated subset exactly once, whatever the worker
// count.  Also covers the ThreadPool primitive itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/appro_alg.hpp"
#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"

namespace uavcov {
namespace {

/// Random small scenario on a cells×cells grid of 100 m cells (same
/// construction as appro_alg_test.cpp).
Scenario random_scenario(Rng& rng, std::int32_t cells, std::int32_t users,
                         std::int32_t uavs, std::int32_t cap_max = 3) {
  Scenario sc{
      .grid = Grid(cells * 100.0, cells * 100.0, 100.0),
      .altitude_m = 60.0,
      .uav_range_m = 150.0,
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {},
  };
  for (std::int32_t i = 0; i < users; ++i) {
    sc.users.push_back(
        {{rng.uniform(0, cells * 100.0), rng.uniform(0, cells * 100.0)},
         1e3});
  }
  for (std::int32_t k = 0; k < uavs; ++k) {
    sc.fleet.push_back(
        {1 + static_cast<std::int32_t>(rng.next_below(
             static_cast<std::uint64_t>(cap_max))),
         Radio{}, 120.0});
  }
  return sc;
}

void expect_identical(const Solution& serial, const Solution& parallel) {
  EXPECT_EQ(serial.served, parallel.served);
  ASSERT_EQ(serial.deployments.size(), parallel.deployments.size());
  for (std::size_t i = 0; i < serial.deployments.size(); ++i) {
    EXPECT_EQ(serial.deployments[i].uav, parallel.deployments[i].uav) << i;
    EXPECT_EQ(serial.deployments[i].loc, parallel.deployments[i].loc) << i;
  }
  EXPECT_EQ(serial.user_to_deployment, parallel.user_to_deployment);
}

void expect_identical_counters(const ApproAlgStats& serial,
                               const ApproAlgStats& parallel) {
  EXPECT_EQ(serial.candidates, parallel.candidates);
  EXPECT_EQ(serial.subsets_evaluated, parallel.subsets_evaluated);
  EXPECT_EQ(serial.subsets_stitched, parallel.subsets_stitched);
  EXPECT_EQ(serial.probes, parallel.probes);
}

class ParallelDeterminism : public testing::TestWithParam<int> {};

TEST_P(ParallelDeterminism, MatchesSerialBitForBit) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 41 + 5);
  const std::int32_t cells = 4 + static_cast<std::int32_t>(rng.next_below(3));
  const std::int32_t users = 8 + static_cast<std::int32_t>(rng.next_below(30));
  const std::int32_t uavs = 3 + static_cast<std::int32_t>(rng.next_below(5));
  const Scenario sc = random_scenario(rng, cells, users, uavs);
  const CoverageModel cov(sc);
  for (std::int32_t s = 1; s <= 2; ++s) {
    ApproAlgParams serial_params;
    serial_params.s = s;
    serial_params.threads = 1;
    ApproAlgParams parallel_params = serial_params;
    parallel_params.threads = 4;

    ApproAlgStats serial_stats;
    ApproAlgStats parallel_stats;
    const Solution a = solve(sc, cov, serial_params, &serial_stats);
    const Solution b = solve(sc, cov, parallel_params, &parallel_stats);
    expect_identical(a, b);
    expect_identical_counters(serial_stats, parallel_stats);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminism, testing::Range(0, 10));

TEST(ParallelDeterminism, SubsetBudgetCountersStayExact) {
  Rng rng(923);
  const Scenario sc = random_scenario(rng, 5, 30, 6);
  const CoverageModel cov(sc);
  for (const std::int64_t budget : {1, 3, 7}) {
    ApproAlgParams serial_params;
    serial_params.s = 2;
    serial_params.threads = 1;
    serial_params.max_seed_subsets = budget;
    ApproAlgParams parallel_params = serial_params;
    parallel_params.threads = 4;

    ApproAlgStats serial_stats;
    ApproAlgStats parallel_stats;
    const Solution a = solve(sc, cov, serial_params, &serial_stats);
    const Solution b = solve(sc, cov, parallel_params, &parallel_stats);
    expect_identical(a, b);
    expect_identical_counters(serial_stats, parallel_stats);
    EXPECT_LE(serial_stats.subsets_evaluated, budget);
  }
}

TEST(ParallelDeterminism, BitIdenticalWithMetricsRecording) {
  // Observability design constraint 2 (docs/OBSERVABILITY.md): the metrics
  // registry is write-only from the solver's perspective, so recording must
  // not perturb the serial/parallel bit-identity.  ctest already exports
  // UAVCOV_METRICS=1 for this binary; force-enable anyway so a bare run of
  // the test binary checks the same thing.
  obs::Registry& reg = obs::Registry::instance();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    const Scenario sc = random_scenario(rng, 5, 25, 5);
    const CoverageModel cov(sc);
    ApproAlgParams serial_params;
    serial_params.s = 2;
    serial_params.threads = 1;
    ApproAlgParams parallel_params = serial_params;
    parallel_params.threads = 4;

    ApproAlgStats serial_stats;
    ApproAlgStats parallel_stats;
    const Solution a = solve(sc, cov, serial_params, &serial_stats);
    const Solution b = solve(sc, cov, parallel_params, &parallel_stats);
    expect_identical(a, b);
    expect_identical_counters(serial_stats, parallel_stats);
  }
  reg.set_enabled(was_enabled);
}

TEST(ParallelDeterminism, ThreadsZeroMeansHardwareConcurrency) {
  Rng rng(31);
  const Scenario sc = random_scenario(rng, 4, 15, 4);
  const CoverageModel cov(sc);
  ApproAlgParams serial_params;
  serial_params.s = 2;
  serial_params.threads = 1;
  ApproAlgParams auto_params = serial_params;
  auto_params.threads = 0;  // auto-detect
  const Solution a = solve(sc, cov, serial_params);
  const Solution b = solve(sc, cov, auto_params);
  expect_identical(a, b);
}

/// Brute-force count of the seed subsets approAlg must evaluate: every
/// s-subset of candidate_locations(cap) or, with pruning on, those whose
/// pairwise hop distance is at most L_max − 1.
std::int64_t brute_force_subset_count(const Scenario& sc,
                                      const CoverageModel& cov,
                                      const ApproAlgParams& params) {
  const std::vector<LocationId> cand =
      cov.candidate_locations(params.candidate_cap);
  const auto m = static_cast<std::int32_t>(cand.size());
  const std::int32_t s = std::min({params.s, sc.uav_count(), m});
  const std::int32_t l_max = compute_segment_plan(sc.uav_count(), s).L_max;
  const Graph g = build_location_graph(sc.grid, sc.uav_range_m);
  std::vector<std::vector<std::int32_t>> dist;
  for (const LocationId c : cand) dist.push_back(bfs_distances(g, to_node(c)));
  const auto compatible = [&](std::int32_t a, std::int32_t b) {
    if (!params.prune_seed_pairs) return true;
    const std::int32_t hops = dist[static_cast<std::size_t>(a)]
                                  [cand[static_cast<std::size_t>(b)].index()];
    return hops != kUnreachable && hops <= l_max - 1;
  };
  std::int64_t count = 0;
  std::vector<std::int32_t> subset;
  const auto extend = [&](auto&& self, std::int32_t start) -> void {
    if (static_cast<std::int32_t>(subset.size()) == s) {
      ++count;
      return;
    }
    for (std::int32_t i = start; i < m; ++i) {
      bool ok = true;
      for (const std::int32_t j : subset) ok = ok && compatible(j, i);
      if (!ok) continue;
      subset.push_back(i);
      self(self, i + 1);
      subset.pop_back();
    }
  };
  extend(extend, 0);
  return count;
}

std::int64_t binomial(std::int64_t n, std::int64_t k) {
  std::int64_t c = 1;
  for (std::int64_t i = 1; i <= k; ++i) c = c * (n - k + i) / i;
  return c;
}

class EnumerationSplit : public testing::TestWithParam<int> {};

TEST_P(EnumerationSplit, EvaluatesEveryEnumeratedSubsetOnce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 3);
  const Scenario sc = random_scenario(
      rng, 4 + static_cast<std::int32_t>(rng.next_below(3)),
      10 + static_cast<std::int32_t>(rng.next_below(20)),
      3 + static_cast<std::int32_t>(rng.next_below(4)));
  const CoverageModel cov(sc);
  for (const bool prune : {true, false}) {
    for (const std::int32_t s : {1, 2, 3}) {
      ApproAlgParams params;
      params.s = s;
      params.candidate_cap = 8;
      params.prune_seed_pairs = prune;
      const std::int64_t expected = brute_force_subset_count(sc, cov, params);
      if (!prune) {
        const std::int64_t m = static_cast<std::int64_t>(
            cov.candidate_locations(params.candidate_cap).size());
        EXPECT_EQ(expected,
                  binomial(m, std::min<std::int64_t>(
                                  {s, sc.uav_count(), m})));
      }
      for (const std::int32_t threads : {1, 3}) {
        params.threads = threads;
        ApproAlgStats stats;
        (void)solve(sc, cov, params, &stats);
        EXPECT_EQ(stats.subsets_evaluated, expected)
            << "prune=" << prune << " s=" << s << " threads=" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnumerationSplit, testing::Range(0, 6));

TEST(EnumerationSplit, MoreWorkersThanSubsetsMatchesSerial) {
  // s = 1 over a 5-location cap leaves 5 subsets for 8 workers: three
  // workers own no rank at all and must not disturb the result.
  Rng rng(4242);
  const Scenario sc = random_scenario(rng, 5, 30, 5);
  const CoverageModel cov(sc);
  ApproAlgParams serial_params;
  serial_params.s = 1;
  serial_params.candidate_cap = 5;
  serial_params.threads = 1;
  ApproAlgParams parallel_params = serial_params;
  parallel_params.threads = 8;

  ApproAlgStats serial_stats;
  ApproAlgStats parallel_stats;
  const Solution a = solve(sc, cov, serial_params, &serial_stats);
  const Solution b = solve(sc, cov, parallel_params, &parallel_stats);
  ASSERT_LT(serial_stats.subsets_evaluated, 8);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  expect_identical(a, b);
  expect_identical_counters(serial_stats, parallel_stats);
  EXPECT_EQ(serial_stats.plan.L_max, parallel_stats.plan.L_max);
  EXPECT_EQ(serial_stats.deadline_hit, parallel_stats.deadline_hit);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
  // The pool is reusable after wait_idle().
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 101);
}

TEST(ThreadPool, WaitIdleRethrowsWorkerException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("worker failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error is consumed: the pool keeps working afterwards.
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ResolvePicksHardwareConcurrencyForZero) {
  EXPECT_GE(ThreadPool::resolve(0), 1);
  EXPECT_EQ(ThreadPool::resolve(1), 1);
  EXPECT_EQ(ThreadPool::resolve(6), 6);
}

}  // namespace
}  // namespace uavcov
