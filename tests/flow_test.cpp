// Tests for src/flow: Dinic max flow, checkpoint/rollback journaling,
// randomized cross-checks against the exhaustive assignment oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "flow/dinic.hpp"
#include "flow/oracles.hpp"

namespace uavcov {
namespace {

TEST(Dinic, SingleEdge) {
  DinicFlow f;
  const auto s = f.add_node();
  const auto t = f.add_node();
  const auto e = f.add_edge(s, t, 5);
  EXPECT_EQ(f.augment(s, t), 5);
  EXPECT_EQ(f.edge_flow(e), 5);
}

TEST(Dinic, BottleneckPath) {
  DinicFlow f;
  const auto s = f.add_node();
  const auto a = f.add_node();
  const auto t = f.add_node();
  f.add_edge(s, a, 10);
  f.add_edge(a, t, 3);
  EXPECT_EQ(f.augment(s, t), 3);
}

TEST(Dinic, ClassicDiamond) {
  // s→a:4 s→b:2 a→b:1 a→t:2 b→t:3  → max flow 5.
  DinicFlow f;
  const auto s = f.add_node();
  const auto a = f.add_node();
  const auto b = f.add_node();
  const auto t = f.add_node();
  f.add_edge(s, a, 4);
  f.add_edge(s, b, 2);
  f.add_edge(a, b, 1);
  f.add_edge(a, t, 2);
  f.add_edge(b, t, 3);
  EXPECT_EQ(f.augment(s, t), 5);
}

TEST(Dinic, NoPathMeansZero) {
  DinicFlow f;
  const auto s = f.add_node();
  const auto t = f.add_node();
  EXPECT_EQ(f.augment(s, t), 0);
}

TEST(Dinic, SecondAugmentAddsNothing) {
  DinicFlow f;
  const auto s = f.add_node();
  const auto t = f.add_node();
  f.add_edge(s, t, 7);
  EXPECT_EQ(f.augment(s, t), 7);
  EXPECT_EQ(f.augment(s, t), 0);
}

TEST(Dinic, IncrementalAugmentAfterNewEdges) {
  DinicFlow f;
  const auto s = f.add_node();
  const auto t = f.add_node();
  const auto a = f.add_node();
  f.add_edge(s, a, 4);
  EXPECT_EQ(f.augment(s, t), 0);
  f.add_edge(a, t, 3);
  EXPECT_EQ(f.augment(s, t), 3);  // incremental, not from scratch
}

TEST(Dinic, ContractViolations) {
  DinicFlow f;
  const auto s = f.add_node();
  EXPECT_THROW(f.add_edge(s, 5, 1), ContractError);
  EXPECT_THROW(f.add_edge(s, s, -1), ContractError);
  EXPECT_THROW(f.augment(s, s), ContractError);
}

TEST(DinicCheckpoint, RollbackRestoresFlowAndTopology) {
  DinicFlow f;
  const auto s = f.add_node();
  const auto t = f.add_node();
  const auto a = f.add_node();
  f.add_edge(s, a, 2);
  const auto e_at = f.add_edge(a, t, 1);
  EXPECT_EQ(f.augment(s, t), 1);

  const auto cp = f.checkpoint();
  const auto b = f.add_node();
  f.add_edge(s, b, 5);
  f.add_edge(b, t, 5);
  EXPECT_EQ(f.augment(s, t), 5);
  f.rollback(cp);

  EXPECT_EQ(f.node_count(), 3);
  EXPECT_EQ(f.edge_flow(e_at), 1);
  // After rollback the network behaves exactly like before the probe.
  EXPECT_EQ(f.augment(s, t), 0);
  (void)b;
}

TEST(DinicCheckpoint, RollbackUndoesReroutedFlow) {
  // The probe's augmentation reroutes existing flow through residual
  // edges; rollback must restore the original routing exactly.
  DinicFlow f;
  const auto s = f.add_node();
  const auto t = f.add_node();
  const auto a = f.add_node();
  const auto b = f.add_node();
  const auto e_sa = f.add_edge(s, a, 1);
  f.add_edge(a, b, 1);
  const auto e_bt = f.add_edge(b, t, 1);
  EXPECT_EQ(f.augment(s, t), 1);

  const auto cp = f.checkpoint();
  // New path s→b and a→t lets flow 2 total (rerouting a→b usage).
  f.add_edge(s, b, 1);
  f.add_edge(a, t, 1);
  EXPECT_EQ(f.augment(s, t), 1);
  f.rollback(cp);
  EXPECT_EQ(f.edge_flow(e_sa), 1);
  EXPECT_EQ(f.edge_flow(e_bt), 1);
  EXPECT_EQ(f.augment(s, t), 0);
}

TEST(DinicCheckpoint, NestedScopesUnwindInOrder) {
  DinicFlow f;
  const auto s = f.add_node();
  const auto t = f.add_node();
  f.add_edge(s, t, 1);
  EXPECT_EQ(f.augment(s, t), 1);

  const auto outer = f.checkpoint();
  f.add_edge(s, t, 2);
  EXPECT_EQ(f.augment(s, t), 2);
  const auto inner = f.checkpoint();
  f.add_edge(s, t, 4);
  EXPECT_EQ(f.augment(s, t), 4);
  f.rollback(inner);
  EXPECT_EQ(f.augment(s, t), 0);  // back to flow 3 state
  f.rollback(outer);
  EXPECT_EQ(f.augment(s, t), 0);  // back to flow 1 state
  EXPECT_EQ(f.edge_count(), 2);
}

TEST(DinicCheckpoint, RollbackWithoutCheckpointThrows) {
  DinicFlow f;
  DinicFlow::Checkpoint cp{};
  EXPECT_THROW(f.rollback(cp), ContractError);
}

// Randomized: bipartite assignment instances solved by Dinic must match
// the exhaustive oracle, including after probe/rollback cycles.
class FlowAssignmentRandom : public testing::TestWithParam<int> {};

TEST_P(FlowAssignmentRandom, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1001 + 13);
  const int items = 1 + static_cast<int>(rng.next_below(9));
  const int bins = 1 + static_cast<int>(rng.next_below(4));
  std::vector<std::vector<std::int32_t>> eligible(
      static_cast<std::size_t>(items));
  std::vector<std::int64_t> capacity(static_cast<std::size_t>(bins));
  for (auto& c : capacity) c = 1 + static_cast<std::int64_t>(rng.next_below(3));
  for (auto& e : eligible) {
    for (int b = 0; b < bins; ++b) {
      if (rng.chance(0.5)) e.push_back(b);
    }
  }
  const std::int64_t expected = oracle::brute_force_assignment(eligible, capacity);

  DinicFlow f;
  const auto s = f.add_node();
  const auto t = f.add_node();
  std::vector<DinicFlow::FlowNode> item_node, bin_node;
  for (int i = 0; i < items; ++i) {
    item_node.push_back(f.add_node());
    f.add_edge(s, item_node.back(), 1);
  }
  for (int b = 0; b < bins; ++b) {
    bin_node.push_back(f.add_node());
    f.add_edge(bin_node.back(), t, capacity[static_cast<std::size_t>(b)]);
  }
  for (int i = 0; i < items; ++i) {
    for (std::int32_t b : eligible[static_cast<std::size_t>(i)]) {
      f.add_edge(item_node[static_cast<std::size_t>(i)],
                 bin_node[static_cast<std::size_t>(b)], 1);
    }
  }
  EXPECT_EQ(f.augment(s, t), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowAssignmentRandom, testing::Range(0, 25));

// Bounded augment into an interior node: on a random max-flow residual
// state of a bipartite instance, a new bin x (no x→t edge yet) takes
// exactly the marginal gain the exhaustive oracle and an unbounded
// from-scratch solve both report, and never more than the limit asks.
class DinicBoundedAugment : public testing::TestWithParam<int> {};

TEST_P(DinicBoundedAugment, MatchesOracleAndFromScratch) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2027 + 5);
  const int items = 1 + static_cast<int>(rng.next_below(10));
  const int bins = 1 + static_cast<int>(rng.next_below(3));
  std::vector<std::vector<std::int32_t>> eligible(
      static_cast<std::size_t>(items));
  std::vector<std::int64_t> capacity(static_cast<std::size_t>(bins) + 1);
  for (auto& c : capacity) c = 1 + static_cast<std::int64_t>(rng.next_below(3));
  for (auto& e : eligible) {
    for (int b = 0; b <= bins; ++b) {  // bin `bins` is the new node x
      if (rng.chance(0.5)) e.push_back(b);
    }
  }
  const auto old_bins_only = [&] {
    auto trimmed = eligible;
    for (auto& e : trimmed) std::erase(e, bins);
    return trimmed;
  };
  const std::int64_t before = oracle::brute_force_assignment(
      old_bins_only(), {capacity.begin(), capacity.end() - 1});
  const std::int64_t after = oracle::brute_force_assignment(eligible, capacity);

  // Builds s, t, items and bins; only the old bins get a sink edge, so the
  // last bin is the interior node x unless `x_to_t` (the from-scratch
  // reference) gives it one too.
  struct Built {
    std::vector<DinicFlow::EdgeId> source_edge, sink_edge;
    std::vector<std::vector<std::pair<int, DinicFlow::EdgeId>>> item_edge;
  };
  const auto build = [&](DinicFlow& f, bool x_to_t) {
    Built net;
    f.add_node();  // s = 0
    f.add_node();  // t = 1
    for (int i = 0; i < items; ++i) {
      net.source_edge.push_back(f.add_edge(0, f.add_node(), 1));
    }
    net.item_edge.resize(static_cast<std::size_t>(items));
    for (int b = 0; b <= bins; ++b) {
      const auto bin = f.add_node();
      for (int i = 0; i < items; ++i) {
        const auto& e = eligible[static_cast<std::size_t>(i)];
        if (std::find(e.begin(), e.end(), b) != e.end()) {
          net.item_edge[static_cast<std::size_t>(i)].emplace_back(
              b, f.add_edge(2 + i, bin, 1));
        }
      }
      if (b < bins || x_to_t) {
        net.sink_edge.push_back(
            f.add_edge(bin, 1, capacity[static_cast<std::size_t>(b)]));
      }
    }
    return net;
  };

  DinicFlow fresh;
  build(fresh, true);
  ASSERT_EQ(fresh.augment(0, 1), after);

  // Random residual state: a random feasible partial routing over the old
  // bins, completed to a max flow into t.
  DinicFlow live;
  const Built net = build(live, false);
  std::vector<std::int64_t> room(capacity.begin(), capacity.end() - 1);
  std::int64_t routed = 0;
  for (int i = 0; i < items; ++i) {
    for (const auto& [b, e] : net.item_edge[static_cast<std::size_t>(i)]) {
      if (b == bins) continue;  // x is not routed into yet
      auto& left = room[static_cast<std::size_t>(b)];
      if (left == 0 || !rng.chance(0.5)) continue;
      live.push(net.source_edge[static_cast<std::size_t>(i)], 1);
      live.push(e, 1);
      live.push(net.sink_edge[static_cast<std::size_t>(b)], 1);
      --left;
      ++routed;
      break;
    }
  }
  ASSERT_EQ(routed + live.augment(0, 1), before);

  const DinicFlow::FlowNode x = 2 + items + bins;
  const std::int64_t cap_x = capacity.back();
  const std::int64_t limit =
      1 + static_cast<std::int64_t>(rng.next_below(
              static_cast<std::uint64_t>(cap_x)));
  const auto cp = live.checkpoint();
  EXPECT_EQ(live.augment(0, x, limit, 1), std::min(limit, after - before));
  live.rollback(cp);
  EXPECT_EQ(live.augment(0, x, cap_x, 1), after - before);
  EXPECT_EQ(live.augment(0, 1), 0);  // the sink side stayed maximal
}

INSTANTIATE_TEST_SUITE_P(Seeds, DinicBoundedAugment, testing::Range(0, 40));

// Probe/rollback fuzz in the shape IncrementalAssignment drives it: unit
// items hang off s, and each step adds a bin with random item edges (and
// sometimes a wide s→bin edge), pushes free items straight in, levels the
// rest with a bounded augment, then pushes the gain along bin→t.  Rolled-back probes must restore every
// residual (direct pushes included) and leave the committed growth equal
// to a from-scratch computation.
class DinicCheckpointFuzz : public testing::TestWithParam<int> {};

TEST_P(DinicCheckpointFuzz, RollbackNeverLeaks) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 3);
  DinicFlow live;
  const auto s = live.add_node();
  const auto t = live.add_node();
  const int items = 3 + static_cast<int>(rng.next_below(8));
  std::vector<std::tuple<int, int, int>> committed_edges;  // (u, v, cap)
  std::vector<DinicFlow::EdgeId> source_edge;
  for (int i = 0; i < items; ++i) {
    const auto item = live.add_node();
    source_edge.push_back(live.add_edge(s, item, 1));
    committed_edges.emplace_back(0, item, 1);
  }
  std::int64_t live_flow = 0;
  const auto residuals = [&live] {
    std::vector<std::int64_t> r;
    for (DinicFlow::EdgeId e = 0; e < live.edge_count(); ++e) {
      r.push_back(live.edge_residual(e));
    }
    return r;
  };

  for (int step = 0; step < 30; ++step) {
    const bool probe_only = rng.chance(0.5);
    const auto before = residuals();
    const auto cp = probe_only ? live.checkpoint() : DinicFlow::Checkpoint{};
    const auto bin = live.add_node();
    const std::int64_t cap = 1 + static_cast<std::int64_t>(rng.next_below(3));
    std::int64_t direct = 0;
    std::vector<int> linked;
    for (int i = 0; i < items; ++i) {
      if (!rng.chance(0.4)) continue;
      linked.push_back(i);
      const auto e = live.add_edge(2 + i, bin, 1);
      const auto src = source_edge[static_cast<std::size_t>(i)];
      if (direct < cap && live.edge_residual(src) > 0 && rng.chance(0.7)) {
        live.push(src, 1);
        live.push(e, 1);
        ++direct;
      }
    }
    // Sometimes a wide s→bin edge too, so paths of every length compete.
    const int cap_in =
        rng.chance(0.3) ? 1 + static_cast<int>(rng.next_below(3)) : 0;
    if (cap_in > 0) live.add_edge(s, bin, cap_in);
    const std::int64_t gain = direct + live.augment(s, bin, cap - direct, t);
    live.push(live.add_edge(bin, t, cap), gain);
    if (probe_only) {
      live.rollback(cp);
      EXPECT_EQ(residuals(), before) << "step " << step;
    } else {
      for (int i : linked) committed_edges.emplace_back(2 + i, bin, 1);
      if (cap_in > 0) committed_edges.emplace_back(0, bin, cap_in);
      committed_edges.emplace_back(bin, 1, static_cast<int>(cap));
      live_flow += gain;
    }
  }

  // Reference: rebuild only the committed structure from scratch.
  DinicFlow fresh;
  for (int v = 0; v < live.node_count(); ++v) fresh.add_node();
  for (auto [u, v, cap] : committed_edges) fresh.add_edge(u, v, cap);
  EXPECT_EQ(live_flow, fresh.augment(0, 1));
  EXPECT_EQ(live.augment(s, t), 0);  // live network is already maximal
}

INSTANTIATE_TEST_SUITE_P(Seeds, DinicCheckpointFuzz, testing::Range(0, 15));

}  // namespace
}  // namespace uavcov
