// Tests for src/flow: Dinic max flow, checkpoint/rollback journaling,
// randomized cross-checks against the exhaustive assignment oracle.
#include <gtest/gtest.h>

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

// Probe/rollback fuzz: interleave committed growth with rolled-back probes
// and verify the final flow equals a from-scratch computation.
class DinicCheckpointFuzz : public testing::TestWithParam<int> {};

TEST_P(DinicCheckpointFuzz, RollbackNeverLeaks) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 3);
  DinicFlow live;
  const auto s = live.add_node();
  const auto t = live.add_node();
  std::vector<std::tuple<int, int, int>> committed_edges;  // (u, v, cap)
  std::vector<DinicFlow::FlowNode> nodes{s, t};
  std::int64_t live_flow = 0;

  for (int step = 0; step < 30; ++step) {
    const bool probe_only = rng.chance(0.5);
    const auto cp = probe_only ? live.checkpoint() : DinicFlow::Checkpoint{};
    // Add a random node with random edges from s-side and to t-side.
    const auto nu = live.add_node();
    const int cap_in = 1 + static_cast<int>(rng.next_below(3));
    const int cap_out = 1 + static_cast<int>(rng.next_below(3));
    live.add_edge(s, nu, cap_in);
    live.add_edge(nu, t, cap_out);
    const auto gain = live.augment(s, t);
    if (probe_only) {
      live.rollback(cp);
    } else {
      nodes.push_back(nu);
      committed_edges.emplace_back(0, static_cast<int>(nodes.size()) - 1,
                                   cap_in);
      committed_edges.emplace_back(static_cast<int>(nodes.size()) - 1, 1,
                                   cap_out);
      live_flow += gain;
    }
  }

  // Reference: rebuild only the committed structure from scratch.
  DinicFlow fresh;
  std::vector<DinicFlow::FlowNode> fresh_nodes;
  fresh_nodes.push_back(fresh.add_node());
  fresh_nodes.push_back(fresh.add_node());
  for (std::size_t i = 2; i < nodes.size(); ++i) {
    fresh_nodes.push_back(fresh.add_node());
  }
  for (auto [u, v, cap] : committed_edges) {
    fresh.add_edge(fresh_nodes[static_cast<std::size_t>(u)],
                   fresh_nodes[static_cast<std::size_t>(v)], cap);
  }
  EXPECT_EQ(live_flow, fresh.augment(fresh_nodes[0], fresh_nodes[1]));
  EXPECT_EQ(live.augment(s, t), 0);  // live network is already maximal
}

INSTANTIATE_TEST_SUITE_P(Seeds, DinicCheckpointFuzz, testing::Range(0, 15));

}  // namespace
}  // namespace uavcov
