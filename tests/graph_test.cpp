// Tests for src/graph: CSR graph, BFS, DSU, MST, Euler paths — randomized
// cross-checks against the naive oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/bfs.hpp"
#include "graph/dsu.hpp"
#include "graph/euler.hpp"
#include "graph/graph.hpp"
#include "graph/mst.hpp"
#include "graph/oracles.hpp"

namespace uavcov {
namespace {

std::vector<std::pair<NodeId, NodeId>> random_edges(NodeId n, double p,
                                                    Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.chance(p)) edges.emplace_back(u, v);
    }
  }
  return edges;
}

TEST(Graph, BuildAndNeighbors) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(g.node_count(), 4);
  EXPECT_EQ(g.edge_count(), 3);
  const auto nb = g.neighbors(0);
  EXPECT_EQ(std::vector<NodeId>(nb.begin(), nb.end()),
            (std::vector<NodeId>{1, 2}));
  EXPECT_TRUE(g.neighbors(3).empty());
  EXPECT_EQ(g.degree(1), 2);
}

TEST(Graph, HasEdgeIsSymmetric) {
  const Graph g = Graph::from_edges(3, {{0, 2}});
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(Graph, RejectsSelfLoopAndParallel) {
  EXPECT_THROW(Graph::from_edges(3, {{1, 1}}), ContractError);
  EXPECT_THROW(Graph::from_edges(3, {{0, 1}, {1, 0}}), ContractError);
  EXPECT_THROW(Graph::from_edges(2, {{0, 5}}), ContractError);
}

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_edges(0, {});
  EXPECT_EQ(g.node_count(), 0);
  EXPECT_EQ(g.edge_count(), 0);
}

TEST(LocationGraph, EdgesExactlyWithinRange) {
  const Grid grid(300, 300, 100);  // centers 100 apart
  const Graph g = build_location_graph(grid, 150.0);
  // 150 m connects 4-neighbors (100 m) and rejects diagonals (141.4 < 150!)
  // — actually sqrt(2)*100 = 141.4 <= 150, so diagonals connect too.
  EXPECT_TRUE(g.has_edge(to_node(grid.id_of(0, 0)), to_node(grid.id_of(0, 1))));
  EXPECT_TRUE(g.has_edge(to_node(grid.id_of(0, 0)), to_node(grid.id_of(1, 1))));
  EXPECT_FALSE(g.has_edge(to_node(grid.id_of(0, 0)), to_node(grid.id_of(0, 2))));
}

TEST(Bfs, LineGraphDistances) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d, (std::vector<std::int32_t>{0, 1, 2, 3}));
}

TEST(Bfs, UnreachableMarked) {
  const Graph g = Graph::from_edges(3, {{0, 1}});
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[2], kUnreachable);
}

TEST(Bfs, MultiSourceTakesMinimum) {
  const Graph g = Graph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const NodeId sources[] = {0, 4};
  const auto d = bfs_distances(g, sources);
  EXPECT_EQ(d, (std::vector<std::int32_t>{0, 1, 2, 1, 0}));
}

class BfsRandom : public testing::TestWithParam<int> {};

TEST_P(BfsRandom, MatchesFloydWarshall) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 1);
  const NodeId n = 2 + static_cast<NodeId>(rng.next_below(14));
  const Graph g = Graph::from_edges(n, random_edges(n, 0.3, rng));
  const auto apsp = oracle::all_pairs_hops(g);
  for (NodeId s = 0; s < n; ++s) {
    EXPECT_EQ(bfs_distances(g, s), apsp[static_cast<std::size_t>(s)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsRandom, testing::Range(0, 15));

TEST(ShortestHopPath, ReconstructsValidPath) {
  Rng rng(77);
  const NodeId n = 12;
  const Graph g = Graph::from_edges(n, random_edges(n, 0.25, rng));
  const auto apsp = oracle::all_pairs_hops(g);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      const auto path = shortest_hop_path(g, a, b);
      const auto d = apsp[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
      if (d == kUnreachable) {
        EXPECT_TRUE(path.empty());
        continue;
      }
      ASSERT_EQ(static_cast<std::int32_t>(path.size()), d + 1);
      EXPECT_EQ(path.front(), a);
      EXPECT_EQ(path.back(), b);
      for (std::size_t i = 1; i < path.size(); ++i) {
        EXPECT_TRUE(g.has_edge(path[i - 1], path[i]));
      }
    }
  }
}

TEST(InducedConnectivity, DetectsBothCases) {
  const Graph g = Graph::from_edges(5, {{0, 1}, {1, 2}, {3, 4}});
  const NodeId connected[] = {0, 1, 2};
  const NodeId split[] = {0, 1, 3};
  const NodeId via_outside[] = {0, 2};  // connected only through node 1
  EXPECT_TRUE(is_induced_subgraph_connected(g, connected));
  EXPECT_FALSE(is_induced_subgraph_connected(g, split));
  EXPECT_FALSE(is_induced_subgraph_connected(g, via_outside));
}

TEST(InducedConnectivity, TrivialSets) {
  const Graph g = Graph::from_edges(3, {});
  EXPECT_TRUE(is_induced_subgraph_connected(g, {}));
  const NodeId one[] = {2};
  EXPECT_TRUE(is_induced_subgraph_connected(g, one));
}

TEST(ConnectedComponents, LabelsByComponent) {
  const Graph g = Graph::from_edges(5, {{0, 1}, {3, 4}});
  const auto label = connected_components(g);
  EXPECT_EQ(label[0], label[1]);
  EXPECT_EQ(label[3], label[4]);
  EXPECT_NE(label[0], label[2]);
  EXPECT_NE(label[2], label[3]);
}

TEST(Dsu, UniteAndFind) {
  Dsu dsu(5);
  EXPECT_EQ(dsu.component_count(), 5);
  EXPECT_TRUE(dsu.unite(0, 1));
  EXPECT_FALSE(dsu.unite(1, 0));
  EXPECT_TRUE(dsu.same(0, 1));
  EXPECT_FALSE(dsu.same(0, 2));
  EXPECT_EQ(dsu.component_count(), 4);
  EXPECT_EQ(dsu.component_size(1), 2);
}

class MstRandom : public testing::TestWithParam<int> {};

TEST_P(MstRandom, KruskalPrimAndBruteForceAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 3);
  const NodeId n = 2 + static_cast<NodeId>(rng.next_below(5));
  std::vector<WeightedEdge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.chance(0.7)) {
        edges.push_back({u, v, rng.uniform(1.0, 10.0)});
      }
    }
  }
  if (edges.size() > 20) edges.resize(20);
  const auto kruskal = kruskal_mst(n, edges);
  const double brute = oracle::brute_force_mst_weight(n, edges);
  if (!kruskal.has_value()) {
    EXPECT_TRUE(std::isinf(brute));
    return;
  }
  double kruskal_weight = 0;
  for (const auto& e : *kruskal) kruskal_weight += e.weight;
  EXPECT_NEAR(kruskal_weight, brute, 1e-9);

  // Dense Prim on the same instance.
  std::vector<double> w(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                        kInfiniteWeight);
  for (NodeId i = 0; i < n; ++i) {
    w[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
      static_cast<std::size_t>(i)] = 0;
  }
  for (const auto& e : edges) {
    auto& a = w[static_cast<std::size_t>(e.u) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(e.v)];
    auto& b = w[static_cast<std::size_t>(e.v) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(e.u)];
    a = std::min(a, e.weight);
    b = std::min(b, e.weight);
  }
  const auto prim = prim_mst_dense(w, n);
  ASSERT_TRUE(prim.has_value());
  EXPECT_NEAR(mst_weight_dense(w, n, *prim), brute, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MstRandom, testing::Range(0, 20));

TEST(Mst, DisconnectedReturnsNullopt) {
  EXPECT_FALSE(kruskal_mst(3, {{0, 1, 1.0}}).has_value());
  std::vector<double> w(9, kInfiniteWeight);
  w[0] = w[4] = w[8] = 0;
  EXPECT_FALSE(prim_mst_dense(w, 3).has_value());
}

TEST(Mst, SingleNode) {
  const auto tree = kruskal_mst(1, {});
  ASSERT_TRUE(tree.has_value());
  EXPECT_TRUE(tree->empty());
}

TEST(Euler, PathOverSimpleMultigraph) {
  // Path graph 0-1-2 has two odd-degree nodes → Euler path exists.
  const auto path = euler_path(3, {{0, 1}, {1, 2}});
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 3u);
}

TEST(Euler, NoPathWithFourOddNodes) {
  // Star with 3 leaves: degrees 3,1,1,1 → four odd nodes.
  EXPECT_FALSE(euler_path(4, {{0, 1}, {0, 2}, {0, 3}}).has_value());
}

TEST(Euler, DisconnectedEdgesRejected) {
  EXPECT_FALSE(euler_path(4, {{0, 1}, {2, 3}}).has_value());
}

class EulerTreeRandom : public testing::TestWithParam<int> {};

TEST_P(EulerTreeRandom, DoubledTreeWalkVisitsEveryNode) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 5);
  const NodeId n = 1 + static_cast<NodeId>(rng.next_below(12));
  std::vector<std::pair<NodeId, NodeId>> tree;
  for (NodeId v = 1; v < n; ++v) {
    tree.emplace_back(static_cast<NodeId>(rng.next_below(
                          static_cast<std::uint64_t>(v))),
                      v);
  }
  const auto walk = tree_double_euler_path(n, tree);
  if (n == 1) {
    EXPECT_EQ(walk, std::vector<NodeId>{0});
    return;
  }
  EXPECT_EQ(walk.size(), 2 * static_cast<std::size_t>(n) - 2);
  std::set<NodeId> visited(walk.begin(), walk.end());
  EXPECT_EQ(static_cast<NodeId>(visited.size()), n);
  // Consecutive walk nodes must be tree edges.
  std::set<std::pair<NodeId, NodeId>> edge_set;
  for (auto [u, v] : tree) {
    edge_set.insert({u, v});
    edge_set.insert({v, u});
  }
  for (std::size_t i = 1; i < walk.size(); ++i) {
    EXPECT_TRUE(edge_set.count({walk[i - 1], walk[i]}));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EulerTreeRandom, testing::Range(0, 12));

TEST(SplitPath, ChunksOfL) {
  const std::vector<NodeId> path{0, 1, 2, 3, 4, 5, 6};
  const auto chunks = split_path(path, 3);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0], (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(chunks[2], (std::vector<NodeId>{6}));
}

TEST(SplitPath, ExactDivision) {
  const auto chunks = split_path({1, 2, 3, 4}, 2);
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[1], (std::vector<NodeId>{3, 4}));
}

// The paper's Fig. 2 pipeline: K = 11 tree → doubled Euler path of 2K−2 =
// 20 node visits → Δ = ⌈20/10⌉ = 2 subpaths of L = 10.
TEST(EulerPipeline, PaperFigure2Shape) {
  const NodeId k = 11;
  std::vector<std::pair<NodeId, NodeId>> tree;
  for (NodeId v = 1; v < k; ++v) tree.emplace_back(v - 1, v);  // a path tree
  const auto walk = tree_double_euler_path(k, tree);
  EXPECT_EQ(walk.size(), 20u);
  const auto chunks = split_path(walk, 10);
  EXPECT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0].size(), 10u);
  EXPECT_EQ(chunks[1].size(), 10u);
}

}  // namespace
}  // namespace uavcov
