// Graph substrate tests: GraphBuilder semantics and row order, generator
// invariants (sizes, degrees, connectivity, known diameters), has_edge
// against the edge list, BFS/shortest-path correctness, and spanning-tree
// checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/spanning_tree.hpp"

namespace {

using namespace ag::graph;

TEST(GraphTest, AddEdgeRejectsLoopsAndDuplicates) {
  GraphBuilder b(3);
  EXPECT_TRUE(b.add_edge(0, 1));
  EXPECT_FALSE(b.add_edge(1, 0));  // duplicate (other direction)
  EXPECT_FALSE(b.add_edge(2, 2));  // loop
  const Graph g = b.build();
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

// Order-sensitive checksum over every row (degree, then neighbors in order).
std::uint64_t row_checksum(const Graph& g) {
  std::uint64_t h = 1469598103934665603ull;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    h = (h ^ g.degree(v)) * 1099511628211ull;
    for (const NodeId u : g.neighbors(v)) h = (h ^ u) * 1099511628211ull;
  }
  return h;
}

std::vector<NodeId> row(const Graph& g, NodeId v) {
  const auto nbrs = g.neighbors(v);
  return {nbrs.begin(), nbrs.end()};
}

// neighbors() order is part of the RNG-stream contract: partner selection
// indexes it.  The checksums were captured on the pre-CSR adjacency-list
// Graph; all four graphs have unsorted rows, and make_cycle and
// make_preferential_attachment feed the golden traces.
TEST(GraphBuilder, RowsKeepInsertionOrder) {
  GraphBuilder b(4);
  b.add_edge(0, 3);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  const Graph g = b.build();
  EXPECT_EQ(row(g, 0), (std::vector<NodeId>{3, 1, 2}));
  EXPECT_EQ(row(g, 3), (std::vector<NodeId>{0}));

  struct Pinned {
    Graph g;
    std::uint64_t checksum;
  };
  const std::vector<Pinned> pinned = {
      {make_ring_with_chords(24, 10, 7), 0xb46aa170b512342cull},
      {make_random_regular(16, 4, 9), 0x0df5c755e7379c97ull},
      {make_preferential_attachment(20, 2, 915), 0x2fbff509b200e816ull},
      {make_cycle(16), 0xf340b01a836f837full},
  };
  for (const auto& p : pinned) {
    EXPECT_EQ(row_checksum(p.g), p.checksum) << p.g.summary();
    // Thawing and rebuilding reproduces every row; the thawed duplicate
    // probe already knows every edge.
    GraphBuilder thaw(p.g);
    const auto [x, y] = p.g.edges().front();
    EXPECT_FALSE(thaw.add_edge(y, x));
    const Graph thawed = thaw.build();
    ASSERT_EQ(thawed.node_count(), p.g.node_count());
    EXPECT_EQ(thawed.edge_count(), p.g.edge_count());
    for (NodeId v = 0; v < p.g.node_count(); ++v) EXPECT_EQ(row(thawed, v), row(p.g, v));
  }
}

TEST(GraphBuilder, EmptyAndTiny) {
  const Graph empty;
  EXPECT_EQ(empty.node_count(), 0u);
  EXPECT_EQ(empty.edge_count(), 0u);
  EXPECT_EQ(empty.max_degree(), 0u);
  EXPECT_EQ(empty.min_degree(), 0u);
  EXPECT_EQ(GraphBuilder(0).build().node_count(), 0u);

  GraphBuilder b(2);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.min_degree(), 1u);
  EXPECT_EQ(g.max_degree(), 1u);
  EXPECT_EQ(g.summary(), "n=2 |E|=1 Delta=1");
  EXPECT_EQ(row(g, 0), (std::vector<NodeId>{1}));
  EXPECT_EQ(row(g, 1), (std::vector<NodeId>{0}));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 2));  // out of range answers false
}

// has_edge scans the shorter row: brute-force cross-check on graphs with
// sorted rows and with unsorted (insertion-order) rows.
TEST(GraphHasEdge, MatchesEdgeList) {
  const std::vector<Graph> graphs = {
      make_grid(5, 7), make_barbell(17), make_complete(12), make_binary_tree(20),
      make_ring_with_chords(30, 12, 3), make_random_regular(16, 4, 9),
      make_erdos_renyi(18, 0.4, 5),
  };
  for (const auto& g : graphs) {
    std::vector<std::vector<bool>> adj(g.node_count(),
                                       std::vector<bool>(g.node_count(), false));
    for (const auto& [u, v] : g.edges()) adj[u][v] = adj[v][u] = true;
    for (NodeId u = 0; u < g.node_count(); ++u) {
      for (NodeId v = 0; v < g.node_count(); ++v) {
        ASSERT_EQ(g.has_edge(u, v), static_cast<bool>(adj[u][v]))
            << g.summary() << ": " << u << "-" << v;
      }
    }
    const auto n = static_cast<NodeId>(g.node_count());
    EXPECT_FALSE(g.has_edge(0, n));
    EXPECT_FALSE(g.has_edge(n, 0));
  }
}

TEST(GeneratorTest, PathProperties) {
  const auto g = make_path(10);
  EXPECT_EQ(g.node_count(), 10u);
  EXPECT_EQ(g.edge_count(), 9u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_EQ(g.min_degree(), 1u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(diameter(g), 9u);
}

TEST(GeneratorTest, CycleProperties) {
  const auto g = make_cycle(11);
  EXPECT_EQ(g.edge_count(), 11u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_EQ(g.min_degree(), 2u);
  EXPECT_EQ(diameter(g), 5u);
}

TEST(GeneratorTest, CompleteProperties) {
  const auto g = make_complete(8);
  EXPECT_EQ(g.edge_count(), 28u);
  EXPECT_EQ(g.max_degree(), 7u);
  EXPECT_EQ(diameter(g), 1u);
}

TEST(GeneratorTest, GridProperties) {
  const auto g = make_grid(4, 6);
  EXPECT_EQ(g.node_count(), 24u);
  EXPECT_EQ(g.edge_count(), 4u * 5u + 6u * 3u);
  EXPECT_EQ(g.max_degree(), 4u);
  EXPECT_EQ(diameter(g), 4u + 6u - 2u);
}

TEST(GeneratorTest, TorusIsFourRegular) {
  const auto g = make_torus(4, 5);
  EXPECT_EQ(g.min_degree(), 4u);
  EXPECT_EQ(g.max_degree(), 4u);
  EXPECT_TRUE(is_connected(g));
}

TEST(GeneratorTest, BinaryTreeProperties) {
  const auto g = make_binary_tree(15);  // perfect tree of depth 3
  EXPECT_EQ(g.edge_count(), 14u);
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_EQ(diameter(g), 6u);  // leaf -> root -> leaf
  EXPECT_TRUE(is_connected(g));
}

TEST(GeneratorTest, StarProperties) {
  const auto g = make_star(9);
  EXPECT_EQ(g.max_degree(), 8u);
  EXPECT_EQ(diameter(g), 2u);
}

TEST(GeneratorTest, HypercubeProperties) {
  const auto g = make_hypercube(4);
  EXPECT_EQ(g.node_count(), 16u);
  EXPECT_EQ(g.min_degree(), 4u);
  EXPECT_EQ(g.max_degree(), 4u);
  EXPECT_EQ(diameter(g), 4u);
}

TEST(GeneratorTest, BarbellProperties) {
  const auto g = make_barbell(20);
  EXPECT_EQ(g.node_count(), 20u);
  // Two 10-cliques plus the bridge.
  EXPECT_EQ(g.edge_count(), 2u * 45u + 1u);
  EXPECT_EQ(g.max_degree(), 10u);  // bridge endpoints
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(diameter(g), 3u);  // clique hop, bridge, clique hop
  EXPECT_TRUE(g.has_edge(9, 10));
}

TEST(GeneratorTest, BarbellOddSplitsStayConnected) {
  const auto g = make_barbell(7);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.node_count(), 7u);
}

TEST(GeneratorTest, CliqueChainProperties) {
  const auto g = make_clique_chain(4, 6);
  EXPECT_EQ(g.node_count(), 24u);
  EXPECT_EQ(g.edge_count(), 4u * 15u + 3u);
  EXPECT_TRUE(is_connected(g));
  // Diameter: hop to the first bridge, then (bridge, within-clique hop) per
  // junction, ending with a hop off the last bridge: 2 * cliques - 1.
  EXPECT_EQ(diameter(g), 7u);
}

TEST(GeneratorTest, LollipopProperties) {
  const auto g = make_lollipop(15, 10);
  EXPECT_EQ(g.edge_count(), 45u + 5u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(diameter(g), 6u);  // across clique (1) + path (5)
}

TEST(GeneratorTest, ErdosRenyiIsConnected) {
  const auto g = make_erdos_renyi(60, 0.15, 42);
  EXPECT_EQ(g.node_count(), 60u);
  EXPECT_TRUE(is_connected(g));
}

TEST(GeneratorTest, ErdosRenyiThrowsWhenHopeless) {
  EXPECT_THROW(make_erdos_renyi(50, 0.0, 1), std::invalid_argument);
}

TEST(GeneratorTest, RandomRegularIsRegularAndConnected) {
  const auto g = make_random_regular(40, 4, 7);
  EXPECT_EQ(g.min_degree(), 4u);
  EXPECT_EQ(g.max_degree(), 4u);
  EXPECT_TRUE(is_connected(g));
}

TEST(GeneratorTest, RandomRegularRejectsBadParameters) {
  EXPECT_THROW(make_random_regular(5, 3, 1), std::invalid_argument);  // n*d odd
  EXPECT_THROW(make_random_regular(4, 4, 1), std::invalid_argument);  // d >= n
}

TEST(GeneratorTest, RingWithChordsKeepsCycleEdges) {
  const auto g = make_ring_with_chords(30, 10, 3);
  EXPECT_EQ(g.edge_count(), 40u);
  EXPECT_TRUE(is_connected(g));
  for (NodeId i = 0; i < 30; ++i) EXPECT_TRUE(g.has_edge(i, (i + 1) % 30));
}

TEST(BfsTest, DistancesOnPathAndGrid) {
  const auto p = make_path(6);
  const auto d = bfs_distances(p, 0);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(d[v], v);

  const auto g = make_grid(3, 3);
  const auto dg = bfs_distances(g, 0);
  EXPECT_EQ(dg[8], 4u);  // opposite corner: manhattan distance
}

TEST(BfsTest, BfsTreeIsValidShortestPathTree) {
  const auto g = make_barbell(16);
  for (NodeId src : {NodeId{0}, NodeId{7}, NodeId{8}, NodeId{15}}) {
    const auto t = bfs_tree(g, src);
    EXPECT_TRUE(t.is_complete());
    EXPECT_TRUE(t.is_subgraph_of(g));
    const auto dist = bfs_distances(g, src);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(t.depth_of(v), dist[v]) << "v=" << v;
    }
    // BFS tree depth <= diameter (proof of Theorem 1 uses l_max <= D).
    EXPECT_LE(t.depth(), diameter(g));
  }
}

TEST(ShortestPathTest, EndpointsAndLength) {
  const auto g = make_grid(4, 4);
  const auto path = shortest_path(g, 0, 15);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 15u);
  EXPECT_EQ(path.size(), bfs_distances(g, 0)[15] + 1);
  // Consecutive path nodes are adjacent.
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
  }
}

TEST(SpanningTreeTest, ManualTreeProperties) {
  SpanningTree t(5);
  t.set_root(0);
  t.set_parent(1, 0);
  t.set_parent(2, 0);
  t.set_parent(3, 1);
  t.set_parent(4, 3);
  EXPECT_TRUE(t.is_complete());
  EXPECT_EQ(t.depth(), 3u);
  EXPECT_EQ(t.depth_of(4), 3u);
  EXPECT_EQ(t.tree_diameter(), 4u);  // 4-3-1-0-2
  const auto ch = t.children();
  EXPECT_EQ(ch[0].size(), 2u);
  EXPECT_EQ(ch[3].size(), 1u);
}

TEST(SpanningTreeTest, IncompleteTreeDetected) {
  SpanningTree t(4);
  t.set_root(0);
  t.set_parent(1, 0);
  // 2 and 3 have no parents.
  EXPECT_FALSE(t.is_complete());
}

TEST(SpanningTreeTest, CycleDetected) {
  SpanningTree t(4);
  t.set_root(0);
  t.set_parent(1, 2);
  t.set_parent(2, 3);
  t.set_parent(3, 1);  // 1 -> 2 -> 3 -> 1
  EXPECT_FALSE(t.is_complete());
}

}  // namespace
