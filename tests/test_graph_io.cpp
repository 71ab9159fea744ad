// Graph I/O tests: DOT rendering (plain and with a spanning-tree overlay)
// and edge-list round-trips with malformed-input rejection.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace {

using namespace ag::graph;

TEST(DotTest, PlainGraphContainsAllEdges) {
  const auto g = make_cycle(4);
  const std::string dot = to_dot(g, "C4");
  EXPECT_NE(dot.find("graph C4 {"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("2 -- 3"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 3"), std::string::npos);
  // Each edge exactly once.
  EXPECT_EQ(dot.find("1 -- 0"), std::string::npos);
}

TEST(DotTest, TreeOverlayHighlightsParentEdgesAndRoot) {
  const auto g = make_path(4);
  const auto t = bfs_tree(g, 1);
  const std::string dot = to_dot(g, t);
  EXPECT_NE(dot.find("1 [style=filled fillcolor=gold]"), std::string::npos);
  // Path edges are all tree edges here.
  EXPECT_NE(dot.find("color=red"), std::string::npos);
}

TEST(DotTest, NonTreeEdgesNotHighlighted) {
  const auto g = make_complete(4);
  const auto t = bfs_tree(g, 0);  // star out of node 0
  const std::string dot = to_dot(g, t);
  // Edge 1 -- 2 is not in the BFS tree.
  const auto pos = dot.find("1 -- 2");
  ASSERT_NE(pos, std::string::npos);
  const auto line_end = dot.find('\n', pos);
  EXPECT_EQ(dot.substr(pos, line_end - pos).find("red"), std::string::npos);
}

TEST(EdgeListTest, RoundTripPreservesGraph) {
  const auto g = make_barbell(10);
  const auto text = to_edge_list(g);
  const auto h = from_edge_list(text);
  EXPECT_EQ(h.node_count(), g.node_count());
  EXPECT_EQ(h.edge_count(), g.edge_count());
  for (const auto& [u, v] : g.edges()) EXPECT_TRUE(h.has_edge(u, v));
}

TEST(EdgeListTest, RejectsMalformedInput) {
  EXPECT_THROW(from_edge_list(""), std::invalid_argument);
  EXPECT_THROW(from_edge_list("3\n0 7\n"), std::invalid_argument);   // range
  EXPECT_THROW(from_edge_list("3\n1 1\n"), std::invalid_argument);   // loop
  EXPECT_THROW(from_edge_list("3\n0 1\n1 0\n"), std::invalid_argument);  // dup
  // Bad tokens must not silently truncate the list.
  EXPECT_THROW(from_edge_list("3\n0 1\n1 x\n"), std::invalid_argument);
  EXPECT_THROW(from_edge_list("3\n0 1\n2\n"), std::invalid_argument);  // dangling
  EXPECT_THROW(from_edge_list("3 junk\n"), std::invalid_argument);
  EXPECT_THROW(from_edge_list("4294967296\n"), std::invalid_argument);  // > NodeId max
}

TEST(EdgeListTest, EmptyGraphAndIsolatedNodes) {
  const auto g = from_edge_list("5\n0 1\n");
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(4), 0u);
  // Trailing whitespace and a missing final newline are both well formed.
  EXPECT_EQ(from_edge_list("5\n0 1\n  \n\t").edge_count(), 1u);
  EXPECT_EQ(from_edge_list("5\n0 1\n1 2").edge_count(), 2u);
}

}  // namespace
