// Graph import/export.
//
//   to_dot        : Graphviz DOT output, optionally highlighting a spanning
//                   tree (TAG's Phase-1 output) so runs can be visualised.
//   to_edge_list / from_edge_list : a trivial, line-oriented text format
//                   ("n" on the first line, one "u v" pair per line after),
//                   so users can bring their own topologies to the CLI.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"
#include "graph/spanning_tree.hpp"

namespace ag::graph {

// DOT with undirected edges; node ids as labels.
std::string to_dot(const Graph& g, const std::string& name = "G");

// DOT with the tree's parent edges drawn bold/red over the graph.
std::string to_dot(const Graph& g, const SpanningTree& tree,
                   const std::string& name = "G");

std::string to_edge_list(const Graph& g);

// Parses the edge-list format; throws std::invalid_argument on malformed
// input (a non-numeric token, a dangling endpoint, a node count beyond the
// NodeId range), out-of-range endpoints, self-loops, or duplicate edges.
Graph from_edge_list(std::istream& in);
Graph from_edge_list(const std::string& text);

}  // namespace ag::graph
