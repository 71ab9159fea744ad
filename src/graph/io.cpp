#include "graph/io.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>

namespace ag::graph {

std::string to_dot(const Graph& g, const std::string& name) {
  std::ostringstream os;
  os << "graph " << name << " {\n";
  os << "  node [shape=circle fontsize=10];\n";
  for (const auto& [u, v] : g.edges()) {
    os << "  " << u << " -- " << v << ";\n";
  }
  os << "}\n";
  return os.str();
}

std::string to_dot(const Graph& g, const SpanningTree& tree, const std::string& name) {
  std::ostringstream os;
  os << "graph " << name << " {\n";
  os << "  node [shape=circle fontsize=10];\n";
  if (tree.root() != kNoParent) {
    os << "  " << tree.root() << " [style=filled fillcolor=gold];\n";
  }
  for (const auto& [u, v] : g.edges()) {
    const bool in_tree = (tree.parent(u) == v) || (tree.parent(v) == u);
    os << "  " << u << " -- " << v;
    if (in_tree) os << " [color=red penwidth=2.0]";
    os << ";\n";
  }
  os << "}\n";
  return os.str();
}

std::string to_edge_list(const Graph& g) {
  std::ostringstream os;
  os << g.node_count() << "\n";
  for (const auto& [u, v] : g.edges()) os << u << " " << v << "\n";
  return os.str();
}

Graph from_edge_list(std::istream& in) {
  std::size_t n = 0;
  if (!(in >> n)) throw std::invalid_argument("edge list: missing node count");
  if (n > std::numeric_limits<NodeId>::max())
    throw std::invalid_argument("edge list: node count exceeds the NodeId range");
  GraphBuilder g(n);
  NodeId u, v;
  while (in >> u) {
    if (!(in >> v)) throw std::invalid_argument("edge list: incomplete edge");
    if (u >= n || v >= n) throw std::invalid_argument("edge list: endpoint out of range");
    if (!g.add_edge(u, v)) {
      throw std::invalid_argument("edge list: self-loop or duplicate edge");
    }
  }
  // Extraction stops either at end of input or at a token that is not a
  // node id; only the former is a well-formed list.
  if (!in.eof()) throw std::invalid_argument("edge list: malformed token");
  return g.build();
}

Graph from_edge_list(const std::string& text) {
  std::istringstream is(text);
  return from_edge_list(is);
}

}  // namespace ag::graph
