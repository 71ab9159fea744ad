#include "graph/graph.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

namespace ag::graph {

bool Graph::has_edge(NodeId u, NodeId v) const noexcept {
  if (u >= node_count() || v >= node_count()) return false;
  if (degree(v) < degree(u)) std::swap(u, v);
  const auto row = neighbors(u);
  return std::find(row.begin(), row.end(), v) != row.end();
}

std::size_t Graph::max_degree() const noexcept {
  std::size_t d = 0;
  for (NodeId v = 0; v < node_count(); ++v) d = std::max(d, degree(v));
  return d;
}

std::size_t Graph::min_degree() const noexcept {
  if (node_count() == 0) return 0;
  std::size_t d = degree(0);
  for (NodeId v = 1; v < node_count(); ++v) d = std::min(d, degree(v));
  return d;
}

std::vector<std::pair<NodeId, NodeId>> Graph::edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(edge_count());
  for (NodeId u = 0; u < node_count(); ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

std::string Graph::summary() const {
  std::ostringstream os;
  os << "n=" << node_count() << " |E|=" << edge_count() << " Delta=" << max_degree();
  return os.str();
}

GraphBuilder::GraphBuilder(const Graph& g)
    : rows_(g.node_count()), sorted_(g.node_count()) {
  for (NodeId v = 0; v < g.node_count(); ++v) {
    rows_[v].assign(g.neighbors(v).begin(), g.neighbors(v).end());
    sorted_[v] = rows_[v];
    std::ranges::sort(sorted_[v]);
  }
}

bool GraphBuilder::add_edge(NodeId u, NodeId v) {
  assert((u < rows_.size() && v < rows_.size()) &&
         "GraphBuilder::add_edge: node id out of dense range");
  if (u == v) return false;
  if (u >= rows_.size() || v >= rows_.size()) return false;
  // Duplicate probe on the shorter sorted row.
  const bool u_shorter = sorted_[u].size() <= sorted_[v].size();
  const auto& probe = u_shorter ? sorted_[u] : sorted_[v];
  if (std::ranges::binary_search(probe, u_shorter ? v : u)) return false;
  rows_[u].push_back(v);
  rows_[v].push_back(u);
  // Generators emit ascending targets, so lower_bound lands at end() and the
  // insert is an amortised O(1) append.
  sorted_[u].insert(std::ranges::lower_bound(sorted_[u], v), v);
  sorted_[v].insert(std::ranges::lower_bound(sorted_[v], u), u);
  return true;
}

Graph GraphBuilder::build() const {
  Graph g;
  g.offsets_.reserve(rows_.size() + 1);
  g.offsets_.push_back(0);
  for (const auto& row : rows_) g.offsets_.push_back(g.offsets_.back() + row.size());
  g.targets_.reserve(g.offsets_.back());
  for (const auto& row : rows_) std::ranges::copy(row, std::back_inserter(g.targets_));
  return g;
}

}  // namespace ag::graph
