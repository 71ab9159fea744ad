#include "graph/spanning_tree.hpp"

#include <queue>

#include "graph/algorithms.hpp"

namespace ag::graph {

bool SpanningTree::is_complete() const {
  if (parent_.empty() || root_ == kNoParent) return false;
  if (parent_[root_] != kNoParent) return false;
  // Every non-root node must reach the root without revisiting a node.
  for (NodeId v = 0; v < parent_.size(); ++v) {
    if (v == root_) continue;
    NodeId cur = v;
    std::size_t hops = 0;
    while (cur != root_) {
      if (cur == kNoParent || parent_[cur] == kNoParent) return false;
      cur = parent_[cur];
      if (++hops > parent_.size()) return false;  // cycle
    }
  }
  return true;
}

std::uint32_t SpanningTree::depth_of(NodeId v) const {
  std::uint32_t d = 0;
  NodeId cur = v;
  while (cur != root_ && cur != kNoParent) {
    cur = parent_[cur];
    ++d;
    if (d > parent_.size()) return kUnreachable;
  }
  return cur == root_ ? d : kUnreachable;
}

std::uint32_t SpanningTree::depth() const {
  std::uint32_t d = 0;
  for (NodeId v = 0; v < parent_.size(); ++v) {
    const std::uint32_t dv = depth_of(v);
    if (dv != kUnreachable && dv > d) d = dv;
  }
  return d;
}

std::uint32_t SpanningTree::tree_diameter() const {
  const Graph t = as_graph();
  if (t.node_count() == 0) return 0;
  // Double-BFS works on trees: farthest node from anywhere is a diameter end.
  const auto d0 = bfs_distances(t, root_ == kNoParent ? 0 : root_);
  NodeId far = 0;
  for (NodeId v = 0; v < d0.size(); ++v)
    if (d0[v] != kUnreachable && d0[v] > d0[far]) far = v;
  const auto d1 = bfs_distances(t, far);
  std::uint32_t best = 0;
  for (auto d : d1)
    if (d != kUnreachable && d > best) best = d;
  return best;
}

std::vector<std::vector<NodeId>> SpanningTree::children() const {
  std::vector<std::vector<NodeId>> ch(parent_.size());
  for (NodeId v = 0; v < parent_.size(); ++v) {
    if (parent_[v] != kNoParent) ch[parent_[v]].push_back(v);
  }
  return ch;
}

Graph SpanningTree::as_graph() const {
  GraphBuilder g(parent_.size());
  for (NodeId v = 0; v < parent_.size(); ++v) {
    if (parent_[v] != kNoParent) g.add_edge(v, parent_[v]);
  }
  return g.build();
}

bool SpanningTree::is_subgraph_of(const Graph& g) const {
  for (NodeId v = 0; v < parent_.size(); ++v) {
    if (parent_[v] != kNoParent && !g.has_edge(v, parent_[v])) return false;
  }
  return true;
}

}  // namespace ag::graph
