// Undirected simple graph in compressed-sparse-row form.
//
// The communication network G_n(V, E) of Section 2: connected, undirected,
// no self-loops, no parallel edges, node ids dense in [0, n).  A Graph is
// immutable: GraphBuilder adds the edges and build() freezes them.  Rows
// keep INSERTION order; partner selection indexes neighbors(), so that order
// is part of the pinned RNG-stream contract (golden traces).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ag::graph {

using NodeId = std::uint32_t;

class Graph {
 public:
  Graph() = default;

  std::size_t node_count() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::size_t edge_count() const noexcept { return targets_.size() / 2; }

  // O(min(d_u, d_v)) scan of the shorter row; false for ids >= n.
  bool has_edge(NodeId u, NodeId v) const noexcept;

  // Neighbor list of v in INSERTION order (the pinned-stream order).
  std::span<const NodeId> neighbors(NodeId v) const {
    assert(v < node_count() && "Graph: node id out of dense range");
    return std::span<const NodeId>(targets_).subspan(offsets_[v], degree(v));
  }

  std::size_t degree(NodeId v) const noexcept { return offsets_[v + 1] - offsets_[v]; }

  // Maximum degree Delta = max_v d_v.
  std::size_t max_degree() const noexcept;
  std::size_t min_degree() const noexcept;

  // All edges as (u, v) with u < v.
  std::vector<std::pair<NodeId, NodeId>> edges() const;

  // Human-readable one-line summary (n, |E|, Delta), for bench table output.
  std::string summary() const;

 private:
  friend class GraphBuilder;

  std::vector<std::size_t> offsets_;  // n + 1 entries into targets_
  std::vector<NodeId> targets_;       // row v is [offsets_[v], offsets_[v + 1])
};

// The only code that adds edges.  An ascending mirror of each row answers
// the duplicate probe in O(log d), so generators stay near-linear at
// n = 100k; the mirror dies with the builder.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t n) : rows_(n), sorted_(n) {}

  // Thaws `g` to extend it; every row is copied in order.
  explicit GraphBuilder(const Graph& g);

  // Adds an undirected edge u-v.  Self-loops and duplicates return false,
  // so generators can be written naively.  Out-of-range ids assert in debug
  // builds and return false in release builds.
  bool add_edge(NodeId u, NodeId v);

  Graph build() const;

 private:
  std::vector<std::vector<NodeId>> rows_;    // insertion order (stream-pinned)
  std::vector<std::vector<NodeId>> sorted_;  // ascending mirror for the probe
};

}  // namespace ag::graph
