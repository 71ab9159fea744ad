// Uncoded pipelined *routing* on a tree: the strongest non-coding baseline
// for TAG Phase 2 / Lemma 1, and the embodiment of the coding-vs-routing
// question of Ho et al. [14] that motivates algebraic gossip.
//
// Every node keeps one outgoing FIFO per tree edge.  When a node stores a
// block (initially owned, or received over some edge) it enqueues the block
// on every incident tree edge except the one it arrived on; on each EXCHANGE
// with its parent, the edge ships the head of each direction's FIFO.  On a
// tree every pair of subtrees communicates through exactly one edge, so this
// is exact store-and-forward routing: each block crosses each edge at most
// once per direction, perfectly pipelined -- with reliable links it matches
// coded gossip's O(k + depth) behaviour while shipping smaller messages
// (no coefficient vector).
//
// The catch, and the point of bench E14: a FIFO head is popped when *sent*
// (gossip has no acknowledgements).  Under message loss a dropped block is
// skipped forever, subtrees end up permanently missing it, and the protocol
// cannot complete -- while RLNC keeps sailing, since every later coded
// packet re-covers the lost dimension.  The same fragility shows under
// churn: a rejoined node restarts from its initially owned blocks, but
// blocks already popped from upstream FIFOs are never re-sent.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/dissemination.hpp"
#include "graph/spanning_tree.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/topology.hpp"

namespace ag::core {

struct TreeRoutingConfig {
  sim::TimeModel time_model = sim::TimeModel::Synchronous;
  double drop_probability = 0.0;
  std::uint64_t drop_seed = 0x10551057ull;
};

class TreeRoutingGossip
    : public sim::Mailbox<TreeRoutingGossip, std::uint32_t> {
  using Base = sim::Mailbox<TreeRoutingGossip, std::uint32_t>;
  friend Base;

 public:
  TreeRoutingGossip(const graph::SpanningTree& tree, const Placement& placement,
                    TreeRoutingConfig cfg)
      : TreeRoutingGossip(tree, nullptr, placement, cfg) {}

  // `topo`, when non-null, provides node liveness (churn); may be null.
  TreeRoutingGossip(const graph::SpanningTree& tree,
                    std::unique_ptr<sim::TopologyView> topo,
                    const Placement& placement, TreeRoutingConfig cfg)
      : Base(cfg.time_model, /*discard_same_sender_per_round=*/false),
        tree_(&tree),
        topo_(std::move(topo)),
        k_(placement.message_count()),
        owned_(placement.owned_index(tree.node_count())),
        has_(tree.node_count()),
        up_queue_(tree.node_count()),
        up_cursor_(tree.node_count(), 0),
        down_queue_(tree.node_count()),
        down_cursor_(tree.node_count(), 0),
        known_count_(tree.node_count(), 0) {
    for (std::size_t v = 0; v < tree.node_count(); ++v) has_[v].assign(k_, 0);
    for (std::size_t i = 0; i < k_; ++i) {
      store(placement.owner[i], static_cast<std::uint32_t>(i), graph::kNoParent);
    }
    if (cfg.drop_probability > 0.0) {
      set_drop_probability(cfg.drop_probability, cfg.drop_seed);
    }
  }

  std::size_t node_count() const noexcept { return tree_->node_count(); }
  bool finished() const noexcept { return complete_ == tree_->node_count(); }

  void on_activate(graph::NodeId v, sim::Rng& /*rng*/) {
    if (!tree_->has_parent(v)) return;  // root is passive, answers exchanges
    const graph::NodeId p = tree_->parent(v);
    if (topo_ && (!topo_->alive(v) || !topo_->alive(p))) return;
    // v -> p: head of v's upstream FIFO.
    if (up_cursor_[v] < up_queue_[v].size()) {
      send(v, p, std::uint32_t{up_queue_[v][up_cursor_[v]++]});
    }
    // p -> v: head of the edge's downstream FIFO (owned by p, keyed by v).
    if (down_cursor_[v] < down_queue_[v].size()) {
      send(p, v, std::uint32_t{down_queue_[v][down_cursor_[v]++]});
    }
  }

  void end_round() {
    flush_inbox();
    ++round_;
    if (topo_) {
      topo_->advance(round_ + 1);
      for (const graph::NodeId v : topo_->rejoined()) reset_node(v);
    }
  }

  std::size_t known_count(graph::NodeId v) const { return known_count_[v]; }
  std::size_t complete_count() const noexcept { return complete_; }

  /// Blocks rejected for carrying an id outside [0, k) -- insert-time
  /// verification for the uncoded routing baseline (always on; an
  /// out-of-range id would index has_ out of bounds).
  std::uint64_t rejected_receives() const noexcept { return rejected_; }

 private:
  void deliver(graph::NodeId from, graph::NodeId to, const std::uint32_t& block) {
    if (block >= k_) {
      ++rejected_;
      return;
    }
    store(to, block, from);
  }

  // Records the block at v and enqueues it on every incident tree edge
  // except the arrival edge (`from`; kNoParent for initial placement).
  void store(graph::NodeId v, std::uint32_t block, graph::NodeId from) {
    if (has_[v][block]) return;
    has_[v][block] = 1;
    if (++known_count_[v] == k_) ++complete_;
    if (tree_->has_parent(v) && tree_->parent(v) != from) {
      up_queue_[v].push_back(block);
    }
    // Children of v: v owns the downstream FIFO of each child edge.
    // Lazily built child lists would cost O(n) per store; instead note that
    // down_queue_ is keyed by the child, so we need v's children.  Build the
    // children index once on first use.
    if (children_.empty()) children_ = tree_->children();
    for (graph::NodeId c : children_[v]) {
      if (c != from) down_queue_[c].push_back(block);
    }
  }

  // Churn: v's stored blocks and its OWN egress FIFOs (up_queue_[v] toward
  // the parent, down_queue_[c] toward each child) are lost; initially owned
  // blocks survive and are re-enqueued (downstream receivers dedupe via
  // store()).  down_queue_[v] is the PARENT's egress queue keyed by v --
  // link state of the parent, which did not churn -- so it is kept.
  void reset_node(graph::NodeId v) {
    if (k_ != 0 && known_count_[v] == k_) --complete_;
    has_[v].assign(k_, 0);
    known_count_[v] = 0;
    up_queue_[v].clear();
    up_cursor_[v] = 0;
    if (children_.empty()) children_ = tree_->children();
    for (const graph::NodeId c : children_[v]) {
      down_queue_[c].clear();
      down_cursor_[c] = 0;
    }
    for (const std::uint32_t i : owned_.of(v)) store(v, i, graph::kNoParent);
  }

  const graph::SpanningTree* tree_;
  std::unique_ptr<sim::TopologyView> topo_;  // liveness only; may be null
  std::size_t k_;
  OwnedIndex owned_;  // node -> initially owned messages
  std::vector<std::vector<char>> has_;
  std::vector<std::vector<std::uint32_t>> up_queue_;   // v -> parent(v)
  std::vector<std::size_t> up_cursor_;
  std::vector<std::vector<std::uint32_t>> down_queue_;  // parent(v) -> v, keyed by v
  std::vector<std::size_t> down_cursor_;
  std::vector<std::size_t> known_count_;
  std::vector<std::vector<graph::NodeId>> children_;
  std::size_t complete_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t round_ = 0;
};

}  // namespace ag::core
