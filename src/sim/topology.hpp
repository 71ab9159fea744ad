/// \file
/// Dynamic-topology abstraction: the view of the communication network a
/// protocol queries each round, instead of holding a `const graph::Graph&`.
///
/// The paper proves its bounds on a static graph, but RLNC gossip's real
/// selling point (Haeupler; Borokhovich-Avin-Lotker) is robustness when the
/// communication pattern changes under it.  A TopologyView answers, for the
/// CURRENT round: which nodes are alive, and who are a node's usable
/// neighbors.  Protocols advance the view exactly once per round barrier
/// (`advance`), and reset the RLNC state of any node the view reports as
/// rejoined (churn semantics: a node that left and came back lost its
/// received coded state but still owns its initial messages).
///
/// Determinism contract: a view's evolution is a pure function of its
/// construction arguments (including its own seed for ChurnTopology) and the
/// number of `advance` calls.  Views never touch the simulation Rng except
/// through `sample()` -- whose default draws exactly one `rng.uniform(degree)`
/// like the pre-sample() selector code did -- so a protocol on a
/// StaticTopology is STREAM-IDENTICAL to the pre-dynamic code (pinned by the
/// golden-trace tests), and every dynamic run remains fully determined by
/// (seed, run-index): serial == parallel_stopping_rounds.
///
/// Lifetime: spans returned by neighbors() are valid until the next advance
/// (for the implicit large-n views, until the next neighbors() call -- see
/// CompleteTopology).  Protocols own their view through a unique_ptr (so
/// protocol objects stay movable); StaticTopology additionally borrows the
/// caller's Graph, which must outlive the protocol, exactly like the old
/// `const Graph&` members.
///
/// Large-n views: CompleteTopology and BarbellTopology are *implicit* --
/// they answer degree() and sample() in O(1) without materialising the
/// Theta(n^2) edge set, which is what lets stopping-time sweeps run at
/// n = 100k on the clique families (see bench/large_n_sweep).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sim/rng.hpp"

namespace ag::sim {

using graph::NodeId;

/// Interface every protocol queries for the current round's topology.
class TopologyView {
 public:
  virtual ~TopologyView() = default;

  virtual std::size_t node_count() const = 0;

  /// Usable neighbors of v this round (alive nodes only, under churn).
  virtual std::span<const NodeId> neighbors(NodeId v) const = 0;

  /// Degree of v this round.  Virtual so implicit views answer in O(1)
  /// without materialising the neighbor list.
  virtual std::size_t degree(NodeId v) const { return neighbors(v).size(); }

  /// Draws a uniformly random current neighbor of v (requires degree > 0).
  /// The default performs exactly one `rng.uniform(degree)` draw and indexes
  /// the neighbor list -- byte-identical to the historical UniformSelector
  /// stream.  Implicit views override it with an O(1) index-to-neighbor map
  /// that preserves the SAME draw count and list order, so explicit and
  /// implicit topologies of the same family produce identical runs.
  virtual NodeId sample(NodeId v, Rng& rng) const {
    const auto nbrs = neighbors(v);
    return nbrs[rng.uniform(nbrs.size())];
  }

  /// False while v has left the network: it takes no actions and appears in
  /// no neighbor list.
  virtual bool alive(NodeId /*v*/) const { return true; }

  /// Advance to the topology of round `round` (1-based: the first call, at
  /// the end of round 1, passes 2 -- the round about to start).  Called
  /// exactly once per round barrier, in both time models.
  virtual void advance(std::uint64_t /*round*/) {}

  /// Nodes that rejoined at the latest advance; the protocol must reset
  /// their per-node state.  Valid until the next advance.
  virtual std::span<const NodeId> rejoined() const { return {}; }

  /// True when neighbor lists can never change across advances (lets
  /// wrappers skip per-round recomputation over a static underlay).
  virtual bool is_static() const { return false; }
};

/// (a) Static graph: the pre-dynamic behavior, stream-identical.
class StaticTopology final : public TopologyView {
 public:
  explicit StaticTopology(const graph::Graph& g) : g_(&g) {}

  std::size_t node_count() const override { return g_->node_count(); }
  std::span<const NodeId> neighbors(NodeId v) const override { return g_->neighbors(v); }
  std::size_t degree(NodeId v) const override { return g_->degree(v); }
  bool is_static() const override { return true; }

 private:
  const graph::Graph* g_;
};

/// (b) Implicit complete graph K_n: degree() and sample() in O(1), no edge
/// storage at all.  sample() maps one uniform draw over [0, n-1) onto the
/// sorted all-but-self neighbor list -- exactly the list make_complete
/// builds -- so runs match an explicit complete graph draw for draw.
/// neighbors() materialises the list into a thread-local scratch buffer on
/// demand (O(n); valid until this thread's next CompleteTopology::neighbors
/// call on ANY instance): it exists for non-hot callers like
/// RoundRobinSelector, not for the gossip loop.  Thread-local rather than
/// per-view so concurrent shards (core/sharded_round.hpp) can walk
/// neighbor lists of one shared topology without racing on a buffer.
class CompleteTopology final : public TopologyView {
 public:
  explicit CompleteTopology(std::size_t n) : n_(n) {}

  std::size_t node_count() const override { return n_; }
  std::size_t degree(NodeId /*v*/) const override { return n_ - 1; }

  std::span<const NodeId> neighbors(NodeId v) const override {
    static thread_local std::vector<NodeId> scratch;
    scratch.clear();
    scratch.reserve(n_ - 1);
    for (std::size_t u = 0; u < n_; ++u) {
      if (u != v) scratch.push_back(static_cast<NodeId>(u));
    }
    return scratch;
  }

  NodeId sample(NodeId v, Rng& rng) const override {
    const auto idx = static_cast<NodeId>(rng.uniform(n_ - 1));
    return idx < v ? idx : idx + 1;
  }

  bool is_static() const override { return true; }

 private:
  std::size_t n_;
};

/// (c) Implicit barbell: two cliques of floor(n/2) and ceil(n/2) nodes
/// joined by the single bridge (n/2 - 1, n/2), the paper's Omega(n^2) worst
/// case -- without the Theta(n^2) edge arrays.  Index-to-neighbor maps
/// reproduce make_barbell's adjacency order exactly (clique neighbors
/// ascending; the bridge endpoint appended LAST on both sides), so
/// small-n runs match the explicit generator draw for draw.
class BarbellTopology final : public TopologyView {
 public:
  explicit BarbellTopology(std::size_t n) : n_(n), left_(n / 2) {}

  std::size_t node_count() const override { return n_; }

  std::size_t degree(NodeId v) const override {
    if (v < left_) return left_ - 1 + (v == left_ - 1 ? 1 : 0);
    return (n_ - left_ - 1) + (v == left_ ? 1 : 0);
  }

  std::span<const NodeId> neighbors(NodeId v) const override {
    // Thread-local like CompleteTopology::neighbors, same lifetime caveat.
    static thread_local std::vector<NodeId> scratch;
    scratch.clear();
    const std::size_t d = degree(v);
    scratch.reserve(d);
    for (std::size_t i = 0; i < d; ++i) scratch.push_back(nth_neighbor(v, i));
    return scratch;
  }

  NodeId sample(NodeId v, Rng& rng) const override {
    return nth_neighbor(v, rng.uniform(degree(v)));
  }

  bool is_static() const override { return true; }

 private:
  // The i-th entry of v's adjacency list in make_barbell's order.
  NodeId nth_neighbor(NodeId v, std::size_t i) const noexcept {
    const auto L = static_cast<NodeId>(left_);
    if (v < L) {
      // Left clique: [0, L) \ {v} ascending; node L-1 gets the bridge (L)
      // appended after its clique neighbors.
      if (v == L - 1 && i == static_cast<std::size_t>(L) - 1) return L;
      const auto u = static_cast<NodeId>(i);
      return u < v ? u : u + 1;
    }
    // Right clique: [L, n) \ {v} ascending; node L gets the bridge (L-1)
    // appended after its clique neighbors.
    if (v == L && i == n_ - left_ - 1) return L - 1;
    const auto u = static_cast<NodeId>(L + i);
    return u < v ? u : u + 1;
  }

  std::size_t n_;
  std::size_t left_;
};

/// (d) Node churn: each round every alive node leaves with probability
/// `leave_probability` and every absent node rejoins with probability
/// `rejoin_probability`, all drawn from the topology's own seeded Rng.
/// `min_alive_fraction` floors how many nodes may be down at once (leaves
/// beyond the floor are skipped that round), and churn is active only in
/// rounds [start_round, stop_round) -- a finite churn window plus ongoing
/// rejoins guarantees runs terminate.
///
/// Churn composes: it wraps any inner view (static graph, rotating barbell,
/// partition schedule), filtering the inner topology's current neighbor
/// lists down to alive nodes.
struct ChurnConfig {
  double leave_probability = 0.02;
  double rejoin_probability = 0.25;
  double min_alive_fraction = 0.5;
  std::uint64_t start_round = 1;
  std::uint64_t stop_round = ~std::uint64_t{0};
  std::uint64_t seed = 0xC0FFEEull;
};

class ChurnTopology final : public TopologyView {
 public:
  /// Churn over a static graph (the graph must outlive the topology).
  ChurnTopology(const graph::Graph& g, const ChurnConfig& cfg);

  /// Churn stacked on any inner view (scripted sequence, rotating barbell...).
  ChurnTopology(std::unique_ptr<TopologyView> inner, const ChurnConfig& cfg);

  std::size_t node_count() const override { return inner_->node_count(); }
  std::span<const NodeId> neighbors(NodeId v) const override { return adj_[v]; }
  bool alive(NodeId v) const override { return alive_[v] != 0 && inner_->alive(v); }
  void advance(std::uint64_t round) override;
  std::span<const NodeId> rejoined() const override { return rejoined_; }

  std::size_t alive_count() const noexcept { return alive_count_; }

 private:
  void rebuild_adjacency();

  std::unique_ptr<TopologyView> inner_;
  ChurnConfig cfg_;
  Rng rng_;
  std::vector<char> alive_;
  std::size_t alive_count_;
  std::vector<std::vector<NodeId>> adj_;  // alive-filtered adjacency
  std::vector<NodeId> rejoined_;
};

/// (e) Scripted/adversarial sequences: a fixed list of same-sized graphs and
/// a round -> phase-index schedule.  The default schedule cycles through the
/// phases every `period` rounds; an arbitrary schedule function covers
/// adversarial patterns that are not periodic.
class ScriptedTopology final : public TopologyView {
 public:
  /// Cyclic schedule: rounds [1, period] run phase 0, the next `period`
  /// rounds phase 1, and so on, wrapping around.
  ScriptedTopology(std::vector<graph::Graph> phases, std::uint64_t period);

  /// Arbitrary schedule: must return an index < phases.size() and be a pure
  /// function of the round (determinism contract).
  ScriptedTopology(std::vector<graph::Graph> phases,
                   std::function<std::size_t(std::uint64_t round)> schedule);

  std::size_t node_count() const override { return phases_[0].node_count(); }
  std::span<const NodeId> neighbors(NodeId v) const override {
    return phases_[current_].neighbors(v);
  }
  void advance(std::uint64_t round) override { current_ = index_for(round); }

  std::size_t phase_count() const noexcept { return phases_.size(); }
  std::size_t current_phase() const noexcept { return current_; }

 private:
  std::size_t index_for(std::uint64_t round) const;

  std::vector<graph::Graph> phases_;
  std::function<std::size_t(std::uint64_t)> schedule_;
  std::uint64_t period_ = 1;
  std::size_t current_ = 0;
};

// Scenario factories ---------------------------------------------------------

/// Barbell whose single bridge endpoint pair rotates every `period` rounds:
/// phase i bridges (i mod left, left + (i mod right)).  The bottleneck edge
/// never disappears but never stays put -- the adversarial pattern uniform AG
/// must survive (and the one the ROADMAP's scenario-diversity item names).
std::unique_ptr<ScriptedTopology> make_rotating_barbell(std::size_t n,
                                                        std::uint64_t period);

/// Alternates the full graph with a copy whose `cut` edges are removed
/// (partition), `period` rounds each: heal, partition, heal, ...  The cut may
/// disconnect the graph; protocols must make progress inside components and
/// finish after heals.
std::unique_ptr<ScriptedTopology> make_periodic_partition(
    const graph::Graph& g, const std::vector<std::pair<NodeId, NodeId>>& cut,
    std::uint64_t period);

}  // namespace ag::sim
