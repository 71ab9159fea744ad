// Uncoded store-and-forward gossip: the classical baseline RLNC is measured
// against ("random message selection"; cf. multiple rumor mongering in Deb
// et al.).  A node stores the plain messages it has seen and, on contact,
// sends one chosen uniformly at random among them.  No coding, so a
// transmission is useful only if the receiver happens to miss that exact
// message -- the coupon-collector effect algebraic gossip eliminates.
//
// Runs on a sim::TopologyView like the coded protocols, so the baseline is
// measurable under the same loss/churn/adversarial scenarios; a node that
// churns out and rejoins keeps only its initially placed messages.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/dissemination.hpp"
#include "graph/graph.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/partner.hpp"
#include "sim/time_model.hpp"
#include "sim/topology.hpp"

namespace ag::core {

struct UncodedConfig {
  sim::TimeModel time_model = sim::TimeModel::Synchronous;
  sim::Direction direction = sim::Direction::Exchange;
  double drop_probability = 0.0;  // failure injection; see E10
  std::uint64_t drop_seed = 0x10551056ull;
};

class UncodedGossip
    : public sim::Mailbox<UncodedGossip, std::uint32_t> {
  using Base = sim::Mailbox<UncodedGossip, std::uint32_t>;
  friend Base;

 public:
  UncodedGossip(const graph::Graph& g, const Placement& placement, UncodedConfig cfg)
      : UncodedGossip(std::make_unique<sim::StaticTopology>(g), placement, cfg) {}

  UncodedGossip(std::unique_ptr<sim::TopologyView> topo, const Placement& placement,
                UncodedConfig cfg)
      : Base(cfg.time_model, /*discard_same_sender_per_round=*/false),
        topo_(std::move(topo)),
        cfg_(cfg),
        k_(placement.message_count()),
        owned_(placement.owned_index(topo_->node_count())),
        known_(topo_->node_count()),
        has_(topo_->node_count()),
        selector_(*topo_) {
    const std::size_t n = topo_->node_count();
    for (std::size_t v = 0; v < n; ++v) has_[v].assign(k_, 0);
    for (std::size_t i = 0; i < k_; ++i) {
      const graph::NodeId v = placement.owner[i];
      if (!has_[v][i]) {
        has_[v][i] = 1;
        known_[v].push_back(static_cast<std::uint32_t>(i));
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (known_[v].size() == k_) ++complete_;
    }
    if (cfg.drop_probability > 0.0) {
      this->set_drop_probability(cfg.drop_probability, cfg.drop_seed);
    }
  }

  std::size_t node_count() const noexcept { return topo_->node_count(); }
  bool finished() const noexcept { return complete_ == topo_->node_count(); }

  void on_activate(graph::NodeId v, sim::Rng& rng) {
    if (!topo_->alive(v) || topo_->degree(v) == 0) return;
    // BROADCAST: one uniformly chosen known message to every neighbor.
    if (cfg_.direction == sim::Direction::Broadcast) {
      if (known_[v].empty()) return;
      const std::uint32_t msg = known_[v][rng.uniform(known_[v].size())];
      for (const graph::NodeId u : topo_->neighbors(v)) this->send(v, u, msg);
      return;
    }
    const graph::NodeId u = selector_.pick(v, rng);
    if (cfg_.direction != sim::Direction::Pull && !known_[v].empty()) {
      this->send(v, u, known_[v][rng.uniform(known_[v].size())]);
    }
    if (cfg_.direction != sim::Direction::Push && !known_[u].empty()) {
      this->send(u, v, known_[u][rng.uniform(known_[u].size())]);
    }
  }

  void end_round() {
    this->flush_inbox();
    ++round_;
    topo_->advance(round_ + 1);
    for (const graph::NodeId v : topo_->rejoined()) reset_node(v);
  }

  std::size_t known_count(graph::NodeId v) const { return known_[v].size(); }
  const sim::TopologyView& topology() const noexcept { return *topo_; }

  /// Messages rejected for carrying an id outside [0, k) -- the uncoded
  /// protocol's (unconditional) insert-time verification.  A Byzantine peer
  /// or a corrupted frame is the only source of such ids.
  std::uint64_t rejected_receives() const noexcept { return rejected_; }

 private:
  void deliver(graph::NodeId /*from*/, graph::NodeId to, const std::uint32_t& msg) {
    // Verification guard: an out-of-range id would index has_[to] out of
    // bounds.  Always on -- it is one compare and hostile ids are never
    // legitimate.
    if (msg >= k_) {
      ++rejected_;
      return;
    }
    if (has_[to][msg]) return;
    has_[to][msg] = 1;
    known_[to].push_back(msg);
    if (known_[to].size() == k_) ++complete_;
  }

  // Churn semantics mirroring RlncSwarm::reset_node: received messages are
  // lost, initially owned ones survive.
  void reset_node(graph::NodeId v) {
    if (known_[v].size() == k_) --complete_;
    has_[v].assign(k_, 0);
    known_[v].clear();
    for (const std::uint32_t i : owned_.of(v)) {
      has_[v][i] = 1;
      known_[v].push_back(i);
    }
    if (known_[v].size() == k_) ++complete_;
  }

  std::unique_ptr<sim::TopologyView> topo_;
  UncodedConfig cfg_;
  std::size_t k_;
  OwnedIndex owned_;  // node -> initially owned messages
  std::vector<std::vector<std::uint32_t>> known_;
  std::vector<std::vector<char>> has_;
  sim::UniformSelector selector_;
  std::size_t complete_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t round_ = 0;
};

}  // namespace ag::core
