#include "sim/topology.hpp"

#include <stdexcept>
#include <utility>

namespace ag::sim {

// --- ChurnTopology ----------------------------------------------------------

ChurnTopology::ChurnTopology(const graph::Graph& g, const ChurnConfig& cfg)
    : ChurnTopology(std::make_unique<StaticTopology>(g), cfg) {}

ChurnTopology::ChurnTopology(std::unique_ptr<TopologyView> inner,
                             const ChurnConfig& cfg)
    : inner_(std::move(inner)),
      cfg_(cfg),
      rng_(cfg.seed),
      alive_(inner_->node_count(), 1),
      alive_count_(inner_->node_count()),
      adj_(inner_->node_count()) {
  rebuild_adjacency();
}

void ChurnTopology::advance(std::uint64_t round) {
  inner_->advance(round);
  rejoined_.clear();
  const std::size_t n = inner_->node_count();
  const auto floor_alive = static_cast<std::size_t>(
      cfg_.min_alive_fraction * static_cast<double>(n));
  // One pass in node-id order; every state transition draws exactly one
  // bernoulli, so the stream depends only on the alive pattern's history.
  bool changed = false;
  for (NodeId v = 0; v < n; ++v) {
    if (!alive_[v]) {
      if (rng_.bernoulli(cfg_.rejoin_probability)) {
        alive_[v] = 1;
        ++alive_count_;
        rejoined_.push_back(v);
        changed = true;
      }
    } else if (round >= cfg_.start_round && round < cfg_.stop_round &&
               alive_count_ > floor_alive && alive_count_ > 1 &&
               rng_.bernoulli(cfg_.leave_probability)) {
      alive_[v] = 0;
      --alive_count_;
      changed = true;
    }
  }
  // A dynamic inner view may have changed edges even when no churn event
  // fired; over a static underlay the filtered adjacency is still current.
  if (changed || !inner_->is_static()) rebuild_adjacency();
  // Propagate inner rejoins (nested churn), dedupe not needed in practice.
  for (const NodeId v : inner_->rejoined()) rejoined_.push_back(v);
}

void ChurnTopology::rebuild_adjacency() {
  for (NodeId v = 0; v < inner_->node_count(); ++v) {
    adj_[v].clear();
    if (!alive_[v] || !inner_->alive(v)) continue;
    for (const NodeId u : inner_->neighbors(v)) {
      if (alive_[u] && inner_->alive(u)) adj_[v].push_back(u);
    }
  }
}

// --- ScriptedTopology -------------------------------------------------------

ScriptedTopology::ScriptedTopology(std::vector<graph::Graph> phases,
                                   std::uint64_t period)
    : phases_(std::move(phases)), period_(period == 0 ? 1 : period) {
  if (phases_.empty()) throw std::invalid_argument("ScriptedTopology: no phases");
  for (const auto& g : phases_) {
    if (g.node_count() != phases_[0].node_count())
      throw std::invalid_argument("ScriptedTopology: phase node counts differ");
  }
}

ScriptedTopology::ScriptedTopology(
    std::vector<graph::Graph> phases,
    std::function<std::size_t(std::uint64_t round)> schedule)
    : ScriptedTopology(std::move(phases), std::uint64_t{1}) {
  schedule_ = std::move(schedule);
  current_ = index_for(1);
}

std::size_t ScriptedTopology::index_for(std::uint64_t round) const {
  if (schedule_) {
    const std::size_t i = schedule_(round);
    if (i >= phases_.size())
      throw std::out_of_range("ScriptedTopology: schedule returned bad phase index");
    return i;
  }
  // 1-based rounds: rounds [1, period] run phase 0, then phase 1, ...
  return ((round - 1) / period_) % phases_.size();
}

// --- Scenario factories -----------------------------------------------------

std::unique_ptr<ScriptedTopology> make_rotating_barbell(std::size_t n,
                                                        std::uint64_t period) {
  if (n < 4) throw std::invalid_argument("make_rotating_barbell: need n >= 4");
  const std::size_t left = n / 2;
  const std::size_t right = n - left;
  const std::size_t rotations = std::min(left, right);
  std::vector<graph::Graph> phases;
  phases.reserve(rotations);
  for (std::size_t i = 0; i < rotations; ++i) {
    graph::GraphBuilder g(n);
    for (NodeId u = 0; u < left; ++u)
      for (NodeId v = u + 1; v < left; ++v) g.add_edge(u, v);
    for (NodeId u = static_cast<NodeId>(left); u < n; ++u)
      for (NodeId v = u + 1; v < n; ++v) g.add_edge(u, v);
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(left + i));
    phases.push_back(g.build());
  }
  return std::make_unique<ScriptedTopology>(std::move(phases), period);
}

std::unique_ptr<ScriptedTopology> make_periodic_partition(
    const graph::Graph& g, const std::vector<std::pair<NodeId, NodeId>>& cut,
    std::uint64_t period) {
  auto in_cut = [&](NodeId u, NodeId v) {
    for (const auto& [a, b] : cut) {
      if ((a == u && b == v) || (a == v && b == u)) return true;
    }
    return false;
  };
  graph::GraphBuilder partitioned(g.node_count());
  for (const auto& [u, v] : g.edges()) {
    if (!in_cut(u, v)) partitioned.add_edge(u, v);
  }
  std::vector<graph::Graph> phases;
  phases.push_back(g);  // phase 0: healed
  phases.push_back(partitioned.build());
  return std::make_unique<ScriptedTopology>(std::move(phases), period);
}

}  // namespace ag::sim
