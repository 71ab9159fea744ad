// Gossip communication models (Definitions 1-2): how an awake node picks its
// single communication partner.  Selectors query a TopologyView, so the same
// code serves static graphs and dynamic topologies (loss lives in the
// Channel, liveness and edge presence in the view).
//
//   UniformSelector    : uniform over the node's current neighbors
//                        (Definition 1).
//   RoundRobinSelector : cyclic position over the node's neighbor list with a
//                        random initial offset -- the quasirandom rumor
//                        spreading model (Definition 2); drives B_RR in
//                        Theorem 5.  Under a dynamic view the persistent
//                        cursor indexes the CURRENT list (mod its size), so
//                        on a static topology the schedule is exactly the
//                        fixed cyclic one.
//
// Callers must skip nodes with no usable neighbor (degree 0 this round);
// pick() requires a non-empty neighbor list.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "sim/topology.hpp"

namespace ag::sim {

using graph::NodeId;

class UniformSelector {
 public:
  explicit UniformSelector(const TopologyView& t) : t_(&t) {}

  // Delegates to TopologyView::sample: one uniform(degree) draw either way
  // (stream-identical to indexing the neighbor list), but implicit views
  // (CompleteTopology, BarbellTopology) answer in O(1) without
  // materialising neighbors.
  NodeId pick(NodeId v, Rng& rng) { return t_->sample(v, rng); }

 private:
  const TopologyView* t_;
};

class RoundRobinSelector {
 public:
  // Initial positions are drawn once from `rng` (one draw per node with
  // nonzero initial degree, in id order); after that the schedule is
  // deterministic, exactly the quasirandom model.
  RoundRobinSelector(const TopologyView& t, Rng& rng)
      : t_(&t), next_(t.node_count(), 0) {
    for (NodeId v = 0; v < t.node_count(); ++v) {
      const auto d = t.degree(v);
      next_[v] = d == 0 ? 0 : rng.uniform(d);
    }
  }

  NodeId pick(NodeId v, Rng& /*rng*/) {
    const auto nbrs = t_->neighbors(v);
    const NodeId u = nbrs[next_[v] % nbrs.size()];
    next_[v] = (next_[v] + 1) % nbrs.size();
    return u;
  }

 private:
  const TopologyView* t_;
  std::vector<std::uint64_t> next_;
};

}  // namespace ag::sim
