// k-dissemination problem setup (Section 1): k <= n initial messages located
// at some nodes (a node can hold more than one) must reach all n nodes.
//
// Placement maps message index -> owning node.  Payload bytes are generated
// deterministically from the message index so end-to-end decoding can be
// verified without carrying the inputs around.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sim/rng.hpp"

namespace ag::core {

// Flat (CSR-style) node -> owned-messages index: `of(v)` spans the message
// indices node v initially holds, ascending.  Two arrays instead of n
// vectors, so swarms at n = 100k pay two allocations for the inverse map
// instead of one per node.
struct OwnedIndex {
  std::vector<std::uint32_t> offsets;  // n + 1 entries
  std::vector<std::uint32_t> items;    // k message indices grouped by node

  std::span<const std::uint32_t> of(graph::NodeId v) const noexcept {
    // ag-lint: allow(data-arith) -- CSR slice; offsets[v] <= offsets[v+1] <= items.size() by construction
    return {items.data() + offsets[v], items.data() + offsets[v + 1]};
  }
};

struct Placement {
  std::vector<graph::NodeId> owner;  // owner[i] holds initial message i

  std::size_t message_count() const noexcept { return owner.size(); }

  // Messages held by each node (inverse map), in flat CSR layout; per-node
  // spans list message indices in ascending order.
  OwnedIndex owned_index(std::size_t n) const;
};

// All-to-all communication: k = n, message i originates at node i.
Placement all_to_all(std::size_t n);

// k messages at k distinct nodes chosen uniformly at random (requires k <= n).
Placement uniform_distinct(std::size_t k, std::size_t n, sim::Rng& rng);

// k messages placed independently and uniformly (repeats allowed).
Placement uniform_with_repetition(std::size_t k, std::size_t n, sim::Rng& rng);

// All k messages at one source node.
Placement single_source(std::size_t k, graph::NodeId src);

// Deterministic pseudo-random payload for message `index`; the same function
// is used at placement time and at verification time.
std::uint64_t payload_word(std::size_t message_index, std::size_t word_index);

}  // namespace ag::core
