/// \file
/// RlncSwarm: the per-node RLNC state shared by every algebraic-gossip
/// protocol variant (uniform AG, TAG Phase 2, fixed-tree AG).
///
/// Each node owns an incremental decoder; the swarm tracks how many nodes
/// have reached full rank (so protocols can answer finished() in O(1)), when
/// each node finished, and aggregate helpfulness statistics.
///
/// The swarm is parameterised over a storage policy (core/swarm_storage.hpp)
/// so the same protocol code runs with per-node decoder objects (the
/// default, VectorNodeStore<D>) or with the structure-of-arrays rank-only
/// pools that make n >= 100k sweeps fit in memory (DenseRankStore<F>,
/// BitRankStore).  Everything the swarm itself tracks -- finish rounds,
/// owned-message index, counters -- is already flat-array (SoA) state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/dissemination.hpp"
#include "core/swarm_storage.hpp"
#include "linalg/decoder_concept.hpp"
#include "linalg/verify.hpp"
#include "sim/rng.hpp"

namespace ag::core {

/// Tag for the streaming construction path: decoders start empty (nothing
/// is placement-seeded) because the stream produces messages over time.
struct Unseeded {};

/// \tparam D     decoder type: DenseDecoder<F>, BitDecoder, or the rank-only
///               trackers (linalg/rank_tracker.hpp); any linalg::RlncDecoder
/// \tparam Store storage policy providing at(v)/reset(v); defaults to one
///               self-contained decoder object per node
template <linalg::RlncDecoder D, typename Store = VectorNodeStore<D>>
class RlncSwarm {
 public:
  using decoder_type = D;
  using store_type = Store;
  using packet_type = typename D::packet_type;
  using payload_elem =
      typename decltype(std::declval<packet_type>().payload)::value_type;

  /// Builds n decoders for k = placement.message_count() messages with
  /// payload_len payload symbols each, and seeds the owners' decoders with
  /// their initial unit equations.
  RlncSwarm(std::size_t n, const Placement& placement, std::size_t payload_len)
      : k_(placement.message_count()),
        payload_len_(payload_len),
        owned_(placement.owned_index(n)),
        store_(n, k_, payload_len),
        finish_round_(n, kNotFinished) {
    for (std::size_t i = 0; i < k_; ++i) {
      decltype(auto) d = store_.at(placement.owner[i]);
      d.insert(d.unit_packet(i, expected_payload(i, payload_len)));
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (store_.at(static_cast<graph::NodeId>(v)).full_rank()) {
        mark_finished(static_cast<graph::NodeId>(v), 0);
      }
    }
  }

  /// Streaming construction (src/coding/): n empty k-message decoders with
  /// nothing seeded -- there is no placement; the generation driver injects
  /// unit equations through receive() as the stream produces messages.
  RlncSwarm(Unseeded, std::size_t n, std::size_t k, std::size_t payload_len)
      : k_(k),
        payload_len_(payload_len),
        owned_(Placement{}.owned_index(n)),
        store_(n, k, payload_len),
        finish_round_(n, kNotFinished) {}

  /// Rewinds every node to the empty-decoder state and clears completion
  /// tracking, WITHOUT re-seeding anything: the generation scheduler
  /// recycles a delivered generation's swarm for the next generation id.
  /// Under VectorNodeStore the decoder arenas keep their capacity, so the
  /// steady-state streaming loop allocates nothing.  The helpful/useless
  /// counters keep accumulating across generations.
  void restart() {
    for (std::size_t v = 0; v < finish_round_.size(); ++v) {
      store_.reset(static_cast<graph::NodeId>(v));
    }
    std::fill(finish_round_.begin(), finish_round_.end(), kNotFinished);
    complete_ = 0;
  }

  /// Churn semantics: a node that left the network and rejoined lost every
  /// coded equation it had received, but still owns its initial messages, so
  /// its decoder restarts seeded with exactly its placement-time unit
  /// equations.  Completion tracking is rewound accordingly (the protocol is
  /// no longer finished if a complete node resets below full rank).
  void reset_node(graph::NodeId v, std::uint64_t now_round) {
    if (finish_round_[v] != kNotFinished) {
      finish_round_[v] = kNotFinished;
      --complete_;
    }
    store_.reset(v);
    decltype(auto) d = store_.at(v);
    for (const std::uint32_t i : owned_.of(v)) {
      d.insert(d.unit_packet(i, expected_payload(i, payload_len_)));
    }
    if (d.full_rank()) mark_finished(v, now_round);
  }

  std::size_t node_count() const noexcept { return finish_round_.size(); }
  std::size_t message_count() const noexcept { return k_; }

  /// Prepares the store for `shards`-way concurrent access (one scratch
  /// stripe per shard in the pooled stores; no-op for per-node decoders).
  /// Call before the first round; not while decoder views are live.
  void configure_shards(std::size_t shards) { store_.configure_shards(shards); }

  /// Decoder access: a `const D&` under VectorNodeStore, a value-semantics
  /// view under the pooled rank stores.
  decltype(auto) node(graph::NodeId v) const { return store_.at(v); }

  /// Decoder-state footprint in bytes (for the scaling benches).
  std::size_t decoder_memory_bytes() const noexcept { return store_.memory_bytes(); }

  std::size_t complete_count() const noexcept { return complete_; }
  bool all_complete() const noexcept { return complete_ == finish_round_.size(); }

  static constexpr std::uint64_t kNotFinished = ~std::uint64_t{0};
  std::uint64_t finish_round(graph::NodeId v) const { return finish_round_[v]; }

  std::uint64_t helpful_receives() const noexcept { return helpful_; }
  std::uint64_t useless_receives() const noexcept { return useless_; }

  /// Arms the insert-time verification hook (linalg/verify.hpp): every
  /// received packet is shape/range-checked BEFORE it reaches the decoder,
  /// and rejects are counted swarm-wide and per node.  Mandatory whenever an
  /// adversary may inject malformed frames -- the decoders assume canonical
  /// shapes (their insert() asserts them) and must never see a hostile
  /// packet.  Off by default: the honest hot path pays nothing.
  void enable_verification() {
    verify_inserts_ = true;
    malformed_per_node_.assign(finish_round_.size(), 0);
  }
  bool verification_enabled() const noexcept { return verify_inserts_; }

  /// Packets rejected by the verification hook (swarm-wide / per node).
  std::uint64_t malformed_receives() const noexcept { return malformed_; }
  std::uint64_t malformed_at(graph::NodeId v) const {
    return verify_inserts_ ? malformed_per_node_[v] : 0;
  }

  /// RLNC transmit rule for node v, written into a caller-owned packet
  /// whose buffers are reused across calls.  Returns false when v stores
  /// nothing.  The second overload applies AgConfig's coding ablations:
  /// no-recode forwards a stored equation; density < 1 uses sparse
  /// combinations.
  template <typename URBG>
  bool combine_into(graph::NodeId v, URBG& rng, packet_type& out) const {
    return store_.at(v).random_combination_into(rng, out);
  }

  template <typename URBG>
  bool combine_into(graph::NodeId v, URBG& rng, bool recode, double density,
                    packet_type& out) const {
    if (!recode) return store_.at(v).random_stored_row_into(rng, out);
    if (density >= 1.0) return store_.at(v).random_combination_into(rng, out);
    return store_.at(v).random_combination_into(rng, density, out);
  }

  /// Cache hint: node v's decoder state is about to be read (e.g. by
  /// combine_into).  Never changes a result.
  void prefetch(graph::NodeId v) const noexcept { store_.prefetch(v); }

  /// Receive path: inserts into `to`'s decoder, updating completion
  /// tracking.  `now_round` stamps the completion time.  Returns true iff
  /// the packet was helpful (increased `to`'s rank).
  bool receive(graph::NodeId to, const packet_type& pkt, std::uint64_t now_round) {
    decltype(auto) d = store_.at(to);
    if (verify_inserts_ && linalg::is_malformed(d, pkt)) return reject(to);
    return tally(to, d, d.insert(pkt), now_round);
  }

  /// receive() of the packet `from` would have sent with coefficients
  /// `coeffs`, its payload built from `from`'s current rows only if it is
  /// helpful (DenseRrefView::insert_from).  Byte-identical to receive() of
  /// the eagerly combined packet while `coeffs` lies in `from`'s row space,
  /// which holds from the draw to the end of the synchronous round as long
  /// as `from` is not reset in between.  The verification hook checks the
  /// coefficients alone: there is no payload in flight to forge.
  bool receive_from(graph::NodeId to, graph::NodeId from,
                    std::span<const typename D::value_type> coeffs, std::uint64_t now_round) {
    decltype(auto) d = store_.at(to);
    if (verify_inserts_ &&
        linalg::malformed_coeffs<typename D::field_type>(d, coeffs)) {
      return reject(to);
    }
    return tally(to, d, d.insert_from(coeffs, std::as_const(store_).at(from)), now_round);
  }

  /// Per-shard receive counters for the sharded round runner: each shard
  /// accumulates its own tally while inserting concurrently, and the runner
  /// absorbs them at the round barrier so helpful_/useless_/complete_ stay
  /// single-writer.
  struct ReceiveTally {
    std::uint64_t helpful = 0;
    std::uint64_t useless = 0;
    std::uint64_t malformed = 0;  ///< rejected by the verification hook
    std::size_t completed = 0;  ///< nodes that reached full rank this phase
  };

  /// receive() variant that touches ONLY node-local state (to's decoder and
  /// finish_round_[to]) plus the caller's tally -- safe to call concurrently
  /// for nodes of different shards.  The swarm-wide counters are updated
  /// later via absorb_tally().
  bool receive_tallied(graph::NodeId to, const packet_type& pkt,
                       std::uint64_t now_round, ReceiveTally& tally) {
    decltype(auto) d = store_.at(to);
    if (verify_inserts_ && linalg::is_malformed(d, pkt)) {
      ++tally.malformed;
      ++malformed_per_node_[to];  // node-local write: shard-safe
      return false;
    }
    if (d.insert(pkt)) {
      ++tally.helpful;
      if (d.full_rank() && finish_round_[to] == kNotFinished) {
        finish_round_[to] = now_round;
        ++tally.completed;
      }
      return true;
    }
    ++tally.useless;
    return false;
  }

  /// Folds a shard's tally into the swarm-wide counters (round barrier,
  /// single thread).
  void absorb_tally(const ReceiveTally& t) {
    helpful_ += t.helpful;
    useless_ += t.useless;
    malformed_ += t.malformed;
    complete_ += t.completed;
  }

  /// The deterministic payload message i was created with (for
  /// verification).  Symbols are sanitized through the decoder so they are
  /// valid field elements whatever the field order.
  static std::vector<payload_elem> expected_payload(std::size_t i, std::size_t len) {
    std::vector<payload_elem> out(len);
    for (std::size_t j = 0; j < len; ++j) {
      out[j] = D::payload_symbol_from(payload_word(i, j));
    }
    return out;
  }

  /// expected_payload() written into a caller-owned buffer of any length.
  /// (expected_payload() keeps a loop of its own rather than calling this:
  /// as a wrapper it changed GCC's inlining of the rank-only engines.)
  static void expected_payload_into(std::size_t i, std::span<payload_elem> out) {
    for (std::size_t j = 0; j < out.size(); ++j) {
      out[j] = D::payload_symbol_from(payload_word(i, j));
    }
  }

  /// True iff node v decodes message i to exactly the payload it was sent
  /// with.  Under a rank-only store payload_length() is 0 and this
  /// degenerates to the full-rank check.
  bool decodes_correctly(graph::NodeId v, std::size_t i) const {
    decltype(auto) d = store_.at(v);
    if (!d.full_rank()) return false;
    const auto got = d.decoded_message(i);
    const auto want = expected_payload(i, d.payload_length());
    if (got.size() != want.size()) return false;
    for (std::size_t j = 0; j < want.size(); ++j)
      if (got[j] != want[j]) return false;
    return true;
  }

 private:
  bool reject(graph::NodeId to) {
    ++malformed_;
    ++malformed_per_node_[to];
    return false;
  }

  // Counts one insert verdict; `d` is `to`'s decoder after the insert.
  template <typename Node>
  bool tally(graph::NodeId to, const Node& d, bool helpful, std::uint64_t now_round) {
    if (!helpful) {
      ++useless_;
      return false;
    }
    ++helpful_;
    if (d.full_rank()) mark_finished(to, now_round);
    return true;
  }

  void mark_finished(graph::NodeId v, std::uint64_t round) {
    if (finish_round_[v] == kNotFinished) {
      finish_round_[v] = round;
      ++complete_;
    }
  }

  std::size_t k_;
  std::size_t payload_len_;
  OwnedIndex owned_;  // node -> initially owned messages (flat CSR layout)
  Store store_;
  std::vector<std::uint64_t> finish_round_;
  std::size_t complete_ = 0;
  std::uint64_t helpful_ = 0;
  std::uint64_t useless_ = 0;
  std::uint64_t malformed_ = 0;
  bool verify_inserts_ = false;
  std::vector<std::uint64_t> malformed_per_node_;  // sized by enable_verification()
};

}  // namespace ag::core
