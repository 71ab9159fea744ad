/// \file
/// Packet forgers: the core-layer half of the Byzantine adversary.
///
/// sim/adversary.hpp decides WHICH nodes lie and WHEN (membership, per-send
/// family draws; sim::Mailbox applies them); this header knows what the
/// protocols' messages look like and implements the actual forgery for every
/// mailbox message type in the tree:
///
///   linalg::DensePacket<F>  -- UniformAG / FixedTreeAG / TAG Phase 2
///   linalg::BitPacket       -- the bit-packed GF(2) variants of the same
///   std::uint32_t           -- UncodedGossip / TreeRoutingGossip block ids
///   std::variant<stp, P>    -- TAG's combined control+data message: only
///                              the data alternative is forged; STP control
///                              traffic passes through untouched (the
///                              adversary layer is a data-plane attack --
///                              see docs/ARCHITECTURE.md for the boundary).
///
/// Every forgery draws exclusively from the adversary's own Rng stream (the
/// one sim::Adversary owns), so attaching an adversary never perturbs the
/// honest partner/coding draw sequence.
///
/// Attack family semantics (kept in sync with linalg/verify.hpp):
///   RankWaste       -> the all-zero combination: the unique equation that is
///                      dependent against EVERY receiver state, i.e. the
///                      strongest rank attack that is still well-formed.  A
///                      nonzero stale row could transiently help an
///                      empty receiver, so zero is what a maximally wasteful
///                      adversary sends.  classify() = Redundant; the decoder
///                      rejects it unconditionally.
///   MalformedCoeffs -> wrong coefficient-vector length, out-of-range field
///                      symbols (where the carrier type has spare range), or
///                      dirty spare bits in the last GF(2) word.
///                      classify() = Malformed; the verification hook rejects
///                      it before the decoder ever sees it.
///   GarbagePayload  -> over-long payload stuffed with junk.  classify() =
///                      Malformed (shape violation).  NOTE: a *well-shaped*
///                      garbage payload on an independent combination is
///                      undetectable without payload authentication; that
///                      boundary is deliberate and documented.
///   Equivocate      -> resolved per send by sim::Adversary::draw_family()
///                      before the forger runs, so a BROADCAST fan-out shows
///                      different neighbors different hostile frames.
///
/// For the uncoded/block-id protocols every family degenerates to an
/// out-of-range block id (>= k): it is the only injection their one-word
/// messages can carry, and their deliver() guards reject it unconditionally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <variant>

#include "gf/field_concept.hpp"
#include "linalg/bit_decoder.hpp"
#include "linalg/dense_decoder.hpp"
#include "sim/adversary.hpp"
#include "util/urbg.hpp"

namespace ag::core {

/// Receiver-shape description the forgers target: k unknowns and the
/// receiver's payload length (symbols for dense packets, words for
/// BitPacket, ignored for block ids).  Pass the payload length the
/// *receivers* enforce -- 0 under rank-only stores.
struct ByzantineShape {
  std::size_t k = 0;
  std::size_t payload_len = 0;
};

/// Dense-packet forger.
template <gf::GaloisField F>
void forge_in_place(sim::Rng& rng, sim::AttackMode family, const ByzantineShape& sh,
                    linalg::DensePacket<F>& pkt) {
  using value_type = typename F::value_type;
  switch (family) {
    case sim::AttackMode::MalformedCoeffs: {
      constexpr auto carrier_max =
          static_cast<std::uint64_t>(std::numeric_limits<value_type>::max());
      constexpr bool has_spare_range =
          carrier_max >= static_cast<std::uint64_t>(F::order);
      if constexpr (has_spare_range) {
        if (util::uniform_below(rng, 2) == 0 && sh.k > 0) {
          // Right length, one out-of-range symbol.
          pkt.coeffs.assign(sh.k, F::zero);
          const auto spare = carrier_max - static_cast<std::uint64_t>(F::order) + 1;
          pkt.coeffs[util::uniform_below(rng, sh.k)] = static_cast<value_type>(
              static_cast<std::uint64_t>(F::order) + util::uniform_below(rng, spare));
          return;
        }
      }
      // Wrong length: one symbol too long or too short.
      const std::size_t len =
          (sh.k == 0 || util::uniform_below(rng, 2) == 0) ? sh.k + 1 : sh.k - 1;
      pkt.coeffs.assign(len, F::one);
      if (pkt.payload.size() > sh.payload_len) pkt.payload.resize(sh.payload_len);
      return;
    }
    case sim::AttackMode::GarbagePayload: {
      // Shape-valid coefficients, over-long junk payload.
      pkt.coeffs.assign(sh.k, F::one);
      const std::size_t len = sh.payload_len + 1 + util::uniform_below(rng, 3);
      pkt.payload.resize(len);
      for (auto& s : pkt.payload) {
        s = static_cast<value_type>(util::uniform_below(rng, F::order));
      }
      return;
    }
    case sim::AttackMode::RankWaste:
    case sim::AttackMode::Equivocate:  // resolved upstream; treat as RankWaste
      pkt.coeffs.assign(sh.k, F::zero);
      if (pkt.payload.size() > sh.payload_len) pkt.payload.resize(sh.payload_len);
      for (auto& s : pkt.payload) s = F::zero;
      return;
  }
}

/// Bit-packed GF(2) forger.
inline void forge_in_place(sim::Rng& rng, sim::AttackMode family,
                           const ByzantineShape& sh, linalg::BitPacket& pkt) {
  const std::size_t words = linalg::BitDecoder::words_for(sh.k);
  switch (family) {
    case sim::AttackMode::MalformedCoeffs: {
      if (sh.k % 64 != 0 && util::uniform_below(rng, 2) == 0) {
        // Right word count, dirty spare bit above k in the last word.
        pkt.coeffs.assign(words, 0);
        const std::size_t spare_bits = 64 - sh.k % 64;
        pkt.coeffs.back() = std::uint64_t{1}
                            << (sh.k % 64 + util::uniform_below(rng, spare_bits));
      } else {
        // Wrong word count.
        const std::size_t len =
            (words == 0 || util::uniform_below(rng, 2) == 0) ? words + 1 : words - 1;
        pkt.coeffs.assign(len, ~std::uint64_t{0});
      }
      if (pkt.payload.size() > sh.payload_len) pkt.payload.resize(sh.payload_len);
      return;
    }
    case sim::AttackMode::GarbagePayload: {
      pkt.coeffs.assign(words, 0);
      if (sh.k > 0) pkt.coeffs[0] = 1;  // shape-valid, canonical spare bits
      const std::size_t len = sh.payload_len + 1 + util::uniform_below(rng, 3);
      pkt.payload.resize(len);
      for (auto& w : pkt.payload) w = util::random_bits(rng, 64);
      return;
    }
    case sim::AttackMode::RankWaste:
    case sim::AttackMode::Equivocate:
      pkt.coeffs.assign(words, 0);
      if (pkt.payload.size() > sh.payload_len) pkt.payload.resize(sh.payload_len);
      for (auto& w : pkt.payload) w = 0;
      return;
  }
}

/// Block-id forger (UncodedGossip / TreeRoutingGossip): always an
/// out-of-range id, whatever the family.
inline void forge_in_place(sim::Rng& rng, sim::AttackMode /*family*/,
                           const ByzantineShape& sh, std::uint32_t& msg) {
  msg = static_cast<std::uint32_t>(
      sh.k + util::uniform_below(rng, sh.k == 0 ? 1 : sh.k));
}

/// Variant forger (TAG): forges the coded-packet alternative, passes control
/// messages through untouched.
template <typename... Alts>
void forge_in_place(sim::Rng& rng, sim::AttackMode family, const ByzantineShape& sh,
                    std::variant<Alts...>& msg) {
  std::visit(
      [&](auto& alt) {
        using A = std::remove_reference_t<decltype(alt)>;
        if constexpr (requires(A& a) { a.coeffs; }) {
          forge_in_place(rng, family, sh, alt);
        }
      },
      msg);
}

/// Makes `adversary`'s members forge every message they send through
/// `proto`, with the forger for its mailbox message type `Msg`.  The
/// protocol keeps its own delivery settings (channel, same-sender filter).
/// Call before the first send; read the count with `proto.forged_sends()`.
///
/// The protocol's own insert-time verification MUST be armed for coded
/// protocols (AgConfig.verify_inserts) -- the decoders assume canonical
/// shapes and must never see a forged frame.
template <typename Msg, typename Protocol>
void attach_adversary(Protocol& proto, std::shared_ptr<sim::Adversary> adversary,
                      ByzantineShape sh) {
  proto.set_adversary(std::move(adversary), [sh](sim::Rng& rng, sim::AttackMode family,
                                                 graph::NodeId /*to*/, Msg& m) {
    forge_in_place(rng, family, sh, m);
  });
}

}  // namespace ag::core
