/// \file
/// Insert-time packet verification: the decoder-side defence against
/// Byzantine traffic (ROADMAP item 5).
///
/// Threat model (see docs/ARCHITECTURE.md, "Adversarial scenario layer"): a
/// Byzantine peer controls the *content* of every frame it emits but not the
/// receiver's decoder state.  Without cryptographic payload authentication
/// (homomorphic MACs / null keys -- out of scope here) a receiver can detect
/// exactly two kinds of hostility from the packet alone:
///
///   1. **Malformed** packets: shape or symbol-range violations that a
///      canonical encoder can never produce -- wrong coefficient-vector
///      length, out-of-range field symbols (only observable for fields whose
///      value_type has spare range, e.g. GF(2)/GF(16) carried in a uint8),
///      over-long payloads, wrong GF(2) word counts, or nonzero spare bits
///      above k in the last coefficient word.  These mirror the `bad_*`
///      families of the wire-decoder fuzz corpus (fuzz/gen_corpus.cpp) --
///      net::decode_into rejects them at the frame layer; this hook rejects
///      the same shapes when packets arrive through an in-process transport
///      that never serialised them.
///
///   2. **Rank-wasting** combinations: equations already in the receiver's
///      row space (including the all-zero combination, the one packet that
///      is dependent against *every* state).  These are not distinguishable
///      from honest bad luck -- an honest uniform draw also lands in the row
///      space with probability >= 1/q -- so classify() reports them as
///      Redundant rather than hostile, and the decoders already refuse to
///      spend rank on them.  What verification adds is the *accounting*:
///      RlncSwarm's verify mode counts rejected packets per node so a
///      monitoring layer can flag peers whose redundancy rate is wildly off
///      the honest baseline.
///
/// What cannot be caught here: a well-formed, linearly independent
/// combination whose *payload* symbols are garbage.  Such a packet pollutes
/// the decoded output without any detectable signature at insert time; only
/// end-to-end payload authentication can defend against it.  This boundary
/// is deliberate and documented -- the bench (bench/byzantine_resilience)
/// and the adversary layer (sim/adversary.hpp) therefore measure *stopping
/// time inflation*, the quantity verification does control.
///
/// is_malformed() is the hot-path check: shape/range only, O(k) scans, no
/// field arithmetic, no scratch, safe to run before every insert.
/// classify() adds the row-space test (clobbers the decoder's contains()
/// scratch) and is meant for tests, tooling, and offline analysis.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "gf/field_concept.hpp"
#include "linalg/bit_decoder.hpp"
#include "linalg/dense_decoder.hpp"

namespace ag::linalg {

/// Verdict of the full insert-time classification.
enum class PacketClass : std::uint8_t {
  Helpful,    ///< well-formed and linearly independent of the stored rows
  Redundant,  ///< well-formed but already in the row space (incl. all-zero)
  Malformed,  ///< shape or symbol-range violation; no honest encoder emits it
};

/// Whether any of `symbols` lies outside F.  Only meaningful when the carrier
/// type can hold values outside the field (GF(2) dense and GF(16) ride in a
/// uint8; for GF(256)/GF(65536) the value_type range IS the field, and an
/// unguarded comparison would be always-false and warn).
template <gf::GaloisField F>
bool out_of_field(std::span<const typename F::value_type> symbols) noexcept {
  using value_type = typename F::value_type;
  constexpr auto carrier_max =
      static_cast<std::uint64_t>(std::numeric_limits<value_type>::max());
  if constexpr (carrier_max >= static_cast<std::uint64_t>(F::order)) {
    for (const auto c : symbols)
      if (static_cast<std::uint32_t>(c) >= F::order) return true;
  }
  return false;
}

/// The coefficient half of is_malformed(): wrong length or an out-of-range
/// symbol.  It alone checks a coefficient-only frame, whose payload the
/// receiver builds from the sender's rows (RlncSwarm::receive_from).
template <gf::GaloisField F, typename DecoderLike>
bool malformed_coeffs(const DecoderLike& d,
                      std::span<const typename F::value_type> coeffs) noexcept {
  return coeffs.size() != d.message_count() || out_of_field<F>(coeffs);
}

/// Shape/range verification for dense packets against any decoder-like
/// receiver (DenseDecoder, DenseRankTracker and its views).  Returns true
/// iff the packet could not have been produced by a canonical encoder for
/// this receiver's (k, payload_len) shape.
template <gf::GaloisField F, typename DecoderLike>
bool is_malformed(const DecoderLike& d, const DensePacket<F>& pkt) noexcept {
  return malformed_coeffs<F>(d, pkt.coeffs) || pkt.payload.size() > d.payload_length() ||
         out_of_field<F>(pkt.payload);
}

/// Shape verification for bit-packed GF(2) packets: exact coefficient word
/// count, payload word budget, and canonical spare bits (bits >= k in the
/// last word must be zero -- same rule the wire decoder enforces as
/// DecodeStatus::BadSymbol).
template <typename DecoderLike>
bool is_malformed(const DecoderLike& d, const BitPacket& pkt) noexcept {
  const std::size_t k = d.message_count();
  if (pkt.coeffs.size() != BitDecoder::words_for(k)) return true;
  if (pkt.payload.size() > d.payload_length()) return true;
  if (k % 64 != 0 && !pkt.coeffs.empty()) {
    const std::uint64_t spare = ~std::uint64_t{0} << (k % 64);
    if (pkt.coeffs.back() & spare) return true;
  }
  return false;
}

/// Full insert-time classification.  Malformed beats Redundant beats
/// Helpful; the row-space test clobbers the receiver's contains() scratch
/// (same stripe discipline as contains() itself -- per-shard under the
/// pooled stores).
template <typename DecoderLike, typename Packet>
PacketClass classify(const DecoderLike& d, const Packet& pkt) {
  if (is_malformed(d, pkt)) return PacketClass::Malformed;
  if (d.contains(pkt.coeffs)) return PacketClass::Redundant;
  return PacketClass::Helpful;
}

}  // namespace ag::linalg
