/// \file
/// Concept tying the RLNC decoder family together so that nodes and
/// protocols can be generic over the coefficient representation: the full
/// decoders (DenseDecoder<F>, BitDecoder) and the rank-only trackers
/// (DenseRankTracker<F>, BitRankTracker) all satisfy it, and
/// core::RlncSwarm<D, Store> requires it of D, so every swarm instantiation
/// checks it at build time.
#pragma once

#include <concepts>
#include <cstddef>

namespace ag::linalg {

/// \brief Minimum decoder surface a gossip node relies on: rank queries,
/// helpfulness-verdict insert, and unit equations for initially owned
/// messages.  The swarm additionally uses the combination builders, which
/// are templates (URBG) and therefore not expressible in the concept.
template <typename D>
concept RlncDecoder = requires(D d, const D cd, const typename D::packet_type& pkt,
                               std::size_t i) {
  typename D::packet_type;
  { cd.message_count() } -> std::convertible_to<std::size_t>;
  { cd.rank() } -> std::convertible_to<std::size_t>;
  { cd.full_rank() } -> std::convertible_to<bool>;
  { d.insert(pkt) } -> std::convertible_to<bool>;
  { cd.unit_packet(i) } -> std::convertible_to<typename D::packet_type>;
};

}  // namespace ag::linalg
