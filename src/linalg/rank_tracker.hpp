/// \file
/// Rank-only incremental decoders: the large-n scaling path.
///
/// A full decoder (DenseDecoder, BitDecoder) stores O(k^2) coefficient
/// symbols *plus* an O(k * payload) payload arena per node, which stalls
/// stopping-time sweeps around a few hundred nodes.  But every stopping-time
/// statistic in the paper -- Theorem 1's O((k + log n + D) * Delta) bound,
/// Table 1, the barbell's Omega(n^2) -- is a function of *rank evolution
/// only*: whether each received combination was helpful (Definition 3), never
/// of the payload bytes it carried.  The trackers here therefore keep just
/// the coefficient RREF (no payload arena, no payload axpys) and answer the
/// identical insert verdicts at a fraction of the memory.
///
/// Stream-identity contract (load-bearing, pinned by test_rank_tracker.cpp):
/// a protocol run over a rank tracker consumes the *exact same* RNG stream
/// and produces the *exact same* insert verdicts as the same run over the
/// corresponding full decoder (DenseRankTracker<F> vs DenseDecoder<F>,
/// BitRankTracker vs BitDecoder).  This holds by construction: a tracker
/// runs the decoder's own insert and transmit code (see below), insert()
/// draws no randomness, and the transmit rules' draws depend on the rank
/// alone, whatever the payload width.
/// Stopping rounds at n where both fit in memory are therefore *equal*, not
/// just statistically indistinguishable -- which is what lets the large-n
/// sweep (bench/large_n_sweep) extrapolate with a clear conscience.
///
/// A rank tracker is the decoder's own RREF view with payload width 0
/// (linalg/rref_view.hpp).  The names below are kept for callers:
///   * <X>RankTrackerConstRef / <X>RankTrackerRef -- the read-only and the
///     mutable view, as the pooled stores of core/swarm_storage.hpp hand them
///     out over one unpadded structure-of-arrays block for a whole swarm;
///   * <X>RankTracker -- the owning drop-in decoder: the decoder's owner with
///     its payload width pinned to 0, whatever payload length it is given.
#pragma once

#include "gf/field_concept.hpp"
#include "linalg/bit_decoder.hpp"
#include "linalg/dense_decoder.hpp"

namespace ag::linalg {

template <gf::GaloisField F>
using DenseRankTrackerConstRef = DenseRrefView<F, false>;
template <gf::GaloisField F>
using DenseRankTrackerRef = DenseRrefView<F, true>;
template <gf::GaloisField F>
using DenseRankTracker = detail::RrefOwner<DenseRrefView<F, true>, true>;

using BitRankTrackerConstRef = BitRrefView<false>;
using BitRankTrackerRef = BitRrefView<true>;
using BitRankTracker = detail::RrefOwner<BitRrefView<true>, true>;

}  // namespace ag::linalg
