/// \file
/// SwarmRunner: a real-time gossip driver over net::UdpTransport -- what a
/// node actually runs when the "rounds" of the simulator are replaced by
/// wall-clock ticks and real datagrams.
///
/// The lockstep sim::run engine cannot drive a multi-process swarm (its
/// EXCHANGE needs the partner's state in the same address space), so the UDP
/// deployment uses this self-contained push loop instead: every tick each
/// locally hosted node transmits one fresh RLNC combination (GF(256)) to a
/// uniformly random peer, then drains the transport and inserts whatever
/// arrived.  That is uniform algebraic gossip in the PUSH direction under
/// the asynchronous time model, running on kernel time instead of engine
/// rounds.
///
/// One driver serves both shapes.  The source's messages are coded in
/// generations with a bounded window in flight (src/coding/); the paper's
/// one-shot k-dissemination is the special case of one generation of k
/// messages, all injected on the first tick (generation_size =
/// total_messages = inject_per_round = k, window = 1).  With one generation
/// "every node delivered generation 0" and "every node reached full rank"
/// are the same termination rule.
///
/// Termination is gossiped, not assumed: each node keeps per-node delivery
/// watermarks (count of generations delivered contiguously at node v),
/// max-merges every watermark vector it hears via control frames, and keeps
/// transmitting until the minimum watermark reaches the generation count --
/// then sends a short grace burst of watermark broadcasts so laggard
/// processes learn completion too.  Every delivered message is verified
/// byte-for-byte against the source payload on delivery.
#pragma once

#include <cstdint>

#include "coding/generation.hpp"
#include "gf/gf2m.hpp"
#include "linalg/dense_decoder.hpp"
#include "net/udp_transport.hpp"

namespace ag::net {

/// The swarm speaks GF(256): byte symbols, the library's end-to-end default.
using Gf256Packet = linalg::DensePacket<gf::GF256>;

/// Policy note: each worker runs the simulator's generation window
/// (coding::GenerationWindow) and picks generations through the same
/// coding::GenerationScheduler, so `sequential` and `round_robin` follow the
/// sim driver's rules.  Frames do not carry peer ranks, so over UDP
/// `rarest_first` is fed each candidate generation's OWN rank via observe():
/// a node serves where it is itself furthest from decoding (that feedback
/// ages out after `rarest_ttl` ticks like peer feedback), and ties break
/// with one draw from the worker's RNG.  Real-socket runs are not
/// deterministic either way.
struct SwarmRunnerConfig {
  std::size_t n = 16;            ///< swarm size (node ids 0..n-1)
  coding::StreamConfig stream;   ///< generation size / window / policy / stream length
  std::uint64_t seed = 7;        ///< per-process RNG seed material
  int timeout_ms = 60000;        ///< wall-clock budget before giving up
  int grace_ticks = 32;          ///< watermark broadcasts after completion
};

struct SwarmRunnerReport {
  bool completed = false;   ///< minimum watermark reached total_generations
  bool payload_ok = false;  ///< every locally delivered message matched the source bytes
  std::uint64_t ticks = 0;
  std::uint64_t delivered_messages = 0;  ///< real messages delivered at local nodes
  std::uint64_t stale_packets = 0;       ///< frames for evicted/out-of-window generations
  sim::TransportStats transport;         ///< final transport counters

  bool ok() const noexcept { return completed && payload_ok; }
};

/// Runs the swarm for the nodes hosted by `transport` until cluster-wide
/// completion or timeout.  Blocking; returns the final report.  The
/// transport must be constructed with k = stream.generation_size and
/// payload_len = stream.payload_len.
SwarmRunnerReport run_stream_swarm(UdpTransport<Gf256Packet>& transport,
                                   const SwarmRunnerConfig& cfg);

}  // namespace ag::net
