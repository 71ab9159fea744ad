/// \file
/// StreamingSwarm: algebraic gossip over an unbounded message stream.
///
/// The one-shot protocols (core/uniform_ag.hpp etc.) fix k messages up
/// front; this driver instead feeds a stream of `total_messages` messages
/// through fixed-size generations of `generation_size` (= g) messages each,
/// with at most `window` (= W) generations in flight.  The window itself --
/// recycled RlncSwarm lanes, injection with backpressure, in-order delivery,
/// eviction and the GenerationScheduler -- is coding::GenerationWindow
/// (coding/window.hpp), which the UDP runner (net/swarm_runner.cpp) drives
/// too.  This class adds the simulator's message path (sim::Mailbox), the
/// latency histogram, the delivery hook and the counters.
///
/// Pipeline per synchronous round (sim::run drives it like any protocol):
///   1. every node activates once: it picks a generation via the
///      GenerationScheduler over the lanes it can serve (rank > 0), draws a
///      partner, and PUSHes the coefficients of one fresh combination tagged
///      with the generation id and its own rank there (the peer-rank
///      feedback that drives rarest_first).  The frame carries no payload;
///   2. the round barrier flushes the mailbox into the lane decoders.  Only
///      a helpful frame gets a payload, combined from the sender's current
///      rows (RlncSwarm::receive_from).  Within a round a sender's row space
///      only grows, and lanes restart only after the flush, so that payload
///      is byte-identical to the one an eager combination would have
///      carried, and a useless frame costs no payload work at all;
///   3. delivery scan: a node whose OLDEST undelivered generation reached
///      full rank decodes it and delivers its messages in order (strictly
///      in-order delivery, like a TCP receive window) -- per-message
///      latency = delivery round - injection round;
///   4. eviction: once the oldest generation is delivered at every node its
///      lane restarts for a future generation and the window slides;
///   5. injection: the source appends up to inject_per_round fresh messages
///      as unit equations, stalling (backpressure) when the target
///      generation cannot open because the window is full.
///
/// Determinism: a run is a pure function of (seed, config).  RNG draw order
/// per activation is fixed and documented: (1) the scheduler's rarest-first
/// tie-break draw, if any; (2) the partner draw; (3) the combination
/// coefficients.  See docs/ARCHITECTURE.md, determinism contract.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "coding/generation.hpp"
#include "coding/scheduler.hpp"
#include "coding/window.hpp"
#include "core/swarm.hpp"
#include "graph/graph.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/partner.hpp"
#include "sim/time_model.hpp"
#include "sim/topology.hpp"

namespace ag::coding {

/// One coded frame of the streaming protocol: the generation it codes over,
/// the sender's rank there, and the body.  In-sim the body is the
/// coefficient vector alone (StreamingSwarm::message_type); over the wire
/// (net/swarm_runner.hpp) the body is a whole packet, the generation rides
/// in the wire header and rarest_first is fed each node's own rank.
template <typename P>
struct StreamPacket {
  std::uint32_t generation = 0;
  std::uint32_t sender_rank = 0;
  P body;
};

/// The in-sim frame: a StreamPacket whose body is the coefficient vector.
template <typename D>
using CoeffFrame = StreamPacket<std::vector<typename D::value_type>>;

/// \tparam D decoder type for the per-generation lanes (DenseDecoder<F>).
template <typename D>
class StreamingSwarm : public sim::Mailbox<StreamingSwarm<D>, CoeffFrame<D>> {
  using Base = sim::Mailbox<StreamingSwarm<D>, CoeffFrame<D>>;
  friend Base;

 public:
  using packet_type = typename D::packet_type;
  using message_type = CoeffFrame<D>;
  using payload_elem = typename core::RlncSwarm<D>::payload_elem;

  /// Called on every in-order delivery of a real (non-padding) message:
  /// (node, global message index, decoded payload, delivery round).
  using DeliveryHook =
      std::function<void(graph::NodeId, std::uint64_t, std::span<const payload_elem>,
                         std::uint64_t)>;

  StreamingSwarm(std::unique_ptr<sim::TopologyView> topo, StreamConfig cfg)
      : Base(sim::TimeModel::Synchronous, false),
        topo_(std::move(topo)),
        window_(topo_->node_count(), cfg),
        selector_(*topo_) {
    assert(cfg.source < topo_->node_count());
    inject();  // round-0 batch, available from round 1
  }

  // --- sim::GossipProtocol surface -----------------------------------------

  std::size_t node_count() const noexcept { return topo_->node_count(); }
  bool finished() const noexcept { return window_.finished(); }

  void on_activate(graph::NodeId v, sim::Rng& rng) {
    if (!topo_->alive(v) || topo_->degree(v) == 0) return;
    const std::span<const std::uint32_t> gens = window_.servable(v);
    if (gens.empty()) return;
    // Fixed draw order: scheduler tie-break (if any), partner, coefficients.
    const std::uint32_t gen = window_.scheduler().pick(v, gens, rng, round_);
    const graph::NodeId u = selector_.pick(v, rng);
    decltype(auto) d = window_.lane(gen)->node(v);
    if (!d.random_coefficients_into(rng, buf_.body)) return;
    buf_.generation = gen;
    buf_.sender_rank = static_cast<std::uint32_t>(d.rank());
    this->send(v, u, buf_);
  }

  void end_round() {
    this->flush_inbox();
    ++round_;
    for (graph::NodeId v = 0; v < topo_->node_count(); ++v) {
      window_.deliver_ready(v, [&](std::uint64_t m, std::span<const payload_elem> payload,
                                   std::uint64_t injected) {
        ++delivered_real_;
        const std::uint64_t lat = round_ - injected;
        if (latency_hist_.size() <= lat) latency_hist_.resize(lat + 1, 0);
        ++latency_hist_[lat];
        if (delivery_hook_) delivery_hook_(v, m, payload, round_);
      });
    }
    window_.evict();
    inject();
  }

  // --- streaming-specific surface ------------------------------------------

  /// Observe every in-order delivery (differential tests verify payload
  /// bytes through this).  Padding messages of a ragged final generation
  /// are internal and never reported.
  void set_delivery_hook(DeliveryHook hook) { delivery_hook_ = std::move(hook); }

  std::uint64_t rounds_elapsed() const noexcept { return round_; }

  /// Real messages injected / delivered so far.  A message counts as
  /// delivered once per node; the stream is done when
  /// delivered == total_messages * n.
  std::uint64_t injected_messages() const noexcept { return window_.injected_messages(); }
  std::uint64_t delivered_messages() const noexcept { return delivered_real_; }

  /// Rounds the source spent unable to inject because the window was full:
  /// the backpressure signal (generation_size * window too small for the
  /// injection rate).
  std::uint64_t stalled_rounds() const noexcept { return stalled_rounds_; }

  /// Frames that arrived for an already-evicted generation (impossible
  /// under the deterministic sim transport; a health counter over UDP-style
  /// reordering).
  std::uint64_t stale_packets() const noexcept { return stale_packets_; }

  /// Latency histogram: hist[r] = number of (node, message) deliveries that
  /// took exactly r rounds from injection to in-order delivery.
  const std::vector<std::uint64_t>& latency_histogram() const noexcept {
    return latency_hist_;
  }

  /// Peak decoder + scheduler state in bytes (GenerationWindow::memory_bytes).
  std::size_t decoder_state_bytes() const noexcept { return window_.memory_bytes(); }

 private:
  void deliver(graph::NodeId from, graph::NodeId to, const message_type& msg) {
    core::RlncSwarm<D>* lane = window_.lane(msg.generation);
    if (lane == nullptr) {
      ++stale_packets_;
      return;
    }
    window_.scheduler().observe(to, msg.generation, msg.sender_rank, round_);
    // The frame's payload is built from the sender's rows (see the file
    // comment), which still span its coefficients.
    assert(lane->node(from).contains(msg.body));
    lane->receive_from(to, from, msg.body, round_);
  }

  void inject() {
    if (!window_.inject(round_)) ++stalled_rounds_;
  }

  std::unique_ptr<sim::TopologyView> topo_;
  GenerationWindow<D> window_;
  sim::UniformSelector selector_;

  std::uint64_t round_ = 0;
  std::uint64_t delivered_real_ = 0;
  std::uint64_t stalled_rounds_ = 0;
  std::uint64_t stale_packets_ = 0;
  std::vector<std::uint64_t> latency_hist_;

  message_type buf_;  // reusable transmit scratch
  DeliveryHook delivery_hook_;
};

}  // namespace ag::coding
