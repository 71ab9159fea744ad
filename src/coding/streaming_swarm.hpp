/// \file
/// StreamingSwarm: algebraic gossip over an unbounded message stream.
///
/// The one-shot protocols (core/uniform_ag.hpp etc.) fix k messages up
/// front; this driver instead feeds a stream of `total_messages` messages
/// through fixed-size generations of `generation_size` (= g) messages each,
/// with at most `window` (= W) generations in flight.  Per-generation state
/// is one RlncSwarm lane of n decoders with k = g; lanes are recycled
/// (RlncSwarm::restart) as the window slides, so peak decoder state is
/// O(W * n * g * (g + payload)) symbols regardless of stream length -- the
/// bounded-memory property bench/streaming_latency asserts.
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
/// in the wire header and the rank feedback is approximated locally.
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
        cfg_(cfg),
        scheduler_(topo_->node_count(), cfg),
        selector_(*topo_),
        total_gens_(cfg.total_generations()),
        delivered_gens_(topo_->node_count(), 0),
        inject_payload_(cfg.payload_len) {
    assert(cfg_.generation_size > 0);
    assert(cfg_.window > 0);
    assert(cfg_.source < topo_->node_count());
    lanes_.reserve(cfg_.window);
    for (std::size_t w = 0; w < cfg_.window; ++w) {
      lanes_.emplace_back(topo_->node_count(), cfg_.generation_size,
                          cfg_.payload_len);
    }
    candidates_.reserve(cfg_.window);
    inject();  // round-0 batch, available from round 1
  }

  // --- sim::GossipProtocol surface -----------------------------------------

  std::size_t node_count() const noexcept { return topo_->node_count(); }
  bool finished() const noexcept { return evicted_gens_ == total_gens_; }

  void on_activate(graph::NodeId v, sim::Rng& rng) {
    if (!topo_->alive(v) || topo_->degree(v) == 0) return;
    candidates_.clear();
    for (std::uint32_t gen = evicted_gens_; gen < opened_gens_; ++gen) {
      const Lane& lane = lanes_[gen % cfg_.window];
      if (lane.gen == gen && lane.swarm.node(v).rank() > 0) {
        candidates_.push_back(gen);
      }
    }
    if (candidates_.empty()) return;
    // Fixed draw order: scheduler tie-break (if any), partner, coefficients.
    const std::uint32_t gen = scheduler_.pick(
        v, std::span<const std::uint32_t>(candidates_), rng, round_);
    const graph::NodeId u = selector_.pick(v, rng);
    Lane& lane = lanes_[gen % cfg_.window];
    if (!lane.swarm.node(v).random_coefficients_into(rng, buf_.body)) return;
    buf_.generation = gen;
    buf_.sender_rank = static_cast<std::uint32_t>(lane.swarm.node(v).rank());
    this->send(v, u, buf_);
  }

  void end_round() {
    this->flush_inbox();
    ++round_;
    deliver_ready();
    evict_delivered();
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
  std::uint64_t injected_messages() const noexcept { return injected_real_; }
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

  /// Peak decoder + scheduler state in bytes.  Depends on (n, g, W,
  /// payload) only -- NOT on total_messages; bench/streaming_latency
  /// asserts exactly that by comparing two stream lengths.
  std::size_t decoder_state_bytes() const noexcept {
    std::size_t total = scheduler_.memory_bytes();
    for (const Lane& lane : lanes_) total += lane.swarm.decoder_memory_bytes();
    return total;
  }

  const StreamConfig& config() const noexcept { return cfg_; }
  std::uint32_t total_generations() const noexcept { return total_gens_; }

 private:
  struct Lane {
    Lane(std::size_t n, std::size_t g, std::size_t payload_len)
        : swarm(core::Unseeded{}, n, g, payload_len) {}
    std::uint32_t gen = GenerationScheduler::kNoGen;
    core::RlncSwarm<D> swarm;
    std::vector<std::uint64_t> inject_round;  // per local message index
  };

  void deliver(graph::NodeId from, graph::NodeId to, const message_type& msg) {
    Lane& lane = lanes_[msg.generation % cfg_.window];
    if (lane.gen != msg.generation) {
      ++stale_packets_;
      return;
    }
    scheduler_.observe(to, msg.generation, msg.sender_rank, round_);
    // The frame's payload is built from the sender's rows (see the file
    // comment), which still span its coefficients.
    assert(lane.swarm.node(from).contains(msg.body));
    lane.swarm.receive_from(to, from, msg.body, round_);
  }

  // In-order delivery: node v hands generations to the application strictly
  // by generation id, each as soon as it reaches full rank locally AND every
  // earlier generation is out.
  void deliver_ready() {
    const std::size_t n = topo_->node_count();
    for (std::size_t v = 0; v < n; ++v) {
      while (delivered_gens_[v] < opened_gens_) {
        const std::uint32_t gen = delivered_gens_[v];
        Lane& lane = lanes_[gen % cfg_.window];
        if (lane.gen != gen || !lane.swarm.node(static_cast<graph::NodeId>(v)).full_rank())
          break;
        deliver_generation(static_cast<graph::NodeId>(v), gen, lane);
        ++delivered_gens_[v];
      }
    }
  }

  void deliver_generation(graph::NodeId v, std::uint32_t gen, Lane& lane) {
    const std::uint64_t base =
        static_cast<std::uint64_t>(gen) * cfg_.generation_size;
    // A generation only reaches full rank once all g units are injected, so
    // every local index has an injection stamp by now.
    for (std::size_t i = 0; i < cfg_.generation_size; ++i) {
      const std::uint64_t m = base + i;
      if (m >= cfg_.total_messages) break;  // padding tail of the last generation
      ++delivered_real_;
      const std::uint64_t lat = round_ - lane.inject_round[i];
      if (latency_hist_.size() <= lat) latency_hist_.resize(lat + 1, 0);
      ++latency_hist_[lat];
      if (delivery_hook_) {
        decltype(auto) d = lane.swarm.node(v);
        delivery_hook_(v, m, d.decoded_message(i), round_);
      }
    }
  }

  void evict_delivered() {
    while (evicted_gens_ < opened_gens_) {
      const std::uint32_t gen = evicted_gens_;
      bool everywhere = true;
      for (const std::uint32_t d : delivered_gens_) {
        if (d <= gen) {
          everywhere = false;
          break;
        }
      }
      if (!everywhere) break;
      Lane& lane = lanes_[gen % cfg_.window];
      scheduler_.close(gen);
      lane.gen = GenerationScheduler::kNoGen;
      lane.swarm.restart();  // arena capacity survives for the next tenant
      ++evicted_gens_;
    }
  }

  // Source-side injection with backpressure: up to inject_per_round unit
  // equations per round, stalling when the next message's generation cannot
  // open because an undelivered generation still holds its window slot.
  void inject() {
    const std::uint64_t padded_total =
        static_cast<std::uint64_t>(total_gens_) * cfg_.generation_size;
    bool stalled = false;
    for (std::size_t b = 0; b < cfg_.inject_per_round; ++b) {
      if (next_inject_ >= padded_total) return;
      const auto gen = static_cast<std::uint32_t>(next_inject_ / cfg_.generation_size);
      if (gen >= evicted_gens_ + cfg_.window) {
        stalled = true;
        break;
      }
      Lane& lane = lanes_[gen % cfg_.window];
      if (lane.gen != gen) {
        assert(lane.gen == GenerationScheduler::kNoGen);
        lane.gen = gen;
        lane.inject_round.assign(cfg_.generation_size, 0);
        scheduler_.open(gen);
        if (gen >= opened_gens_) opened_gens_ = gen + 1;
      }
      const std::size_t i = next_inject_ % cfg_.generation_size;
      core::RlncSwarm<D>::expected_payload_into(static_cast<std::size_t>(next_inject_),
                                                inject_payload_);
      lane.swarm.node(cfg_.source).unit_packet_into(i, inject_payload_, inject_pkt_);
      lane.swarm.receive(cfg_.source, inject_pkt_, round_);
      lane.inject_round[i] = round_;
      if (next_inject_ < cfg_.total_messages) ++injected_real_;
      ++next_inject_;
    }
    if (stalled) ++stalled_rounds_;
  }

  std::unique_ptr<sim::TopologyView> topo_;
  StreamConfig cfg_;
  GenerationScheduler scheduler_;
  sim::UniformSelector selector_;
  std::uint32_t total_gens_;

  std::vector<Lane> lanes_;                  // window of recycled decoder lanes
  std::vector<std::uint32_t> delivered_gens_;  // per node: gens delivered in order
  std::uint32_t opened_gens_ = 0;   // generations ever opened (next gen id)
  std::uint32_t evicted_gens_ = 0;  // generations delivered everywhere + recycled
  std::uint64_t next_inject_ = 0;   // next (padded) global message index

  std::uint64_t round_ = 0;
  std::uint64_t injected_real_ = 0;
  std::uint64_t delivered_real_ = 0;
  std::uint64_t stalled_rounds_ = 0;
  std::uint64_t stale_packets_ = 0;
  std::vector<std::uint64_t> latency_hist_;

  std::vector<std::uint32_t> candidates_;  // reusable scratch for on_activate
  message_type buf_;                       // reusable transmit scratch
  std::vector<payload_elem> inject_payload_;  // reusable injection scratch
  packet_type inject_pkt_;
  DeliveryHook delivery_hook_;
};

}  // namespace ag::coding
