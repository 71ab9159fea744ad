/// \file
/// GenerationWindow: the sliding window of generations both streaming
/// drivers run -- StreamingSwarm (coding/streaming_swarm.hpp) in the
/// simulator and run_stream_swarm (net/swarm_runner.cpp) over UDP.  They add
/// only a transport and a clock.
///
/// Generation gen lives in lane gen % W, one RlncSwarm of n decoders with
/// k = g, recycled (RlncSwarm::restart) as the window [evicted, evicted + W)
/// slides, so decoder state is O(W * n * g * (g + payload)) symbols however
/// long the stream runs.  A generation opens lazily, on the source's first
/// injection or the first frame naming it.  Each node's watermark counts the
/// generations it delivered contiguously; the minimum is the eviction
/// frontier.  Over UDP the runner max-merges gossiped remote watermarks into
/// watermarks().  Nothing here draws randomness: the scheduler's tie-break
/// draw is taken by the caller's GenerationScheduler::pick().
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "coding/generation.hpp"
#include "coding/scheduler.hpp"
#include "core/swarm.hpp"
#include "graph/graph.hpp"

namespace ag::coding {

/// \tparam D decoder type for the per-generation lanes (DenseDecoder<F>).
template <typename D>
class GenerationWindow {
 public:
  using swarm_type = core::RlncSwarm<D>;
  using packet_type = typename D::packet_type;
  using payload_elem = typename swarm_type::payload_elem;

  GenerationWindow(std::size_t n, const StreamConfig& cfg)
      : cfg_(cfg),
        total_gens_(cfg.total_generations()),
        scheduler_(n, cfg),
        watermarks_(n, 0),
        inject_payload_(cfg.payload_len) {
    assert(cfg_.generation_size > 0);
    assert(cfg_.window > 0);
    lanes_.reserve(cfg_.window);
    for (std::size_t w = 0; w < cfg_.window; ++w) {
      lanes_.emplace_back(n, cfg_.generation_size, cfg_.payload_len);
    }
    servable_.reserve(cfg_.window);
  }

  /// The lane of `gen`, opened if `gen` is inside the window and its slot
  /// is free.  Null for a generation that is evicted, beyond the window or
  /// the stream, or whose slot still holds gen - W.
  swarm_type* lane(std::uint32_t gen) {
    Lane* l = open(gen);
    return l == nullptr ? nullptr : &l->swarm;
  }

  /// The open generations node v can code over (rank > 0 there),
  /// ascending.  The span is scratch, valid until the next call.
  std::span<const std::uint32_t> servable(graph::NodeId v) {
    servable_.clear();
    for (std::uint32_t gen = evicted_; gen < opened_; ++gen) {
      const Lane& l = lanes_[gen % cfg_.window];
      if (l.gen == gen && l.swarm.node(v).rank() > 0) servable_.push_back(gen);
    }
    return servable_;
  }

  /// Source-side injection with backpressure: up to inject_per_round unit
  /// equations at the source, stalling when the next message's generation
  /// cannot open because an undelivered generation still holds its window
  /// slot.  Returns false iff the source stalled.
  bool inject(std::uint64_t round) {
    const std::uint64_t padded_total =
        static_cast<std::uint64_t>(total_gens_) * cfg_.generation_size;
    const auto source = static_cast<graph::NodeId>(cfg_.source);
    for (std::size_t b = 0; b < cfg_.inject_per_round; ++b) {
      if (next_inject_ >= padded_total) return true;
      Lane* l = open(static_cast<std::uint32_t>(next_inject_ / cfg_.generation_size));
      if (l == nullptr) return false;
      const std::size_t i = next_inject_ % cfg_.generation_size;
      swarm_type::expected_payload_into(static_cast<std::size_t>(next_inject_),
                                        inject_payload_);
      l->swarm.node(source).unit_packet_into(i, inject_payload_, inject_pkt_);
      l->swarm.receive(source, inject_pkt_, round);
      l->inject_round[i] = round;
      ++next_inject_;
    }
    return true;
  }

  /// In-order delivery at node v: hands generations to the application
  /// strictly by generation id, each as soon as it reaches full rank at v
  /// AND every earlier generation is out, advancing v's watermark.  Calls
  /// on_message(global index, decoded payload, injection round) for every
  /// real message; the padding tail of a ragged last generation is skipped.
  template <typename OnMessage>
  void deliver_ready(graph::NodeId v, OnMessage&& on_message) {
    while (watermarks_[v] < opened_) {
      const std::uint32_t gen = watermarks_[v];
      const Lane& l = lanes_[gen % cfg_.window];
      if (l.gen != gen || !l.swarm.node(v).full_rank()) return;
      const std::uint64_t base = static_cast<std::uint64_t>(gen) * cfg_.generation_size;
      // A generation only reaches full rank once all g units are injected,
      // so every local index has an injection stamp by now.
      for (std::size_t i = 0; i < cfg_.generation_size; ++i) {
        if (base + i >= cfg_.total_messages) break;
        on_message(base + i, l.swarm.node(v).decoded_message(i), l.inject_round[i]);
      }
      ++watermarks_[v];
    }
  }

  /// Recycles the lane of every generation below the minimum watermark --
  /// delivered at every node -- keeping its arena capacity, and slides the
  /// window past it.
  void evict() {
    const std::uint32_t frontier = std::min(
        total_gens_, *std::min_element(watermarks_.begin(), watermarks_.end()));
    for (; evicted_ < frontier; ++evicted_) {
      Lane& l = lanes_[evicted_ % cfg_.window];
      scheduler_.close(evicted_);
      l.gen = GenerationScheduler::kNoGen;
      l.swarm.restart();
    }
  }

  bool finished() const noexcept { return evicted_ == total_gens_; }

  /// Decoder + scheduler state in bytes.  Depends on (n, g, W, payload)
  /// only -- NOT on total_messages; bench/streaming_latency asserts exactly
  /// that by comparing two stream lengths.
  std::size_t memory_bytes() const noexcept {
    std::size_t total = scheduler_.memory_bytes();
    for (const Lane& l : lanes_) total += l.swarm.decoder_memory_bytes();
    return total;
  }

  GenerationScheduler& scheduler() noexcept { return scheduler_; }

  /// Per node: generations delivered contiguously.  Writable so the UDP
  /// runner can max-merge gossiped remote watermarks.
  std::span<std::uint32_t> watermarks() noexcept { return watermarks_; }

  std::uint32_t evicted() const noexcept { return evicted_; }

  /// Real (non-padding) messages injected so far.
  std::uint64_t injected_messages() const noexcept {
    return std::min(next_inject_, cfg_.total_messages);
  }

 private:
  struct Lane {
    Lane(std::size_t n, std::size_t g, std::size_t payload_len)
        : swarm(core::Unseeded{}, n, g, payload_len) {}
    std::uint32_t gen = GenerationScheduler::kNoGen;
    swarm_type swarm;
    std::vector<std::uint64_t> inject_round;  // per local message index
  };

  Lane* open(std::uint32_t gen) {
    if (gen < evicted_ || gen >= evicted_ + cfg_.window || gen >= total_gens_) {
      return nullptr;
    }
    Lane& l = lanes_[gen % cfg_.window];
    if (l.gen != gen) {
      // Inside the window the slot's only other tenant, gen - W, is evicted.
      assert(l.gen == GenerationScheduler::kNoGen);
      l.gen = gen;
      l.inject_round.assign(cfg_.generation_size, 0);
      scheduler_.open(gen);
      opened_ = std::max(opened_, gen + 1);
    }
    return &l;
  }

  StreamConfig cfg_;
  std::uint32_t total_gens_;
  GenerationScheduler scheduler_;
  std::vector<Lane> lanes_;                // window of recycled decoder lanes
  std::vector<std::uint32_t> watermarks_;  // per node: gens delivered in order
  std::uint32_t opened_ = 0;    // one past the highest generation ever opened
  std::uint32_t evicted_ = 0;   // generations delivered everywhere + recycled
  std::uint64_t next_inject_ = 0;  // next (padded) global message index

  std::vector<std::uint32_t> servable_;       // reusable scratch for servable()
  std::vector<payload_elem> inject_payload_;  // reusable injection scratch
  packet_type inject_pkt_;
};

}  // namespace ag::coding
