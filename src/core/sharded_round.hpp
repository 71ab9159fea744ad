/// \file
/// Intra-run sharding: one synchronous uniform-AG run executed across a
/// thread pool, byte-identical at every shard count.
///
/// parallel_experiment.hpp parallelises ACROSS runs; a single n = 1M run was
/// still serial.  ShardedUniformAG partitions the node id space into
/// contiguous shards (core/shard_plan.hpp) and runs each synchronous round
/// as two data-parallel phases around a deterministic merge:
///
///   Phase A (activate): every shard walks its own activators twice.  The
///     first pass draws every live node's partner into a shard-local array;
///     the second draws combination / loss decisions, prefetching the
///     partner state a fixed distance ahead, and appends finished packets to
///     a shard-local outbox (envelopes plus one flat slab of their symbols).
///     Decoder state is only READ here (combination builders never touch
///     scratch), so cross-shard partner reads are safe.
///   Phase B (deliver): every shard buckets the envelopes destined to its
///     own node range from ALL outboxes by destination -- a stable counting
///     sort over the outboxes in shard order -- and inserts in ascending
///     destination order, so the writes sweep the shard's decoder state
///     front to back.  Writes are confined to the shard's own nodes -- its
///     decoder rows, its finish rounds, its scratch stripe
///     (swarm_storage.hpp's per-shard stripes), its tally.
///   Barrier: the caller thread folds the tallies into the swarm counters,
///     advances the topology, and applies churn resets.
///
/// Determinism: serial == sharded at ANY shard count, by construction.
///   * Randomness is per NODE, not per shard: node v draws from its own
///     stream sim::Rng::for_stream(run_seed, v), where run_seed is the
///     first draw of sim::Rng::for_run(seed, run_index).  The draw sequence
///     of an activation (partner, v's combination, v's loss, partner's
///     reply combination, reply loss -- in that order) is therefore
///     independent of which shard executes it, and drawing every partner in
///     a first pass leaves each node's own sequence unchanged.
///   * Each outbox is in key order, key = activator * 2 + leg (leg 1 = the
///     EXCHANGE reply), and shards own ascending activator ranges, so the
///     outboxes read in shard order are in key order and the stable bucket
///     delivers every destination its messages in key order.  That
///     per-destination order -- not a global total order -- is the
///     invariant: inserts, the tally and the discard filter only observe
///     the order within one destination, a pure function of the round's
///     messages.
/// The invariant "sharded(1) == sharded(S)" is pinned by
/// tests/test_sharded_run.cpp and a TSan CI leg.  Note the engine is
/// intentionally NOT stream-compatible with the single-Rng serial
/// UniformAG: data-dependent draw counts (rejection sampling, rank-
/// dependent combinations) make a shared stream impossible to split.  The
/// shards = 1 run IS the serial reference, and the legacy engine's golden
/// traces stay pinned separately.
///
/// Scope: synchronous time model, uniform partner selection, global iid
/// loss (cfg.drop_probability, drawn from the SENDER's node stream --
/// sim::Channel's single stream is delivery-order-dependent and cannot
/// shard).  The async model serialises on a global activation order by
/// definition and stays on the classic engine.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/ag_config.hpp"
#include "core/parallel_experiment.hpp"
#include "core/shard_plan.hpp"
#include "core/swarm.hpp"
#include "graph/graph.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/topology.hpp"

namespace ag::core {

/// \brief Persistent worker pool executing one callable per shard.
///
/// Shard 0 always runs on the calling thread (a 1-shard pool spawns no
/// threads and is a plain inline call); shards 1..S-1 run on workers that
/// persist across rounds.  run() is a full barrier: it returns after every
/// shard completed, rethrowing the first exception.  The mutex/condvar
/// handshake establishes the happens-before edges phase A/B rely on.
class ShardPool {
 public:
  explicit ShardPool(std::size_t shards);
  ~ShardPool();
  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  std::size_t shard_count() const noexcept { return shards_; }

  /// Invokes fn(s) for every shard s in [0, shard_count()) concurrently and
  /// waits for all of them.  fn must not recurse into run().
  void run(const std::function<void(std::size_t)>& fn);

 private:
  struct Impl;
  std::size_t shards_;
  std::unique_ptr<Impl> impl_;  // null when shards_ == 1 (inline mode)
};

/// \brief Uniform algebraic gossip over the sharded round engine.
///
/// Mirrors core::UniformAG's protocol semantics (directions, recode /
/// density ablations, churn resets, iid loss) on the two-phase engine
/// described in the file comment.  Construct, then run(); stopping rounds
/// are identical for every `shards` value, including 1.
template <typename D, typename Store = VectorNodeStore<D>>
class ShardedUniformAG {
 public:
  using packet_type = typename D::packet_type;
  using swarm_type = RlncSwarm<D, Store>;

  /// \param topo      topology (owned); synchronous rounds advance it at
  ///                  each barrier exactly like UniformAG::end_round
  /// \param placement message ownership (k = placement.message_count())
  /// \param cfg       protocol config; time_model must be Synchronous
  /// \param seed      experiment seed (the same value the serial sweeps use)
  /// \param run_index run number within the experiment
  /// \param shards    worker count; 0 resolves via AG_SHARDS (default 1)
  ShardedUniformAG(std::unique_ptr<sim::TopologyView> topo,
                   const Placement& placement, AgConfig cfg, std::uint64_t seed,
                   std::uint64_t run_index, std::size_t shards)
      : topo_(std::move(topo)),
        cfg_(cfg),
        swarm_(topo_->node_count(), placement, cfg.payload_len),
        plan_(topo_->node_count(), resolve_shards(shards)),
        pool_(plan_.shard_count()),
        shard_state_(plan_.shard_count()) {
    if (topo_->node_count() != 0) {
      const auto& d = swarm_.node(0);
      coeff_width_ = d.stride() - d.payload_length();
      stride_ = d.stride();
    }
    if (cfg.time_model != sim::TimeModel::Synchronous) {
      throw std::invalid_argument(
          "ShardedUniformAG: only the synchronous time model shards "
          "(async serialises on a global activation order)");
    }
    swarm_.configure_shards(plan_.shard_count());
    if (cfg.verify_inserts) swarm_.enable_verification();
    // The documented stream-derivation rule: run_seed is the first draw of
    // the run's classic stream; node v then draws from
    // for_stream(run_seed, v).  See ARCHITECTURE.md "sharded round
    // execution".
    sim::Rng seeder = sim::Rng::for_run(seed, run_index);
    const std::uint64_t run_seed = seeder();
    const std::size_t n = topo_->node_count();
    rngs_.reserve(n);
    for (std::size_t v = 0; v < n; ++v) {
      rngs_.push_back(sim::Rng::for_stream(run_seed, v));
    }
  }

  std::size_t node_count() const noexcept { return topo_->node_count(); }
  std::size_t shard_count() const noexcept { return plan_.shard_count(); }
  bool finished() const noexcept { return swarm_.all_complete(); }

  const swarm_type& swarm() const noexcept { return swarm_; }
  const sim::TopologyView& topology() const noexcept { return *topo_; }
  std::uint64_t rounds_elapsed() const noexcept { return round_; }

  std::uint64_t messages_sent() const noexcept { return sent_; }
  std::uint64_t messages_dropped() const noexcept { return dropped_; }
  std::uint64_t messages_delivered() const noexcept { return delivered_; }

  /// Total bits put on the wire (same accounting as UniformAG::wire_bits).
  double wire_bits() const noexcept {
    return static_cast<double>(sent_) *
           D::packet_bits(swarm_.message_count(), cfg_.payload_len);
  }

  /// One synchronous round: activate phase, deliver phase, barrier.
  void step_round() {
    pool_.run([this](std::size_t s) { activate_shard(s); });
    pool_.run([this](std::size_t s) { deliver_shard(s); });
    // Barrier (caller thread): fold shard-local effects into swarm state.
    for (ShardState& st : shard_state_) {
      swarm_.absorb_tally(st.tally);
      st.tally = {};
      sent_ += st.sent;
      dropped_ += st.dropped;
      delivered_ += st.delivered;
      st.sent = st.dropped = st.delivered = 0;
      st.out.clear();
      st.slab.clear();
      if (cfg_.discard_same_sender_per_round) st.seen.clear();
    }
    ++round_;
    topo_->advance(round_ + 1);
    for (const graph::NodeId v : topo_->rejoined()) swarm_.reset_node(v, round_);
  }

  /// Runs rounds until every node decodes or the budget is exhausted.
  /// Result semantics match sim::run's synchronous branch.
  sim::RunResult run(std::uint64_t max_rounds) {
    const auto n = static_cast<std::uint64_t>(node_count());
    sim::RunResult res;
    if (n == 0 || finished()) {
      res.completed = true;
      return res;
    }
    for (std::uint64_t r = 0; r < max_rounds; ++r) {
      step_round();
      if (finished()) {
        res.completed = true;
        res.rounds = r + 1;
        res.timeslots = (r + 1) * n;
        return res;
      }
    }
    res.rounds = max_rounds;
    res.timeslots = max_rounds * n;
    return res;
  }

 private:
  using symbol_type = typename decltype(packet_type::coeffs)::value_type;

  /// Partners drawn ahead in phase A; the prefetch runs this many
  /// activations ahead of the combination that reads the partner.
  static constexpr std::size_t kPrefetchDistance = 8;
  static constexpr graph::NodeId kIdle = ~graph::NodeId{0};

  /// A round message.  Its symbols are slot i of its outbox's slab, i its
  /// index in the outbox.
  struct Envelope {
    graph::NodeId from = 0;
    graph::NodeId to = 0;
  };

  /// Where phase B finds a message: outbox (= shard) and index.
  struct MessageRef {
    std::uint32_t shard = 0;
    std::uint32_t index = 0;
  };

  /// Everything one shard touches during a round.  Buffers are cleared, not
  /// freed, at the barrier, so the steady state allocates nothing.
  struct ShardState {
    std::vector<Envelope> out;       // this round's messages, in key order
    std::vector<symbol_type> slab;   // out[i]'s [coeffs | payload] at slot i
    std::vector<graph::NodeId> partner;  // phase A: per-activator partner
    std::vector<std::uint32_t> bucket;   // phase B: per-destination offsets
    std::vector<MessageRef> inbox;       // phase B: messages by destination
    typename swarm_type::ReceiveTally tally;
    std::uint64_t sent = 0, dropped = 0, delivered = 0;
    std::unordered_set<std::uint64_t> seen;  // discard_same_sender filter
    packet_type pkt;  // combine scratch (phase A), delivery copy (phase B)
  };

  bool live(graph::NodeId v) const {
    return topo_->alive(v) && topo_->degree(v) != 0;
  }

  /// Loss decision for one packet, drawn from the SENDER's activation
  /// stream (one draw iff loss is configured -- same draw-count contract
  /// as sim::Channel, but shard-independent by construction).
  bool admits(sim::Rng& rng) {
    if (cfg_.drop_probability <= 0.0) return true;
    return !rng.bernoulli(cfg_.drop_probability);
  }

  void enqueue(ShardState& st, sim::Rng& rng, graph::NodeId from,
               graph::NodeId to) {
    ++st.sent;
    if (!admits(rng)) {
      ++st.dropped;
      return;
    }
    assert(st.pkt.coeffs.size() == coeff_width_ &&
           st.pkt.coeffs.size() + st.pkt.payload.size() == stride_);
    assert(st.out.size() < ~std::uint32_t{0});
    st.out.push_back({from, to});
    st.slab.insert(st.slab.end(), st.pkt.coeffs.begin(), st.pkt.coeffs.end());
    st.slab.insert(st.slab.end(), st.pkt.payload.begin(), st.pkt.payload.end());
  }

  bool combine(graph::NodeId v, sim::Rng& rng, ShardState& st) {
    return swarm_.combine_into(v, rng, cfg_.recode, cfg_.coding_density, st.pkt);
  }

  void activate_shard(std::size_t s) {
    ShardState& st = shard_state_[s];
    const auto lo = static_cast<graph::NodeId>(plan_.begin(s));
    const auto hi = static_cast<graph::NodeId>(plan_.end(s));
    if (cfg_.direction == sim::Direction::Broadcast) {
      for (graph::NodeId v = lo; v < hi; ++v) {
        sim::Rng& rng = rngs_[v];
        if (!live(v) || !combine(v, rng, st)) continue;
        for (const graph::NodeId u : topo_->neighbors(v)) enqueue(st, rng, v, u);
      }
      return;
    }
    // Pass 1: the partner is the first draw of every activation.
    st.partner.resize(hi - lo);
    for (graph::NodeId v = lo; v < hi; ++v) {
      st.partner[v - lo] = live(v) ? topo_->sample(v, rngs_[v]) : kIdle;
    }
    // Pass 2: the partner's rows are read only by a reply combination.
    const bool reads_partner = cfg_.direction != sim::Direction::Push;
    for (std::size_t i = 0; i < st.partner.size(); ++i) {
      if (reads_partner && i + kPrefetchDistance < st.partner.size() &&
          st.partner[i + kPrefetchDistance] != kIdle) {
        swarm_.prefetch(st.partner[i + kPrefetchDistance]);
      }
      const graph::NodeId u = st.partner[i];
      if (u == kIdle) continue;
      const auto v = static_cast<graph::NodeId>(lo + i);
      sim::Rng& rng = rngs_[v];
      if (cfg_.direction != sim::Direction::Pull && combine(v, rng, st)) {
        enqueue(st, rng, v, u);
      }
      if (reads_partner && combine(u, rng, st)) enqueue(st, rng, u, v);
    }
  }

  void deliver_shard(std::size_t s) {
    ShardState& st = shard_state_[s];
    const std::size_t lo = plan_.begin(s);
    const std::size_t nodes = plan_.end(s) - lo;
    // Stable counting sort by destination over the outboxes in shard order,
    // i.e. in key order: each destination gets its messages in key order,
    // the only order an insert, the tally or the discard filter can see.
    st.bucket.assign(nodes + 1, 0);
    for (const ShardState& src : shard_state_) {
      for (const Envelope& e : src.out) {
        if (e.to - lo < nodes) ++st.bucket[e.to - lo + 1];
      }
    }
    std::partial_sum(st.bucket.begin(), st.bucket.end(), st.bucket.begin());
    st.inbox.resize(st.bucket[nodes]);
    for (std::uint32_t j = 0; j < shard_state_.size(); ++j) {
      const std::vector<Envelope>& out = shard_state_[j].out;
      for (std::uint32_t i = 0; i < out.size(); ++i) {
        if (out[i].to - lo < nodes) st.inbox[st.bucket[out[i].to - lo]++] = {j, i};
      }
    }
    st.pkt.coeffs.resize(coeff_width_);
    st.pkt.payload.resize(stride_ - coeff_width_);
    for (const MessageRef m : st.inbox) {
      const ShardState& src = shard_state_[m.shard];
      const Envelope& e = src.out[m.index];
      if (cfg_.discard_same_sender_per_round) {
        const std::uint64_t pair =
            (static_cast<std::uint64_t>(e.from) << 32) | e.to;
        if (!st.seen.insert(pair).second) continue;  // deterministic: key order
      }
      const std::span<const symbol_type> sym =
          std::span(src.slab).subspan(m.index * stride_, stride_);
      std::copy(sym.begin(), sym.begin() + coeff_width_, st.pkt.coeffs.begin());
      std::copy(sym.begin() + coeff_width_, sym.end(), st.pkt.payload.begin());
      ++st.delivered;
      swarm_.receive_tallied(e.to, st.pkt, round_, st.tally);
    }
  }

  std::unique_ptr<sim::TopologyView> topo_;
  AgConfig cfg_;
  swarm_type swarm_;
  ShardPlan plan_;
  ShardPool pool_;
  std::vector<sim::Rng> rngs_;  // one stream per node
  std::vector<ShardState> shard_state_;
  std::size_t coeff_width_ = 0;  // symbols per coefficient vector
  std::size_t stride_ = 0;       // slab symbols per message: coeffs + payload
  std::uint64_t round_ = 0;
  std::uint64_t sent_ = 0, dropped_ = 0, delivered_ = 0;
};

/// Stopping-round sweep over the sharded engine: run r uses the documented
/// (seed, r) stream rule, so element r is the same number whatever `shards`
/// is -- the intra-run analogue of parallel_stopping_rounds' cross-run
/// guarantee.  `make` is invoked as make() -> unique_ptr<TopologyView> for
/// each run (topologies are consumed by the protocol).
template <typename D, typename Store, typename MakeTopo>
std::vector<double> sharded_stopping_rounds(MakeTopo&& make, const Placement& placement,
                                            const AgConfig& cfg, std::size_t runs,
                                            std::uint64_t seed, std::uint64_t max_rounds,
                                            std::size_t shards) {
  std::vector<double> rounds;
  rounds.reserve(runs);
  for (std::uint64_t r = 0; r < runs; ++r) {
    ShardedUniformAG<D, Store> proto(make(), placement, cfg, seed, r, shards);
    const sim::RunResult res = proto.run(max_rounds);
    if (!res.completed) {
      throw std::runtime_error(
          "sharded_stopping_rounds: run exceeded max_rounds budget");
    }
    rounds.push_back(static_cast<double>(res.rounds));
  }
  return rounds;
}

}  // namespace ag::core
