#include "net/swarm_runner.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <vector>

#include "coding/window.hpp"
#include "core/decoders.hpp"
#include "core/swarm.hpp"
#include "net/wire.hpp"
#include "sim/rng.hpp"

namespace ag::net {

namespace {

using Clock = std::chrono::steady_clock;

// Per-node delivered-generation watermarks are gossiped in control frames as
// n u32 little-endian counters and merged by element-wise max.  Watermarks
// only grow, so max-merge over an unreliable channel converges; the minimum
// over all nodes gates lane eviction, and with it the send window.
void merge_watermarks(std::span<std::uint32_t> wm, const std::vector<std::uint8_t>& data) {
  const std::size_t m = std::min(data.size() / 4, wm.size());
  for (std::size_t v = 0; v < m; ++v) {
    wm[v] = std::max(wm[v], detail::get_u32(data.data() + 4 * v));
  }
}

void serialize_watermarks(std::span<const std::uint32_t> wm, std::vector<std::uint8_t>& out) {
  out.resize(wm.size() * 4);
  for (std::size_t v = 0; v < wm.size(); ++v) detail::put_u32(out.data() + 4 * v, wm[v]);
}

}  // namespace

SwarmRunnerReport run_stream_swarm(UdpTransport<Gf256Packet>& transport,
                                   const SwarmRunnerConfig& cfg) {
  using Swarm = core::RlncSwarm<core::Gf256Decoder>;
  SwarmRunnerReport report;
  const std::vector<NodeId>& local = transport.local_nodes();
  const coding::StreamConfig& sc = cfg.stream;
  if (local.empty() || cfg.n < 2 || sc.generation_size == 0 || sc.window == 0)
    return report;
  if (sc.total_generations() == 0) {
    report.completed = true;
    report.payload_ok = true;
    return report;
  }

  const bool hosts_source =
      std::find(local.begin(), local.end(), static_cast<NodeId>(sc.source)) !=
      local.end();
  coding::GenerationWindow<core::Gf256Decoder> window(cfg.n, sc);
  coding::GenerationScheduler& scheduler = window.scheduler();
  sim::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + local.front() + 1);
  report.payload_ok = true;

  Gf256Packet tx;
  ControlFrame wm_frame;
  std::vector<Swarm::payload_elem> want(sc.payload_len);

  const auto random_peer = [&](NodeId self) {
    NodeId u = static_cast<NodeId>(rng.uniform(cfg.n - 1));
    if (u >= self) ++u;
    return u;
  };

  const auto send_watermarks = [&](NodeId from) {
    wm_frame.sender = from;
    serialize_watermarks(window.watermarks(), wm_frame.data);
    transport.send_control(from, random_peer(from), wm_frame);
  };

  const auto deadline = Clock::now() + std::chrono::milliseconds(cfg.timeout_ms);
  bool timed_out = false;

  while (!window.finished()) {
    if (Clock::now() >= deadline) {
      timed_out = true;
      break;
    }
    ++report.ticks;

    // Inject: the source-hosting process appends fresh unit equations at
    // the configured rate, stalling when the window is full (backpressure).
    if (hosts_source) window.inject(report.ticks);

    // Transmit: each local node serves one generation picked by the policy.
    // Frames carry no peer rank, so rarest_first is fed the node's own rank
    // in each candidate: it serves where it is furthest from decoding.
    for (const NodeId v : local) {
      const std::span<const std::uint32_t> gens = window.servable(v);
      if (gens.empty()) continue;
      if (scheduler.policy() == coding::GenPolicy::RarestFirst) {
        for (const std::uint32_t gen : gens) {
          const auto rank = static_cast<std::uint32_t>(window.lane(gen)->node(v).rank());
          scheduler.observe(v, gen, rank, report.ticks);
        }
      }
      const std::uint32_t gen = scheduler.pick(v, gens, rng, report.ticks);
      if (window.lane(gen)->combine_into(v, rng, tx)) {
        transport.send_generation(v, random_peer(v), gen, tx);
      }
    }

    // Receive: route each frame to its generation's lane.
    transport.drain_generations(
        [&](NodeId /*from*/, NodeId to, std::uint32_t gen, const Gf256Packet& pkt) {
          Swarm* lane = window.lane(gen);
          if (lane == nullptr) {
            ++report.stale_packets;
            return;
          }
          lane->receive(to, pkt, report.ticks);
        });

    // Deliver in generation order per local node, verifying every real
    // message byte-for-byte against the deterministic source payload.
    for (const NodeId v : local) {
      window.deliver_ready(v, [&](std::uint64_t m, std::span<const std::uint8_t> got,
                                  std::uint64_t /*injected*/) {
        ++report.delivered_messages;
        Swarm::expected_payload_into(static_cast<std::size_t>(m), want);
        if (!std::ranges::equal(got, want)) report.payload_ok = false;
      });
    }

    // Gossip watermarks, recycle the lanes every node has delivered, and
    // idle briefly when the wire is quiet.
    for (const ControlFrame& cf : transport.take_control()) {
      merge_watermarks(window.watermarks(), cf.data);
    }
    window.evict();
    for (const NodeId v : local) send_watermarks(v);
    transport.wait_readable(1);
  }

  report.completed = window.finished() && !timed_out;

  // Grace burst: peers may still be waiting on our watermarks.
  if (report.completed) {
    for (int b = 0; b < cfg.grace_ticks; ++b) {
      for (const NodeId v : local) send_watermarks(v);
      transport.drain_generations(
          [](NodeId, NodeId, std::uint32_t, const Gf256Packet&) {});
      transport.take_control();
      transport.wait_readable(1);
    }
  }

  report.transport = transport.stats();
  return report;
}

}  // namespace ag::net
