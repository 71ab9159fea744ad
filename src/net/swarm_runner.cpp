#include "net/swarm_runner.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "core/decoders.hpp"
#include "core/swarm.hpp"
#include "sim/rng.hpp"

namespace ag::net {

namespace {

using Clock = std::chrono::steady_clock;

// Per-node delivered-generation watermarks, gossiped in control frames as n
// u32 little-endian counters and merged by element-wise max.  Watermarks
// only grow, so max-merge over an unreliable channel converges; the minimum
// over all nodes gates both the send window and lane eviction.
struct Watermarks {
  explicit Watermarks(std::size_t n) : wm(n, 0) {}

  std::uint32_t min() const {
    return *std::min_element(wm.begin(), wm.end());
  }

  void merge(const std::vector<std::uint8_t>& data) {
    const std::size_t m = data.size() / 4 < wm.size() ? data.size() / 4 : wm.size();
    for (std::size_t v = 0; v < m; ++v) {
      std::uint32_t w = 0;
      for (std::size_t b = 0; b < 4; ++b) {
        w |= static_cast<std::uint32_t>(data[4 * v + b]) << (8 * b);
      }
      if (w > wm[v]) wm[v] = w;
    }
  }

  void serialize(std::vector<std::uint8_t>& out) const {
    out.resize(wm.size() * 4);
    for (std::size_t v = 0; v < wm.size(); ++v) {
      for (std::size_t b = 0; b < 4; ++b) {
        out[4 * v + b] = static_cast<std::uint8_t>(wm[v] >> (8 * b));
      }
    }
  }

  std::vector<std::uint32_t> wm;
};

constexpr std::uint32_t kNoLaneGen = 0xffffffffu;

struct StreamLane {
  StreamLane(std::size_t n, std::size_t g, std::size_t payload_len)
      : swarm(core::Unseeded{}, n, g, payload_len) {}
  std::uint32_t gen = kNoLaneGen;
  core::RlncSwarm<core::Gf256Decoder> swarm;
};

}  // namespace

SwarmRunnerReport run_stream_swarm(UdpTransport<Gf256Packet>& transport,
                                   const SwarmRunnerConfig& cfg) {
  SwarmRunnerReport report;
  const std::vector<NodeId>& local = transport.local_nodes();
  const coding::StreamConfig& sc = cfg.stream;
  const std::uint32_t total_gens = sc.total_generations();
  if (local.empty() || cfg.n < 2 || sc.generation_size == 0 || sc.window == 0)
    return report;
  if (total_gens == 0) {
    report.completed = true;
    report.payload_ok = true;
    return report;
  }

  const std::size_t g = sc.generation_size;
  const std::uint64_t padded_total = static_cast<std::uint64_t>(total_gens) * g;
  const bool hosts_source =
      std::find(local.begin(), local.end(), static_cast<NodeId>(sc.source)) !=
      local.end();

  std::vector<StreamLane> lanes;
  lanes.reserve(sc.window);
  for (std::size_t w = 0; w < sc.window; ++w) {
    lanes.emplace_back(cfg.n, g, sc.payload_len);
  }
  sim::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + local.front() + 1);

  Watermarks wm(cfg.n);
  std::uint32_t evicted = 0;  // lanes recycled for every gen < evicted
  std::uint64_t next_inject = 0;
  std::vector<std::uint64_t> rr_cursor(local.size(), 0);  // round_robin per local node
  std::vector<std::uint32_t> candidates;
  candidates.reserve(sc.window);
  report.payload_ok = true;

  Gf256Packet tx;
  ControlFrame wm_frame;

  const auto random_peer = [&](NodeId self) {
    NodeId u = static_cast<NodeId>(rng.uniform(cfg.n - 1));
    if (u >= self) ++u;
    return u;
  };

  const auto send_watermarks = [&](NodeId from) {
    wm_frame.sender = from;
    wm.serialize(wm_frame.data);
    transport.send_control(from, random_peer(from), wm_frame);
  };

  // Opens (or finds) the lane for `gen`; nullptr when the slot still hosts a
  // live earlier generation or `gen` is outside the admissible window.
  const auto lane_for = [&](std::uint32_t gen) -> StreamLane* {
    if (gen >= total_gens || gen < evicted || gen >= wm.min() + sc.window)
      return nullptr;
    StreamLane& lane = lanes[gen % sc.window];
    if (lane.gen == gen) return &lane;
    if (lane.gen != kNoLaneGen) return nullptr;
    lane.gen = gen;
    return &lane;
  };

  const auto deadline = Clock::now() + std::chrono::milliseconds(cfg.timeout_ms);
  bool timed_out = false;

  while (wm.min() < total_gens) {
    if (Clock::now() >= deadline) {
      timed_out = true;
      break;
    }
    ++report.ticks;

    // Evict: every generation below the cluster-wide minimum watermark has
    // been delivered everywhere; recycle its lane (arena capacity kept).
    const std::uint32_t min_wm = wm.min();
    while (evicted < min_wm) {
      StreamLane& lane = lanes[evicted % sc.window];
      lane.gen = kNoLaneGen;
      lane.swarm.restart();
      ++evicted;
    }

    // Inject: the source-hosting process appends fresh unit equations at
    // the configured rate, stalling when the window is full (backpressure).
    if (hosts_source) {
      for (std::size_t b = 0; b < sc.inject_per_round; ++b) {
        if (next_inject >= padded_total) break;
        const auto gen = static_cast<std::uint32_t>(next_inject / g);
        StreamLane* lane = lane_for(gen);
        if (lane == nullptr) break;  // window full
        const std::size_t i = next_inject % g;
        const auto payload = core::RlncSwarm<core::Gf256Decoder>::expected_payload(
            static_cast<std::size_t>(next_inject), sc.payload_len);
        decltype(auto) d = lane->swarm.node(static_cast<NodeId>(sc.source));
        lane->swarm.receive(static_cast<NodeId>(sc.source), d.unit_packet(i, payload),
                            report.ticks);
        ++next_inject;
      }
    }

    // Transmit: each local node serves one generation picked by the policy.
    for (std::size_t s = 0; s < local.size(); ++s) {
      const NodeId v = local[s];
      candidates.clear();
      for (std::uint32_t gen = evicted; gen < total_gens && gen < min_wm + sc.window;
           ++gen) {
        const StreamLane& lane = lanes[gen % sc.window];
        if (lane.gen == gen && lane.swarm.node(v).rank() > 0) candidates.push_back(gen);
      }
      if (candidates.empty()) continue;
      std::uint32_t gen = candidates.front();  // sequential
      if (sc.policy == coding::GenPolicy::RoundRobin) {
        gen = candidates[rr_cursor[s] % candidates.size()];
        ++rr_cursor[s];
      } else if (sc.policy == coding::GenPolicy::RarestFirst) {
        // Local-deficit proxy (see header note): serve where own rank is
        // furthest from full, lowest generation id on ties.
        std::size_t best_rank = g;
        for (const std::uint32_t c : candidates) {
          const std::size_t r = lanes[c % sc.window].swarm.node(v).rank();
          if (r < best_rank) {
            best_rank = r;
            gen = c;
          }
        }
      }
      StreamLane& lane = lanes[gen % sc.window];
      if (lane.swarm.combine_into(v, rng, tx)) {
        transport.send_generation(v, random_peer(v), gen, tx);
      }
    }

    // Receive: route each frame to its generation's lane.
    transport.drain_generations(
        [&](NodeId /*from*/, NodeId to, std::uint32_t gen, const Gf256Packet& pkt) {
          StreamLane* lane = lane_for(gen);
          if (lane == nullptr) {
            ++report.stale_packets;
            return;
          }
          lane->swarm.receive(to, pkt, report.ticks);
        });

    // Deliver: strictly in generation order per local node, verifying every
    // real message byte-for-byte against the deterministic source payload.
    for (const NodeId v : local) {
      while (wm.wm[v] < total_gens) {
        const std::uint32_t gen = wm.wm[v];
        const StreamLane& lane = lanes[gen % sc.window];
        if (lane.gen != gen || !lane.swarm.node(v).full_rank()) break;
        const std::uint64_t base = static_cast<std::uint64_t>(gen) * g;
        for (std::size_t i = 0; i < g && base + i < sc.total_messages; ++i) {
          ++report.delivered_messages;
          const auto got = lane.swarm.node(v).decoded_message(i);
          const auto want = core::RlncSwarm<core::Gf256Decoder>::expected_payload(
              static_cast<std::size_t>(base + i), sc.payload_len);
          if (got.size() != want.size() ||
              !std::equal(want.begin(), want.end(), got.begin())) {
            report.payload_ok = false;
          }
        }
        ++wm.wm[v];
      }
    }

    // Gossip watermarks; idle briefly when the wire is quiet.
    for (const ControlFrame& cf : transport.take_control()) wm.merge(cf.data);
    for (const NodeId v : local) send_watermarks(v);
    transport.wait_readable(1);
  }

  report.completed = wm.min() >= total_gens && !timed_out;

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
