// The generation/sliding-window coding layer (src/coding/): scheduler unit
// behaviour, the StreamingSwarm pipeline, and the differential property the
// subsystem exists for -- generation-scheduled decode delivers byte-identical
// messages to a one-shot k = G*g decode over the same injected stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "coding/scheduler.hpp"
#include "coding/streaming_swarm.hpp"
#include "coding/window.hpp"
#include "core/decoders.hpp"
#include "sim/engine.hpp"
#include "sim/topology.hpp"

namespace {
using namespace ag;

coding::StreamConfig stream_config(std::size_t g, std::size_t window,
                                   coding::GenPolicy policy,
                                   std::uint64_t messages) {
  coding::StreamConfig cfg;
  cfg.generation_size = g;
  cfg.window = window;
  cfg.policy = policy;
  cfg.payload_len = 8;
  cfg.inject_per_round = 2;
  cfg.total_messages = messages;
  return cfg;
}

// The differential property: every message the streaming pipeline delivers,
// at every node, is byte-identical to what a single one-shot decoder with
// k = G*g produces from the same injected stream -- and deliveries are
// strictly in order per node, each message exactly once.
template <typename D>
void check_differential(coding::GenPolicy policy, std::uint64_t messages,
                        std::uint64_t seed) {
  const std::size_t n = 8;
  const auto cfg = stream_config(4, 2, policy, messages);

  // One-shot reference: a k = M decoder fed the identical unit-equation
  // stream decodes every message; its output is the ground truth.
  using Swarm = core::RlncSwarm<D>;
  D oneshot(messages, cfg.payload_len);
  for (std::uint64_t m = 0; m < messages; ++m) {
    oneshot.insert(oneshot.unit_packet(
        static_cast<std::size_t>(m),
        Swarm::expected_payload(static_cast<std::size_t>(m), cfg.payload_len)));
  }
  ASSERT_TRUE(oneshot.full_rank());

  using Elem = typename core::RlncSwarm<D>::payload_elem;
  std::vector<std::uint64_t> next_index(n, 0);  // in-order check per node
  std::uint64_t deliveries = 0;
  bool bytes_match = true;

  coding::StreamingSwarm<D> swarm(std::make_unique<sim::CompleteTopology>(n), cfg);
  swarm.set_delivery_hook([&](graph::NodeId v, std::uint64_t m,
                              std::span<const Elem> payload, std::uint64_t) {
    EXPECT_EQ(m, next_index[v]) << "out-of-order delivery at node " << v;
    ++next_index[v];
    ++deliveries;
    const auto want = oneshot.decoded_message(static_cast<std::size_t>(m));
    if (payload.size() != want.size()) {
      bytes_match = false;
      return;
    }
    for (std::size_t j = 0; j < want.size(); ++j) {
      if (payload[j] != want[j]) bytes_match = false;
    }
  });

  sim::Rng rng(seed);
  const auto res = sim::run(swarm, rng, 100000);
  ASSERT_TRUE(res.completed);
  EXPECT_TRUE(bytes_match) << "streamed bytes diverge from one-shot decode";
  EXPECT_EQ(deliveries, messages * n);
  EXPECT_EQ(swarm.delivered_messages(), messages * n);
  EXPECT_EQ(swarm.injected_messages(), messages);
  for (std::size_t v = 0; v < n; ++v) EXPECT_EQ(next_index[v], messages);
}

TEST(GenerationStreamDifferential, Gf256AllPolicies) {
  for (const auto policy :
       {coding::GenPolicy::Sequential, coding::GenPolicy::RoundRobin,
        coding::GenPolicy::RarestFirst}) {
    check_differential<core::Gf256Decoder>(policy, 16, 42);
  }
}

TEST(GenerationStreamDifferential, Gf2AllPolicies) {
  for (const auto policy :
       {coding::GenPolicy::Sequential, coding::GenPolicy::RoundRobin,
        coding::GenPolicy::RarestFirst}) {
    check_differential<core::Gf2DenseDecoder>(policy, 16, 43);
  }
}

// A ragged tail (g does not divide M) pads the last generation internally;
// the padding must never surface in counters, the hook, or ordering.
TEST(GenerationStreamDifferential, RaggedFinalGeneration) {
  check_differential<core::Gf256Decoder>(coding::GenPolicy::Sequential, 14, 44);
  check_differential<core::Gf256Decoder>(coding::GenPolicy::RarestFirst, 10, 45);
}

// A streaming run is a pure function of (seed, config): replaying the seed
// replays the whole delivery schedule, including rarest_first's tie-break
// draws.
TEST(GenerationStream, DeterministicReplay) {
  const auto cfg = stream_config(4, 2, coding::GenPolicy::RarestFirst, 24);
  auto run_once = [&](std::uint64_t seed) {
    coding::StreamingSwarm<core::Gf256Decoder> swarm(
        std::make_unique<sim::CompleteTopology>(8), cfg);
    sim::Rng rng(seed);
    const auto res = sim::run(swarm, rng, 100000);
    EXPECT_TRUE(res.completed);
    return std::make_pair(swarm.rounds_elapsed(), swarm.latency_histogram());
  };
  const auto a = run_once(7);
  const auto b = run_once(7);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// A pinned GF(256) stream with payloads long enough to run every SIMD
// kernel's vector body and its tail (200 = 3 * 64 + 8 bytes).  The expected
// values were captured before the coefficient-first insert and the GFNI
// backend existed; the forced-backend reruns of this binary hold every
// backend to them.  The checksum folds every delivery in hook order: node,
// message, latency and each payload byte.
TEST(GenerationStream, Gf256GoldenAnchor) {
  auto cfg = stream_config(8, 3, coding::GenPolicy::RarestFirst, 96);
  cfg.payload_len = 200;
  coding::StreamingSwarm<core::Gf256Decoder> swarm(
      std::make_unique<sim::CompleteTopology>(16), cfg);
  std::uint64_t checksum = 0xcbf29ce484222325ull;
  auto fold = [&](std::uint64_t x) { checksum = (checksum ^ x) * 0x100000001b3ull; };
  swarm.set_delivery_hook([&](graph::NodeId v, std::uint64_t m,
                              std::span<const std::uint8_t> payload,
                              std::uint64_t latency) {
    fold(v);
    fold(m);
    fold(latency);
    for (const std::uint8_t b : payload) fold(b);
  });
  sim::Rng rng(1815);
  ASSERT_TRUE(sim::run(swarm, rng, 100000).completed);
  EXPECT_EQ(swarm.delivered_messages(), 96u * 16u);
  EXPECT_EQ(swarm.rounds_elapsed(), 246u);
  EXPECT_EQ(swarm.stalled_rounds(), 137u);
  // The histogram's nonzero bins (latency in rounds -> deliveries).
  const auto& hist = swarm.latency_histogram();
  EXPECT_EQ(hist.size(), 74u);
  std::map<std::size_t, std::uint64_t> bins;
  for (std::size_t i = 0; i < hist.size(); ++i) {
    if (hist[i] != 0) bins[i] = hist[i];
  }
  const std::map<std::size_t, std::uint64_t> want{
      {1, 24},  {2, 24},  {3, 24},  {4, 24},  {30, 2},  {31, 2},  {32, 8},  {33, 16},
      {34, 16}, {35, 22}, {36, 28}, {37, 28}, {38, 32}, {39, 48}, {40, 54}, {41, 60},
      {42, 68}, {43, 64}, {44, 66}, {45, 64}, {46, 70}, {47, 78}, {48, 78}, {49, 80},
      {50, 74}, {51, 70}, {52, 64}, {53, 56}, {54, 50}, {55, 46}, {56, 42}, {57, 38},
      {58, 30}, {59, 20}, {60, 12}, {61, 10}, {62, 12}, {63, 6},  {64, 4},  {65, 4},
      {66, 4},  {67, 2},  {68, 2},  {69, 2},  {70, 2},  {71, 2},  {72, 2},  {73, 2}};
  EXPECT_EQ(bins, want);
  EXPECT_EQ(checksum, 1488312166886548249ull);
}

// Peak decoder + scheduler state depends on (n, g, W, payload) only: a 4x
// longer stream must not grow it by a byte (the window bounds memory).
TEST(GenerationStream, BoundedDecoderState) {
  auto state_bytes = [&](std::uint64_t messages) {
    const auto cfg = stream_config(4, 2, coding::GenPolicy::Sequential, messages);
    coding::StreamingSwarm<core::Gf256Decoder> swarm(
        std::make_unique<sim::CompleteTopology>(8), cfg);
    sim::Rng rng(3);
    EXPECT_TRUE(sim::run(swarm, rng, 100000).completed);
    return swarm.decoder_state_bytes();
  };
  EXPECT_EQ(state_bytes(16), state_bytes(64));
}

// When the injection rate outruns the window the source stalls (and the
// stall counter says so) but the stream still completes in order.
TEST(GenerationStream, BackpressureStallsAreCounted) {
  auto cfg = stream_config(2, 1, coding::GenPolicy::Sequential, 16);
  cfg.inject_per_round = 8;
  coding::StreamingSwarm<core::Gf256Decoder> swarm(
      std::make_unique<sim::CompleteTopology>(8), cfg);
  sim::Rng rng(11);
  ASSERT_TRUE(sim::run(swarm, rng, 100000).completed);
  EXPECT_GT(swarm.stalled_rounds(), 0u);
  EXPECT_EQ(swarm.delivered_messages(), 16u * 8u);
  EXPECT_EQ(swarm.stale_packets(), 0u);
}

// --- GenerationScheduler unit coverage --------------------------------------

TEST(GenerationScheduler, SequentialPicksOldestWithoutDrawing) {
  coding::StreamConfig cfg;
  cfg.generation_size = 4;
  cfg.window = 3;
  cfg.policy = coding::GenPolicy::Sequential;
  coding::GenerationScheduler sched(2, cfg);
  sched.open(0);
  sched.open(1);
  const std::vector<std::uint32_t> gens = {0, 1};
  sim::Rng rng(1), shadow(1);
  EXPECT_EQ(sched.pick(0, gens, rng, 0), 0u);
  // No RNG draw was consumed: the stream continues in lockstep with a twin.
  EXPECT_EQ(rng.uniform(1000), shadow.uniform(1000));
}

TEST(GenerationScheduler, RoundRobinCyclesPerNode) {
  coding::StreamConfig cfg;
  cfg.generation_size = 4;
  cfg.window = 3;
  cfg.policy = coding::GenPolicy::RoundRobin;
  coding::GenerationScheduler sched(2, cfg);
  for (std::uint32_t g = 0; g < 3; ++g) sched.open(g);
  const std::vector<std::uint32_t> gens = {0, 1, 2};
  sim::Rng rng(1), shadow(1);
  EXPECT_EQ(sched.pick(0, gens, rng, 0), 0u);
  EXPECT_EQ(sched.pick(0, gens, rng, 0), 1u);
  EXPECT_EQ(sched.pick(0, gens, rng, 0), 2u);
  EXPECT_EQ(sched.pick(0, gens, rng, 0), 0u);
  // Node 1's cursor is independent of node 0's.
  EXPECT_EQ(sched.pick(1, gens, rng, 0), 0u);
  EXPECT_EQ(rng.uniform(1000), shadow.uniform(1000));
}

TEST(GenerationScheduler, RarestFirstFollowsPeerRankFeedback) {
  coding::StreamConfig cfg;
  cfg.generation_size = 4;
  cfg.window = 2;
  cfg.policy = coding::GenPolicy::RarestFirst;
  coding::GenerationScheduler sched(2, cfg);
  sched.open(0);
  sched.open(1);
  const std::vector<std::uint32_t> gens = {0, 1};
  // Node 0 heard a rank-3 peer in gen 0 (need 1) and a rank-1 peer in gen 1
  // (need 3): gen 1 is rarer.  Unique maximum, so no tie-break draw.
  sched.observe(0, 0, 3, 0);
  sched.observe(0, 1, 1, 0);
  sim::Rng rng(9), shadow(9);
  EXPECT_EQ(sched.pick(0, gens, rng, 0), 1u);
  EXPECT_EQ(rng.uniform(1000), shadow.uniform(1000));
  // Node 1 heard nothing: both generations need the full g, tied, and the
  // tie-break consumes exactly one draw.
  EXPECT_NE(sched.pick(1, gens, rng, 0), coding::GenerationScheduler::kNoGen);
  shadow.uniform(2);  // the one tie-break draw
  EXPECT_EQ(rng.uniform(1000), shadow.uniform(1000));
}

TEST(GenerationScheduler, RarestFirstFeedbackExpires) {
  coding::StreamConfig cfg;
  cfg.generation_size = 4;
  cfg.window = 2;
  cfg.policy = coding::GenPolicy::RarestFirst;
  cfg.rarest_ttl = 4;
  coding::GenerationScheduler sched(1, cfg);
  sched.open(0);
  sched.open(1);
  const std::vector<std::uint32_t> gens = {0, 1};
  // Fresh feedback: a full-rank peer in gen 0 (need 0) and a rank-1 peer in
  // gen 1 (need 3) force gen 1 with no draw...
  sched.observe(0, 0, 4, 0);
  sched.observe(0, 1, 1, 0);
  sim::Rng rng(11), shadow(11);
  EXPECT_EQ(sched.pick(0, gens, rng, 4), 1u);
  EXPECT_EQ(rng.uniform(1000), shadow.uniform(1000));
  // ...but past the ttl both minimums read as never-heard again: a full-g
  // tie, one draw.  This is the liveness valve -- fossilised feedback cannot
  // starve a still-in-window generation forever.
  sched.pick(0, gens, rng, 5);
  shadow.uniform(2);
  EXPECT_EQ(rng.uniform(1000), shadow.uniform(1000));
  // An equal-rank report re-stamps gen 1's minimum; gen 0 stays expired, so
  // its assumed need (the full g) now uniquely wins.
  sched.observe(0, 1, 1, 6);
  EXPECT_EQ(sched.pick(0, gens, rng, 9), 0u);
  EXPECT_EQ(rng.uniform(1000), shadow.uniform(1000));
}

TEST(GenerationScheduler, SlotRecyclingForgetsStaleFeedback) {
  coding::StreamConfig cfg;
  cfg.generation_size = 4;
  cfg.window = 2;
  cfg.policy = coding::GenPolicy::RarestFirst;
  coding::GenerationScheduler sched(1, cfg);
  sched.open(0);
  sched.observe(0, 0, 3, 0);  // gen 0 nearly decoded everywhere
  sched.close(0);
  sched.open(2);  // reuses gen 0's slot (2 % 2 == 0)
  sched.open(1);
  const std::vector<std::uint32_t> gens = {1, 2};
  // Gen 2 must NOT inherit gen 0's min-heard: both are untouched, so the
  // pick is a tie needing one draw -- not a forced gen 1.
  sim::Rng rng(5), shadow(5);
  sched.pick(0, gens, rng, 0);
  shadow.uniform(2);
  EXPECT_EQ(rng.uniform(1000), shadow.uniform(1000));
  // Stale observe for a closed generation is ignored.
  sched.observe(0, 0, 1, 0);
  sched.observe(0, 2, 2, 0);  // live: need(gen 2) = 2, need(gen 1) = 4
  EXPECT_EQ(sched.pick(0, gens, rng, 0), 1u);
}

// --- GenerationWindow unit coverage ------------------------------------------
// The window both streaming drivers run, driven by hand: no sockets, no RNG.

using Window = coding::GenerationWindow<core::Gf256Decoder>;
using WindowSwarm = Window::swarm_type;

coding::StreamConfig window_config(std::size_t inject_per_round, std::uint64_t messages) {
  auto cfg = stream_config(2, 2, coding::GenPolicy::Sequential, messages);
  cfg.inject_per_round = inject_per_round;
  return cfg;
}

// Hands node v every unit equation of the lane, as if gossip had filled it.
void fill(WindowSwarm& lane, graph::NodeId v, std::uint32_t gen, std::size_t g,
          std::size_t payload_len) {
  for (std::size_t i = 0; i < g; ++i) {
    lane.receive(v,
                 lane.node(v).unit_packet(
                     i, WindowSwarm::expected_payload(gen * g + i, payload_len)),
                 0);
  }
}

// Runs deliver_ready at v and returns the global indices it delivered,
// checking each payload against the source's.
std::vector<std::uint64_t> deliver(Window& w, graph::NodeId v, std::size_t payload_len) {
  std::vector<std::uint64_t> got;
  w.deliver_ready(v, [&](std::uint64_t m, std::span<const std::uint8_t> payload,
                         std::uint64_t) {
    const auto want = WindowSwarm::expected_payload(static_cast<std::size_t>(m), payload_len);
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), want.begin(), want.end()));
    got.push_back(m);
  });
  return got;
}

TEST(GenerationWindow, LaneOpensLazilyForAnInWindowFrame) {
  Window w(3, window_config(1, 8));
  EXPECT_TRUE(w.servable(1).empty());
  // A frame for generation 1 arrives before generation 0 ever opened.
  WindowSwarm* lane = w.lane(1);
  ASSERT_NE(lane, nullptr);
  EXPECT_EQ(w.lane(1), lane);  // found, not reopened
  EXPECT_TRUE(w.servable(1).empty()) << "open but rank 0: nothing to serve";
  fill(*lane, 1, 1, 2, 8);
  const auto gens = w.servable(1);
  ASSERT_EQ(gens.size(), 1u);
  EXPECT_EQ(gens[0], 1u);
  // Generation 0 is not delivered yet, so generation 1 waits behind it.
  EXPECT_TRUE(deliver(w, 1, 8).empty());
  EXPECT_EQ(w.watermarks()[1], 0u);
}

TEST(GenerationWindow, LaneRefusesEvictedBeyondWindowAndBusySlot) {
  Window w(2, window_config(1, 6));  // g = 2, W = 2: three generations
  ASSERT_NE(w.lane(0), nullptr);
  EXPECT_EQ(w.lane(2), nullptr) << "gen >= evicted + W: slot 0 still holds gen 0";
  // Every node reports generation 0 delivered (as gossip would), but until
  // evict() runs the slot still holds it.
  for (std::uint32_t& wm : w.watermarks()) wm = 1;
  EXPECT_EQ(w.lane(2), nullptr);
  w.evict();
  EXPECT_EQ(w.evicted(), 1u);
  EXPECT_EQ(w.lane(0), nullptr) << "evicted";
  EXPECT_NE(w.lane(2), nullptr);
  for (std::uint32_t& wm : w.watermarks()) wm = 2;
  w.evict();
  EXPECT_EQ(w.lane(1), nullptr) << "evicted";
  EXPECT_EQ(w.lane(3), nullptr) << "inside the window but beyond the stream";
  EXPECT_EQ(w.lane(4), nullptr) << "beyond the window";
}

TEST(GenerationWindow, EvictWaitsForTheSlowestWatermark) {
  Window w(3, window_config(4, 8));  // the source fills generations 0 and 1
  ASSERT_TRUE(w.inject(0));
  EXPECT_EQ(w.injected_messages(), 4u);
  EXPECT_EQ(deliver(w, 0, 8), (std::vector<std::uint64_t>{0, 1, 2, 3}));
  fill(*w.lane(0), 1, 0, 2, 8);
  EXPECT_EQ(deliver(w, 1, 8), (std::vector<std::uint64_t>{0, 1}));
  // Node 2 holds generation 1 but not generation 0: in order, nothing yet.
  fill(*w.lane(1), 2, 1, 2, 8);
  EXPECT_TRUE(deliver(w, 2, 8).empty());
  w.evict();
  EXPECT_EQ(w.evicted(), 0u) << "node 2 has not delivered generation 0";
  ASSERT_NE(w.lane(0), nullptr);
  fill(*w.lane(0), 2, 0, 2, 8);
  EXPECT_EQ(deliver(w, 2, 8), (std::vector<std::uint64_t>{0, 1, 2, 3}));
  w.evict();
  EXPECT_EQ(w.evicted(), 1u) << "node 1 has not delivered generation 1";
  EXPECT_FALSE(w.finished());
}

TEST(GenerationWindow, InjectStallsExactlyWhenTheWindowIsFull) {
  Window w(2, window_config(1, 10));  // five generations of two, W = 2
  for (std::uint64_t r = 0; r < 4; ++r) EXPECT_TRUE(w.inject(r)) << "round " << r;
  EXPECT_FALSE(w.inject(4)) << "generation 2 needs slot 0, held by generation 0";
  EXPECT_EQ(w.injected_messages(), 4u);
  deliver(w, 0, 8);
  w.evict();
  EXPECT_FALSE(w.inject(5)) << "node 1 still holds generation 0 open";
  ASSERT_NE(w.lane(0), nullptr);
  fill(*w.lane(0), 1, 0, 2, 8);
  deliver(w, 1, 8);
  w.evict();
  EXPECT_TRUE(w.inject(6));
  EXPECT_EQ(w.injected_messages(), 5u);
  // A batch that runs into the full window stalls part-way.
  Window batch(2, window_config(3, 10));
  EXPECT_TRUE(batch.inject(0));
  EXPECT_FALSE(batch.inject(1));
  EXPECT_EQ(batch.injected_messages(), 4u);
}

TEST(GenerationWindow, DrainedStreamIsNotAStall) {
  Window w(1, window_config(8, 3));  // two generations, the last one padded
  EXPECT_TRUE(w.inject(0));
  EXPECT_EQ(w.injected_messages(), 3u);
  EXPECT_EQ(deliver(w, 0, 8), (std::vector<std::uint64_t>{0, 1, 2}));
  w.evict();
  EXPECT_TRUE(w.finished());
  EXPECT_TRUE(w.inject(1));
}

}  // namespace
