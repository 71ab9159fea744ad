// Simulation-engine tests: PRNG quality/determinism, partner selectors, the
// synchronous "visible next round" semantics, asynchronous activation law,
// and the mailbox's same-sender-per-round filter and movability.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "core/decoders.hpp"
#include "core/dissemination.hpp"
#include "core/uniform_ag.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/partner.hpp"
#include "sim/rng.hpp"
#include "sim/time_model.hpp"
#include "sim/topology.hpp"
#include "util/urbg.hpp"

namespace {

using namespace ag;
using graph::NodeId;

TEST(RngTest, DeterministicGivenSeed) {
  sim::Rng a(123), b(123), c(124);
  bool all_equal = true, any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto x = a(), y = b(), z = c();
    all_equal = all_equal && (x == y);
    any_diff = any_diff || (x != z);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, ForRunGivesIndependentStreams) {
  auto ra = sim::Rng::for_run(7, 0);
  auto rb = sim::Rng::for_run(7, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (ra() == rb());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIsInRangeAndRoughlyUniform) {
  sim::Rng rng(5);
  std::array<int, 10> counts{};
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    const auto x = rng.uniform(10);
    ASSERT_LT(x, 10u);
    counts[x]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, trials / 10, trials / 10 * 0.1);
  }
}

TEST(RngTest, ExponentialAndGeometricMeans) {
  sim::Rng rng(6);
  double esum = 0;
  std::uint64_t gsum = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    esum += rng.exponential(2.0);
    gsum += rng.geometric(0.25);
  }
  EXPECT_NEAR(esum / trials, 0.5, 0.01);
  EXPECT_NEAR(static_cast<double>(gsum) / trials, 4.0, 0.05);
}

TEST(RngTest, Uniform01InHalfOpenRange) {
  sim::Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// --- Generic URBG helpers (util/urbg.hpp) -----------------------------------

TEST(UrbgUtilTest, UniformBelowMatchesRngUniformStream) {
  // sim::Rng::uniform delegates to util::uniform_below; the two must consume
  // and produce identical streams.
  sim::Rng a(77), b(77);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t n = 1 + i % 97;
    EXPECT_EQ(a.uniform(n), ag::util::uniform_below(b, n));
  }
}

TEST(UrbgUtilTest, CanonicalDoubleHonors32BitGenerators) {
  // mt19937 yields 32 random bits per call; the canonical double must still
  // fill all 53 mantissa bits (the old `rng() >> 11` recipe would have left
  // the result stuck below 2^-21).
  std::mt19937 rng(123);
  double max_seen = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = ag::util::canonical_double(rng);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    max_seen = std::max(max_seen, u);
  }
  EXPECT_GT(max_seen, 0.99);  // would be <= 2^-21 under the old recipe
}

TEST(UrbgUtilTest, UniformBelowIsUnbiasedForNarrowGenerators) {
  // minstd_rand has a non-power-of-two range (2^31 - 2 values): the sampler
  // must stay in range and roughly uniform, which plain modulo would not.
  std::minstd_rand rng(5);
  std::array<int, 6> counts{};
  const int trials = 60000;
  for (int i = 0; i < trials; ++i) {
    const auto x = ag::util::uniform_below(rng, 6);
    ASSERT_LT(x, 6u);
    counts[static_cast<std::size_t>(x)]++;
  }
  for (int c : counts) EXPECT_NEAR(c, trials / 6, trials / 6 * 0.1);
}

TEST(UrbgUtilTest, RandomBitsCoversRequestedWidth) {
  std::mt19937 rng(9);  // 32-bit generator: 64-bit requests need two draws
  std::uint64_t seen_or = 0;
  for (int i = 0; i < 256; ++i) seen_or |= ag::util::random_bits(rng, 64);
  // Every bit position should be hit at least once across 256 words.
  EXPECT_EQ(seen_or, ~std::uint64_t{0});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(ag::util::random_bits(rng, 7), 128u);
  }
}

TEST(SelectorTest, UniformPicksOnlyNeighborsAndCoversAll) {
  const auto g = graph::make_star(6);  // node 0 center
  const sim::StaticTopology topo(g);
  sim::UniformSelector sel(topo);
  sim::Rng rng(3);
  std::array<int, 6> hits{};
  for (int i = 0; i < 5000; ++i) {
    const NodeId u = sel.pick(0, rng);
    ASSERT_NE(u, 0u);
    hits[u]++;
  }
  for (NodeId v = 1; v < 6; ++v) EXPECT_GT(hits[v], 0);
  // Leaves always pick the center.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sel.pick(3, rng), 0u);
}

TEST(SelectorTest, RoundRobinCyclesThroughAllNeighborsInDegreeSteps) {
  const auto g = graph::make_complete(7);
  sim::Rng rng(4);
  const sim::StaticTopology topo(g);
  sim::RoundRobinSelector sel(topo, rng);
  std::vector<NodeId> first_cycle, second_cycle;
  for (int i = 0; i < 6; ++i) first_cycle.push_back(sel.pick(2, rng));
  for (int i = 0; i < 6; ++i) second_cycle.push_back(sel.pick(2, rng));
  // One full cycle covers every neighbor exactly once ...
  auto sorted = first_cycle;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<NodeId> expect{0, 1, 3, 4, 5, 6};
  EXPECT_EQ(sorted, expect);
  // ... and the schedule is cyclic (quasirandom model).
  EXPECT_EQ(first_cycle, second_cycle);
}

// --- Probe protocols for engine semantics ----------------------------------

// Token-passing probe: node 0 starts with a token; on activation each token
// holder sends it one node forward (modulo n).  Under synchronous semantics
// the token must advance exactly one hop per round, no matter how many nodes
// activate after the holder within the same round.
struct TokenRelay : sim::Mailbox<TokenRelay, int> {
  using Base = sim::Mailbox<TokenRelay, int>;
  friend Base;

  TokenRelay(std::size_t n, sim::TimeModel tm, std::size_t stop_at)
      : Base(tm, false), n_(n), has_(n, 0), stop_at_(stop_at) {
    has_[0] = 1;
  }

  std::size_t node_count() const { return n_; }
  bool finished() const { return has_[stop_at_] != 0; }

  void on_activate(NodeId v, sim::Rng&) {
    if (has_[v]) send(v, (v + 1) % static_cast<NodeId>(n_), 1);
  }
  void end_round() { flush_inbox(); }

  void deliver(NodeId, NodeId to, const int&) { has_[to] = 1; }

  std::size_t n_;
  std::vector<char> has_;
  std::size_t stop_at_;
};

TEST(EngineTest, SynchronousInformationTravelsOneHopPerRound) {
  // With 8 nodes and the token starting at node 0, reaching node 5 must take
  // exactly 5 rounds: received data is usable only next round, so even though
  // nodes 1..7 all activate in round 1, the token cannot jump ahead.
  sim::Rng rng(2);
  TokenRelay p(8, sim::TimeModel::Synchronous, 5);
  const auto res = sim::run(p, rng, 100);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.rounds, 5u);
  EXPECT_EQ(res.timeslots, 5u * 8u);
}

TEST(EngineTest, SynchronousActivatesEveryNodeEveryRound) {
  struct Counter {
    std::size_t n = 5;
    std::vector<int> counts = std::vector<int>(5, 0);
    std::uint64_t rounds = 0;
    std::size_t node_count() const { return n; }
    sim::TimeModel time_model() const { return sim::TimeModel::Synchronous; }
    void on_activate(NodeId v, sim::Rng&) { counts[v]++; }
    void end_round() { ++rounds; }
    bool finished() const { return rounds == 10; }
  };
  Counter p;
  sim::Rng rng(1);
  const auto res = sim::run(p, rng, 100);
  EXPECT_TRUE(res.completed);
  for (int c : p.counts) EXPECT_EQ(c, 10);
}

TEST(EngineTest, AsynchronousActivationIsUniformOverNodes) {
  struct Counter {
    std::size_t n = 16;
    std::vector<int> counts = std::vector<int>(16, 0);
    std::uint64_t total = 0;
    std::size_t node_count() const { return n; }
    sim::TimeModel time_model() const { return sim::TimeModel::Asynchronous; }
    void on_activate(NodeId v, sim::Rng&) {
      counts[v]++;
      ++total;
    }
    void end_round() {}
    bool finished() const { return total >= 160000; }
  };
  Counter p;
  sim::Rng rng(9);
  const auto res = sim::run(p, rng, 20000);
  EXPECT_TRUE(res.completed);
  for (int c : p.counts) EXPECT_NEAR(c, 10000, 1000);
}

TEST(EngineTest, AsyncRoundsAreCeilOfSlotsOverN) {
  TokenRelay p(4, sim::TimeModel::Asynchronous, 1);
  sim::Rng rng(11);
  const auto res = sim::run(p, rng, 1000);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.rounds, (res.timeslots + 3) / 4);
}

TEST(EngineTest, IncompleteRunReportsBudget) {
  TokenRelay p(8, sim::TimeModel::Synchronous, 7);
  sim::Rng rng(1);
  const auto res = sim::run(p, rng, 3);  // needs 7 rounds, give 3
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.rounds, 3u);
}

// Mailbox filter probe: two senders each send twice to node 2 in one round.
struct MultiSend : sim::Mailbox<MultiSend, int> {
  using Base = sim::Mailbox<MultiSend, int>;
  friend Base;

  explicit MultiSend(bool discard) : Base(sim::TimeModel::Synchronous, discard) {}

  std::size_t node_count() const { return 3; }
  bool finished() const { return done; }

  void on_activate(NodeId v, sim::Rng&) {
    if (v == 2) return;
    send(v, 2, 1);
    send(v, 2, 1);
  }
  void end_round() {
    flush_inbox();
    done = true;
  }
  void deliver(NodeId, NodeId, const int&) { ++received; }

  int received = 0;
  bool done = false;
};

TEST(MailboxTest, SameSenderPerRoundFilter) {
  sim::Rng rng(1);
  MultiSend keep(false);
  sim::run(keep, rng, 2);
  EXPECT_EQ(keep.received, 4);  // 2 senders x 2 packets

  MultiSend drop(true);
  sim::run(drop, rng, 2);
  EXPECT_EQ(drop.received, 2);  // second packet from each sender dropped
}

TEST(MailboxTest, MessageCountTracksSends) {
  sim::Rng rng(1);
  MultiSend p(false);
  sim::run(p, rng, 2);
  EXPECT_EQ(p.messages_sent(), 4u);
}

// The mailbox never stores a delivery callback: a protocol moved between a
// round's sends and its barrier delivers the buffered messages into the
// moved-to object and then runs exactly like one that was never moved.
TEST(MailboxTest, MovedMidRoundProtocolMatchesUnmovedRun) {
  using Proto = core::UniformAG<core::Gf2Decoder>;
  const auto g = graph::make_grid(4, 5);
  const auto run_with = [&](bool move) {
    sim::Rng rng = sim::Rng::for_run(77, 0);
    Proto original(g, core::single_source(8, 0), core::AgConfig{});
    for (NodeId v = 0; v < original.node_count(); ++v) original.on_activate(v, rng);
    EXPECT_GT(original.messages_sent(), 0u);
    EXPECT_EQ(original.transport_stats().messages_delivered, 0u);  // all buffered
    std::optional<Proto> moved;
    Proto& p = move ? moved.emplace(std::move(original)) : original;
    p.end_round();
    EXPECT_EQ(p.transport_stats().messages_delivered, p.messages_sent());
    const auto res = sim::run(p, rng, 100000);
    EXPECT_TRUE(res.completed);
    std::vector<std::uint64_t> finish;
    for (NodeId v = 0; v < p.node_count(); ++v) finish.push_back(p.swarm().finish_round(v));
    return std::tuple{1 + res.rounds, finish, p.transport_stats().messages_delivered};
  };
  EXPECT_EQ(run_with(true), run_with(false));
}

// --- Async round accounting --------------------------------------------------

// Finishes after exactly `target` activations (= timeslots in the async
// model), so the expected slot/round bookkeeping is known in closed form.
struct SlotCounter {
  std::size_t n;
  std::uint64_t target;
  std::uint64_t acts = 0;
  std::uint64_t barriers = 0;
  std::size_t node_count() const { return n; }
  sim::TimeModel time_model() const { return sim::TimeModel::Asynchronous; }
  void on_activate(NodeId, sim::Rng&) { ++acts; }
  void end_round() { ++barriers; }
  bool finished() const { return acts >= target; }
};

TEST(EngineTest, AsyncAccountingAtExactRoundBoundary) {
  // Finishing on slot 2n exactly: rounds must be 2 (not 3 -- the ceiling
  // must not round an exact boundary up) and the barrier must have fired.
  const std::size_t n = 8;
  SlotCounter p{n, 2 * n};
  sim::Rng rng(3);
  const auto res = sim::run(p, rng, 100);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.timeslots, 2 * n);
  EXPECT_EQ(res.rounds, 2u);
  EXPECT_EQ(p.barriers, 2u);
}

TEST(EngineTest, AsyncAccountingCeilsMidRoundFinish) {
  // Finishing one slot into round 3 (slot 2n + 1): rounds == 3, and only two
  // barriers have fired (the third round is partial).
  const std::size_t n = 8;
  SlotCounter p{n, 2 * n + 1};
  sim::Rng rng(4);
  const auto res = sim::run(p, rng, 100);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.timeslots, 2 * n + 1);
  EXPECT_EQ(res.rounds, 3u);
  EXPECT_EQ(p.barriers, 2u);
}

TEST(EngineTest, AsyncBudgetExhaustionCountsFullBudget) {
  const std::size_t n = 4;
  SlotCounter p{n, 1000000};  // never finishes in budget
  sim::Rng rng(5);
  const auto res = sim::run(p, rng, 7);
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.rounds, 7u);
  EXPECT_EQ(res.timeslots, 7u * n);
  EXPECT_EQ(p.barriers, 7u);
}

TEST(EngineTest, RunAndRunTracedAgreeInBothTimeModels) {
  for (const auto tm : {sim::TimeModel::Synchronous, sim::TimeModel::Asynchronous}) {
    sim::Rng r1(42), r2(42);
    TokenRelay a(6, tm, 4), b(6, tm, 4);
    const auto plain = sim::run(a, r1, 500);
    std::vector<std::uint64_t> trace;
    const auto traced =
        sim::run_traced(b, r2, 500, [&](std::uint64_t round) { trace.push_back(round); });
    EXPECT_EQ(plain.completed, traced.completed);
    EXPECT_EQ(plain.rounds, traced.rounds);
    EXPECT_EQ(plain.timeslots, traced.timeslots);
    // The observer fires once per completed barrier, with 1-based indices.
    ASSERT_EQ(trace.size(), traced.timeslots / 6u);
    for (std::size_t i = 0; i < trace.size(); ++i) EXPECT_EQ(trace[i], i + 1);
  }
}

}  // namespace
