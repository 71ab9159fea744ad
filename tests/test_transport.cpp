// Message-path tests (sim/transport.hpp + sim/mailbox.hpp): SimTransport's
// unit-level contract (buffering, async immediacy, same-sender discard, loss
// accounting), and the Mailbox surface over it (channel configuration and
// counters).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/decoders.hpp"
#include "core/dissemination.hpp"
#include "core/uniform_ag.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "sim/transport.hpp"

namespace {

using namespace ag;

struct Received {
  sim::NodeId from, to;
  int msg;
};

struct Collector {
  std::vector<Received>* out;
  void operator()(sim::NodeId from, sim::NodeId to, const int& m) const {
    out->push_back({from, to, m});
  }
};

TEST(SimTransport, SynchronousBuffersUntilDrainInSendOrder) {
  sim::SimTransport<int> t(sim::TimeModel::Synchronous, false);
  std::vector<Received> got;
  Collector c{&got};
  t.send(0, 1, 10, c);
  t.send(2, 1, 20, c);
  EXPECT_TRUE(got.empty()) << "sync sends must not deliver before the barrier";
  EXPECT_EQ(t.stats().messages_sent, 2u);
  EXPECT_EQ(t.stats().messages_delivered, 0u);

  t.drain(c);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].msg, 10);
  EXPECT_EQ(got[1].msg, 20);
  EXPECT_EQ(t.stats().messages_delivered, 2u);

  // Slot pool: a second round reuses the cursor, no stale redelivery.
  got.clear();
  t.drain(c);
  EXPECT_TRUE(got.empty());
}

TEST(SimTransport, AsynchronousDeliversImmediately) {
  sim::SimTransport<int> t(sim::TimeModel::Asynchronous, false);
  std::vector<Received> got;
  Collector c{&got};
  t.send(3, 4, 7, c);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].from, 3u);
  EXPECT_EQ(got[0].to, 4u);
  EXPECT_EQ(got[0].msg, 7);
  t.drain(c);  // barrier is a no-op
  EXPECT_EQ(got.size(), 1u);
}

TEST(SimTransport, SameSenderPerRoundDiscardKeepsFirstOnly) {
  sim::SimTransport<int> t(sim::TimeModel::Synchronous, true);
  std::vector<Received> got;
  Collector c{&got};
  t.send(0, 1, 1, c);
  t.send(0, 1, 2, c);  // same (from, to): discarded
  t.send(0, 2, 3, c);  // different receiver: kept
  t.drain(c);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].msg, 1);
  EXPECT_EQ(got[1].msg, 3);
}

TEST(SimTransport, LossyChannelCountsDropsAndDeliversRest) {
  sim::SimTransport<int> t(sim::TimeModel::Synchronous, false);
  t.set_channel(sim::Channel::lossy(0.5, 42));
  std::vector<Received> got;
  Collector c{&got};
  const std::size_t sends = 200;
  for (std::size_t i = 0; i < sends; ++i) {
    t.send(0, 1, static_cast<int>(i), c);
  }
  t.drain(c);
  const auto& s = t.stats();
  EXPECT_EQ(s.messages_sent, sends);
  EXPECT_EQ(s.messages_dropped + s.messages_delivered, sends);
  EXPECT_GT(s.messages_dropped, 50u);  // p = 0.5 over 200 trials
  EXPECT_GT(s.messages_delivered, 50u);
  EXPECT_EQ(got.size(), s.messages_delivered);
}

// Channel configuration must flow through the mailbox: set_channel and
// AgConfig.drop_probability configure the same transport channel.
TEST(MailboxTransport, SetChannelMatchesDropProbabilityPath) {
  const auto g = graph::make_complete(8);
  const auto run_with = [&](bool via_channel) {
    sim::Rng rng(555);
    const auto pl = core::all_to_all(8);
    core::AgConfig cfg;
    if (!via_channel) {
      cfg.drop_probability = 0.25;
      cfg.drop_seed = 777;
    }
    core::UniformAG<core::Gf2Decoder> p(g, pl, cfg);
    if (via_channel) p.set_channel(sim::Channel::lossy(0.25, 777));
    const auto res = sim::run(p, rng, 1000000);
    return std::pair<std::uint64_t, std::uint64_t>(res.rounds, p.messages_dropped());
  };
  const auto direct = run_with(false);
  const auto via_channel = run_with(true);
  EXPECT_EQ(direct, via_channel);
}

// Mailbox counters are views of the transport's stats -- no second ledger.
TEST(MailboxTransport, MailboxCountersMirrorTransportStats) {
  const auto g = graph::make_complete(8);
  sim::Rng rng(9);
  core::AgConfig cfg;
  cfg.drop_probability = 0.3;
  core::UniformAG<core::Gf2Decoder> p(g, core::all_to_all(8), cfg);
  (void)sim::run(p, rng, 1000000);
  const sim::TransportStats& s = p.transport_stats();
  EXPECT_EQ(p.messages_sent(), s.messages_sent);
  EXPECT_EQ(p.messages_dropped(), s.messages_dropped);
  EXPECT_EQ(s.messages_delivered, s.messages_sent - s.messages_dropped);
  EXPECT_EQ(s.bytes_sent, 0u) << "SimTransport never serializes";
  EXPECT_EQ(s.decode_failures, 0u);
  EXPECT_GT(s.messages_delivered, 0u);
}

}  // namespace
