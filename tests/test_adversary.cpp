// End-to-end tests for the Byzantine scenario layer: sim::Adversary picks
// the liars, core/byzantine.hpp forges their traffic as the protocol's
// mailbox sends it, and the insert-time verification hook (armed via
// AgConfig.verify_inserts) must reject 100% of the detectable injections
// while honest nodes still reach full rank and decode.
//
// Placement discipline: protocol runs place all messages on a known-honest
// source (single_source) and name the Byzantine set explicitly.  A message
// initially owned ONLY by a Byzantine node is unrecoverable by design -- its
// owner forges every send -- so fraction-based membership is tested at the
// policy level, not inside completion runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "core/byzantine.hpp"
#include "core/decoders.hpp"
#include "core/dissemination.hpp"
#include "core/fixed_tree_ag.hpp"
#include "core/stp_policies.hpp"
#include "core/swarm_storage.hpp"
#include "core/tag.hpp"
#include "core/tree_routing.hpp"
#include "core/uncoded_gossip.hpp"
#include "core/uniform_ag.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "linalg/rank_tracker.hpp"
#include "sim/adversary.hpp"
#include "sim/engine.hpp"

namespace {

using namespace ag;
using core::AgConfig;
using sim::AttackMode;

std::shared_ptr<sim::Adversary> explicit_adversary(std::size_t n,
                                                   std::vector<graph::NodeId> nodes,
                                                   AttackMode mode,
                                                   std::uint64_t seed = 99) {
  sim::AdversaryConfig cfg;
  cfg.nodes = std::move(nodes);
  cfg.mode = mode;
  cfg.seed = seed;
  return std::make_shared<sim::Adversary>(n, cfg);
}

// ---------------------------------------------------------------------------
// Membership policy.
// ---------------------------------------------------------------------------

TEST(Adversary, FractionMembershipRoundsDownButNeverToZero) {
  sim::AdversaryConfig cfg;
  cfg.fraction = 0.25;
  cfg.seed = 7;
  sim::Adversary a(10, cfg);
  EXPECT_EQ(a.byzantine_count(), 2u);
  cfg.fraction = 0.01;
  sim::Adversary b(10, cfg);
  EXPECT_EQ(b.byzantine_count(), 1u);  // any positive fraction buys one liar
  cfg.fraction = 0.0;
  sim::Adversary c(10, cfg);
  EXPECT_EQ(c.byzantine_count(), 0u);
  for (graph::NodeId v = 0; v < 10; ++v) EXPECT_FALSE(c.is_byzantine(v));
}

TEST(Adversary, ExplicitNodesWinOverFractionAndDeduplicate) {
  sim::AdversaryConfig cfg;
  cfg.fraction = 0.9;  // ignored: explicit set wins
  cfg.nodes = {3, 3, 7};
  sim::Adversary a(10, cfg);
  EXPECT_EQ(a.byzantine_count(), 2u);
  EXPECT_TRUE(a.is_byzantine(3));
  EXPECT_TRUE(a.is_byzantine(7));
  EXPECT_FALSE(a.is_byzantine(0));
}

TEST(Adversary, MembershipIsSeedDeterministic) {
  sim::AdversaryConfig cfg;
  cfg.fraction = 0.3;
  cfg.seed = 42;
  sim::Adversary a(32, cfg), b(32, cfg);
  EXPECT_EQ(a.members(), b.members());
  cfg.seed = 43;
  sim::Adversary c(32, cfg);
  EXPECT_NE(a.members(), c.members());  // different scenario, different liars
}

// ---------------------------------------------------------------------------
// Uniform AG under injection, every field: the hook rejects 100% of the
// malformed families, the decoder rejects 100% of the rank-waste family,
// and every node (honest and Byzantine alike -- they receive honestly)
// still reaches full rank.
// ---------------------------------------------------------------------------

template <typename D>
void uniform_ag_rejects_all(AttackMode mode, std::uint64_t seed) {
  const auto g = graph::make_complete(12);
  const std::size_t n = 12, k = 6;
  AgConfig cfg;
  cfg.payload_len = 2;
  cfg.verify_inserts = true;
  core::UniformAG<D> proto(g, core::single_source(k, 5), cfg);
  auto adv = explicit_adversary(n, {0, 1, 2}, mode, seed);
  const core::ByzantineShape sh{k, proto.swarm().node(0).payload_length()};
  core::attach_adversary<typename D::packet_type>(proto, adv, sh);

  sim::Rng rng = sim::Rng::for_run(seed, 0);
  const auto res = sim::run(proto, rng, 200000);
  ASSERT_TRUE(res.completed);
  EXPECT_GT(proto.forged_sends(), 0u);

  for (graph::NodeId v = 0; v < n; ++v) {
    ASSERT_TRUE(proto.swarm().node(v).full_rank()) << "v=" << v;
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_TRUE(proto.swarm().decodes_correctly(v, i)) << "v=" << v << " i=" << i;
    }
  }

  // Accounting: with no loss every forged send is delivered exactly once.
  // The malformed families must be rejected by the hook on every delivery;
  // rank-waste is well-formed, so the hook passes it and the decoder
  // rejects it as dependent instead.
  if (mode == AttackMode::MalformedCoeffs || mode == AttackMode::GarbagePayload) {
    EXPECT_EQ(proto.swarm().malformed_receives(), proto.forged_sends());
  } else if (mode == AttackMode::RankWaste) {
    EXPECT_EQ(proto.swarm().malformed_receives(), 0u);
  }
  // Per-node counts tile the total.
  std::uint64_t sum = 0;
  for (graph::NodeId v = 0; v < n; ++v) sum += proto.swarm().malformed_at(v);
  EXPECT_EQ(sum, proto.swarm().malformed_receives());
}

TEST(AdversaryUniformAg, Gf2BitAllModes) {
  uniform_ag_rejects_all<core::Gf2Decoder>(AttackMode::MalformedCoeffs, 500);
  uniform_ag_rejects_all<core::Gf2Decoder>(AttackMode::GarbagePayload, 501);
  uniform_ag_rejects_all<core::Gf2Decoder>(AttackMode::RankWaste, 502);
}

TEST(AdversaryUniformAg, Gf2DenseAllModes) {
  uniform_ag_rejects_all<core::Gf2DenseDecoder>(AttackMode::MalformedCoeffs, 510);
  uniform_ag_rejects_all<core::Gf2DenseDecoder>(AttackMode::GarbagePayload, 511);
  uniform_ag_rejects_all<core::Gf2DenseDecoder>(AttackMode::RankWaste, 512);
}

TEST(AdversaryUniformAg, Gf16AllModes) {
  uniform_ag_rejects_all<core::Gf16Decoder>(AttackMode::MalformedCoeffs, 520);
  uniform_ag_rejects_all<core::Gf16Decoder>(AttackMode::GarbagePayload, 521);
  uniform_ag_rejects_all<core::Gf16Decoder>(AttackMode::RankWaste, 522);
}

TEST(AdversaryUniformAg, Gf256AllModes) {
  uniform_ag_rejects_all<core::Gf256Decoder>(AttackMode::MalformedCoeffs, 530);
  uniform_ag_rejects_all<core::Gf256Decoder>(AttackMode::GarbagePayload, 531);
  uniform_ag_rejects_all<core::Gf256Decoder>(AttackMode::RankWaste, 532);
}

TEST(AdversaryUniformAg, Gf65536AllModes) {
  uniform_ag_rejects_all<core::Gf65536Decoder>(AttackMode::MalformedCoeffs, 540);
  uniform_ag_rejects_all<core::Gf65536Decoder>(AttackMode::GarbagePayload, 541);
  uniform_ag_rejects_all<core::Gf65536Decoder>(AttackMode::RankWaste, 542);
}

// The pooled rank-only store (the n >= 100k scaling path) carries the same
// verification: payload_length() is 0 there, so even a "right-sized" junk
// payload is a shape violation.
TEST(AdversaryUniformAg, RankOnlyStoreRejectsInjection) {
  const auto g = graph::make_complete(12);
  AgConfig cfg;
  cfg.verify_inserts = true;
  core::UniformAG<linalg::BitRankTracker, core::BitRankStore> proto(
      g, core::single_source(6, 5), cfg);
  auto adv = explicit_adversary(12, {0, 1}, AttackMode::GarbagePayload, 550);
  core::attach_adversary<linalg::BitPacket>(proto, adv, core::ByzantineShape{6, 0});
  sim::Rng rng = sim::Rng::for_run(550, 0);
  const auto res = sim::run(proto, rng, 200000);
  ASSERT_TRUE(res.completed);
  EXPECT_GT(proto.forged_sends(), 0u);
  EXPECT_EQ(proto.swarm().malformed_receives(), proto.forged_sends());
  for (graph::NodeId v = 0; v < 12; ++v) {
    EXPECT_TRUE(proto.swarm().node(v).full_rank()) << "v=" << v;
  }
}

// ---------------------------------------------------------------------------
// Equivocation: under BROADCAST one activation fans the same honest packet
// to every neighbor, and the mailbox forges each copy independently with
// a fresh family draw -- receivers see a mix of malformed (hook-rejected)
// and rank-waste (decoder-rejected) frames.
// ---------------------------------------------------------------------------

TEST(AdversaryUniformAg, EquivocateBroadcastMixesFamilies) {
  const auto g = graph::make_complete(8);
  AgConfig cfg;
  cfg.payload_len = 1;
  cfg.direction = sim::Direction::Broadcast;
  cfg.verify_inserts = true;
  core::UniformAG<core::Gf256Decoder> proto(g, core::single_source(4, 3), cfg);
  auto adv = explicit_adversary(8, {0}, AttackMode::Equivocate, 560);
  const core::ByzantineShape sh{4, proto.swarm().node(0).payload_length()};
  core::attach_adversary<linalg::DensePacket<gf::GF256>>(proto, adv, sh);
  sim::Rng rng = sim::Rng::for_run(560, 0);
  const auto res = sim::run(proto, rng, 200000);
  ASSERT_TRUE(res.completed);
  // Node 0 broadcasts to 7 neighbors per activation; plenty of forgeries.
  EXPECT_GE(proto.forged_sends(), 7u);
  const auto malformed = proto.swarm().malformed_receives();
  EXPECT_GT(malformed, 0u);                  // some draws were malformed families
  EXPECT_LT(malformed, proto.forged_sends());  // ...and some were rank-waste
  for (graph::NodeId v = 0; v < 8; ++v) {
    EXPECT_TRUE(proto.swarm().node(v).full_rank()) << "v=" << v;
  }
}

// ---------------------------------------------------------------------------
// Determinism: an adversarial run is fully determined by (seed, scenario),
// and attaching a zero-member adversary or arming verification on honest
// traffic perturbs nothing.
// ---------------------------------------------------------------------------

TEST(AdversaryUniformAg, AdversarialRunsAreDeterministic) {
  const auto g = graph::make_barbell(12);
  const auto run_once = [&] {
    AgConfig cfg;
    cfg.verify_inserts = true;
    core::UniformAG<core::Gf2Decoder> proto(g, core::single_source(5, 8), cfg);
    auto adv = explicit_adversary(12, {0, 11}, AttackMode::Equivocate, 570);
    core::attach_adversary<linalg::BitPacket>(proto, adv, core::ByzantineShape{5, 0});
    sim::Rng rng = sim::Rng::for_run(570, 0);
    const auto res = sim::run(proto, rng, 400000);
    EXPECT_TRUE(res.completed);
    return std::tuple{res.rounds, proto.forged_sends(),
                      proto.swarm().malformed_receives()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(AdversaryUniformAg, VerificationAloneIsStreamInert) {
  // Same seed, hook armed vs not: honest packets never trip the hook and the
  // hook draws no randomness, so the stopping round must be identical.
  const auto g = graph::make_grid(3, 4);
  const auto rounds_with = [&](bool verify) {
    AgConfig cfg;
    cfg.verify_inserts = verify;
    core::UniformAG<core::Gf256Decoder> proto(g, core::single_source(5, 0), cfg);
    sim::Rng rng = sim::Rng::for_run(580, 0);
    const auto res = sim::run(proto, rng, 200000);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(proto.swarm().malformed_receives(), 0u);
    return res.rounds;
  };
  EXPECT_EQ(rounds_with(true), rounds_with(false));
}

// A zero-member adversary must change nothing: not the stopping round and
// not what is delivered.  The protocol keeps its own delivery settings -- the
// same-sender filter and a lossy channel set before attaching.
TEST(AdversaryUniformAg, EmptyAdversaryIsANoOp) {
  struct Case {
    const char* name;
    graph::Graph g;
    bool discard_same_sender;
    double drop;
  };
  const Case cases[] = {
      {"grid", graph::make_grid(3, 4), false, 0.0},
      {"complete+same-sender-filter", graph::make_complete(12), true, 0.0},
      {"complete+lossy-channel", graph::make_complete(12), false, 0.2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto run_with = [&](bool attach) {
      AgConfig cfg;
      cfg.verify_inserts = true;
      cfg.discard_same_sender_per_round = c.discard_same_sender;
      core::UniformAG<core::Gf2Decoder> proto(c.g, core::single_source(5, 0), cfg);
      if (c.drop > 0.0) proto.set_channel(sim::Channel::lossy(c.drop, 582));
      if (attach) {
        core::attach_adversary<linalg::BitPacket>(
            proto, explicit_adversary(12, {}, AttackMode::MalformedCoeffs),
            core::ByzantineShape{5, 0});
      }
      sim::Rng rng = sim::Rng::for_run(581, 0);
      const auto res = sim::run(proto, rng, 200000);
      EXPECT_TRUE(res.completed);
      EXPECT_EQ(proto.forged_sends(), 0u);
      return std::pair{res.rounds, proto.transport_stats().messages_delivered};
    };
    EXPECT_EQ(run_with(true), run_with(false));
  }
}

// ---------------------------------------------------------------------------
// TAG: only the coded alternative of the variant message is forged; STP
// control traffic passes through, so the tree still completes and honest
// data still spreads.  The Byzantine node is chosen on the far clique so the
// barbell bridge stays honest.
// ---------------------------------------------------------------------------

TEST(AdversaryTag, ControlPlanePassesDataPlaneRejected) {
  const auto g = graph::make_complete(10);
  AgConfig cfg;
  cfg.verify_inserts = true;
  sim::Rng ctor_rng(590);
  core::BroadcastStpConfig stp;
  core::Tag<core::Gf256Decoder, core::BroadcastStpPolicy> proto(
      g, core::single_source(4, 6), cfg, stp, ctor_rng);
  using Msg = typename decltype(proto)::message_type;
  auto adv = explicit_adversary(10, {9}, AttackMode::MalformedCoeffs, 590);
  const core::ByzantineShape sh{4, proto.swarm().node(0).payload_length()};
  core::attach_adversary<Msg>(proto, adv, sh);
  sim::Rng rng = sim::Rng::for_run(590, 0);
  const auto res = sim::run(proto, rng, 400000);
  ASSERT_TRUE(res.completed);
  EXPECT_TRUE(proto.policy().tree_complete());       // control plane untouched
  EXPECT_GT(proto.swarm().malformed_receives(), 0u);  // data plane rejected
  for (graph::NodeId v = 0; v < 10; ++v) {
    for (std::size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(proto.swarm().decodes_correctly(v, i)) << "v=" << v;
    }
  }
  EXPECT_GT(proto.forged_sends(), 0u);
}

TEST(AdversaryFixedTree, LeafForgeryRejectedTreeStillDecodes) {
  const auto g = graph::make_complete(10);
  const auto tree = graph::bfs_tree(g, 0);  // star: 1..9 are leaves
  AgConfig cfg;
  cfg.payload_len = 1;
  cfg.verify_inserts = true;
  core::FixedTreeAG<core::Gf256Decoder> proto(tree, core::single_source(4, 0), cfg);
  auto adv = explicit_adversary(10, {5}, AttackMode::GarbagePayload, 591);
  const core::ByzantineShape sh{4, proto.swarm().node(0).payload_length()};
  core::attach_adversary<linalg::DensePacket<gf::GF256>>(proto, adv, sh);
  sim::Rng rng = sim::Rng::for_run(591, 0);
  const auto res = sim::run(proto, rng, 400000);
  ASSERT_TRUE(res.completed);
  EXPECT_GT(proto.forged_sends(), 0u);
  EXPECT_EQ(proto.swarm().malformed_receives(), proto.forged_sends());
  for (graph::NodeId v = 0; v < 10; ++v) {
    ASSERT_TRUE(proto.swarm().node(v).full_rank()) << "v=" << v;
  }
}

// ---------------------------------------------------------------------------
// Uncoded protocols: every forgery degenerates to an out-of-range block id,
// and the (always-on) deliver() guards reject each one.
// ---------------------------------------------------------------------------

TEST(AdversaryUncoded, OutOfRangeIdsRejectedAndGossipCompletes) {
  const auto g = graph::make_complete(10);
  core::UncodedConfig cfg;
  core::UncodedGossip proto(g, core::single_source(5, 7), cfg);
  auto adv = explicit_adversary(10, {0, 1}, AttackMode::Equivocate, 592);
  core::attach_adversary<std::uint32_t>(proto, adv, core::ByzantineShape{5, 0});
  sim::Rng rng = sim::Rng::for_run(592, 0);
  const auto res = sim::run(proto, rng, 200000);
  ASSERT_TRUE(res.completed);
  EXPECT_GT(proto.forged_sends(), 0u);
  EXPECT_EQ(proto.rejected_receives(), proto.forged_sends());
  for (graph::NodeId v = 0; v < 10; ++v) EXPECT_EQ(proto.known_count(v), 5u);
}

TEST(AdversaryTreeRouting, GuardRejectsButRoutingStaysFragile) {
  // Routing pops a FIFO head when SENT, so a Byzantine relay permanently
  // destroys the real block it should have forwarded: the guard keeps the
  // state sound (no OOB id ever lands), but unlike RLNC the protocol cannot
  // complete -- that asymmetry is the point of the coding-vs-routing story.
  const auto g = graph::make_star(6);
  const auto tree = graph::bfs_tree(g, 0);
  core::Placement pl;
  pl.owner = {0, 1};  // block 0 at the hub, block 1 at Byzantine leaf 1
  core::TreeRoutingConfig cfg;
  core::TreeRoutingGossip proto(tree, pl, cfg);
  auto adv = explicit_adversary(6, {1}, AttackMode::RankWaste, 593);
  core::attach_adversary<std::uint32_t>(proto, adv, core::ByzantineShape{2, 0});
  sim::Rng rng = sim::Rng::for_run(593, 0);
  const auto res = sim::run(proto, rng, 64);
  EXPECT_FALSE(res.completed);                // block 1 is gone forever
  EXPECT_GT(proto.forged_sends(), 0u);
  EXPECT_EQ(proto.rejected_receives(), proto.forged_sends());
  for (graph::NodeId v = 2; v < 6; ++v) {
    EXPECT_EQ(proto.known_count(v), 1u) << "v=" << v;  // honest block arrived
  }
}

// ---------------------------------------------------------------------------
// Swarm-level accounting, including the sharded runner's tally path.
// ---------------------------------------------------------------------------

TEST(AdversarySwarm, TalliedReceiveCountsMalformedShardSafe) {
  core::Placement pl = core::single_source(3, 0);
  core::RlncSwarm<core::Gf256Decoder> swarm(2, pl, 1);
  swarm.enable_verification();
  linalg::DensePacket<gf::GF256> bad;
  bad.coeffs.assign(5, 1);  // wrong length: 5 != k = 3
  bad.payload.assign(1, 0);
  core::RlncSwarm<core::Gf256Decoder>::ReceiveTally tally;
  EXPECT_FALSE(swarm.receive_tallied(1, bad, 0, tally));
  EXPECT_EQ(tally.malformed, 1u);
  EXPECT_EQ(swarm.malformed_receives(), 0u);  // not yet absorbed
  swarm.absorb_tally(tally);
  EXPECT_EQ(swarm.malformed_receives(), 1u);
  EXPECT_EQ(swarm.malformed_at(1), 1u);
  EXPECT_EQ(swarm.malformed_at(0), 0u);

  // The plain path counts the same way.
  EXPECT_FALSE(swarm.receive(0, bad, 0));
  EXPECT_EQ(swarm.malformed_receives(), 2u);
  EXPECT_EQ(swarm.malformed_at(0), 1u);
}

TEST(AdversarySwarm, VerificationOffNeverCountsAndAcceptsWellFormed) {
  core::Placement pl = core::single_source(3, 0);
  core::RlncSwarm<core::Gf256Decoder> swarm(2, pl, 0);
  EXPECT_FALSE(swarm.verification_enabled());
  EXPECT_EQ(swarm.malformed_at(1), 0u);
  linalg::DensePacket<gf::GF256> pkt;
  pkt.coeffs.assign(3, 0);
  pkt.coeffs[0] = 1;
  EXPECT_TRUE(swarm.receive(1, pkt, 0));  // well-formed unit combination
  EXPECT_EQ(swarm.malformed_receives(), 0u);
}

}  // namespace
