// End-to-end tests for protocols on dynamic topologies: rotating-bridge
// barbells, periodic partition-and-heal, node churn, per-edge loss, and the
// acceptance scenario (dynamic barbell + 25% loss + churn) in both time
// models -- including decode correctness after completion and the serial ==
// parallel_stopping_rounds determinism contract for dynamic runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/decoders.hpp"
#include "core/dissemination.hpp"
#include "core/experiment.hpp"
#include "core/fixed_tree_ag.hpp"
#include "core/parallel_experiment.hpp"
#include "core/stp_policies.hpp"
#include "core/tag.hpp"
#include "core/tree_routing.hpp"
#include "core/uncoded_gossip.hpp"
#include "core/uniform_ag.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/topology.hpp"

namespace {

using namespace ag;
using graph::NodeId;

template <typename Proto>
void expect_all_decode(const Proto& proto, std::size_t n, std::size_t k) {
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_TRUE(proto.swarm().decodes_correctly(v, i)) << "v=" << v << " i=" << i;
    }
  }
}

TEST(DynamicUniformAg, CompletesOnRotatingBarbellBothTimeModels) {
  const std::size_t n = 16, k = 8;
  for (const auto tm : {sim::TimeModel::Synchronous, sim::TimeModel::Asynchronous}) {
    sim::Rng rng(301);
    const auto pl = core::uniform_distinct(k, n, rng);
    core::AgConfig cfg;
    cfg.time_model = tm;
    cfg.payload_len = 2;
    core::UniformAG<core::Gf256Decoder> proto(sim::make_rotating_barbell(n, 3), pl, cfg);
    const auto res = sim::run(proto, rng, 2000000);
    ASSERT_TRUE(res.completed) << sim::to_string(tm);
    expect_all_decode(proto, n, k);
  }
}

TEST(DynamicUniformAg, CompletesUnderPeriodicPartitionAndHeal) {
  // The graph is outright disconnected half the time; progress happens
  // inside components and across heals.
  const std::size_t n = 20, k = 10;
  const auto g = graph::make_barbell(n);
  for (const auto tm : {sim::TimeModel::Synchronous, sim::TimeModel::Asynchronous}) {
    sim::Rng rng(302);
    const auto pl = core::uniform_distinct(k, n, rng);
    core::AgConfig cfg;
    cfg.time_model = tm;
    cfg.payload_len = 1;
    core::UniformAG<core::Gf2Decoder> proto(
        sim::make_periodic_partition(g, {{static_cast<NodeId>(n / 2 - 1),
                                          static_cast<NodeId>(n / 2)}}, 4),
        pl, cfg);
    const auto res = sim::run(proto, rng, 2000000);
    ASSERT_TRUE(res.completed) << sim::to_string(tm);
    expect_all_decode(proto, n, k);
  }
}

TEST(DynamicUniformAg, CompletesUnderChurnWithStateResets) {
  const std::size_t n = 16, k = 8;
  const auto g = graph::make_complete(n);
  for (const auto tm : {sim::TimeModel::Synchronous, sim::TimeModel::Asynchronous}) {
    sim::Rng rng(303);
    const auto pl = core::uniform_distinct(k, n, rng);
    core::AgConfig cfg;
    cfg.time_model = tm;
    cfg.payload_len = 2;
    sim::ChurnConfig churn;
    churn.leave_probability = 0.05;
    churn.rejoin_probability = 0.3;
    churn.stop_round = 40;  // finite churn window, then heal
    churn.seed = rng();
    core::UniformAG<core::Gf256Decoder> proto(
        std::make_unique<sim::ChurnTopology>(g, churn), pl, cfg);
    const auto res = sim::run(proto, rng, 2000000);
    ASSERT_TRUE(res.completed) << sim::to_string(tm);
    expect_all_decode(proto, n, k);
  }
}

TEST(DynamicUniformAg, ChurnResetRewindsCompletionTracking) {
  // Force heavy churn and verify the invariant complete_count() ==
  // #(full-rank nodes) survives resets (a reset node must drop out of the
  // completion count until it re-collects everything).
  const std::size_t n = 12, k = 6;
  const auto g = graph::make_complete(n);
  sim::Rng rng(304);
  const auto pl = core::uniform_distinct(k, n, rng);
  core::AgConfig cfg;
  sim::ChurnConfig churn;
  churn.leave_probability = 0.2;
  churn.rejoin_probability = 0.5;
  churn.min_alive_fraction = 0.25;
  churn.stop_round = 30;
  churn.seed = 99;
  core::UniformAG<core::Gf2Decoder> proto(
      std::make_unique<sim::ChurnTopology>(g, churn), pl, cfg);
  const auto res = sim::run_traced(proto, rng, 2000000, [&](std::uint64_t) {
    std::size_t full = 0;
    for (NodeId v = 0; v < n; ++v) full += proto.swarm().node(v).full_rank();
    ASSERT_EQ(proto.swarm().complete_count(), full);
  });
  ASSERT_TRUE(res.completed);
}

TEST(DynamicUniformAg, PerEdgeLossyBridgeStillCompletes) {
  // Only the barbell bridge drops packets (80% loss); the cliques are
  // reliable.  RLNC keeps re-covering the lost dimensions.
  const std::size_t n = 16, k = 6;
  const auto g = graph::make_barbell(n);
  sim::Rng rng(305);
  const auto pl = core::uniform_distinct(k, n, rng);
  core::AgConfig cfg;
  core::UniformAG<core::Gf2Decoder> proto(g, pl, cfg);
  sim::Channel ch;
  ch.set_edge_loss(static_cast<NodeId>(n / 2 - 1), static_cast<NodeId>(n / 2), 0.8);
  ch.reseed(rng());
  proto.set_channel(std::move(ch));
  const auto res = sim::run(proto, rng, 2000000);
  ASSERT_TRUE(res.completed);
  EXPECT_GT(proto.messages_dropped(), 0u);
}

TEST(DynamicTag, CompletesOnRotatingBarbellBothTimeModels) {
  const std::size_t n = 16, k = 6;
  for (const auto tm : {sim::TimeModel::Synchronous, sim::TimeModel::Asynchronous}) {
    sim::Rng rng(306);
    const auto pl = core::uniform_distinct(k, n, rng);
    core::AgConfig cfg;
    cfg.time_model = tm;
    cfg.payload_len = 1;
    core::BroadcastStpConfig stp;
    core::Tag<core::Gf256Decoder, core::BroadcastStpPolicy> proto(
        sim::make_rotating_barbell(n, 3), pl, cfg, stp, rng);
    const auto res = sim::run(proto, rng, 2000000);
    ASSERT_TRUE(res.completed) << sim::to_string(tm);
    EXPECT_TRUE(proto.policy().tree_complete());
    expect_all_decode(proto, n, k);
  }
}

// The acceptance scenario: dynamic barbell (rotating bridge) + 25% message
// loss + node churn, stacked via ChurnTopology composing over the scripted
// view, in both time models, for uniform AG and TAG.
TEST(AcceptanceScenario, UniformAgRotatingBarbellLossChurn) {
  const std::size_t n = 16, k = 6;
  for (const auto tm : {sim::TimeModel::Synchronous, sim::TimeModel::Asynchronous}) {
    sim::Rng rng(307);
    const auto pl = core::uniform_distinct(k, n, rng);
    core::AgConfig cfg;
    cfg.time_model = tm;
    cfg.payload_len = 2;
    cfg.drop_probability = 0.25;
    cfg.drop_seed = rng();
    sim::ChurnConfig churn;
    churn.leave_probability = 0.02;
    churn.rejoin_probability = 0.3;
    churn.stop_round = 60;
    churn.seed = rng();
    core::UniformAG<core::Gf256Decoder> proto(
        std::make_unique<sim::ChurnTopology>(sim::make_rotating_barbell(n, 3), churn),
        pl, cfg);
    const auto res = sim::run(proto, rng, 2000000);
    ASSERT_TRUE(res.completed) << sim::to_string(tm);
    expect_all_decode(proto, n, k);
  }
}

TEST(AcceptanceScenario, UniformAgChurnPlusLossBothTimeModels) {
  const std::size_t n = 16, k = 6;
  const auto g = graph::make_complete(n);
  for (const auto tm : {sim::TimeModel::Synchronous, sim::TimeModel::Asynchronous}) {
    sim::Rng rng(308);
    const auto pl = core::uniform_distinct(k, n, rng);
    core::AgConfig cfg;
    cfg.time_model = tm;
    cfg.payload_len = 1;
    cfg.drop_probability = 0.25;
    cfg.drop_seed = rng();
    sim::ChurnConfig churn;
    churn.leave_probability = 0.04;
    churn.rejoin_probability = 0.3;
    churn.stop_round = 50;
    churn.seed = rng();
    core::UniformAG<core::Gf2Decoder> proto(
        std::make_unique<sim::ChurnTopology>(g, churn), pl, cfg);
    const auto res = sim::run(proto, rng, 2000000);
    ASSERT_TRUE(res.completed) << sim::to_string(tm);
    expect_all_decode(proto, n, k);
  }
}

TEST(AcceptanceScenario, TagRotatingBarbellWithLossAndChurnBothTimeModels) {
  const std::size_t n = 16, k = 6;
  for (const auto tm : {sim::TimeModel::Synchronous, sim::TimeModel::Asynchronous}) {
    sim::Rng rng(309);
    const auto pl = core::uniform_distinct(k, n, rng);
    core::AgConfig cfg;
    cfg.time_model = tm;
    cfg.payload_len = 1;
    cfg.drop_probability = 0.25;
    cfg.drop_seed = rng();
    sim::ChurnConfig churn;
    churn.leave_probability = 0.02;
    churn.rejoin_probability = 0.3;
    churn.stop_round = 60;
    churn.seed = rng();
    core::BroadcastStpConfig stp;
    core::Tag<core::Gf256Decoder, core::BroadcastStpPolicy> proto(
        std::make_unique<sim::ChurnTopology>(sim::make_rotating_barbell(n, 3), churn),
        pl, cfg, stp, rng);
    const auto res = sim::run(proto, rng, 2000000);
    ASSERT_TRUE(res.completed) << "rotating+loss+churn " << sim::to_string(tm);
    expect_all_decode(proto, n, k);
  }
  // Churn + loss on the complete graph (TAG tree overlay persists while
  // nodes flap; rejoined nodes re-collect through their parent).
  const auto g = graph::make_complete(n);
  for (const auto tm : {sim::TimeModel::Synchronous, sim::TimeModel::Asynchronous}) {
    sim::Rng rng(310);
    const auto pl = core::uniform_distinct(k, n, rng);
    core::AgConfig cfg;
    cfg.time_model = tm;
    cfg.payload_len = 1;
    cfg.drop_probability = 0.25;
    cfg.drop_seed = rng();
    sim::ChurnConfig churn;
    churn.leave_probability = 0.03;
    churn.rejoin_probability = 0.3;
    churn.stop_round = 60;
    churn.seed = rng();
    core::BroadcastStpConfig stp;
    core::Tag<core::Gf256Decoder, core::BroadcastStpPolicy> proto(
        std::make_unique<sim::ChurnTopology>(g, churn), pl, cfg, stp, rng);
    const auto res = sim::run(proto, rng, 2000000);
    ASSERT_TRUE(res.completed) << "churn+loss " << sim::to_string(tm);
    expect_all_decode(proto, n, k);
  }
}

TEST(DynamicUncoded, CompletesUnderModerateChurn) {
  const std::size_t n = 14, k = 6;
  const auto g = graph::make_complete(n);
  sim::Rng rng(311);
  const auto pl = core::uniform_distinct(k, n, rng);
  core::UncodedConfig cfg;
  sim::ChurnConfig churn;
  churn.leave_probability = 0.03;
  churn.rejoin_probability = 0.3;
  churn.stop_round = 40;
  churn.seed = rng();
  core::UncodedGossip proto(std::make_unique<sim::ChurnTopology>(g, churn), pl, cfg);
  const auto res = sim::run(proto, rng, 2000000);
  ASSERT_TRUE(res.completed);
  for (NodeId v = 0; v < n; ++v) EXPECT_EQ(proto.known_count(v), k);
}

TEST(DynamicTag, IsPolicyHandlesNodeIsolatedAtConstruction) {
  // Node 5 has no neighbors in phase 0 (its deterministic IS list is empty)
  // but gains them in phase 1: the odd-step pick must fall back to a
  // uniform choice instead of a modulo-by-zero on the empty list, and the
  // run must still complete.
  graph::GraphBuilder isolated(6);
  isolated.add_edge(0, 1);
  isolated.add_edge(1, 2);
  isolated.add_edge(2, 3);
  isolated.add_edge(3, 4);
  std::vector<graph::Graph> phases;
  phases.push_back(isolated.build());
  phases.push_back(graph::make_cycle(6));
  sim::Rng rng(313);
  const auto pl = core::uniform_distinct(3, 6, rng);
  core::AgConfig cfg;
  core::IsStpConfig stp;
  core::Tag<core::Gf2Decoder, core::IsStpPolicy> proto(
      std::make_unique<sim::ScriptedTopology>(std::move(phases), 3), pl, cfg, stp,
      rng);
  const auto res = sim::run(proto, rng, 2000000);
  ASSERT_TRUE(res.completed);
}

TEST(DynamicFixedTree, RlncOnTreeSurvivesChurnThatBreaksFifoRouting) {
  // Same tree, same churn trajectory: FixedTreeAG (RLNC) recovers because
  // every later coded packet re-covers a reset node's lost dimensions;
  // TreeRoutingGossip pops FIFO heads when SENT, so blocks a flapped node
  // already received (and that were popped upstream) are never re-sent and
  // the uncoded router cannot complete.  This is the loss-fragility story of
  // bench E14 replayed under churn.
  const auto g = graph::make_grid(4, 5);
  const std::size_t n = 20, k = 10;
  const auto tree = graph::bfs_tree(g, 0);
  const auto tree_graph = tree.as_graph();
  sim::ChurnConfig churn;
  churn.leave_probability = 0.05;
  churn.rejoin_probability = 0.3;
  churn.stop_round = 30;
  churn.seed = 424242;

  sim::Rng rng(312);
  const auto pl = core::uniform_distinct(k, n, rng);
  core::AgConfig cfg;
  cfg.payload_len = 1;
  core::FixedTreeAG<core::Gf256Decoder> coded(
      tree, std::make_unique<sim::ChurnTopology>(tree_graph, churn), pl, cfg);
  const auto res_coded = sim::run(coded, rng, 2000000);
  ASSERT_TRUE(res_coded.completed);
  expect_all_decode(coded, n, k);

  sim::Rng rng2(312);
  const auto pl2 = core::uniform_distinct(k, n, rng2);
  core::TreeRoutingConfig rcfg;
  core::TreeRoutingGossip routing(
      tree, std::make_unique<sim::ChurnTopology>(tree_graph, churn), pl2, rcfg);
  const auto res_routing = sim::run(routing, rng2, 20000);
  EXPECT_FALSE(res_routing.completed)
      << "FIFO routing should permanently lose popped blocks under churn";
}

// --- Serial == parallel determinism for dynamic protocols -------------------

TEST(DynamicDeterminism, SerialEqualsParallelOnRotatingBarbell) {
  const std::size_t n = 16, k = 6;
  auto make = [&](sim::Rng& rng) {
    const auto pl = core::uniform_distinct(k, n, rng);
    core::AgConfig cfg;
    return core::UniformAG<core::Gf2Decoder>(sim::make_rotating_barbell(n, 3), pl, cfg);
  };
  const auto serial = core::stopping_rounds(make, 8, 501, 2000000);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(core::parallel_stopping_rounds(make, 8, 501, 2000000, threads), serial)
        << threads << " threads";
  }
}

TEST(DynamicDeterminism, SerialEqualsParallelUnderChurnAndLoss) {
  const std::size_t n = 14, k = 6;
  const auto g = graph::make_complete(n);
  auto make = [&](sim::Rng& rng) {
    const auto pl = core::uniform_distinct(k, n, rng);
    core::AgConfig cfg;
    cfg.time_model = sim::TimeModel::Asynchronous;
    cfg.drop_probability = 0.2;
    cfg.drop_seed = rng();
    sim::ChurnConfig churn;
    churn.leave_probability = 0.04;
    churn.rejoin_probability = 0.3;
    churn.stop_round = 40;
    churn.seed = rng();
    return core::UniformAG<core::Gf2Decoder>(
        std::make_unique<sim::ChurnTopology>(g, churn), pl, cfg);
  };
  const auto serial = core::stopping_rounds(make, 8, 502, 2000000);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(core::parallel_stopping_rounds(make, 8, 502, 2000000, threads), serial)
        << threads << " threads";
  }
}

TEST(DynamicDeterminism, SerialEqualsParallelForDynamicTag) {
  const std::size_t n = 16, k = 6;
  auto make = [&](sim::Rng& rng) {
    const auto pl = core::uniform_distinct(k, n, rng);
    core::AgConfig cfg;
    core::BroadcastStpConfig stp;
    return core::Tag<core::Gf2Decoder, core::BroadcastStpPolicy>(
        sim::make_rotating_barbell(n, 4), pl, cfg, stp, rng);
  };
  const auto serial = core::stopping_rounds(make, 6, 503, 2000000);
  EXPECT_EQ(core::parallel_stopping_rounds(make, 6, 503, 2000000, 3), serial);
}

TEST(DynamicDeterminism, IdenticalSeedsGiveIdenticalDynamicRuns) {
  const std::size_t n = 12, k = 5;
  const auto g = graph::make_grid(3, 4);
  auto run_once = [&]() {
    sim::Rng rng(777);
    const auto pl = core::uniform_distinct(k, n, rng);
    core::AgConfig cfg;
    sim::ChurnConfig churn;
    churn.leave_probability = 0.05;
    churn.rejoin_probability = 0.4;
    churn.stop_round = 25;
    churn.seed = rng();
    core::UniformAG<core::Gf2Decoder> proto(
        std::make_unique<sim::ChurnTopology>(g, churn), pl, cfg);
    const auto res = sim::run(proto, rng, 2000000);
    EXPECT_TRUE(res.completed);
    return res.rounds;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
