// Core protocol tests: placements, uniform algebraic gossip (all directions,
// both time models, both decoders), broadcast STPs (including the Theorem 5
// deterministic 3n bound), the IS STP, the uncoded baseline, and fixed-tree
// AG (Lemma 1 protocol).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "core/decoders.hpp"
#include "core/dissemination.hpp"
#include "core/experiment.hpp"
#include "core/fixed_tree_ag.hpp"
#include "core/stp_policies.hpp"
#include "core/stp_protocol.hpp"
#include "core/uncoded_gossip.hpp"
#include "core/uniform_ag.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"

namespace {

using namespace ag;
using namespace ag::core;
using graph::NodeId;

double stats_mean(const std::vector<double>& xs) {
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

TEST(PlacementTest, AllToAll) {
  const auto p = all_to_all(5);
  EXPECT_EQ(p.message_count(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(p.owner[i], i);
  const OwnedIndex idx = p.owned_index(5);
  for (NodeId v = 0; v < 5; ++v) {
    ASSERT_EQ(idx.of(v).size(), 1u);
    EXPECT_EQ(idx.of(v)[0], v);
  }

  // Repeated owners: each node's span is ascending, and the spans together
  // list every message exactly once.
  sim::Rng rng(3);
  const std::size_t n = 6, k = 40;
  const auto q = uniform_with_repetition(k, n, rng);
  const OwnedIndex rep = q.owned_index(n);
  std::vector<std::uint32_t> all;
  for (NodeId v = 0; v < n; ++v) {
    const auto span = rep.of(v);
    EXPECT_TRUE(std::is_sorted(span.begin(), span.end())) << "node " << v;
    for (const std::uint32_t i : span) EXPECT_EQ(q.owner[i], v);
    all.insert(all.end(), span.begin(), span.end());
  }
  std::sort(all.begin(), all.end());
  std::vector<std::uint32_t> expect(k);
  std::iota(expect.begin(), expect.end(), 0u);
  EXPECT_EQ(all, expect);
}

TEST(PlacementTest, UniformDistinctHasDistinctOwners) {
  sim::Rng rng(1);
  const auto p = uniform_distinct(10, 30, rng);
  std::set<NodeId> owners(p.owner.begin(), p.owner.end());
  EXPECT_EQ(owners.size(), 10u);
  EXPECT_THROW(uniform_distinct(31, 30, rng), std::invalid_argument);
}

TEST(PlacementTest, SingleSourceAndRepetition) {
  const auto p = single_source(7, 3);
  EXPECT_TRUE(std::all_of(p.owner.begin(), p.owner.end(),
                          [](NodeId v) { return v == 3; }));
  sim::Rng rng(2);
  const auto q = uniform_with_repetition(100, 4, rng);
  EXPECT_EQ(q.message_count(), 100u);
  for (auto v : q.owner) EXPECT_LT(v, 4u);
}

TEST(SwarmTest, InitialRanksMatchPlacement) {
  sim::Rng rng(3);
  const auto g = graph::make_complete(6);
  const auto placement = single_source(4, 0);
  AgConfig cfg;
  cfg.payload_len = 3;
  UniformAG<Gf256Decoder> proto(g, placement, cfg);
  EXPECT_EQ(proto.swarm().node(0).rank(), 4u);
  for (NodeId v = 1; v < 6; ++v) EXPECT_EQ(proto.swarm().node(v).rank(), 0u);
  EXPECT_EQ(proto.swarm().complete_count(), 1u);  // the source starts complete
}

template <typename D>
void run_uniform_ag_and_check(sim::TimeModel tm, sim::Direction dir) {
  const auto g = graph::make_grid(3, 5);
  sim::Rng rng(17);
  const auto placement = uniform_distinct(6, g.node_count(), rng);
  AgConfig cfg;
  cfg.time_model = tm;
  cfg.direction = dir;
  cfg.payload_len = 4;
  UniformAG<D> proto(g, placement, cfg);
  const auto res = sim::run(proto, rng, 50000);
  ASSERT_TRUE(res.completed) << to_string(tm) << " " << to_string(dir);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_TRUE(proto.swarm().node(v).full_rank());
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_TRUE(proto.swarm().decodes_correctly(v, i)) << "v=" << v << " i=" << i;
    }
  }
}

TEST(UniformAgTest, SyncExchangeGf256) {
  run_uniform_ag_and_check<Gf256Decoder>(sim::TimeModel::Synchronous,
                                         sim::Direction::Exchange);
}
TEST(UniformAgTest, AsyncExchangeGf256) {
  run_uniform_ag_and_check<Gf256Decoder>(sim::TimeModel::Asynchronous,
                                         sim::Direction::Exchange);
}
TEST(UniformAgTest, SyncPushGf256) {
  run_uniform_ag_and_check<Gf256Decoder>(sim::TimeModel::Synchronous,
                                         sim::Direction::Push);
}
TEST(UniformAgTest, SyncPullGf256) {
  run_uniform_ag_and_check<Gf256Decoder>(sim::TimeModel::Synchronous,
                                         sim::Direction::Pull);
}
TEST(UniformAgTest, SyncExchangeGf2Bitpacked) {
  run_uniform_ag_and_check<Gf2Decoder>(sim::TimeModel::Synchronous,
                                       sim::Direction::Exchange);
}
TEST(UniformAgTest, AsyncExchangeGf2Bitpacked) {
  run_uniform_ag_and_check<Gf2Decoder>(sim::TimeModel::Asynchronous,
                                       sim::Direction::Exchange);
}
TEST(UniformAgTest, SyncExchangeGf16) {
  run_uniform_ag_and_check<Gf16Decoder>(sim::TimeModel::Synchronous,
                                        sim::Direction::Exchange);
}

TEST(UniformAgTest, DiscardSameSenderIsConservative) {
  // The Theorem 1 analysis assumption can only slow the protocol down.
  const auto g = graph::make_cycle(16);
  auto mean_rounds = [&](bool discard) {
    return stats_mean(stopping_rounds(
        [&](sim::Rng&) {
          AgConfig cfg;
          cfg.discard_same_sender_per_round = discard;
          return UniformAG<Gf2Decoder>(g, all_to_all(16), cfg);
        },
        40, discard ? 100 : 200, 100000));
  };
  EXPECT_LE(mean_rounds(false), mean_rounds(true) * 1.15);
}

TEST(UniformAgTest, AllToAllOnCompleteGraphIsFast) {
  // Deb et al. regime: complete graph, k = n messages: Theta(n) rounds,
  // certainly far below n^2.
  const auto g = graph::make_complete(32);
  const auto rounds = stopping_rounds(
      [&](sim::Rng& rng) {
        (void)rng;
        AgConfig cfg;
        return UniformAG<Gf256Decoder>(g, all_to_all(32), cfg);
      },
      10, 7, 100000);
  for (double r : rounds) EXPECT_LT(r, 32 * 8);
}

TEST(BroadcastStpTest, RoundRobinSyncFinishesWithin3nRounds) {
  // Theorem 5: in the synchronous model B_RR informs everyone within 3n
  // rounds with probability 1 -- on every graph we throw at it.
  sim::Rng seed_rng(5);
  const std::size_t n = 40;
  const std::vector<graph::Graph> graphs{
      graph::make_path(n), graph::make_barbell(n), graph::make_grid(5, 8),
      graph::make_binary_tree(n), graph::make_erdos_renyi(n, 0.15, 11)};
  for (const auto& g : graphs) {
    for (int trial = 0; trial < 5; ++trial) {
      sim::Rng rng = sim::Rng::for_run(77, static_cast<std::uint64_t>(trial));
      BroadcastStpConfig cfg;
      cfg.comm = CommModel::RoundRobin;
      cfg.origin = static_cast<NodeId>(trial % n);
      StpProtocol<BroadcastStpPolicy> proto(sim::TimeModel::Synchronous, g, cfg, rng);
      const auto res = sim::run(proto, rng, 3 * n + 1);
      ASSERT_TRUE(res.completed) << g.summary();
      EXPECT_LE(res.rounds, 3 * n);
      EXPECT_TRUE(proto.policy().tree_complete());
      EXPECT_TRUE(proto.policy().tree().is_complete());
      EXPECT_TRUE(proto.policy().tree().is_subgraph_of(g));
      EXPECT_EQ(proto.policy().tree().root(), cfg.origin);
    }
  }
}

TEST(BroadcastStpTest, SyncTreeDepthIsAtMostBroadcastTime) {
  // Section 4.1's observation: t(B) >= d(B) in the synchronous model (a
  // message travels at most one hop per round), hence depth <= rounds.
  const auto g = graph::make_barbell(30);
  for (int trial = 0; trial < 10; ++trial) {
    sim::Rng rng = sim::Rng::for_run(88, static_cast<std::uint64_t>(trial));
    BroadcastStpConfig cfg;
    cfg.comm = CommModel::Uniform;
    StpProtocol<BroadcastStpPolicy> proto(sim::TimeModel::Synchronous, g, cfg, rng);
    const auto res = sim::run(proto, rng, 100000);
    ASSERT_TRUE(res.completed);
    EXPECT_LE(proto.policy().tree().depth(), res.rounds);
  }
}

TEST(BroadcastStpTest, AsyncRoundRobinIsLinear) {
  const std::size_t n = 40;
  const auto g = graph::make_barbell(n);
  const auto rounds = stopping_rounds(
      [&](sim::Rng& rng) {
        BroadcastStpConfig cfg;
        cfg.comm = CommModel::RoundRobin;
        return StpProtocol<BroadcastStpPolicy>(sim::TimeModel::Asynchronous, g, cfg, rng);
      },
      20, 9, 100000);
  // O(n) w.h.p. -- allow a generous constant.
  for (double r : rounds) EXPECT_LE(r, 12 * n);
}

TEST(IsStpTest, FullSpreadingAndValidTree) {
  const auto g = graph::make_barbell(24);
  for (const auto order : {IsListOrder::FewestCommonNeighborsFirst, IsListOrder::AdjacencyOrder}) {
    sim::Rng rng(33);
    IsStpConfig cfg;
    cfg.order = order;
    StpProtocol<IsStpPolicy> proto(sim::TimeModel::Synchronous, g, cfg, rng);
    const auto res = sim::run(proto, rng, 100000);
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(proto.policy().tree_complete());
    EXPECT_TRUE(proto.policy().tree().is_complete());
    EXPECT_TRUE(proto.policy().tree().is_subgraph_of(g));
  }
}

TEST(IsStpTest, BottleneckFirstListsCrossBridgeFast) {
  // On the barbell, the deterministic fewest-common-neighbors-first lists contact the
  // bridge within O(1) deterministic steps once informed, so full spreading
  // is polylogarithmic; adjacency-order lists need ~Delta steps.  Check the
  // bottleneck-first variant is much faster on a largish barbell.
  const std::size_t n = 80;
  const auto g = graph::make_barbell(n);
  auto mean_for = [&](IsListOrder order) {
    double sum = 0;
    const int trials = 8;
    for (int t = 0; t < trials; ++t) {
      sim::Rng rng = sim::Rng::for_run(55, static_cast<std::uint64_t>(t));
      IsStpConfig cfg;
      cfg.order = order;
      StpProtocol<IsStpPolicy> proto(sim::TimeModel::Synchronous, g, cfg, rng);
      const auto res = sim::run(proto, rng, 100000);
      EXPECT_TRUE(res.completed);
      sum += static_cast<double>(res.rounds);
    }
    return sum / trials;
  };
  const double fast = mean_for(IsListOrder::FewestCommonNeighborsFirst);
  const double slow = mean_for(IsListOrder::AdjacencyOrder);
  EXPECT_LT(fast, 30.0);        // polylog-ish on n = 80
  EXPECT_LT(fast * 2, slow);    // naive lists pay for the bottleneck
}

TEST(UncodedGossipTest, CompletesAndIsSlowerThanCodedOnAllToAll) {
  const auto g = graph::make_complete(24);
  const auto coded = stopping_rounds(
      [&](sim::Rng&) {
        AgConfig cfg;
        return UniformAG<Gf256Decoder>(g, all_to_all(24), cfg);
      },
      10, 3, 100000);
  const auto uncoded = stopping_rounds(
      [&](sim::Rng&) {
        UncodedConfig cfg;
        return UncodedGossip(g, all_to_all(24), cfg);
      },
      10, 4, 100000);
  double mc = 0, mu = 0;
  for (double r : coded) mc += r;
  for (double r : uncoded) mu += r;
  EXPECT_LT(mc, mu);  // coupon-collector tax on the uncoded protocol
}

TEST(UncodedGossipTest, AsyncCompletes) {
  const auto g = graph::make_grid(4, 4);
  sim::Rng rng(6);
  UncodedConfig cfg;
  cfg.time_model = sim::TimeModel::Asynchronous;
  UncodedGossip proto(g, all_to_all(16), cfg);
  const auto res = sim::run(proto, rng, 100000);
  EXPECT_TRUE(res.completed);
  for (NodeId v = 0; v < 16; ++v) EXPECT_EQ(proto.known_count(v), 16u);
}

TEST(FixedTreeAgTest, CompletesOnBfsTreeAndDecodes) {
  const auto g = graph::make_barbell(20);
  const auto tree = graph::bfs_tree(g, 0);
  sim::Rng rng(8);
  const auto placement = uniform_distinct(10, 20, rng);
  AgConfig cfg;
  cfg.payload_len = 2;
  FixedTreeAG<Gf256Decoder> proto(tree, placement, cfg);
  const auto res = sim::run(proto, rng, 100000);
  ASSERT_TRUE(res.completed);
  for (NodeId v = 0; v < 20; ++v) {
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_TRUE(proto.swarm().decodes_correctly(v, i));
    }
  }
}

TEST(FixedTreeAgTest, Lemma1ScalingInK) {
  // O(k + log n + lmax): doubling k should roughly double the stopping time
  // once k dominates.
  const auto tree_graph = graph::make_binary_tree(31);
  const auto tree = graph::bfs_tree(tree_graph, 0);
  auto mean_for = [&](std::size_t k) {
    const auto rounds = stopping_rounds(
        [&](sim::Rng& rng) {
          const auto placement = uniform_distinct(k, 31, rng);
          AgConfig cfg;
          return FixedTreeAG<Gf2Decoder>(tree, placement, cfg);
        },
        15, 1000 + k, 200000);
    double s = 0;
    for (double r : rounds) s += r;
    return s / static_cast<double>(rounds.size());
  };
  const double t8 = mean_for(8);
  const double t16 = mean_for(16);
  const double t31 = mean_for(31);
  EXPECT_LT(t8, t16);
  EXPECT_LT(t16, t31);
  EXPECT_LT(t31, t8 * 8);  // linear-ish, definitely not quadratic
}

}  // namespace
