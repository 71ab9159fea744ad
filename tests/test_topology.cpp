// Units for the dynamic-network subsystem: the Channel loss model and the
// TopologyView families (static, implicit, churn, scripted), including the
// scenario factories and their determinism contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "core/decoders.hpp"
#include "core/dissemination.hpp"
#include "core/experiment.hpp"
#include "core/uniform_ag.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sim/channel.hpp"
#include "sim/rng.hpp"
#include "sim/topology.hpp"

namespace {

using namespace ag;
using graph::NodeId;

// --- Channel ----------------------------------------------------------------

TEST(ChannelTest, DefaultIsIdealAndAdmitsEverything) {
  sim::Channel ch;
  EXPECT_TRUE(ch.ideal());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(ch.admits(0, 1));
}

TEST(ChannelTest, GlobalLossMatchesConfiguredProbability) {
  auto ch = sim::Channel::lossy(0.3, 42);
  EXPECT_FALSE(ch.ideal());
  int lost = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) lost += !ch.admits(0, 1);
  EXPECT_NEAR(static_cast<double>(lost) / trials, 0.3, 0.01);
}

TEST(ChannelTest, LossStreamIsDeterministicGivenSeed) {
  auto a = sim::Channel::lossy(0.5, 7), b = sim::Channel::lossy(0.5, 7);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(a.admits(1, 2), b.admits(2, 1));
}

TEST(ChannelTest, PerEdgeLossOverridesDefault) {
  sim::Channel ch;
  ch.set_edge_loss(3, 7, 1.0);  // bridge always fails
  ch.reseed(5);
  EXPECT_FALSE(ch.ideal());
  EXPECT_DOUBLE_EQ(ch.loss_probability(3, 7), 1.0);
  EXPECT_DOUBLE_EQ(ch.loss_probability(7, 3), 1.0);  // undirected
  EXPECT_DOUBLE_EQ(ch.loss_probability(0, 1), 0.0);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(ch.admits(3, 7));
    EXPECT_FALSE(ch.admits(7, 3));
    EXPECT_TRUE(ch.admits(0, 1));
  }
}

TEST(ChannelTest, PerEdgePlusDefaultLoss) {
  sim::Channel ch;
  ch.set_default_loss(1.0);
  ch.set_edge_loss(0, 1, 0.0);  // the one reliable link
  ch.reseed(9);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(ch.admits(0, 1));
    EXPECT_FALSE(ch.admits(1, 2));
  }
}

// --- StaticTopology ---------------------------------------------------------

TEST(StaticTopologyTest, MirrorsGraphExactly) {
  const auto g = graph::make_barbell(10);
  sim::StaticTopology t(g);
  EXPECT_EQ(t.node_count(), g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_TRUE(t.alive(v));
    EXPECT_EQ(t.degree(v), g.degree(v));
    const auto a = t.neighbors(v);
    const auto b = g.neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
  t.advance(2);  // no-op
  EXPECT_TRUE(t.rejoined().empty());
}

// --- ChurnTopology ----------------------------------------------------------

TEST(ChurnTopologyTest, StartsAllAliveAndFullAdjacency) {
  const auto g = graph::make_complete(12);
  sim::ChurnConfig cfg;
  sim::ChurnTopology t(g, cfg);
  EXPECT_EQ(t.alive_count(), 12u);
  for (NodeId v = 0; v < 12; ++v) {
    EXPECT_TRUE(t.alive(v));
    EXPECT_EQ(t.degree(v), 11u);
  }
}

TEST(ChurnTopologyTest, NeighborsNeverContainDeadNodesAndAreSymmetric) {
  const auto g = graph::make_grid(5, 5);
  sim::ChurnConfig cfg;
  cfg.leave_probability = 0.2;
  cfg.rejoin_probability = 0.3;
  cfg.min_alive_fraction = 0.2;
  cfg.seed = 77;
  sim::ChurnTopology t(g, cfg);
  for (std::uint64_t r = 2; r < 60; ++r) {
    t.advance(r);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!t.alive(v)) {
        EXPECT_EQ(t.degree(v), 0u);
        continue;
      }
      for (const NodeId u : t.neighbors(v)) {
        EXPECT_TRUE(t.alive(u));
        const auto back = t.neighbors(u);
        EXPECT_NE(std::find(back.begin(), back.end(), v), back.end());
      }
    }
  }
}

TEST(ChurnTopologyTest, RespectsMinAliveFloor) {
  const auto g = graph::make_complete(10);
  sim::ChurnConfig cfg;
  cfg.leave_probability = 1.0;  // everyone wants to leave every round
  cfg.rejoin_probability = 0.0;
  cfg.min_alive_fraction = 0.5;
  cfg.seed = 3;
  sim::ChurnTopology t(g, cfg);
  for (std::uint64_t r = 2; r < 20; ++r) t.advance(r);
  EXPECT_EQ(t.alive_count(), 5u);
}

TEST(ChurnTopologyTest, RejoinedListMatchesAliveTransitions) {
  const auto g = graph::make_complete(16);
  sim::ChurnConfig cfg;
  cfg.leave_probability = 0.3;
  cfg.rejoin_probability = 0.5;
  cfg.min_alive_fraction = 0.25;
  cfg.seed = 11;
  sim::ChurnTopology t(g, cfg);
  std::vector<char> alive_before(16, 1);
  std::size_t total_rejoins = 0;
  for (std::uint64_t r = 2; r < 80; ++r) {
    t.advance(r);
    std::set<NodeId> rejoined(t.rejoined().begin(), t.rejoined().end());
    total_rejoins += rejoined.size();
    for (NodeId v = 0; v < 16; ++v) {
      if (!alive_before[v] && t.alive(v)) {
        EXPECT_TRUE(rejoined.count(v)) << "v=" << v << " r=" << r;
      } else {
        EXPECT_FALSE(rejoined.count(v)) << "v=" << v << " r=" << r;
      }
      alive_before[v] = t.alive(v) ? 1 : 0;
    }
  }
  EXPECT_GT(total_rejoins, 0u);  // the config must actually churn
}

TEST(ChurnTopologyTest, ChurnWindowAndDeterminism) {
  const auto g = graph::make_complete(12);
  sim::ChurnConfig cfg;
  cfg.leave_probability = 0.5;
  cfg.rejoin_probability = 0.4;
  cfg.start_round = 5;
  cfg.stop_round = 15;
  cfg.seed = 21;
  sim::ChurnTopology a(g, cfg), b(g, cfg);
  for (std::uint64_t r = 2; r < 5; ++r) {
    a.advance(r);
    EXPECT_EQ(a.alive_count(), 12u);  // no churn before start_round
  }
  for (std::uint64_t r = 5; r < 60; ++r) a.advance(r);
  // After stop_round only rejoins happen; with rejoin_probability > 0 the
  // network heals completely.
  EXPECT_EQ(a.alive_count(), 12u);
  // Identical config => identical trajectory (own-seed determinism).
  sim::ChurnTopology c(g, cfg), d(g, cfg);
  for (std::uint64_t r = 2; r < 40; ++r) {
    c.advance(r);
    d.advance(r);
    for (NodeId v = 0; v < 12; ++v) EXPECT_EQ(c.alive(v), d.alive(v));
  }
}

// --- ScriptedTopology -------------------------------------------------------

TEST(ScriptedTopologyTest, CyclicScheduleHoldsEachPhaseForPeriodRounds) {
  std::vector<graph::Graph> phases;
  phases.push_back(graph::make_path(6));
  phases.push_back(graph::make_cycle(6));
  phases.push_back(graph::make_star(6));
  sim::ScriptedTopology t(std::move(phases), 3);
  EXPECT_EQ(t.phase_count(), 3u);
  EXPECT_EQ(t.current_phase(), 0u);  // rounds 1..3
  std::vector<std::size_t> seen;
  for (std::uint64_t r = 2; r <= 10; ++r) {
    t.advance(r);
    seen.push_back(t.current_phase());
  }
  const std::vector<std::size_t> expect{0, 0, 1, 1, 1, 2, 2, 2, 0};
  EXPECT_EQ(seen, expect);
}

TEST(ScriptedTopologyTest, CustomScheduleFunction) {
  std::vector<graph::Graph> phases;
  phases.push_back(graph::make_complete(5));
  phases.push_back(graph::make_path(5));
  sim::ScriptedTopology t(std::move(phases),
                          [](std::uint64_t round) { return round < 10 ? 0u : 1u; });
  EXPECT_EQ(t.current_phase(), 0u);
  t.advance(9);
  EXPECT_EQ(t.current_phase(), 0u);
  t.advance(10);
  EXPECT_EQ(t.current_phase(), 1u);
  EXPECT_EQ(t.degree(0), 1u);  // path end
}

TEST(ScriptedTopologyTest, RejectsEmptyAndMismatchedPhases) {
  EXPECT_THROW(sim::ScriptedTopology(std::vector<graph::Graph>{}, 1),
               std::invalid_argument);
  std::vector<graph::Graph> bad;
  bad.push_back(graph::make_path(4));
  bad.push_back(graph::make_path(5));
  EXPECT_THROW(sim::ScriptedTopology(std::move(bad), 1), std::invalid_argument);
}

TEST(ScriptedTopologyTest, ScheduleReturningBadIndexThrowsLoudly) {
  std::vector<graph::Graph> phases;
  phases.push_back(graph::make_path(4));
  sim::ScriptedTopology t(std::move(phases), [](std::uint64_t round) {
    return round < 5 ? 0u : 7u;  // off-by-more bug in a user schedule
  });
  t.advance(4);  // fine
  EXPECT_THROW(t.advance(5), std::out_of_range);
}

TEST(ScriptedTopologyTest, RotatingBarbellPhasesAreBarbellsWithMovingBridge) {
  auto t = sim::make_rotating_barbell(12, 4);
  EXPECT_EQ(t->node_count(), 12u);
  EXPECT_EQ(t->phase_count(), 6u);
  // Every phase must be connected and have exactly one cross edge.
  for (std::uint64_t r = 1; r <= 6 * 4; r += 4) {
    t->advance(r);
    std::size_t cross = 0;
    for (NodeId v = 0; v < 6; ++v) {
      for (const NodeId u : t->neighbors(v)) cross += u >= 6;
    }
    EXPECT_EQ(cross, 1u) << "round " << r;
  }
  // The bridge actually moves between phases.
  t->advance(1);
  const auto bridge_of = [&]() -> std::pair<NodeId, NodeId> {
    for (NodeId v = 0; v < 6; ++v) {
      for (const NodeId u : t->neighbors(v)) {
        if (u >= 6) return {v, u};
      }
    }
    return {0, 0};
  };
  const auto b0 = bridge_of();
  t->advance(5);
  const auto b1 = bridge_of();
  EXPECT_NE(b0, b1);
}

TEST(ScriptedTopologyTest, PeriodicPartitionRemovesCutEdges) {
  const auto g = graph::make_barbell(10);
  auto t = sim::make_periodic_partition(g, {{4, 5}}, 5);
  EXPECT_EQ(t->phase_count(), 2u);
  // Phase 0 (rounds 1-5): healed, bridge present.
  auto has_bridge = [&]() {
    const auto nbrs = t->neighbors(4);
    return std::find(nbrs.begin(), nbrs.end(), NodeId{5}) != nbrs.end();
  };
  EXPECT_TRUE(has_bridge());
  t->advance(6);  // phase 1: partitioned
  EXPECT_FALSE(has_bridge());
  EXPECT_EQ(t->degree(4), 4u);  // clique-internal edges survive
  t->advance(11);  // healed again
  EXPECT_TRUE(has_bridge());
}

// --- Implicit views vs explicit generators ----------------------------------
//
// CompleteTopology / BarbellTopology must agree with StaticTopology over the
// corresponding generator in node counts, degrees, neighbor lists and the
// sample() draw mapping, which is what makes implicit large-n runs
// stream-identical to explicit small-n runs.

void expect_view_equivalent(const sim::TopologyView& imp, const graph::Graph& g) {
  const sim::StaticTopology exp(g);
  ASSERT_EQ(imp.node_count(), exp.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    ASSERT_EQ(imp.degree(v), exp.degree(v)) << "degree at " << v;
    const auto en = exp.neighbors(v);
    const auto in = imp.neighbors(v);
    ASSERT_EQ(in.size(), en.size()) << "node " << v;
    for (std::size_t i = 0; i < en.size(); ++i) {
      ASSERT_EQ(in[i], en[i]) << "neighbor order diverged: node " << v << " idx " << i;
    }
  }
  // sample() must map identical draws to identical partners (the implicit
  // index->neighbor map vs the explicit list indexing).
  for (NodeId v = 0; v < g.node_count(); ++v) {
    sim::Rng ra(1234 + v), rb(1234 + v);
    for (int t = 0; t < 64; ++t) {
      ASSERT_EQ(imp.sample(v, ra), exp.sample(v, rb)) << "node " << v;
    }
  }
}

TEST(ImplicitTopology, CompleteMatchesExplicit) {
  for (const std::size_t n : {4u, 5u, 16u, 33u}) {
    expect_view_equivalent(sim::CompleteTopology(n), graph::make_complete(n));
  }
}

TEST(ImplicitTopology, BarbellMatchesExplicit) {
  for (const std::size_t n : {4u, 5u, 8u, 9u, 16u, 17u, 32u}) {
    expect_view_equivalent(sim::BarbellTopology(n), graph::make_barbell(n));
  }
}

// End-to-end: protocol runs over an implicit view equal explicit-graph runs.

std::vector<double> uag_rounds(std::unique_ptr<sim::TopologyView> (*topo)(),
                               std::size_t n, std::size_t k, std::uint64_t seed) {
  return core::stopping_rounds(
      [&](sim::Rng& rng) {
        const auto pl = core::uniform_distinct(k, n, rng);
        core::AgConfig cfg;
        return core::UniformAG<core::Gf2Decoder>(topo(), pl, cfg);
      },
      4, seed, 1000000);
}

TEST(ImplicitTopology, UniformAgRunsMatchExplicitGraph) {
  static const auto g = graph::make_complete(20);
  auto explicit_topo = +[]() -> std::unique_ptr<sim::TopologyView> {
    return std::make_unique<sim::StaticTopology>(g);
  };
  auto implicit_topo = +[]() -> std::unique_ptr<sim::TopologyView> {
    return std::make_unique<sim::CompleteTopology>(20);
  };
  EXPECT_EQ(uag_rounds(explicit_topo, 20, 8, 555), uag_rounds(implicit_topo, 20, 8, 555));
}

}  // namespace
