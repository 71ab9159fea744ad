// Sharded round engine (core/sharded_round.hpp): the invariant under test
// is *serial == sharded at any shard count* -- a run at shards = 1 (fully
// inline, no threads) must be byte-identical to the same run split across
// any number of worker shards:
//
//   * identical stopping round,
//   * identical per-node finish-round vector,
//   * identical helpful/useless/sent/dropped/delivered counters.
//
// The suite sweeps shard counts {1, 2, 3, 7, hardware} across protocol
// directions (PUSH / PULL / EXCHANGE / BROADCAST), both pooled rank stores
// and the per-node decoder store, loss, churn resets, and the Theorem-1
// discard filter.  Golden sharded-engine anchors pin the absolute stopping
// rounds so a determinism regression cannot hide behind "still equal, both
// drifted".  The whole file runs under the TSan CI leg (-R Sharded).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "core/decoders.hpp"
#include "core/shard_plan.hpp"
#include "core/sharded_round.hpp"
#include "core/swarm_storage.hpp"
#include "gf/gf2m.hpp"
#include "graph/generators.hpp"
#include "linalg/rank_tracker.hpp"
#include "sim/topology.hpp"

namespace {

using namespace ag;

constexpr std::uint64_t kBudget = 200000;

std::size_t hw_shards() {
  // At least 2 so this exercises real threads even on a 1-core container.
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 2);
}

/// Everything observable about one finished run; equality across shard
/// counts is the whole invariant.
struct Snapshot {
  bool completed = false;
  std::uint64_t rounds = 0;
  std::vector<std::uint64_t> finish;
  std::uint64_t helpful = 0, useless = 0;
  std::uint64_t sent = 0, dropped = 0, delivered = 0;
};

template <typename D, typename Store, typename MakeTopo>
Snapshot run_one(MakeTopo&& make, const core::Placement& pl,
                 const core::AgConfig& cfg, std::uint64_t seed,
                 std::size_t shards) {
  core::ShardedUniformAG<D, Store> proto(make(), pl, cfg, seed, /*run=*/0,
                                         shards);
  const sim::RunResult res = proto.run(kBudget);
  Snapshot s;
  s.completed = res.completed;
  s.rounds = res.rounds;
  for (std::size_t v = 0; v < proto.node_count(); ++v) {
    s.finish.push_back(proto.swarm().finish_round(static_cast<graph::NodeId>(v)));
  }
  s.helpful = proto.swarm().helpful_receives();
  s.useless = proto.swarm().useless_receives();
  s.sent = proto.messages_sent();
  s.dropped = proto.messages_dropped();
  s.delivered = proto.messages_delivered();
  return s;
}

void expect_identical(const Snapshot& ref, const Snapshot& got,
                      std::size_t shards) {
  SCOPED_TRACE(testing::Message() << "shards=" << shards);
  EXPECT_TRUE(got.completed);
  EXPECT_EQ(ref.rounds, got.rounds);
  EXPECT_EQ(ref.finish, got.finish);
  EXPECT_EQ(ref.helpful, got.helpful);
  EXPECT_EQ(ref.useless, got.useless);
  EXPECT_EQ(ref.sent, got.sent);
  EXPECT_EQ(ref.dropped, got.dropped);
  EXPECT_EQ(ref.delivered, got.delivered);
}

/// Runs the same configuration at shards = 1 and every other count and
/// demands byte-identical snapshots.
template <typename D, typename Store, typename MakeTopo>
Snapshot expect_shard_invariant(MakeTopo&& make, const core::Placement& pl,
                                const core::AgConfig& cfg, std::uint64_t seed) {
  const Snapshot ref = run_one<D, Store>(make, pl, cfg, seed, 1);
  EXPECT_TRUE(ref.completed) << "serial reference exhausted the budget";
  for (const std::size_t s : {std::size_t{2}, std::size_t{3}, std::size_t{7},
                              hw_shards()}) {
    expect_identical(ref, run_one<D, Store>(make, pl, cfg, seed, s), s);
  }
  return ref;
}

core::Placement fixed_placement(std::size_t k, std::size_t n,
                                std::uint64_t seed) {
  sim::Rng rng(seed);
  return core::uniform_distinct(k, n, rng);
}

// ---------------------------------------------------------------------------
// ShardPlan: the partition both the stores and the runner derive from.
// ---------------------------------------------------------------------------

TEST(ShardPlan, PartitionIsContiguousBalancedAndInverted) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{48},
                              std::size_t{100}, std::size_t{101}}) {
    for (const std::size_t s : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{7}, std::size_t{13}}) {
      const core::ShardPlan plan(n, s);
      SCOPED_TRACE(testing::Message() << "n=" << n << " shards=" << s);
      ASSERT_GE(plan.shard_count(), std::size_t{1});
      ASSERT_LE(plan.shard_count(), std::max<std::size_t>(n, 1));
      std::size_t covered = 0;
      std::size_t min_sz = n + 1, max_sz = 0;
      EXPECT_EQ(plan.begin(0), 0u);
      EXPECT_EQ(plan.end(plan.shard_count() - 1), n);
      for (std::size_t sh = 0; sh < plan.shard_count(); ++sh) {
        EXPECT_EQ(plan.begin(sh), covered);  // contiguous, no gaps
        const std::size_t sz = plan.end(sh) - plan.begin(sh);
        EXPECT_GE(sz, std::size_t{1});  // never an empty shard
        min_sz = std::min(min_sz, sz);
        max_sz = std::max(max_sz, sz);
        for (std::size_t v = plan.begin(sh); v < plan.end(sh); ++v) {
          EXPECT_EQ(plan.shard_of(v), sh);  // shard_of is the exact inverse
        }
        covered = plan.end(sh);
      }
      EXPECT_EQ(covered, n);
      EXPECT_LE(max_sz - min_sz, std::size_t{1});  // balanced within one
    }
  }
}

TEST(ShardPlan, ClampsShardCountToNodes) {
  EXPECT_EQ(core::ShardPlan(5, 64).shard_count(), 5u);
  EXPECT_EQ(core::ShardPlan(5, 0).shard_count(), 1u);
  const core::ShardPlan empty(0, 3);
  EXPECT_EQ(empty.shard_count(), 1u);
  EXPECT_EQ(empty.begin(0), 0u);
  EXPECT_EQ(empty.end(0), 0u);
  const core::ShardPlan def;  // default = serial layout
  EXPECT_EQ(def.shard_count(), 1u);
}

// ---------------------------------------------------------------------------
// serial == sharded: directions x stores x dynamics.
// ---------------------------------------------------------------------------

TEST(ShardedRun, EveryDirectionMatchesSerialOnCompleteGraph) {
  const std::size_t n = 48, k = 12;
  const core::Placement pl = fixed_placement(k, n, 0x5EED01);
  auto make = [&] {
    return std::unique_ptr<sim::TopologyView>(new sim::CompleteTopology(n));
  };
  for (const sim::Direction dir :
       {sim::Direction::Push, sim::Direction::Pull, sim::Direction::Exchange,
        sim::Direction::Broadcast}) {
    SCOPED_TRACE(testing::Message() << "direction=" << static_cast<int>(dir));
    core::AgConfig cfg;
    cfg.direction = dir;
    expect_shard_invariant<core::Gf2Decoder, core::VectorNodeStore<core::Gf2Decoder>>(
        make, pl, cfg, 0xA11CE);
  }
}

TEST(ShardedRun, PooledRankStoresMatchSerialOnGrid) {
  const graph::Graph g = graph::make_grid(6, 8);
  const std::size_t n = g.node_count(), k = 16;
  const core::Placement pl = fixed_placement(k, n, 0x5EED02);
  auto make = [&] {
    return std::unique_ptr<sim::TopologyView>(new sim::StaticTopology(g));
  };
  core::AgConfig cfg;  // EXCHANGE, the paper's default
  {
    SCOPED_TRACE("BitRankStore");
    expect_shard_invariant<linalg::BitRankTracker, core::BitRankStore>(
        make, pl, cfg, 0xB17);
  }
  {
    SCOPED_TRACE("DenseRankStore<GF256>");
    expect_shard_invariant<linalg::DenseRankTracker<gf::GF256>,
                           core::DenseRankStore<gf::GF256>>(make, pl, cfg,
                                                            0xD256);
  }
}

TEST(ShardedRun, FullDecoderPayloadsMatchSerialAndDecode) {
  // Full GF(256) decoders with real payloads: proves the sharded receive
  // path carries payload symbols (not just rank) identically.
  const std::size_t n = 24, k = 8;
  const core::Placement pl = fixed_placement(k, n, 0x5EED03);
  auto make = [&] {
    return std::unique_ptr<sim::TopologyView>(new sim::BarbellTopology(n));
  };
  core::AgConfig cfg;
  cfg.payload_len = 6;
  const Snapshot ref =
      expect_shard_invariant<core::Gf256Decoder,
                             core::VectorNodeStore<core::Gf256Decoder>>(
          make, pl, cfg, 0xBA9BE11);
  EXPECT_TRUE(ref.completed);
  // Spot-check decode correctness through the sharded engine end to end.
  core::ShardedUniformAG<core::Gf256Decoder> proto(make(), pl, cfg, 0xBA9BE11,
                                                   0, 3);
  ASSERT_TRUE(proto.run(kBudget).completed);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_TRUE(proto.swarm().decodes_correctly(0, i));
    EXPECT_TRUE(proto.swarm().decodes_correctly(static_cast<graph::NodeId>(n - 1), i));
  }
}

TEST(ShardedRun, LossyLinksMatchSerial) {
  const std::size_t n = 40, k = 10;
  const core::Placement pl = fixed_placement(k, n, 0x5EED04);
  auto make = [&] {
    return std::unique_ptr<sim::TopologyView>(new sim::CompleteTopology(n));
  };
  core::AgConfig cfg;
  cfg.drop_probability = 0.25;
  const Snapshot ref =
      expect_shard_invariant<core::Gf2Decoder,
                             core::VectorNodeStore<core::Gf2Decoder>>(
          make, pl, cfg, 0x10551055);
  EXPECT_GT(ref.dropped, 0u);  // the loss path actually ran
  EXPECT_EQ(ref.sent, ref.dropped + ref.delivered);
}

TEST(ShardedRun, DiscardSameSenderFilterMatchesSerial) {
  // Theorem 1's discard rule: a second same-(from,to) message in one round
  // is dropped.  First-wins is resolved in per-destination key order, which
  // the file comment argues is shard-count-independent; this pins it.
  const std::size_t n = 16, k = 8;
  const core::Placement pl = fixed_placement(k, n, 0x5EED05);
  auto make = [&] {
    return std::unique_ptr<sim::TopologyView>(new sim::CompleteTopology(n));
  };
  core::AgConfig cfg;
  cfg.discard_same_sender_per_round = true;
  const Snapshot ref =
      expect_shard_invariant<core::Gf2Decoder,
                             core::VectorNodeStore<core::Gf2Decoder>>(
          make, pl, cfg, 0xD15CA4D);
  EXPECT_LT(ref.delivered, ref.sent);  // the filter actually discarded
}

TEST(ShardedRun, VerifyInsertsArmsTheHookWithoutChangingTheRun) {
  // AgConfig::verify_inserts must reach the swarm like it does for the
  // classic engine; on honest traffic the hook rejects nothing, so stopping
  // and finish rounds equal the unverified run at every shard count.
  const std::size_t n = 24, k = 8;
  const core::Placement pl = fixed_placement(k, n, 0x5EED0A);
  auto make = [&] {
    return std::unique_ptr<sim::TopologyView>(new sim::CompleteTopology(n));
  };
  const core::AgConfig plain;
  core::AgConfig verified;
  verified.verify_inserts = true;
  const Snapshot ref =
      run_one<core::Gf2Decoder, core::VectorNodeStore<core::Gf2Decoder>>(
          make, pl, plain, 0x5AFE, 1);
  ASSERT_TRUE(ref.completed);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    core::ShardedUniformAG<core::Gf2Decoder> proto(make(), pl, verified, 0x5AFE,
                                                   /*run=*/0, shards);
    EXPECT_TRUE(proto.swarm().verification_enabled());
    const sim::RunResult res = proto.run(kBudget);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.rounds, ref.rounds);
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_EQ(proto.swarm().finish_round(static_cast<graph::NodeId>(v)),
                ref.finish[v])
          << "node " << v;
    }
    EXPECT_EQ(proto.swarm().malformed_receives(), 0u);
  }
}

TEST(ShardedRun, CodingAblationsMatchSerial) {
  const std::size_t n = 32, k = 8;
  const core::Placement pl = fixed_placement(k, n, 0x5EED06);
  auto make = [&] {
    return std::unique_ptr<sim::TopologyView>(new sim::CompleteTopology(n));
  };
  {
    SCOPED_TRACE("no-recode (store-and-forward)");
    core::AgConfig cfg;
    cfg.recode = false;
    expect_shard_invariant<core::Gf2Decoder,
                           core::VectorNodeStore<core::Gf2Decoder>>(make, pl,
                                                                    cfg, 0xF0);
  }
  {
    SCOPED_TRACE("sparse coding density");
    core::AgConfig cfg;
    cfg.coding_density = 0.5;
    expect_shard_invariant<core::Gf2Decoder,
                           core::VectorNodeStore<core::Gf2Decoder>>(make, pl,
                                                                    cfg, 0xF1);
  }
}

TEST(ShardedRun, ChurnResetsMatchSerial) {
  // Churn resets happen at the round barrier (caller thread) from the
  // topology's own stream -- the reset schedule and the post-reset decoder
  // rebuild must be shard-count-independent.
  const graph::Graph g = graph::make_grid(5, 8);
  const std::size_t n = g.node_count(), k = 10;
  const core::Placement pl = fixed_placement(k, n, 0x5EED07);
  sim::ChurnConfig churn;
  churn.leave_probability = 0.05;
  churn.rejoin_probability = 0.4;
  churn.stop_round = 25;  // finite churn window: runs terminate
  auto make = [&] {
    return std::unique_ptr<sim::TopologyView>(
        new sim::ChurnTopology(g, churn));
  };
  core::AgConfig cfg;
  const Snapshot ref =
      expect_shard_invariant<core::Gf2Decoder,
                             core::VectorNodeStore<core::Gf2Decoder>>(
          make, pl, cfg, 0xC404);
  EXPECT_TRUE(ref.completed);
}

// ---------------------------------------------------------------------------
// Engine contract details.
// ---------------------------------------------------------------------------

TEST(ShardedRun, RejectsAsyncTimeModel) {
  const std::size_t n = 8, k = 4;
  const core::Placement pl = fixed_placement(k, n, 0x5EED08);
  core::AgConfig cfg;
  cfg.time_model = sim::TimeModel::Asynchronous;
  EXPECT_THROW(
      (core::ShardedUniformAG<core::Gf2Decoder>(
          std::make_unique<sim::CompleteTopology>(n), pl, cfg, 1, 0, 2)),
      std::invalid_argument);
}

TEST(ShardedRun, SingleNodeFinishesAtConstruction) {
  const core::Placement pl = fixed_placement(1, 1, 0x5EED09);
  core::AgConfig cfg;
  core::ShardedUniformAG<core::Gf2Decoder> proto(
      std::make_unique<sim::CompleteTopology>(1), pl, cfg, 7, 0, 4);
  EXPECT_TRUE(proto.finished());
  const sim::RunResult res = proto.run(kBudget);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.rounds, 0u);
}

TEST(ShardedRun, ShardCountClampsToNodeCount) {
  const std::size_t n = 8, k = 4;
  const core::Placement pl = fixed_placement(k, n, 0x5EED0A);
  core::AgConfig cfg;
  auto make = [&] {
    return std::unique_ptr<sim::TopologyView>(new sim::CompleteTopology(n));
  };
  const Snapshot ref = run_one<core::Gf2Decoder,
                               core::VectorNodeStore<core::Gf2Decoder>>(
      make, pl, cfg, 0xC1A, 1);
  core::ShardedUniformAG<core::Gf2Decoder> proto(make(), pl, cfg, 0xC1A, 0,
                                                 64);
  EXPECT_EQ(proto.shard_count(), n);
  const sim::RunResult res = proto.run(kBudget);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.rounds, ref.rounds);
}

TEST(ShardedRun, AgShardsEnvResolvesWhenCallerPassesZero) {
  const std::size_t n = 12, k = 4;
  const core::Placement pl = fixed_placement(k, n, 0x5EED0B);
  core::AgConfig cfg;
  ASSERT_EQ(setenv("AG_SHARDS", "3", 1), 0);
  {
    core::ShardedUniformAG<core::Gf2Decoder> proto(
        std::make_unique<sim::CompleteTopology>(n), pl, cfg, 1, 0, 0);
    EXPECT_EQ(proto.shard_count(), 3u);
  }
  ASSERT_EQ(setenv("AG_SHARDS", "2 workers", 1), 0);
  EXPECT_THROW((core::ShardedUniformAG<core::Gf2Decoder>(
                   std::make_unique<sim::CompleteTopology>(n), pl, cfg, 1, 0, 0)),
               std::runtime_error);
  ASSERT_EQ(unsetenv("AG_SHARDS"), 0);
  {
    core::ShardedUniformAG<core::Gf2Decoder> proto(
        std::make_unique<sim::CompleteTopology>(n), pl, cfg, 1, 0, 0);
    EXPECT_EQ(proto.shard_count(), 1u);  // default: sharding is opt-in
  }
  // An explicit count always wins over the environment.
  ASSERT_EQ(setenv("AG_SHARDS", "5", 1), 0);
  {
    core::ShardedUniformAG<core::Gf2Decoder> proto(
        std::make_unique<sim::CompleteTopology>(n), pl, cfg, 1, 0, 2);
    EXPECT_EQ(proto.shard_count(), 2u);
  }
  ASSERT_EQ(unsetenv("AG_SHARDS"), 0);
}

// ---------------------------------------------------------------------------
// Golden sharded-engine traces: the uniform-AG golden configurations run
// through the sharded engine, shards = 4 vs shards = 1, with the absolute
// stopping rounds pinned.  Equality alone cannot catch a change that shifts
// BOTH sides (e.g. a stream-derivation edit); the anchors can.
// ---------------------------------------------------------------------------

struct GoldenCase {
  const char* name;
  std::uint64_t seed;
  std::vector<double> want;
};

template <typename D, typename Store, typename MakeTopo>
void expect_sharded_golden(const GoldenCase& gc, MakeTopo&& make,
                           const core::Placement& pl,
                           const core::AgConfig& cfg) {
  SCOPED_TRACE(gc.name);
  const std::vector<double> serial = core::sharded_stopping_rounds<D, Store>(
      make, pl, cfg, /*runs=*/4, gc.seed, kBudget, /*shards=*/1);
  const std::vector<double> sharded = core::sharded_stopping_rounds<D, Store>(
      make, pl, cfg, /*runs=*/4, gc.seed, kBudget, /*shards=*/4);
  EXPECT_EQ(serial, sharded);
  EXPECT_EQ(serial, gc.want);
}

TEST(ShardedGoldenTrace, Gf2GridExchange) {
  const graph::Graph g = graph::make_grid(4, 5);
  const core::Placement pl = fixed_placement(10, g.node_count(), 0x6011);
  core::AgConfig cfg;
  expect_sharded_golden<core::Gf2Decoder,
                        core::VectorNodeStore<core::Gf2Decoder>>(
      {"sharded_gf2_grid_sync", 0x6011, {15, 17, 19, 20}},
      [&] { return std::unique_ptr<sim::TopologyView>(new sim::StaticTopology(g)); },
      pl, cfg);
}

TEST(ShardedGoldenTrace, Gf256BarbellExchange) {
  const std::size_t n = 24;
  const core::Placement pl = fixed_placement(12, n, 0x6012);
  core::AgConfig cfg;
  expect_sharded_golden<linalg::DenseRankTracker<gf::GF256>,
                        core::DenseRankStore<gf::GF256>>(
      {"sharded_gf256_barbell_sync", 0x6012, {52, 56, 39, 71}},
      [&] { return std::unique_ptr<sim::TopologyView>(new sim::BarbellTopology(n)); },
      pl, cfg);
}

TEST(ShardedGoldenTrace, Gf2CompleteBitRankPush) {
  const std::size_t n = 32;
  const core::Placement pl = fixed_placement(16, n, 0x6013);
  core::AgConfig cfg;
  cfg.direction = sim::Direction::Push;
  expect_sharded_golden<linalg::BitRankTracker, core::BitRankStore>(
      {"sharded_gf2_complete_push", 0x6013, {31, 32, 28, 31}},
      [&] { return std::unique_ptr<sim::TopologyView>(new sim::CompleteTopology(n)); },
      pl, cfg);
}

TEST(ShardedGoldenTrace, Gf2GridLossyExchange) {
  const graph::Graph g = graph::make_grid(4, 5);
  const core::Placement pl = fixed_placement(10, g.node_count(), 0x6014);
  core::AgConfig cfg;
  cfg.drop_probability = 0.25;
  expect_sharded_golden<core::Gf2Decoder,
                        core::VectorNodeStore<core::Gf2Decoder>>(
      {"sharded_gf2_grid_sync_loss25", 0x6014, {24, 25, 24, 25}},
      [&] { return std::unique_ptr<sim::TopologyView>(new sim::StaticTopology(g)); },
      pl, cfg);
}

TEST(ShardedGoldenTrace, Gf2GeometricBroadcastDiscardLossy) {
  // One key fans out to every neighbour, so this is where delivery bucketed
  // by destination and a global (key, to) order differ most; per destination
  // both are key order, which is all an insert or the discard filter sees.
  const graph::Graph g = graph::make_random_geometric(24, 0.4, 0x6015);
  const core::Placement pl = fixed_placement(8, g.node_count(), 0x6015);
  core::AgConfig cfg;
  cfg.direction = sim::Direction::Broadcast;
  cfg.discard_same_sender_per_round = true;
  cfg.drop_probability = 0.25;
  expect_sharded_golden<linalg::BitRankTracker, core::BitRankStore>(
      {"sharded_gf2_geometric_broadcast_discard_loss25", 0x6015, {13, 12, 11, 11}},
      [&] { return std::unique_ptr<sim::TopologyView>(new sim::StaticTopology(g)); },
      pl, cfg);
}

}  // namespace
