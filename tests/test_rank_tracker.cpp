// Rank-only tracker tests: the scaling path must be indistinguishable from
// the full decoders everywhere it claims to be.
//
//   * Differential fuzz: DenseRankTracker<F> / BitRankTracker fed the exact
//     packet sequence of a DenseDecoder<F> / BitDecoder must agree on every
//     insert verdict, rank, and contains() answer (the payload is the ONLY
//     thing a rank tracker drops).
//   * Combination-stream identity: the transmit rules must consume the RNG
//     identically (same draws, same coefficient output) -- this is what
//     makes whole protocol runs match round for round.  The GF(2) kernels
//     of trackers and pooled views also match the row-loop oracles of
//     bit_row_loop_oracle.hpp bit for bit.
//   * Pooled storage: the structure-of-arrays stores (swarm_storage.hpp)
//     must behave exactly like per-node tracker objects, including churn
//     resets, at the word and 32-byte boundaries of k.
//   * Recycling: a cleared owner or a reset pooled node replays an insert
//     stream exactly like a fresh decoder, also when the reset node was at
//     full rank and its stale rows are still in the arena; VectorNodeStore's
//     footprint is exact.
//   * Golden-trace rerun: the pinned pre-refactor stopping-round vectors of
//     test_golden_traces must be reproduced by rank-only swarms -- including
//     a payload-carrying GF(256) config, because rank evolution is payload-
//     independent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "bit_row_loop_oracle.hpp"
#include "core/decoders.hpp"
#include "core/dissemination.hpp"
#include "core/experiment.hpp"
#include "core/parallel_experiment.hpp"
#include "core/swarm.hpp"
#include "core/swarm_storage.hpp"
#include "core/uniform_ag.hpp"
#include "gf/gf2.hpp"
#include "gf/gf2m.hpp"
#include "graph/generators.hpp"
#include "linalg/bit_decoder.hpp"
#include "linalg/decoder_concept.hpp"
#include "linalg/dense_decoder.hpp"
#include "linalg/rank_tracker.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "util/urbg.hpp"

namespace {

using namespace ag;

static_assert(linalg::RlncDecoder<linalg::DenseRankTracker<gf::GF2>>);
static_assert(linalg::RlncDecoder<linalg::DenseRankTracker<gf::GF256>>);
static_assert(linalg::RlncDecoder<linalg::BitRankTracker>);

// ---------------------------------------------------------------------------
// Differential fuzz vs the full dense decoder.
// ---------------------------------------------------------------------------

template <gf::GaloisField F>
std::vector<typename F::value_type> random_coeffs(std::size_t k, sim::Rng& rng,
                                                  std::vector<std::vector<typename F::value_type>>& sent) {
  std::vector<typename F::value_type> c(k, F::zero);
  const auto kind = util::uniform_below(rng, 4);
  if (kind == 0 && !sent.empty()) {
    c = sent[util::uniform_below(rng, sent.size())];  // duplicate
  } else if (kind == 1 && sent.size() >= 2) {
    for (const auto& s : sent) {  // dependent combination
      const auto w = static_cast<typename F::value_type>(util::uniform_below(rng, F::order));
      if (w == F::zero) continue;
      for (std::size_t i = 0; i < k; ++i) c[i] = F::add(c[i], F::mul(w, s[i]));
    }
  } else {
    for (std::size_t i = 0; i < k; ++i) {
      c[i] = static_cast<typename F::value_type>(util::uniform_below(rng, F::order));
    }
  }
  sent.push_back(c);
  return c;
}

template <gf::GaloisField F>
void run_dense_differential(std::uint64_t seed, std::size_t k, std::size_t payload_len,
                            std::size_t rounds) {
  sim::Rng rng(seed);
  linalg::DenseDecoder<F> full(k, payload_len);
  linalg::DenseRankTracker<F> tracker(k, payload_len);
  std::vector<std::vector<typename F::value_type>> sent;

  for (std::size_t step = 0; step < rounds; ++step) {
    const auto c = random_coeffs<F>(k, rng, sent);
    ASSERT_EQ(tracker.contains(c), full.contains(c)) << "step " << step;

    linalg::DensePacket<F> pkt;
    pkt.coeffs = c;
    pkt.payload.assign(payload_len, F::zero);  // tracker must ignore it
    const bool fv = full.insert(pkt);
    const bool tv = tracker.insert(pkt);
    ASSERT_EQ(tv, fv) << "insert verdict diverged at step " << step;
    ASSERT_EQ(tracker.rank(), full.rank()) << "rank diverged at step " << step;
    ASSERT_EQ(tracker.full_rank(), full.full_rank());
  }
}

TEST(RankTracker, DifferentialVsDenseGf2) { run_dense_differential<gf::GF2>(11, 24, 3, 200); }
TEST(RankTracker, DifferentialVsDenseGf16) { run_dense_differential<gf::GF16>(12, 16, 2, 150); }
TEST(RankTracker, DifferentialVsDenseGf256) { run_dense_differential<gf::GF256>(13, 20, 4, 150); }
TEST(RankTracker, DifferentialVsDenseGf65536) { run_dense_differential<gf::GF65536>(14, 12, 2, 100); }

TEST(RankTracker, DifferentialVsBitDecoder) {
  const std::size_t k = 70;  // > 64: exercises multi-word rows
  sim::Rng rng(21);
  linalg::BitDecoder full(k, 2);
  linalg::BitRankTracker tracker(k, 2);
  const std::size_t words = linalg::BitDecoder::words_for(k);
  std::vector<std::vector<std::uint64_t>> sent;

  for (std::size_t step = 0; step < 400; ++step) {
    std::vector<std::uint64_t> c(words, 0);
    const auto kind = util::uniform_below(rng, 3);
    if (kind == 0 && !sent.empty()) {
      c = sent[util::uniform_below(rng, sent.size())];
    } else {
      for (auto& w : c) w = util::random_bits(rng, 64);
      c[words - 1] &= (k % 64) ? ((std::uint64_t{1} << (k % 64)) - 1) : ~std::uint64_t{0};
    }
    sent.push_back(c);
    ASSERT_EQ(tracker.contains(c), full.contains(c)) << "step " << step;

    linalg::BitPacket pkt;
    pkt.coeffs = c;
    pkt.payload.assign(2, 0xDEADBEEFu);  // tracker must ignore it
    ASSERT_EQ(tracker.insert(pkt), full.insert(pkt)) << "step " << step;
    ASSERT_EQ(tracker.rank(), full.rank()) << "step " << step;
  }
}

// ---------------------------------------------------------------------------
// Combination-stream identity: same draws, same coefficients, same RNG state.
// ---------------------------------------------------------------------------

TEST(RankTracker, DenseCombinationStreamMatchesFullDecoder) {
  const std::size_t k = 12;
  sim::Rng rng(31);
  linalg::DenseDecoder<gf::GF256> full(k, 5);
  linalg::DenseRankTracker<gf::GF256> tracker(k);
  std::vector<std::vector<std::uint8_t>> sent;
  for (int i = 0; i < 8; ++i) {
    const auto c = random_coeffs<gf::GF256>(k, rng, sent);
    linalg::DensePacket<gf::GF256> pkt;
    pkt.coeffs = c;
    full.insert(pkt);
    tracker.insert(pkt);
  }
  ASSERT_EQ(tracker.rank(), full.rank());

  sim::Rng ra(77), rb(77);
  for (int trial = 0; trial < 50; ++trial) {
    linalg::DensePacket<gf::GF256> pa, pb;
    ASSERT_EQ(full.random_combination_into(ra, pa),
              tracker.random_combination_into(rb, pb));
    EXPECT_EQ(pa.coeffs, pb.coeffs);
    // Identical residual streams: the payload axpys draw nothing.
    ASSERT_EQ(ra(), rb()) << "RNG streams diverged after combination " << trial;
  }
  // Density and stored-row variants too.
  for (int trial = 0; trial < 50; ++trial) {
    linalg::DensePacket<gf::GF256> pa, pb;
    ASSERT_EQ(full.random_combination_into(ra, 0.4, pa),
              tracker.random_combination_into(rb, 0.4, pb));
    EXPECT_EQ(pa.coeffs, pb.coeffs);
    ASSERT_EQ(full.random_stored_row_into(ra, pa), tracker.random_stored_row_into(rb, pb));
    EXPECT_EQ(pa.coeffs, pb.coeffs);
    ASSERT_EQ(ra(), rb());
  }
}

TEST(RankTracker, BitCombinationStreamMatchesBitDecoder) {
  const std::size_t k = 70;
  sim::Rng rng(41);
  linalg::BitDecoder full(k, 1);
  linalg::BitRankTracker tracker(k);
  const std::size_t words = linalg::BitDecoder::words_for(k);
  for (int i = 0; i < 100; ++i) {
    linalg::BitPacket pkt;
    pkt.coeffs.resize(words);
    for (auto& w : pkt.coeffs) w = util::random_bits(rng, 64);
    pkt.coeffs[words - 1] &= (std::uint64_t{1} << (k % 64)) - 1;
    full.insert(pkt);
    tracker.insert(pkt);
  }
  ASSERT_EQ(tracker.rank(), full.rank());
  ASSERT_GT(tracker.rank(), 64u);  // the 64-bit batching boundary is crossed

  sim::Rng ra(99), rb(99);
  for (int trial = 0; trial < 50; ++trial) {
    linalg::BitPacket pa, pb;
    ASSERT_EQ(full.random_combination_into(ra, pa),
              tracker.random_combination_into(rb, pb));
    EXPECT_EQ(pa.coeffs, pb.coeffs);
    ASSERT_EQ(ra(), rb()) << "bit-batch streams diverged at " << trial;
  }
}

// The GF(2) kernels of an owning tracker and of a pooled view (unpadded
// rows) against the row-loop oracles: every contains() and insert() verdict
// and stored row on a mixed stream, and at each rank of kernel_ranks(k) the
// combination packet and the RNG state after it.
TEST(RankTracker, PooledAndOwnedKernelsMatchRowLoopOracle) {
  for (const std::size_t k : test::kKernelK) {
    SCOPED_TRACE(k);
    core::BitRankStore pool(3, k, 0);
    linalg::BitRankTracker solo(k);
    test::RowLoopRref oracle(k);
    const auto ranks = test::kernel_ranks(k);
    sim::Rng rng(9000 + k);
    std::vector<linalg::BitPacket> sent;
    linalg::BitPacket got;
    for (std::size_t step = 0; step < 3 * k + 8; ++step) {
      const auto p = test::kernel_packet(k, 0, sent, rng);
      const bool in_span = oracle.contains(p.coeffs);
      ASSERT_EQ(pool.at(1).contains(p.coeffs), in_span) << "step " << step;
      ASSERT_EQ(solo.contains(p.coeffs), in_span) << "step " << step;
      const bool helpful = oracle.insert(p.coeffs);
      ASSERT_EQ(pool.at(1).insert(p), helpful) << "step " << step;
      ASSERT_EQ(solo.insert(p), helpful) << "step " << step;
      for (std::size_t i = 0; i < oracle.rank(); ++i) {
        const auto a = pool.at(1).stored_coeff_row(i);
        const auto b = solo.stored_coeff_row(i);
        ASSERT_EQ(std::vector<std::uint64_t>(a.begin(), a.end()), oracle.row(i)) << "step " << step;
        ASSERT_EQ(std::vector<std::uint64_t>(b.begin(), b.end()), oracle.row(i)) << "step " << step;
      }
      if (!helpful || !std::ranges::binary_search(ranks, oracle.rank())) continue;
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        sim::Rng ra(seed + step), rb(seed + step), rc(seed + step);
        linalg::BitPacket want, mine;
        ASSERT_TRUE(pool.at(1).random_combination_into(ra, got));
        ASSERT_TRUE(solo.random_combination_into(rb, mine));
        ASSERT_TRUE(test::row_loop_combination(solo, rc, want));
        ASSERT_EQ(got.coeffs, want.coeffs) << "rank " << oracle.rank();
        ASSERT_EQ(mine.coeffs, want.coeffs) << "rank " << oracle.rank();
        ASSERT_TRUE(got.payload.empty() && mine.payload.empty());
        const auto next = rc();
        ASSERT_EQ(ra(), next);
        ASSERT_EQ(rb(), next);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pooled SoA stores == per-node tracker objects.
// ---------------------------------------------------------------------------

TEST(RankStore, PooledBitStoreMatchesStandaloneTrackers) {
  // Word-boundary k: the pooled views run unpadded rows of words_for(k)
  // words, the owners padded ones, so the tail arithmetic differs there.
  for (const std::size_t k : {1, 63, 64, 65, 130}) {
    SCOPED_TRACE(k);
    const std::size_t n = 7;
    core::BitRankStore pool(n, k, 0);
    std::vector<linalg::BitRankTracker> solo;
    for (std::size_t v = 0; v < n; ++v) solo.emplace_back(k);

    sim::Rng rng(55);
    const std::size_t words = linalg::BitDecoder::words_for(k);
    for (int step = 0; step < 500; ++step) {
      const auto v = static_cast<graph::NodeId>(util::uniform_below(rng, n));
      linalg::BitPacket pkt;
      pkt.coeffs.resize(words);
      for (auto& w : pkt.coeffs) w = util::random_bits(rng, 64);
      pkt.coeffs[words - 1] &=
          (k % 64) ? ((std::uint64_t{1} << (k % 64)) - 1) : ~std::uint64_t{0};
      ASSERT_EQ(pool.at(v).insert(pkt), solo[v].insert(pkt)) << "step " << step;
      ASSERT_EQ(pool.at(v).rank(), solo[v].rank());
      if (step == 250) {  // churn: one node loses everything
        pool.reset(3);
        solo[3] = linalg::BitRankTracker(k);
        ASSERT_EQ(pool.at(3).rank(), 0u);
      }
    }
    // Combination outputs from pool refs match the standalone trackers.
    for (std::size_t v = 0; v < n; ++v) {
      sim::Rng ra(v + 1), rb(v + 1);
      linalg::BitPacket pa, pb;
      ASSERT_EQ(pool.at(static_cast<graph::NodeId>(v)).random_combination_into(ra, pa),
                solo[v].random_combination_into(rb, pb));
      EXPECT_EQ(pa.coeffs, pb.coeffs);
    }
  }
}

TEST(RankStore, PooledDenseStoreMatchesStandaloneTrackers) {
  // 32-byte boundary k: owners pad GF(256) rows to 32 symbols, pools do not.
  for (const std::size_t k : {1, 31, 32, 33}) {
    SCOPED_TRACE(k);
    const std::size_t n = 5;
    core::DenseRankStore<gf::GF256> pool(n, k, 0);
    std::vector<linalg::DenseRankTracker<gf::GF256>> solo;
    for (std::size_t v = 0; v < n; ++v) solo.emplace_back(k);

    sim::Rng rng(66);
    for (int step = 0; step < 300; ++step) {
      const auto v = static_cast<graph::NodeId>(util::uniform_below(rng, n));
      linalg::DensePacket<gf::GF256> pkt;
      pkt.coeffs.resize(k);
      for (auto& c : pkt.coeffs)
        c = static_cast<std::uint8_t>(util::uniform_below(rng, 256));
      ASSERT_EQ(pool.at(v).insert(pkt), solo[v].insert(pkt)) << "step " << step;
      ASSERT_EQ(pool.at(v).rank(), solo[v].rank());
      if (step == 150) {
        pool.reset(2);
        solo[2] = linalg::DenseRankTracker<gf::GF256>(k);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Recycling: clear() on every owner and reset(v) on both pooled stores must
// leave exactly the state of a fresh decoder.
// ---------------------------------------------------------------------------

// A random insert stream for decoders of D's representation: fresh random
// rows, every fourth one a repeat (so some verdicts are "not helpful"), all
// carrying `r` payload symbols (rank trackers drop them).
template <typename D>
std::vector<typename D::packet_type> random_stream(std::size_t k, std::size_t r,
                                                   std::uint64_t seed) {
  using Packet = typename D::packet_type;
  sim::Rng rng(seed);
  std::vector<Packet> stream;
  for (std::size_t step = 0; step < 3 * k + 4; ++step) {
    if (step % 4 == 3) {
      stream.push_back(stream[util::uniform_below(rng, stream.size())]);
      continue;
    }
    Packet p;
    if constexpr (std::is_same_v<Packet, linalg::BitPacket>) {
      p.coeffs.resize(linalg::BitDecoder::words_for(k));
      for (auto& w : p.coeffs) w = util::random_bits(rng, 64);
      if (k % 64) p.coeffs.back() &= (std::uint64_t{1} << (k % 64)) - 1;
      for (std::size_t i = 0; i < r; ++i) p.payload.push_back(util::random_bits(rng, 64));
    } else {
      using F = typename D::field_type;
      auto draw = [&] {
        return static_cast<typename F::value_type>(util::uniform_below(rng, F::order));
      };
      for (std::size_t i = 0; i < k; ++i) p.coeffs.push_back(draw());
      for (std::size_t i = 0; i < r; ++i) p.payload.push_back(draw());
    }
    stream.push_back(std::move(p));
  }
  return stream;
}

// Everything observable after replaying `stream` into d: the verdicts, the
// stored rows, a run of combinations under a fixed RNG (and where that RNG
// ends up), and the decoded payloads at full rank.
template <typename D, typename Packet>
std::vector<std::uint64_t> replay_log(D&& d, const std::vector<Packet>& stream) {
  std::vector<std::uint64_t> log;
  auto put = [&](const auto& xs) {
    log.push_back(xs.size());
    log.insert(log.end(), xs.begin(), xs.end());
  };
  for (const auto& p : stream) {
    log.push_back(d.contains(p.coeffs));
    log.push_back(d.insert(p));
  }
  log.push_back(d.rank());
  for (std::size_t i = 0; i < d.rank(); ++i) put(d.stored_coeff_row(i));
  sim::Rng rng(77);
  Packet out;
  for (int t = 0; t < 16; ++t) {
    log.push_back(d.random_combination_into(rng, out));
    put(out.coeffs);
    put(out.payload);
    log.push_back(d.random_combination_into(rng, 0.5, out));
    put(out.coeffs);
    put(out.payload);
  }
  log.push_back(rng());
  if (d.full_rank()) {
    for (std::size_t i = 0; i < d.message_count(); ++i) put(d.decoded_message(i));
  }
  return log;
}

template <typename D>
void expect_clear_replays_fresh(std::size_t k, std::size_t r) {
  SCOPED_TRACE(k);
  const auto stream = random_stream<D>(k, r, 1000 + k);
  D used(k, r);
  replay_log(used, stream);
  ASSERT_GT(used.rank(), 0u);
  used.clear();
  EXPECT_EQ(used.rank(), 0u);
  D fresh(k, r);
  EXPECT_EQ(replay_log(used, stream), replay_log(fresh, stream));
}

template <typename Store>
void expect_reset_replays_fresh(std::size_t k) {
  SCOPED_TRACE(k);
  const std::size_t n = 3;
  const auto stream = random_stream<typename Store::ref_type>(k, 2, 2000 + k);
  Store used(n, k, 0), fresh(n, k, 0);
  for (graph::NodeId v = 0; v < n; ++v) replay_log(used.at(v), stream);
  ASSERT_GT(used.at(1).rank(), 0u);
  used.reset(1);
  EXPECT_EQ(used.at(1).rank(), 0u);
  EXPECT_EQ(replay_log(used.at(1), stream), replay_log(fresh.at(1), stream));
}

// A pooled node filled to full rank and reset keeps its old rows in the
// arena (release builds) or a poison fill (debug builds); neither may change
// a verdict, a stored row or a combination.
template <typename Store, typename Tracker>
void expect_full_reset_replays_fresh(std::size_t k) {
  SCOPED_TRACE(k);
  Store pool(3, k, 0);
  for (const auto& p : random_stream<typename Store::ref_type>(k, 0, 3000 + k)) {
    pool.at(1).insert(p);
  }
  for (std::size_t i = 0; i < k; ++i) pool.at(1).insert(pool.at(1).unit_packet(i));
  ASSERT_TRUE(pool.at(1).full_rank());
  pool.reset(1);
  const auto stream = random_stream<typename Store::ref_type>(k, 0, 4000 + k);
  Tracker fresh(k);
  EXPECT_EQ(replay_log(pool.at(1), stream), replay_log(fresh, stream));
}

TEST(RankStore, FullRankResetNodeReplaysLikeFreshTracker) {
  for (const std::size_t k : {1, 32, 64, 65, 130}) {
    expect_full_reset_replays_fresh<core::BitRankStore, linalg::BitRankTracker>(k);
  }
  for (const std::size_t k : {1, 31, 32, 33}) {
    expect_full_reset_replays_fresh<core::DenseRankStore<gf::GF256>,
                                    linalg::DenseRankTracker<gf::GF256>>(k);
  }
}

TEST(RankStore, ClearAndResetReplayLikeFreshDecoders) {
  expect_clear_replays_fresh<linalg::DenseDecoder<gf::GF2>>(12, 3);
  expect_clear_replays_fresh<linalg::DenseDecoder<gf::GF256>>(33, 5);
  expect_clear_replays_fresh<linalg::BitDecoder>(70, 2);
  expect_clear_replays_fresh<linalg::DenseRankTracker<gf::GF256>>(20, 4);
  expect_clear_replays_fresh<linalg::BitRankTracker>(65, 2);
  expect_reset_replays_fresh<core::DenseRankStore<gf::GF256>>(33);
  expect_reset_replays_fresh<core::BitRankStore>(65);
}

// VectorNodeStore sums the decoders' exact footprints.  A GF(256) node with
// k = 16 and 1 KiB payloads holds 16 rows of 16 + 1024 symbols padded to
// 1056 bytes, one 1056-byte scratch stripe and 16 four-byte pivots.
TEST(RankStore, VectorStoreMemoryBytesIsExact) {
  core::RlncSwarm<core::Gf256Decoder> swarm(4, core::single_source(16, 0), 1024);
  EXPECT_EQ(swarm.node(0).memory_bytes(), 16u * 1056u + 1056u + 16u * 4u);
  EXPECT_EQ(swarm.decoder_memory_bytes(), 4u * 18016u);
}

// ---------------------------------------------------------------------------
// Golden-trace reruns: the rank-only path must reproduce the pinned
// stopping-round vectors of test_golden_traces (stream identity end to end).
// ---------------------------------------------------------------------------

constexpr std::size_t kRuns = 4;
constexpr std::uint64_t kBudget = 4000000;

template <typename Make>
void expect_rounds(const std::vector<double>& want, Make&& make, std::uint64_t seed) {
  const auto serial = core::stopping_rounds(make, kRuns, seed, kBudget);
  EXPECT_EQ(serial, want) << "(serial)";
  const auto parallel = core::parallel_stopping_rounds(make, kRuns, seed, kBudget, 4);
  EXPECT_EQ(parallel, want) << "(parallel, 4 threads)";
}

// golden "uag_gf2_grid_sync" (captured pre-TopologyView; see
// test_golden_traces.cpp).
TEST(RankTrackerGolden, UniformAgGridSyncPooled) {
  const auto g = graph::make_grid(4, 5);
  expect_rounds({18, 20, 17, 17}, [&](sim::Rng& rng) {
    const auto pl = core::uniform_distinct(10, 20, rng);
    core::AgConfig cfg;
    return core::UniformAG<linalg::BitRankTracker, core::BitRankStore>(
        std::make_unique<sim::StaticTopology>(g), pl, cfg);
  }, 101);
}

// golden "uag_gf2_complete_async".
TEST(RankTrackerGolden, UniformAgCompleteAsyncPooled) {
  const auto g = graph::make_complete(16);
  expect_rounds({16, 16, 13, 15}, [&](sim::Rng& rng) {
    (void)rng;
    core::AgConfig cfg;
    cfg.time_model = sim::TimeModel::Asynchronous;
    return core::UniformAG<linalg::BitRankTracker, core::BitRankStore>(
        std::make_unique<sim::StaticTopology>(g), core::all_to_all(16), cfg);
  }, 104);
}

// golden "uag_gf2_cycle_push_sync", per-node (vector) storage this time.
TEST(RankTrackerGolden, UniformAgCyclePushVectorStore) {
  const auto g = graph::make_cycle(16);
  expect_rounds({53, 46, 44, 34}, [&](sim::Rng& rng) {
    const auto pl = core::uniform_distinct(8, 16, rng);
    core::AgConfig cfg;
    cfg.direction = sim::Direction::Push;
    return core::UniformAG<linalg::BitRankTracker>(g, pl, cfg);
  }, 111);
}

// golden "uag_gf256_barbell_sync": the pinned config carries payload_len = 2.
// Rank evolution is payload-independent, so the rank-only tracker must hit
// the same rounds even though it stores no payload at all.
TEST(RankTrackerGolden, UniformAgGf256BarbellPayloadIndependence) {
  const auto g = graph::make_barbell(16);
  expect_rounds({23, 30, 22, 17}, [&](sim::Rng& rng) {
    const auto pl = core::uniform_distinct(8, 16, rng);
    core::AgConfig cfg;
    cfg.payload_len = 2;
    return core::UniformAG<linalg::DenseRankTracker<gf::GF256>,
                           core::DenseRankStore<gf::GF256>>(g, pl, cfg);
  }, 103);
}

// Churn end-to-end: pooled rank store under node churn (reset_node path)
// must match the full GF(2) decoder run for run.
TEST(RankTrackerGolden, ChurnRunsMatchFullDecoder) {
  const auto g = graph::make_complete(12);
  sim::ChurnConfig ccfg;
  ccfg.leave_probability = 0.08;
  ccfg.rejoin_probability = 0.5;
  ccfg.stop_round = 40;
  auto make_full = [&](sim::Rng& rng) {
    const auto pl = core::uniform_distinct(6, 12, rng);
    core::AgConfig cfg;
    return core::UniformAG<core::Gf2Decoder>(
        std::make_unique<sim::ChurnTopology>(g, ccfg), pl, cfg);
  };
  auto make_rank = [&](sim::Rng& rng) {
    const auto pl = core::uniform_distinct(6, 12, rng);
    core::AgConfig cfg;
    return core::UniformAG<linalg::BitRankTracker, core::BitRankStore>(
        std::make_unique<sim::ChurnTopology>(g, ccfg), pl, cfg);
  };
  const auto full = core::stopping_rounds(make_full, 6, 404, kBudget);
  const auto rank = core::stopping_rounds(make_rank, 6, 404, kBudget);
  EXPECT_EQ(full, rank);
}

}  // namespace
