// Decoder unit + property tests: rank bookkeeping, helpfulness (Definition
// 3), end-to-end decode, agreement between the dense decoders over different
// fields and the bit-packed GF(2) decoder, and cross-checks against the
// offline FMatrix elimination.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "core/decoders.hpp"
#include "fmatrix.hpp"
#include "gf/gf2.hpp"
#include "gf/gf2m.hpp"
#include "linalg/bit_decoder.hpp"
#include "linalg/decoder_concept.hpp"
#include "linalg/dense_decoder.hpp"
#include "sim/rng.hpp"

namespace {

using ag::gf::GF2;
using ag::gf::GF256;
using ag::linalg::BitDecoder;
using ag::linalg::DenseDecoder;
using ag::linalg::FMatrix;

static_assert(ag::linalg::RlncDecoder<DenseDecoder<GF256>>);
static_assert(ag::linalg::RlncDecoder<BitDecoder>);

TEST(DenseDecoderTest, UnitPacketsReachFullRankAndDecode) {
  const std::size_t k = 7, r = 5;
  DenseDecoder<GF256> d(k, r);
  for (std::size_t i = 0; i < k; ++i) {
    std::vector<std::uint8_t> payload(r, static_cast<std::uint8_t>(i + 1));
    EXPECT_TRUE(d.insert(d.unit_packet(i, payload)));
    EXPECT_EQ(d.rank(), i + 1);
  }
  EXPECT_TRUE(d.full_rank());
  for (std::size_t i = 0; i < k; ++i) {
    const auto msg = d.decoded_message(i);
    ASSERT_EQ(msg.size(), r);
    for (auto b : msg) EXPECT_EQ(b, static_cast<std::uint8_t>(i + 1));
  }
}

TEST(DenseDecoderTest, DuplicateAndDependentPacketsAreNotHelpful) {
  DenseDecoder<GF256> d(4, 0);
  auto p0 = d.unit_packet(0);
  auto p1 = d.unit_packet(1);
  EXPECT_TRUE(d.insert(p0));
  EXPECT_FALSE(d.insert(p0));  // exact duplicate
  EXPECT_TRUE(d.insert(p1));
  // A linear combination of stored rows is dependent.
  DenseDecoder<GF256>::packet_type combo;
  combo.coeffs = {7, 9, 0, 0};
  EXPECT_FALSE(d.insert(combo));
  EXPECT_EQ(d.rank(), 2u);
}

TEST(DenseDecoderTest, ZeroPacketIsNeverHelpful) {
  DenseDecoder<GF256> d(3, 0);
  DenseDecoder<GF256>::packet_type zero;
  zero.coeffs = {0, 0, 0};
  EXPECT_TRUE(zero.is_zero());
  EXPECT_FALSE(d.insert(zero));
}

TEST(DenseDecoderTest, RandomCombinationStaysInRowSpace) {
  ag::sim::Rng rng(21);
  DenseDecoder<GF256> d(10, 4);
  for (std::size_t i : {0u, 3u, 7u}) {
    d.insert(d.unit_packet(i, std::vector<std::uint8_t>(4, static_cast<std::uint8_t>(i))));
  }
  for (int t = 0; t < 200; ++t) {
    const auto pkt = d.random_combination(rng);
    ASSERT_TRUE(pkt.has_value());
    EXPECT_TRUE(d.contains(pkt->coeffs));
    // Coefficients outside {0,3,7} must be zero.
    for (std::size_t i = 0; i < 10; ++i) {
      if (i != 0 && i != 3 && i != 7) {
        EXPECT_EQ(pkt->coeffs[i], 0);
      }
    }
  }
}

TEST(DenseDecoderTest, EmptyDecoderHasNothingToSend) {
  ag::sim::Rng rng(5);
  DenseDecoder<GF256> d(5, 0);
  EXPECT_FALSE(d.random_combination(rng).has_value());
}

TEST(DenseDecoderTest, HelpfulNodePredicateMatchesDefinition3) {
  ag::sim::Rng rng(11);
  DenseDecoder<GF256> a(6, 0), b(6, 0);
  a.insert(a.unit_packet(0));
  a.insert(a.unit_packet(1));
  b.insert(b.unit_packet(1));
  // a knows something b does not: a is helpful to b; b is not helpful to a.
  EXPECT_TRUE(a.is_helpful_node(b) == false);  // is a helped BY b? b subset of a
  EXPECT_TRUE(b.is_helpful_node(a));           // b can gain from a
}

TEST(DenseDecoderTest, HelpfulMessageProbabilityAtLeastOneMinusOneOverQ) {
  // Lemma 2.1 of Deb et al.: a random combination from a helpful node is a
  // helpful message w.p. >= 1 - 1/q.  Empirical check over GF(16): q = 16,
  // expect success rate >= 0.9375 (allow small sampling slack).
  using F = ag::gf::GF16;
  ag::sim::Rng rng(31);
  const std::size_t k = 8;
  int helpful = 0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    DenseDecoder<F> sender(k, 0), receiver(k, 0);
    for (std::size_t i = 0; i < k; ++i) sender.insert(sender.unit_packet(i));
    for (std::size_t i = 0; i < 4; ++i) receiver.insert(receiver.unit_packet(i));
    const auto pkt = sender.random_combination(rng);
    ASSERT_TRUE(pkt.has_value());
    if (receiver.insert(*pkt)) ++helpful;
  }
  const double rate = static_cast<double>(helpful) / trials;
  EXPECT_GE(rate, 1.0 - 1.0 / 16.0 - 0.02);
}

TEST(DenseDecoderTest, RankAgreesWithOfflineElimination) {
  ag::sim::Rng rng(77);
  const std::size_t k = 12;
  DenseDecoder<GF256> d(k, 0);
  FMatrix<GF256> m(0, k);
  for (int t = 0; t < 40; ++t) {
    DenseDecoder<GF256>::packet_type pkt;
    pkt.coeffs.resize(k);
    for (auto& c : pkt.coeffs) c = static_cast<std::uint8_t>(rng.uniform(256));
    m.append_row(pkt.coeffs);
    d.insert(pkt);
    EXPECT_EQ(d.rank(), m.rank());
  }
}

TEST(BitDecoderTest, UnitPacketsReachFullRankAndDecode) {
  const std::size_t k = 70;  // spans two words
  BitDecoder d(k, 2);
  for (std::size_t i = 0; i < k; ++i) {
    std::vector<std::uint64_t> payload{i, i * i};
    EXPECT_TRUE(d.insert(d.unit_packet(i, payload)));
  }
  EXPECT_TRUE(d.full_rank());
  for (std::size_t i = 0; i < k; ++i) {
    const auto msg = d.decoded_message(i);
    EXPECT_EQ(msg[0], i);
    EXPECT_EQ(msg[1], i * i);
  }
}

TEST(BitDecoderTest, XorCombinationsDecodeCorrectly) {
  // Insert e0^e1, e1^e2, e2: rank 3, and decode must recover each payload.
  BitDecoder d(3, 1);
  auto p01 = d.unit_packet(0, std::vector<std::uint64_t>{10});
  const auto p1 = d.unit_packet(1, std::vector<std::uint64_t>{20});
  auto p12 = d.unit_packet(1, std::vector<std::uint64_t>{20});
  const auto p2 = d.unit_packet(2, std::vector<std::uint64_t>{30});
  // p01 = e0 + e1 (payload 10 ^ 20), p12 = e1 + e2 (payload 20 ^ 30).
  for (std::size_t w = 0; w < p01.coeffs.size(); ++w) p01.coeffs[w] ^= p1.coeffs[w];
  p01.payload[0] ^= p1.payload[0];
  for (std::size_t w = 0; w < p12.coeffs.size(); ++w) p12.coeffs[w] ^= p2.coeffs[w];
  p12.payload[0] ^= p2.payload[0];

  EXPECT_TRUE(d.insert(p01));
  EXPECT_TRUE(d.insert(p12));
  EXPECT_TRUE(d.insert(p2));
  ASSERT_TRUE(d.full_rank());
  EXPECT_EQ(d.decoded_message(0)[0], 10u);
  EXPECT_EQ(d.decoded_message(1)[0], 20u);
  EXPECT_EQ(d.decoded_message(2)[0], 30u);
}

TEST(BitDecoderTest, AgreesWithDenseGf2DecoderOnRandomStreams) {
  ag::sim::Rng rng(1234);
  const std::size_t k = 40;
  BitDecoder bit(k, 0);
  DenseDecoder<GF2> dense(k, 0);
  for (int t = 0; t < 200; ++t) {
    BitDecoder::packet_type bp;
    bp.coeffs.assign(BitDecoder::words_for(k), 0);
    DenseDecoder<GF2>::packet_type dp;
    dp.coeffs.assign(k, 0);
    for (std::size_t i = 0; i < k; ++i) {
      if (rng.bernoulli(0.5)) {
        bp.coeffs[i / 64] |= std::uint64_t{1} << (i % 64);
        dp.coeffs[i] = 1;
      }
    }
    EXPECT_EQ(bit.insert(bp), dense.insert(dp)) << "packet " << t;
    EXPECT_EQ(bit.rank(), dense.rank());
  }
}

TEST(BitDecoderTest, RandomCombinationStaysInRowSpace) {
  ag::sim::Rng rng(9);
  BitDecoder d(100, 0);
  for (std::size_t i = 0; i < 30; ++i) d.insert(d.unit_packet(i * 3));
  for (int t = 0; t < 100; ++t) {
    const auto pkt = d.random_combination(rng);
    ASSERT_TRUE(pkt.has_value());
    EXPECT_TRUE(d.contains(pkt->coeffs));
  }
}

TEST(DenseDecoderTest, IntoVariantsMatchOptionalVariantsAndReuseBuffers) {
  // The *_into builders must consume the same randomness and produce the
  // same packets as the optional-returning wrappers, and must be callable
  // repeatedly into one reused packet.
  ag::sim::Rng r1(303), r2(303);
  DenseDecoder<GF256> d(9, 4);
  for (std::size_t i : {0u, 2u, 5u, 8u}) {
    d.insert(d.unit_packet(i, std::vector<std::uint8_t>(4, static_cast<std::uint8_t>(i + 1))));
  }
  DenseDecoder<GF256>::packet_type reused;
  for (int t = 0; t < 50; ++t) {
    const auto opt = d.random_combination(r1);
    ASSERT_TRUE(d.random_combination_into(r2, reused));
    ASSERT_TRUE(opt.has_value());
    EXPECT_EQ(opt->coeffs, reused.coeffs);
    EXPECT_EQ(opt->payload, reused.payload);
  }
  for (int t = 0; t < 20; ++t) {
    const auto opt = d.random_combination(r1, 0.4);
    ASSERT_TRUE(d.random_combination_into(r2, 0.4, reused));
    ASSERT_TRUE(opt.has_value());
    EXPECT_EQ(opt->coeffs, reused.coeffs);
    EXPECT_EQ(opt->payload, reused.payload);
  }
  for (int t = 0; t < 20; ++t) {
    const auto opt = d.random_stored_row(r1);
    ASSERT_TRUE(d.random_stored_row_into(r2, reused));
    ASSERT_TRUE(opt.has_value());
    EXPECT_EQ(opt->coeffs, reused.coeffs);
    EXPECT_EQ(opt->payload, reused.payload);
  }
  // Empty decoder: the into-variants must report nothing to send.
  DenseDecoder<GF256> empty(4, 0);
  EXPECT_FALSE(empty.random_combination_into(r2, reused));
  EXPECT_FALSE(empty.random_stored_row_into(r2, reused));
}

TEST(BitDecoderTest, IntoVariantsMatchOptionalVariants) {
  ag::sim::Rng r1(404), r2(404);
  BitDecoder d(70, 2);
  for (std::size_t i = 0; i < 70; i += 3) {
    d.insert(d.unit_packet(i, std::vector<std::uint64_t>{i, i + 1}));
  }
  BitDecoder::packet_type reused;
  for (int t = 0; t < 50; ++t) {
    const auto opt = d.random_combination(r1);
    ASSERT_TRUE(d.random_combination_into(r2, reused));
    ASSERT_TRUE(opt.has_value());
    EXPECT_EQ(opt->coeffs, reused.coeffs);
    EXPECT_EQ(opt->payload, reused.payload);
  }
}

// The decoders are templates over URBG and must honor the generator's width:
// a 32-bit std::mt19937 must drive every transmit rule correctly (the old
// `rng() >> 11` density sampler and 64-bit bit-harvest assumed 64-bit draws).
TEST(DenseDecoderTest, DecodesWith32BitGenerator) {
  std::mt19937 rng(2024);
  const std::size_t k = 12, r = 2;
  DenseDecoder<GF256> src(k, r), dst(k, r), sparse_dst(k, r);
  for (std::size_t i = 0; i < k; ++i) {
    src.insert(src.unit_packet(i, std::vector<std::uint8_t>(r, static_cast<std::uint8_t>(i))));
  }
  int guard = 0;
  while (!dst.full_rank() && guard++ < 2000) {
    const auto p = src.random_combination(rng);
    if (p) dst.insert(*p);
  }
  ASSERT_TRUE(dst.full_rank());
  guard = 0;
  while (!sparse_dst.full_rank() && guard++ < 4000) {
    const auto p = src.random_combination(rng, 0.5);
    if (p) sparse_dst.insert(*p);
  }
  ASSERT_TRUE(sparse_dst.full_rank());
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(dst.decoded_message(i)[0], static_cast<std::uint8_t>(i));
    EXPECT_EQ(sparse_dst.decoded_message(i)[0], static_cast<std::uint8_t>(i));
  }
}

TEST(BitDecoderTest, DecodesWith32BitGenerator) {
  std::mt19937 rng(4048);
  const std::size_t k = 80;
  BitDecoder src(k, 1), dst(k, 1);
  for (std::size_t i = 0; i < k; ++i) {
    src.insert(src.unit_packet(i, std::vector<std::uint64_t>{i * 7}));
  }
  int guard = 0;
  while (!dst.full_rank() && guard++ < 4000) {
    const auto p = src.random_combination(rng);
    if (p) dst.insert(*p);
  }
  ASSERT_TRUE(dst.full_rank());
  for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(dst.decoded_message(i)[0], i * 7);
}

TEST(DenseDecoderTest, SparseDensitySamplerSelectsAtTheRequestedRate) {
  // Regression for the URBG-width/density bug: with density 0.5 over a
  // full-rank GF(2) dense decoder, each row joins with probability 1/2, so
  // the mean number of nonzero coefficients per packet must be ~k/2.
  ag::sim::Rng rng(606);
  const std::size_t k = 32;
  DenseDecoder<GF2> d(k, 0);
  for (std::size_t i = 0; i < k; ++i) d.insert(d.unit_packet(i));
  std::uint64_t nonzero = 0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    const auto p = d.random_combination(rng, 0.5);
    ASSERT_TRUE(p.has_value());
    for (auto c : p->coeffs) nonzero += c != 0;
  }
  const double mean = static_cast<double>(nonzero) / trials;
  EXPECT_NEAR(mean, k / 2.0, 1.0);
}

TEST(FMatrixTest, RrefOfIdentityIsIdentityAndSolvesSystems) {
  const std::size_t k = 5;
  FMatrix<GF256> m(k, k);
  for (std::size_t i = 0; i < k; ++i) m.at(i, i) = 1;
  EXPECT_EQ(m.rank(), k);

  // Random invertible-ish system: A x = b, then check rank of [A|b] == rank A.
  ag::sim::Rng rng(55);
  FMatrix<GF256> a(k, k);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j)
      a.at(i, j) = static_cast<std::uint8_t>(rng.uniform(256));
  std::vector<std::uint8_t> x(k);
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform(256));
  const auto b = a.mul_vector(x);
  FMatrix<GF256> aug(k, k + 1);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) aug.at(i, j) = a.at(i, j);
    aug.at(i, k) = b[i];
  }
  EXPECT_EQ(aug.rank(), a.rank());  // consistent system
}

TEST(DecoderParityTest, DenseDecodersOverDifferentFieldsAllDecode) {
  // The protocol stack is generic in q; verify decode correctness for all
  // canonical decoder choices on a tiny fixed scenario.
  ag::sim::Rng rng(13);
  const std::size_t k = 5, r = 3;
  {
    ag::core::Gf16Decoder src(k, r), dst(k, r);
    for (std::size_t i = 0; i < k; ++i)
      src.insert(src.unit_packet(i, std::vector<std::uint8_t>{static_cast<std::uint8_t>(i), 2, 3}));
    int guard = 0;
    while (!dst.full_rank() && guard++ < 1000) {
      const auto p = src.random_combination(rng);
      if (p) dst.insert(*p);
    }
    ASSERT_TRUE(dst.full_rank());
    for (std::size_t i = 0; i < k; ++i)
      EXPECT_EQ(dst.decoded_message(i)[0], static_cast<std::uint8_t>(i));
  }
  {
    ag::core::Gf65536Decoder src(k, r), dst(k, r);
    for (std::size_t i = 0; i < k; ++i)
      src.insert(src.unit_packet(i, std::vector<std::uint16_t>{static_cast<std::uint16_t>(i * 1000), 2, 3}));
    int guard = 0;
    while (!dst.full_rank() && guard++ < 1000) {
      const auto p = src.random_combination(rng);
      if (p) dst.insert(*p);
    }
    ASSERT_TRUE(dst.full_rank());
    for (std::size_t i = 0; i < k; ++i)
      EXPECT_EQ(dst.decoded_message(i)[0], static_cast<std::uint16_t>(i * 1000));
  }
}

}  // namespace
