// Differential decoder fuzz: random insert/combine sequences are checked
// against a from-scratch FMatrix Gaussian-elimination oracle, and the two
// GF(2) implementations (DenseDecoder<GF2> and the bit-packed BitDecoder)
// are checked against each other.  rank, insert verdicts (helpful or not),
// contains(), and decoded payloads must all agree -- including duplicate
// inserts, linearly dependent combinations, and the all-zero packet.
//
// After every insert each stored row is also checked for consistency: its
// payload must equal the combination of the ground-truth messages its
// coefficients select, and it must be fully reduced.  A full-rank decoder
// must reject every packet without changing a stored symbol.
//
// The incremental decoders eliminate coefficients first and payloads only
// for helpful packets, over a flat arena; the oracle re-eliminates from
// scratch every time.  Any divergence between the two is a decoder bug by
// construction.
//
// BitDecoderKernel holds BitDecoder's transmit and coefficient kernels to
// the row-loop oracles of bit_row_loop_oracle.hpp bit for bit, across word
// boundaries of k, the 64-row chunks of one random draw and payload widths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "bit_row_loop_oracle.hpp"
#include "fmatrix.hpp"
#include "core/decoders.hpp"
#include "gf/gf2.hpp"
#include "gf/gf2m.hpp"
#include "linalg/bit_decoder.hpp"
#include "linalg/dense_decoder.hpp"
#include "sim/rng.hpp"
#include "util/urbg.hpp"

namespace {

using namespace ag;

// Oracle: rank of the coefficient rows seen so far, recomputed from scratch.
template <gf::GaloisField F>
class RankOracle {
 public:
  explicit RankOracle(std::size_t k) : k_(k), m_(0, k) {}

  std::size_t rank_with(std::span<const typename F::value_type> extra) const {
    linalg::FMatrix<F> copy = m_;
    copy.append_row(extra);
    return copy.rref();
  }

  void append(std::span<const typename F::value_type> row) { m_.append_row(row); }
  std::size_t rank() const { return m_.rank(); }

 private:
  std::size_t k_;
  linalg::FMatrix<F> m_;
};

// Ground-truth message payloads: k messages of `len` symbols each.
template <gf::GaloisField F>
std::vector<std::vector<typename F::value_type>> ground_truth(std::size_t k,
                                                              std::size_t len,
                                                              sim::Rng& rng) {
  std::vector<std::vector<typename F::value_type>> x(k);
  for (std::size_t i = 0; i < k; ++i) {
    x[i].resize(len);
    for (std::size_t j = 0; j < len; ++j) {
      x[i][j] = static_cast<typename F::value_type>(util::uniform_below(rng, F::order));
    }
  }
  return x;
}

// Builds the consistent packet for coefficient vector c: payload = sum c_i x_i.
template <gf::GaloisField F>
linalg::DensePacket<F> packet_for(
    const std::vector<typename F::value_type>& c,
    const std::vector<std::vector<typename F::value_type>>& x) {
  linalg::DensePacket<F> p;
  p.coeffs = c;
  const std::size_t len = x.empty() ? 0 : x[0].size();
  p.payload.assign(len, F::zero);
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c[i] == F::zero) continue;
    for (std::size_t j = 0; j < len; ++j) {
      p.payload[j] = F::add(p.payload[j], F::mul(c[i], x[i][j]));
    }
  }
  return p;
}

// Every stored row is a consistent, fully reduced equation: its payload is
// sum coeffs_i * x_i, it is 1 at its own pivot (its first nonzero column)
// and 0 at every other row's pivot.
template <gf::GaloisField F>
void check_rows_consistent(const linalg::DenseDecoder<F>& d,
                            const std::vector<std::vector<typename F::value_type>>& x,
                            std::size_t step) {
  std::vector<std::size_t> pivot(d.rank());
  for (std::size_t i = 0; i < d.rank(); ++i) {
    const auto c = d.stored_coeff_row(i);
    pivot[i] = 0;
    while (pivot[i] < c.size() && c[pivot[i]] == F::zero) ++pivot[i];
    ASSERT_LT(pivot[i], c.size()) << "zero row " << i << " step " << step;
    ASSERT_EQ(c[pivot[i]], F::one) << "row " << i << " step " << step;
  }
  for (std::size_t i = 0; i < d.rank(); ++i) {
    const auto c = d.stored_coeff_row(i);
    for (std::size_t j = 0; j < d.rank(); ++j) {
      if (j != i) {
        ASSERT_EQ(c[pivot[j]], F::zero) << "row " << i << " step " << step;
      }
    }
    const std::vector<typename F::value_type> coeffs(c.begin(), c.end());
    const auto want = packet_for<F>(coeffs, x).payload;
    const auto got = d.stored_payload_row(i);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "payload of row " << i << " step " << step;
  }
}

// A snapshot of every stored symbol, coefficients and payload, row by row.
template <typename D>
auto stored_symbols(const D& d) {
  std::vector<typename D::value_type> out;
  for (std::size_t i = 0; i < d.rank(); ++i) {
    const auto c = d.stored_coeff_row(i);
    const auto p = d.stored_payload_row(i);
    out.insert(out.end(), c.begin(), c.end());
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

// One fuzz campaign over field F: `rounds` random inserts mixing fresh
// random vectors, exact duplicates, and random linear combinations of
// already-sent packets (guaranteed dependent once their span is covered).
template <gf::GaloisField F>
void run_differential(std::uint64_t seed, std::size_t k, std::size_t payload_len,
                      std::size_t rounds) {
  sim::Rng rng(seed);
  const auto x = ground_truth<F>(k, payload_len, rng);
  linalg::DenseDecoder<F> dut(k, payload_len);
  RankOracle<F> oracle(k);
  std::vector<std::vector<typename F::value_type>> sent;

  for (std::size_t step = 0; step < rounds; ++step) {
    std::vector<typename F::value_type> c(k, F::zero);
    const auto kind = util::uniform_below(rng, 4);
    if (kind == 0 && !sent.empty()) {
      // Exact duplicate of an earlier packet.
      c = sent[util::uniform_below(rng, sent.size())];
    } else if (kind == 1 && sent.size() >= 2) {
      // Random linear combination of earlier packets (dependent on them).
      for (const auto& s : sent) {
        const auto w =
            static_cast<typename F::value_type>(util::uniform_below(rng, F::order));
        if (w == F::zero) continue;
        for (std::size_t i = 0; i < k; ++i) c[i] = F::add(c[i], F::mul(w, s[i]));
      }
    } else {
      // Fresh uniform random vector (may be the zero packet).
      for (std::size_t i = 0; i < k; ++i) {
        c[i] = static_cast<typename F::value_type>(util::uniform_below(rng, F::order));
      }
    }

    // Differential checks BEFORE insertion: contains() vs oracle.
    const bool in_span = oracle.rank_with(c) == oracle.rank();
    ASSERT_EQ(dut.contains(c), in_span) << "step " << step;

    const auto pkt = packet_for<F>(c, x);
    const std::size_t rank_before = dut.rank();
    const bool helpful = dut.insert(pkt);
    oracle.append(c);
    sent.push_back(c);

    ASSERT_EQ(helpful, !in_span) << "step " << step;
    ASSERT_EQ(dut.rank(), rank_before + (helpful ? 1 : 0));
    ASSERT_EQ(dut.rank(), oracle.rank()) << "step " << step;
    ASSERT_TRUE(dut.contains(c));  // own row space always contains the insert
    ASSERT_NO_FATAL_FAILURE(check_rows_consistent<F>(dut, x, step));
  }

  // Drive to full rank with unit vectors and check every decoded payload
  // against the ground truth.
  for (std::size_t i = 0; i < k; ++i) {
    std::vector<typename F::value_type> e(k, F::zero);
    e[i] = F::one;
    dut.insert(packet_for<F>(e, x));
    oracle.append(e);
  }
  ASSERT_TRUE(dut.full_rank());
  ASSERT_EQ(oracle.rank(), k);
  ASSERT_NO_FATAL_FAILURE(check_rows_consistent<F>(dut, x, rounds));

  // A full-rank decoder rejects everything and changes no stored symbol,
  // even for a packet whose payload contradicts the stored equations.
  const auto before = stored_symbols(dut);
  for (int trial = 0; trial < 8; ++trial) {
    linalg::DensePacket<F> junk;
    junk.coeffs.resize(k);
    junk.payload.resize(payload_len);
    for (auto& v : junk.coeffs) {
      v = static_cast<typename F::value_type>(util::uniform_below(rng, F::order));
    }
    for (auto& v : junk.payload) {
      v = static_cast<typename F::value_type>(util::uniform_below(rng, F::order));
    }
    ASSERT_FALSE(dut.insert(junk));
  }
  ASSERT_EQ(stored_symbols(dut), before);
  for (std::size_t i = 0; i < k; ++i) {
    const auto got = dut.decoded_message(i);
    ASSERT_EQ(got.size(), payload_len);
    for (std::size_t j = 0; j < payload_len; ++j) {
      ASSERT_EQ(got[j], x[i][j]) << "message " << i << " symbol " << j;
    }
  }
}

TEST(DifferentialDecoder, DenseGf2AgainstOracle) {
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    run_differential<gf::GF2>(seed, 10, 3, 60);
  }
}

TEST(DifferentialDecoder, DenseGf16AgainstOracle) {
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    run_differential<gf::GF16>(seed, 9, 3, 50);
  }
}

TEST(DifferentialDecoder, DenseGf256AgainstOracle) {
  for (const std::uint64_t seed : {31u, 32u, 33u, 34u}) {
    run_differential<gf::GF256>(seed, 8, 4, 50);
  }
}

TEST(DifferentialDecoder, DenseGf65536AgainstOracle) {
  run_differential<gf::GF65536>(41, 6, 2, 40);
}

// 200 = 3 * 64 + 8 payload bytes: every SIMD kernel runs its vector body
// and its tail on the payload eliminations.
TEST(DifferentialDecoder, DenseGf256LongPayloadAgainstOracle) {
  for (const std::uint64_t seed : {35u, 36u}) {
    run_differential<gf::GF256>(seed, 16, 200, 60);
  }
}

// --- BitDecoder vs DenseDecoder<GF2> ----------------------------------------

// Converts a GF(2) symbol vector to the packed word representation.
std::vector<std::uint64_t> to_words(const std::vector<std::uint8_t>& bits) {
  std::vector<std::uint64_t> words((bits.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) words[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  return words;
}

TEST(DifferentialDecoder, BitDecoderMatchesDenseGf2OnRandomStreams) {
  // Same insert sequence (duplicates, dependencies, zero packets included)
  // into both GF(2) implementations: every insert verdict, rank, and
  // contains() probe must agree, at several k straddling word boundaries.
  for (const std::size_t k : {5u, 64u, 65u, 100u}) {
    sim::Rng rng(5000 + k);
    linalg::DenseDecoder<gf::GF2> dense(k, 0);
    linalg::BitDecoder bit(k, 0);
    std::vector<std::vector<std::uint8_t>> sent;
    for (std::size_t step = 0; step < 3 * k; ++step) {
      std::vector<std::uint8_t> c(k, 0);
      const auto kind = util::uniform_below(rng, 4);
      if (kind == 0 && !sent.empty()) {
        c = sent[util::uniform_below(rng, sent.size())];
      } else if (kind == 1 && sent.size() >= 2) {
        for (const auto& s : sent) {
          if (util::uniform_below(rng, 2) == 0) continue;
          for (std::size_t i = 0; i < k; ++i) c[i] ^= s[i];
        }
      } else {
        for (std::size_t i = 0; i < k; ++i) {
          c[i] = static_cast<std::uint8_t>(util::uniform_below(rng, 2));
        }
      }
      const auto packed = to_words(c);
      ASSERT_EQ(dense.contains(c), bit.contains(packed)) << "k=" << k;
      linalg::DensePacket<gf::GF2> dp;
      dp.coeffs = c;
      linalg::BitPacket bp;
      bp.coeffs = packed;
      const bool dh = dense.insert(dp);
      const bool bh = bit.insert(bp);
      ASSERT_EQ(dh, bh) << "k=" << k << " step=" << step;
      ASSERT_EQ(dense.rank(), bit.rank());
      ASSERT_TRUE(!dh || bit.contains(packed));
      sent.push_back(c);
    }
  }
}

// The BitDecoder campaign against the GF(2) oracle, with payloads wider
// than gf::kInlineXorWords so the payload XORs go through the backend
// kernels.  After every insert each stored row must be fully reduced (zero
// at every other row's pivot) and carry the XOR of the messages its bits
// select.
void run_bit_differential(std::uint64_t seed, std::size_t k, std::size_t payload_words,
                          std::size_t rounds) {
  sim::Rng rng(seed);
  std::vector<std::vector<std::uint64_t>> x(k, std::vector<std::uint64_t>(payload_words));
  for (auto& xi : x) {
    for (auto& w : xi) w = util::random_bits(rng, 64);
  }
  auto packet_for_bits = [&](const std::vector<std::uint8_t>& c) {
    linalg::BitPacket p;
    p.coeffs = to_words(c);
    p.payload.assign(payload_words, 0);
    for (std::size_t i = 0; i < k; ++i) {
      if (c[i] == 0) continue;
      for (std::size_t j = 0; j < payload_words; ++j) p.payload[j] ^= x[i][j];
    }
    return p;
  };
  auto bit_of = [](std::span<const std::uint64_t> words, std::size_t i) {
    return static_cast<std::uint8_t>((words[i / 64] >> (i % 64)) & 1);
  };
  auto check_rows_consistent = [&](const linalg::BitDecoder& d, std::size_t step) {
    std::vector<std::size_t> pivot(d.rank());
    for (std::size_t r = 0; r < d.rank(); ++r) {
      const auto c = d.stored_coeff_row(r);
      pivot[r] = 0;
      while (pivot[r] < k && bit_of(c, pivot[r]) == 0) ++pivot[r];
      ASSERT_LT(pivot[r], k) << "zero row " << r << " step " << step;
    }
    for (std::size_t r = 0; r < d.rank(); ++r) {
      const auto c = d.stored_coeff_row(r);
      std::vector<std::uint8_t> bits(k);
      for (std::size_t i = 0; i < k; ++i) bits[i] = bit_of(c, i);
      for (std::size_t q = 0; q < d.rank(); ++q) {
        if (q != r) {
          ASSERT_EQ(bits[pivot[q]], 0) << "row " << r << " step " << step;
        }
      }
      ASSERT_EQ(to_words(bits), std::vector<std::uint64_t>(c.begin(), c.end()))
          << "bits above k in row " << r << " step " << step;
      const auto want = packet_for_bits(bits).payload;
      const auto got = d.stored_payload_row(r);
      ASSERT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), want)
          << "payload of row " << r << " step " << step;
    }
  };

  linalg::BitDecoder dut(k, payload_words);
  RankOracle<gf::GF2> oracle(k);
  std::vector<std::vector<std::uint8_t>> sent;
  for (std::size_t step = 0; step < rounds; ++step) {
    std::vector<std::uint8_t> c(k, 0);
    const auto kind = util::uniform_below(rng, 4);
    if (kind == 0 && !sent.empty()) {
      c = sent[util::uniform_below(rng, sent.size())];
    } else if (kind == 1 && sent.size() >= 2) {
      for (const auto& prev : sent) {
        if (util::uniform_below(rng, 2) == 0) continue;
        for (std::size_t i = 0; i < k; ++i) c[i] ^= prev[i];
      }
    } else {
      for (auto& b : c) b = static_cast<std::uint8_t>(util::uniform_below(rng, 2));
    }
    const bool in_span = oracle.rank_with(c) == oracle.rank();
    const auto pkt = packet_for_bits(c);
    ASSERT_EQ(dut.contains(pkt.coeffs), in_span) << "step " << step;
    const std::size_t rank_before = dut.rank();
    const bool helpful = dut.insert(pkt);
    oracle.append(c);
    sent.push_back(c);
    ASSERT_EQ(helpful, !in_span) << "step " << step;
    ASSERT_EQ(dut.rank(), rank_before + (helpful ? 1 : 0));
    ASSERT_EQ(dut.rank(), oracle.rank()) << "step " << step;
    ASSERT_NO_FATAL_FAILURE(check_rows_consistent(dut, step));
  }

  for (std::size_t i = 0; i < k; ++i) {
    std::vector<std::uint8_t> e(k, 0);
    e[i] = 1;
    dut.insert(packet_for_bits(e));
  }
  ASSERT_TRUE(dut.full_rank());
  ASSERT_NO_FATAL_FAILURE(check_rows_consistent(dut, rounds));

  const auto before = stored_symbols(dut);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::uint8_t> c(k);
    for (auto& b : c) b = static_cast<std::uint8_t>(util::uniform_below(rng, 2));
    auto junk = packet_for_bits(c);
    for (auto& w : junk.payload) w = util::random_bits(rng, 64);
    ASSERT_FALSE(dut.insert(junk));
  }
  ASSERT_EQ(stored_symbols(dut), before);
  for (std::size_t i = 0; i < k; ++i) {
    const auto got = dut.decoded_message(i);
    ASSERT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), x[i]) << "message " << i;
  }
}

TEST(DifferentialDecoder, BitDecoderWidePayloadAgainstOracle) {
  run_bit_differential(51, 16, 9, 60);
  run_bit_differential(52, 70, 6, 160);
}

TEST(DifferentialDecoder, BitDecoderAndDenseGf2DecodeSamePayloads) {
  // Full end-to-end agreement: both implementations fed random combinations
  // from a full-rank source must decode the identical ground truth.  The
  // Dense payload carries each bit as one GF(2) symbol; the BitDecoder
  // carries the same bits packed into one payload word.
  const std::size_t k = 12, payload_bits = 8;
  sim::Rng rng(606);
  std::vector<std::vector<std::uint8_t>> truth(k);
  for (auto& t : truth) {
    t.resize(payload_bits);
    for (auto& b : t) b = static_cast<std::uint8_t>(util::uniform_below(rng, 2));
  }
  linalg::DenseDecoder<gf::GF2> dense(k, payload_bits);
  linalg::BitDecoder bit(k, 1);
  // Source holds all unit equations.
  for (std::size_t i = 0; i < k; ++i) {
    linalg::DensePacket<gf::GF2> dp;
    dp.coeffs.assign(k, 0);
    dp.coeffs[i] = 1;
    dp.payload = truth[i];
    linalg::BitPacket bp;
    bp.coeffs = to_words(dp.coeffs);
    bp.payload = to_words(truth[i]);
    // Feed the same random combinations by construction: combine a random
    // subset of units plus this unit so both decoders see identical streams.
    dense.insert(dp);
    bit.insert(bp);
  }
  ASSERT_TRUE(dense.full_rank());
  ASSERT_TRUE(bit.full_rank());
  for (std::size_t i = 0; i < k; ++i) {
    const auto dm = dense.decoded_message(i);
    const auto bm = bit.decoded_message(i);
    ASSERT_EQ(dm.size(), payload_bits);
    ASSERT_EQ(bm.size(), 1u);
    for (std::size_t j = 0; j < payload_bits; ++j) {
      EXPECT_EQ(dm[j], truth[i][j]);
      EXPECT_EQ((bm[0] >> j) & 1, truth[i][j]) << "i=" << i << " bit " << j;
    }
  }
}

TEST(DifferentialDecoder, RandomCombinationsStayInsideSourceRowSpace) {
  // Property: every packet emitted by random_combination lies in the
  // emitter's row space (oracle-checked), for dense and bit decoders.
  const std::size_t k = 16;
  sim::Rng rng(707);
  linalg::DenseDecoder<gf::GF256> src(k, 0);
  RankOracle<gf::GF256> oracle(k);
  for (std::size_t i = 0; i < k / 2; ++i) {
    std::vector<std::uint8_t> c(k, 0);
    for (auto& v : c) v = static_cast<std::uint8_t>(util::uniform_below(rng, 256));
    linalg::DensePacket<gf::GF256> p;
    p.coeffs = c;
    if (src.insert(p)) oracle.append(c);
  }
  for (int trial = 0; trial < 50; ++trial) {
    const auto pkt = src.random_combination(rng);
    ASSERT_TRUE(pkt.has_value());
    EXPECT_EQ(oracle.rank_with(pkt->coeffs), oracle.rank());
    EXPECT_TRUE(src.contains(pkt->coeffs));
  }
}

TEST(DifferentialDecoder, ZeroAndDuplicateInsertsAreNeverHelpful) {
  for (const std::size_t k : {1u, 7u, 33u}) {
    linalg::DenseDecoder<gf::GF16> d(k, 0);
    std::vector<std::uint8_t> zero(k, 0);
    linalg::DensePacket<gf::GF16> zp;
    zp.coeffs = zero;
    EXPECT_FALSE(d.insert(zp));
    EXPECT_TRUE(d.contains(zero));  // the zero vector is in every row space
    const auto up = d.unit_packet(0);
    EXPECT_TRUE(d.insert(up));
    EXPECT_FALSE(d.insert(up));  // duplicate
    EXPECT_EQ(d.rank(), 1u);
    linalg::BitDecoder b(k, 0);
    linalg::BitPacket bz;
    bz.coeffs.assign(linalg::BitDecoder::words_for(k), 0);
    EXPECT_FALSE(b.insert(bz));
    EXPECT_TRUE(b.contains(bz.coeffs));
    const auto bu = b.unit_packet(0);
    EXPECT_TRUE(b.insert(bu));
    EXPECT_FALSE(b.insert(bu));
    EXPECT_EQ(b.rank(), 1u);
  }
}

// --- Payload on demand -------------------------------------------------------

// Each stored row's pivot column (its first nonzero coefficient), in row order.
template <typename D>
std::vector<std::size_t> pivot_columns(const D& d) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < d.rank(); ++i) {
    const auto c = d.stored_coeff_row(i);
    std::size_t p = 0;
    while (p < c.size() && c[p] == 0) ++p;
    out.push_back(p);
  }
  return out;
}

// insert_from(coeffs, sender) equals insert() of the packet the sender
// combined eagerly: the coefficient-only rule makes the same draws and the
// same coefficients, and the insert gives the same verdict and leaves the
// same stored rows, pivots and rank -- also when the sender gains a row, and
// so back-eliminates its old rows, between the draw and the insert.
template <gf::GaloisField F>
void check_insert_from(std::uint64_t seed, std::size_t payload_len) {
  using V = typename F::value_type;
  const std::size_t k = 16;
  sim::Rng rng(seed);
  const auto x = ground_truth<F>(k, payload_len, rng);
  const auto random_equation = [&] {
    std::vector<V> c(k);
    for (auto& v : c) v = static_cast<V>(util::uniform_below(rng, F::order));
    return packet_for<F>(c, x);
  };
  std::size_t helpful = 0, dependent = 0, back_eliminated = 0;
  for (std::uint64_t trial = 0; trial < 48; ++trial) {
    SCOPED_TRACE(testing::Message() << "payload=" << payload_len << " trial=" << trial);
    linalg::DenseDecoder<F> sender(k, payload_len), receiver(k, payload_len);
    const std::size_t sender_rank = 1 + util::uniform_below(rng, k - 1);
    while (sender.rank() < sender_rank) sender.insert(random_equation());
    if (trial % 3 == 0) {
      // The receiver already spans the sender: every packet is dependent.
      while (receiver.rank() < sender.rank()) receiver.insert(*sender.random_combination(rng));
    } else {
      const std::size_t receiver_rank = util::uniform_below(rng, k + 1);
      while (receiver.rank() < receiver_rank) receiver.insert(random_equation());
    }

    sim::Rng eager_rng(seed * 1000 + trial);
    sim::Rng lazy_rng = eager_rng;
    linalg::DensePacket<F> pkt;
    std::vector<V> coeffs;
    ASSERT_TRUE(sender.random_combination_into(eager_rng, pkt));
    ASSERT_TRUE(sender.random_coefficients_into(lazy_rng, coeffs));
    ASSERT_EQ(coeffs, pkt.coeffs);
    ASSERT_EQ(eager_rng(), lazy_rng()) << "the two rules drew differently";

    if (trial % 2 == 1) {
      const auto old_rows = stored_symbols(sender);
      const std::size_t before = sender.rank();
      while (sender.rank() == before) sender.insert(random_equation());
      const auto new_rows = stored_symbols(sender);
      if (!std::equal(old_rows.begin(), old_rows.end(), new_rows.begin())) ++back_eliminated;
    }

    auto eager = receiver;
    auto lazy = receiver;
    const bool want = eager.insert(pkt);
    ASSERT_EQ(lazy.insert_from(coeffs, sender), want);
    ++(want ? helpful : dependent);
    ASSERT_EQ(lazy.rank(), eager.rank());
    ASSERT_EQ(pivot_columns(lazy), pivot_columns(eager));
    ASSERT_EQ(stored_symbols(lazy), stored_symbols(eager));

    // Filled to full rank alike, both read off the same messages: the
    // read-off goes through the pivot map.
    for (std::size_t i = 0; i < k; ++i) {
      eager.insert(eager.unit_packet(i, x[i]));
      lazy.insert(lazy.unit_packet(i, x[i]));
    }
    for (std::size_t i = 0; i < k; ++i) {
      const auto a = eager.decoded_message(i), b = lazy.decoded_message(i);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "message " << i;
    }
  }
  EXPECT_GT(helpful, 0u);
  EXPECT_GT(dependent, 0u);
  EXPECT_GT(back_eliminated, 0u);
}

TEST(DifferentialDecoder, InsertFromSenderMatchesEagerInsert) {
  // 200 symbols leave a SIMD tail behind every vector width.
  for (const std::size_t payload : {0u, 8u, 200u, 1024u}) {
    check_insert_from<gf::GF2>(901 + payload, payload);
    check_insert_from<gf::GF16>(902 + payload, payload);
    check_insert_from<gf::GF256>(903 + payload, payload);
  }
}

// --- BitDecoder kernels vs the row-loop oracles ----------------------------

// The combination equals the per-row loop's packet bit for bit and leaves
// the RNG where the loop leaves it, at every (k, rank, payload); one output
// packet is reused throughout, as the engines do.
TEST(BitDecoderKernel, RandomCombinationMatchesRowLoopOracle) {
  linalg::BitPacket got;
  for (const std::size_t k : test::kKernelK) {
    for (const std::size_t payload : {0u, 3u, 9u}) {
      for (const std::size_t r : test::kernel_ranks(k)) {
        SCOPED_TRACE(testing::Message() << "k=" << k << " payload=" << payload << " rank=" << r);
        sim::Rng fill(7000 + 31 * k + payload);
        linalg::BitDecoder d(k, payload);
        std::vector<linalg::BitPacket> sent;
        while (d.rank() < r) d.insert(test::kernel_packet(k, payload, sent, fill));
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
          sim::Rng a(seed * 977 + r), b(seed * 977 + r);
          linalg::BitPacket want;
          ASSERT_TRUE(d.random_combination_into(a, got));
          ASSERT_TRUE(test::row_loop_combination(d, b, want));
          ASSERT_EQ(got.coeffs, want.coeffs) << "seed " << seed;
          ASSERT_EQ(got.payload, want.payload) << "seed " << seed;
          ASSERT_EQ(a(), b()) << "RNG state diverged, seed " << seed;
        }
      }
    }
  }
  // An empty decoder emits nothing and draws nothing.
  linalg::BitDecoder empty(70, 3);
  sim::Rng a(5), b(5);
  EXPECT_FALSE(empty.random_combination_into(a, got));
  EXPECT_EQ(a(), b());
}

// insert() and contains() verdicts and every stored row equal the row-loop
// RREF's on mixed streams (dense, sparse, repeated, dependent and zero
// packets), with and without a payload.
TEST(BitDecoderKernel, InsertAndContainsMatchRowLoopOracle) {
  for (const std::size_t k : test::kKernelK) {
    for (const std::size_t payload : {0u, 3u}) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " payload=" << payload);
      sim::Rng rng(8000 + 7 * k + payload);
      linalg::BitDecoder d(k, payload);
      test::RowLoopRref oracle(k);
      std::vector<linalg::BitPacket> sent;
      for (std::size_t step = 0; step < 3 * k + 8; ++step) {
        const auto p = test::kernel_packet(k, payload, sent, rng);
        ASSERT_EQ(d.contains(p.coeffs), oracle.contains(p.coeffs)) << "step " << step;
        ASSERT_EQ(d.insert(p), oracle.insert(p.coeffs)) << "step " << step;
        ASSERT_EQ(d.rank(), oracle.rank());
        for (std::size_t i = 0; i < d.rank(); ++i) {
          const auto row = d.stored_coeff_row(i);
          ASSERT_EQ(std::vector<std::uint64_t>(row.begin(), row.end()), oracle.row(i))
              << "row " << i << " step " << step;
        }
      }
    }
  }
}

}  // namespace
