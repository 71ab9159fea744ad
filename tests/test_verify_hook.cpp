// Differential tests for the insert-time verification hook (linalg/verify.hpp).
//
// The contract has two halves:
//   (a) completeness -- every packet a canonical encoder can produce, and
//       every frame the wire decoder accepts, must pass the hook (classify()
//       never says Malformed for honest traffic), and Helpful/Redundant must
//       agree exactly with what insert() does;
//   (b) soundness -- every forgery the Byzantine layer can emit and every
//       malformed-frame family of the fuzz corpus must be rejected (by the
//       hook for in-process packets, by decode_into for wire frames).
//
// The corpus half replays the committed fuzz/corpus seeds (path baked in at
// compile time; AG_CORPUS_DIR overrides, which is how the generated-corpus
// ctest reruns the same assertions against a fresh gen_corpus run).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/byzantine.hpp"
#include "core/decoders.hpp"
#include "core/swarm.hpp"
#include "linalg/rank_tracker.hpp"
#include "linalg/verify.hpp"
#include "net/corrupt.hpp"
#include "net/wire.hpp"
#include "sim/rng.hpp"

namespace {

using namespace ag;
using linalg::PacketClass;

// ---------------------------------------------------------------------------
// (a) Completeness: honest packets are never Malformed, and the
//     Helpful/Redundant split mirrors insert() exactly.
// ---------------------------------------------------------------------------

template <typename D>
void honest_stream_agrees(std::uint64_t seed) {
  for (const std::size_t k : {1u, 7u, 13u, 64u, 65u}) {
    sim::Rng rng(seed + k);
    D src(k, 2), dst(k, 2);
    for (std::size_t i = 0; i < k; ++i) src.insert(src.unit_packet(i));
    for (std::size_t i = 0; i < 2 * k + 8; ++i) {
      const auto pkt = src.random_combination(rng);
      ASSERT_TRUE(pkt.has_value());
      const PacketClass cls = linalg::classify(dst, *pkt);
      ASSERT_NE(cls, PacketClass::Malformed) << "k=" << k << " i=" << i;
      const bool helpful = dst.insert(*pkt);
      EXPECT_EQ(cls == PacketClass::Helpful, helpful) << "k=" << k << " i=" << i;
    }
    EXPECT_TRUE(dst.full_rank()) << "k=" << k;
  }
}

TEST(VerifyHookHonest, Gf2BitStream) { honest_stream_agrees<core::Gf2Decoder>(31); }
TEST(VerifyHookHonest, Gf2DenseStream) { honest_stream_agrees<core::Gf2DenseDecoder>(32); }
TEST(VerifyHookHonest, Gf16Stream) { honest_stream_agrees<core::Gf16Decoder>(33); }
TEST(VerifyHookHonest, Gf256Stream) { honest_stream_agrees<core::Gf256Decoder>(34); }
TEST(VerifyHookHonest, Gf65536Stream) { honest_stream_agrees<core::Gf65536Decoder>(35); }

// The rank-only trackers enforce the same shape contract (payload_length() is
// 0, so any nonempty payload is a shape violation for them -- the hook is how
// the pooled large-n stores stay in the Byzantine story).
TEST(VerifyHookHonest, BitRankTrackerAgreesWithBitDecoder) {
  const std::size_t k = 13;
  sim::Rng rng(36);
  core::Gf2Decoder src(k, 0);
  for (std::size_t i = 0; i < k; ++i) src.insert(src.unit_packet(i));
  linalg::BitRankTracker trk(k);
  for (std::size_t i = 0; i < 2 * k; ++i) {
    const auto pkt = src.random_combination(rng);
    ASSERT_TRUE(pkt.has_value());
    const PacketClass cls = linalg::classify(trk, *pkt);
    ASSERT_NE(cls, PacketClass::Malformed);
    EXPECT_EQ(cls == PacketClass::Helpful, trk.insert(*pkt));
  }
  EXPECT_TRUE(trk.full_rank());
}

// ---------------------------------------------------------------------------
// (b) Soundness: every Byzantine forgery family is classified as the
//     taxonomy says, for every field.
// ---------------------------------------------------------------------------

template <typename D>
void forgeries_rejected(std::uint64_t seed) {
  const std::size_t k = 9;
  sim::Rng rng(seed);
  sim::Rng forge_rng(seed ^ 0x5CADu);
  D src(k, 2), dst(k, 2);
  for (std::size_t i = 0; i < k; ++i) src.insert(src.unit_packet(i));
  const core::ByzantineShape sh{k, dst.payload_length()};
  for (int trial = 0; trial < 64; ++trial) {
    auto honest = src.random_combination(rng);
    ASSERT_TRUE(honest.has_value());
    auto pkt = *honest;
    core::forge_in_place(forge_rng, sim::AttackMode::MalformedCoeffs, sh, pkt);
    EXPECT_EQ(linalg::classify(dst, pkt), PacketClass::Malformed) << trial;
    pkt = *honest;
    core::forge_in_place(forge_rng, sim::AttackMode::GarbagePayload, sh, pkt);
    EXPECT_EQ(linalg::classify(dst, pkt), PacketClass::Malformed) << trial;
    pkt = *honest;
    core::forge_in_place(forge_rng, sim::AttackMode::RankWaste, sh, pkt);
    // The all-zero combination is well-formed but dependent against every
    // state: Redundant, and insert() must refuse it even on an empty decoder.
    EXPECT_EQ(linalg::classify(dst, pkt), PacketClass::Redundant) << trial;
    EXPECT_FALSE(dst.insert(pkt)) << trial;
  }
  EXPECT_EQ(dst.rank(), 0u) << "a forgery advanced rank";
}

TEST(VerifyHookForgery, Gf2Bit) { forgeries_rejected<core::Gf2Decoder>(41); }
TEST(VerifyHookForgery, Gf2Dense) { forgeries_rejected<core::Gf2DenseDecoder>(42); }
TEST(VerifyHookForgery, Gf16) { forgeries_rejected<core::Gf16Decoder>(43); }
TEST(VerifyHookForgery, Gf256) { forgeries_rejected<core::Gf256Decoder>(44); }
TEST(VerifyHookForgery, Gf65536) { forgeries_rejected<core::Gf65536Decoder>(45); }

// receive_from() takes a coefficient vector whose payload the receiver builds
// from the sender's rows, so the hook checks the coefficients alone: a
// wrong-length or out-of-range vector is rejected and counted before it
// reaches a decoder, and a well-formed one is inserted and tallied.
TEST(VerifyHookReceiveFrom, RejectsAndCountsMalformedCoefficients) {
  using Swarm = core::RlncSwarm<core::Gf16Decoder>;
  const std::size_t k = 4, payload = 3;
  Swarm swarm(core::Unseeded{}, 2, k, payload);
  for (std::size_t i = 0; i < k; ++i) {
    swarm.receive(0, swarm.node(0).unit_packet(i, Swarm::expected_payload(i, payload)), 0);
  }
  swarm.enable_verification();
  const std::vector<std::uint8_t> too_short(k - 1, 1), too_long(k + 1, 1);
  const std::vector<std::uint8_t> out_of_field = {1, 16, 0, 0};  // GF(16) has 0..15
  EXPECT_FALSE(swarm.receive_from(1, 0, too_short, 1));
  EXPECT_FALSE(swarm.receive_from(1, 0, too_long, 1));
  EXPECT_FALSE(swarm.receive_from(1, 0, out_of_field, 1));
  EXPECT_EQ(swarm.malformed_receives(), 3u);
  EXPECT_EQ(swarm.malformed_at(1), 3u);
  EXPECT_EQ(swarm.malformed_at(0), 0u);
  EXPECT_EQ(swarm.helpful_receives(), k);  // the sender's seeding only
  EXPECT_EQ(swarm.useless_receives(), 0u);
  EXPECT_EQ(swarm.node(1).rank(), 0u);

  const std::vector<std::uint8_t> mixed = {1, 2, 15, 7};
  EXPECT_TRUE(swarm.receive_from(1, 0, mixed, 2));
  EXPECT_FALSE(swarm.receive_from(1, 0, mixed, 2));
  for (std::size_t i = 1; i < k; ++i) {
    std::vector<std::uint8_t> unit(k, 0);
    unit[i] = 1;
    EXPECT_TRUE(swarm.receive_from(1, 0, unit, 3));
  }
  EXPECT_EQ(swarm.malformed_receives(), 3u);
  EXPECT_EQ(swarm.helpful_receives(), 2 * k);
  EXPECT_EQ(swarm.useless_receives(), 1u);
  EXPECT_EQ(swarm.finish_round(1), 3u);
  EXPECT_TRUE(swarm.all_complete());
  for (std::size_t i = 0; i < k; ++i) EXPECT_TRUE(swarm.decodes_correctly(1, i)) << i;
}

// ---------------------------------------------------------------------------
// Wire-level soundness: every corrupt_frame() family must be rejected by
// decode_into, for every field that can express it.
// ---------------------------------------------------------------------------

template <typename P>
void corruptor_families_rejected(const P& pkt, std::size_t k) {
  std::vector<std::uint8_t> frame;
  net::encode_into(pkt, k, frame);
  net::WireHeader hdr;
  ASSERT_EQ(net::read_header(frame, hdr), net::DecodeStatus::Ok);
  std::size_t expressed = 0;
  for (const auto family : net::kAllCorruptionFamilies) {
    const auto bad = net::corrupt_frame(frame, family);
    if (!bad) continue;  // family not expressible for this field/shape
    ++expressed;
    P out;
    const auto st = net::decode_into(frame, hdr.k, hdr.payload_len, out);
    ASSERT_EQ(st, net::DecodeStatus::Ok);  // the pristine frame still decodes
    const auto bad_st = net::decode_into(*bad, hdr.k, hdr.payload_len, out);
    EXPECT_NE(bad_st, net::DecodeStatus::Ok) << net::to_string(family);
  }
  // Truncate/BadMagic/.../Trailing are always expressible: at least 8 families.
  EXPECT_GE(expressed, 8u);
}

TEST(WireCorruptor, AllFamiliesRejectedEveryField) {
  sim::Rng rng(77);
  const std::size_t k = 13;
  {
    linalg::BitPacket p;
    p.coeffs.assign(linalg::BitDecoder::words_for(k), 0);
    p.coeffs[0] = 0b1011;
    p.payload.assign(2, rng());
    corruptor_families_rejected(p, k);
  }
  const auto dense = [&](auto field_tag) {
    using F = decltype(field_tag);
    linalg::DensePacket<F> p;
    p.coeffs.resize(k);
    p.payload.resize(4);
    for (auto& c : p.coeffs)
      c = static_cast<typename F::value_type>(rng.uniform(F::order));
    for (auto& s : p.payload)
      s = static_cast<typename F::value_type>(rng.uniform(F::order));
    corruptor_families_rejected(p, k);
  };
  dense(gf::GF16{});
  dense(gf::GF256{});
  dense(gf::GF65536{});
}

TEST(WireCorruptor, RefusesInvalidInputFrames) {
  const std::vector<std::uint8_t> junk = {0x00, 0x01, 0x02};
  for (const auto family : net::kAllCorruptionFamilies) {
    EXPECT_FALSE(net::corrupt_frame(junk, family).has_value());
  }
}

// ---------------------------------------------------------------------------
// Corpus replay through the hook: wire acceptance and hook acceptance must
// agree on every committed seed; every bad_* seed must fail to decode.
// ---------------------------------------------------------------------------

#ifndef AG_COMMITTED_CORPUS
#define AG_COMMITTED_CORPUS ""
#endif

std::filesystem::path corpus_dir() {
  if (const char* env = std::getenv("AG_CORPUS_DIR")) return env;
  return AG_COMMITTED_CORPUS;
}

// Decodes `frame` self-consistently (expected shape taken from its own
// header) and, on success, runs the decoded packet through classify()
// against a decoder of that shape.  Returns decode status.
template <typename P, typename D>
net::DecodeStatus decode_and_classify(const std::vector<std::uint8_t>& frame,
                                      const net::WireHeader& hdr,
                                      const std::string& name) {
  P pkt;
  const auto st = net::decode_into(frame, hdr.k, hdr.payload_len, pkt);
  if (st != net::DecodeStatus::Ok) return st;
  D d(hdr.k, hdr.payload_len);
  EXPECT_NE(linalg::classify(d, pkt), PacketClass::Malformed)
      << name << ": wire decoder accepted a frame the hook rejects";
  return st;
}

TEST(CorpusHook, WireAcceptanceImpliesHookAcceptance) {
  const auto dir = corpus_dir();
  ASSERT_FALSE(dir.empty());
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::map<net::WireField, std::size_t> valid_per_field;
  std::size_t bad_seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    std::ifstream in(entry.path(), std::ios::binary);
    ASSERT_TRUE(in) << name;
    std::vector<std::uint8_t> frame((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
    net::WireHeader hdr;
    auto st = net::read_header(frame, hdr);
    if (st == net::DecodeStatus::Ok) {
      switch (hdr.field) {
        case net::WireField::Control: {
          net::ControlFrame ctl;
          st = net::decode_control(frame, ctl);
          break;
        }
        case net::WireField::Gf2Bit:
          st = decode_and_classify<linalg::BitPacket, core::Gf2Decoder>(frame, hdr,
                                                                        name);
          break;
        case net::WireField::Gf16:
          st = decode_and_classify<linalg::DensePacket<gf::GF16>, core::Gf16Decoder>(
              frame, hdr, name);
          break;
        case net::WireField::Gf256:
          st = decode_and_classify<linalg::DensePacket<gf::GF256>,
                                   core::Gf256Decoder>(frame, hdr, name);
          break;
        case net::WireField::Gf65536:
          st = decode_and_classify<linalg::DensePacket<gf::GF65536>,
                                   core::Gf65536Decoder>(frame, hdr, name);
          break;
      }
    }
    if (name.rfind("valid_", 0) == 0) {
      ++valid_per_field[hdr.field];
      EXPECT_EQ(st, net::DecodeStatus::Ok) << name;
    } else if (name.rfind("bad_", 0) == 0) {
      ++bad_seen;
      EXPECT_NE(st, net::DecodeStatus::Ok) << name;
    }
  }
  // The committed corpus carries both populations; an empty sweep means the
  // path is wrong, not that the property holds.  gen_corpus writes a 6 k x 4
  // length grid of valid frames per packet field, plus control frames.
  for (const auto field : {net::WireField::Gf2Bit, net::WireField::Gf16,
                           net::WireField::Gf256, net::WireField::Gf65536}) {
    EXPECT_GE(valid_per_field[field], 24u) << net::to_string(field);
  }
  EXPECT_GE(valid_per_field[net::WireField::Control], 1u);
  EXPECT_GT(bad_seen, 15u);
}

}  // namespace
