// Wire-format coverage (net/wire.hpp): round-trip fuzz across every packet
// field and a shape grid straddling the bit-packing boundaries, canonical
// re-encode byte-identity, and a malformed-frame corpus proving the
// robustness contract -- every hostile input is REJECTED with the right
// DecodeStatus, never delivered and never fatal.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/wire.hpp"
#include "sim/rng.hpp"

namespace {

using namespace ag;
using net::DecodeStatus;
using net::WireField;

using Gf16Pkt = linalg::DensePacket<gf::GF16>;
using Gf256Pkt = linalg::DensePacket<gf::GF256>;
using Gf64kPkt = linalg::DensePacket<gf::GF65536>;

// The shape grid straddles every packing boundary: sub-byte, byte, word.
const std::vector<std::size_t> kKs = {1, 7, 8, 9, 63, 64, 65, 128};
const std::vector<std::size_t> kLens = {0, 1, 5, 32};

// --- canonical random packet generators -----------------------------------

template <typename F>
linalg::DensePacket<F> random_dense(std::size_t k, std::size_t len, sim::Rng& rng) {
  linalg::DensePacket<F> p;
  p.coeffs.resize(k);
  p.payload.resize(len);
  for (auto& c : p.coeffs) c = static_cast<typename F::value_type>(rng.uniform(F::order));
  for (auto& s : p.payload) s = static_cast<typename F::value_type>(rng.uniform(F::order));
  return p;
}

// BitPacket coefficients live in 64-bit words; the decoders keep bits >= k
// zero, and a canonical generator must too (they are not on the wire).
linalg::BitPacket random_bit(std::size_t k, std::size_t words, sim::Rng& rng) {
  linalg::BitPacket p;
  p.coeffs.resize((k + 63) / 64);
  p.payload.resize(words);
  for (auto& w : p.coeffs) w = rng();
  if (k % 64 != 0 && !p.coeffs.empty()) {
    p.coeffs.back() &= (std::uint64_t{1} << (k % 64)) - 1;
  }
  for (auto& w : p.payload) w = rng();
  return p;
}

template <typename P>
void expect_roundtrip_at(const P& pkt, std::size_t k, std::size_t len,
                         std::uint32_t generation) {
  std::vector<std::uint8_t> frame;
  const std::size_t n = net::encode_into(pkt, k, frame, generation);
  ASSERT_EQ(n, frame.size());
  ASSERT_EQ(n, net::encoded_size<P>(k, len));

  P out;
  net::WireHeader hdr;
  ASSERT_EQ(net::decode_into(std::span<const std::uint8_t>(frame), k, len, out, hdr),
            DecodeStatus::Ok)
      << "k=" << k << " len=" << len << " gen=" << generation;
  EXPECT_EQ(out.coeffs, pkt.coeffs);
  EXPECT_EQ(out.payload, pkt.payload);
  EXPECT_EQ(hdr.generation, generation);

  // Canonical encoding: re-encoding the decoded packet with the generation
  // the header reported must reproduce the exact bytes (one encoding per
  // packet -- what lets spare-bit checks work).
  std::vector<std::uint8_t> again;
  net::encode_into(out, k, again, hdr.generation);
  EXPECT_EQ(again, frame);
}

template <typename P>
void expect_roundtrip(const P& pkt, std::size_t k, std::size_t len) {
  expect_roundtrip_at(pkt, k, len, 0);            // one-shot default
  expect_roundtrip_at(pkt, k, len, 0xdead00ffu);  // nonzero generation
}

TEST(WireFormat, RoundTripFuzzAllFieldsAcrossShapeGrid) {
  sim::Rng rng(20260807);
  for (const std::size_t k : kKs) {
    for (const std::size_t len : kLens) {
      expect_roundtrip(random_bit(k, len, rng), k, len);
      expect_roundtrip(random_dense<gf::GF16>(k, len, rng), k, len);
      expect_roundtrip(random_dense<gf::GF256>(k, len, rng), k, len);
      expect_roundtrip(random_dense<gf::GF65536>(k, len, rng), k, len);
    }
  }
}

TEST(WireFormat, HeaderLayoutIsExactlyAsDocumented) {
  sim::Rng rng(7);
  const auto pkt = random_dense<gf::GF256>(3, 2, rng);
  std::vector<std::uint8_t> f;
  net::encode_into(pkt, 3, f, 0x04030201u);
  ASSERT_GE(f.size(), net::kHeaderBytes);
  EXPECT_EQ(f[0], 0x41);  // 'A'
  EXPECT_EQ(f[1], 0x47);  // 'G'
  EXPECT_EQ(f[2], net::kWireVersion);
  EXPECT_EQ(f[3], static_cast<std::uint8_t>(WireField::Gf256));
  EXPECT_EQ(f[4], 3u);  // k, little-endian
  EXPECT_EQ(f[5], 0u);
  EXPECT_EQ(f[8], 2u);   // payload_len, little-endian
  EXPECT_EQ(f[12], 1u);  // generation, little-endian
  EXPECT_EQ(f[13], 2u);
  EXPECT_EQ(f[14], 3u);
  EXPECT_EQ(f[15], 4u);
  EXPECT_EQ(f.size(), net::kHeaderBytes + 3 + 2);
}

// --- malformed-frame corpus ------------------------------------------------

std::vector<std::uint8_t> good_frame(std::size_t k = 5, std::size_t len = 4) {
  sim::Rng rng(99);
  const auto pkt = random_dense<gf::GF256>(k, len, rng);
  std::vector<std::uint8_t> f;
  net::encode_into(pkt, k, f);
  return f;
}

DecodeStatus try_decode(const std::vector<std::uint8_t>& f, std::size_t k = 5,
                        std::size_t len = 4) {
  Gf256Pkt out;
  return net::decode_into(std::span<const std::uint8_t>(f), k, len, out);
}

TEST(WireFormat, TruncationAtEveryBoundaryRejectsCleanly) {
  const auto f = good_frame();
  for (std::size_t cut = 0; cut < f.size(); ++cut) {
    const std::vector<std::uint8_t> t(f.begin(), f.begin() + cut);
    EXPECT_EQ(try_decode(t), DecodeStatus::Truncated) << "cut=" << cut;
  }
}

TEST(WireFormat, BadMagicVersionAndFieldRejected) {
  auto f = good_frame();
  f[0] = 0x42;
  EXPECT_EQ(try_decode(f), DecodeStatus::BadMagic);
  f = good_frame();
  f[1] = 0x00;
  EXPECT_EQ(try_decode(f), DecodeStatus::BadMagic);
  f = good_frame();
  f[2] = net::kWireVersion + 1;
  EXPECT_EQ(try_decode(f), DecodeStatus::BadVersion);
  f = good_frame();
  f[2] = 0;
  EXPECT_EQ(try_decode(f), DecodeStatus::BadVersion);
  f = good_frame();
  f[2] = 1;  // the retired 12-byte header layout
  EXPECT_EQ(try_decode(f), DecodeStatus::BadVersion);
  f = good_frame();
  f[3] = 2;  // the retired dense GF(2) encoding
  EXPECT_EQ(try_decode(f), DecodeStatus::BadField);
  net::WireHeader hdr;
  EXPECT_EQ(net::read_header(f, hdr), DecodeStatus::BadField);
  f = good_frame();
  f[3] = 6;  // first unassigned field id
  EXPECT_EQ(try_decode(f), DecodeStatus::BadField);
  f = good_frame();
  f[3] = 0xff;
  EXPECT_EQ(try_decode(f), DecodeStatus::BadField);
}

TEST(WireFormat, GenerationIdDoesNotAffectShapeChecks) {
  // Same packet, different generation ids: both decode, and the id rides
  // through the header verbatim -- routing is the caller's business.
  sim::Rng rng(11);
  const auto pkt = random_dense<gf::GF256>(5, 4, rng);
  for (const std::uint32_t gen : {0u, 1u, 0xffffffffu}) {
    std::vector<std::uint8_t> f;
    net::encode_into(pkt, 5, f, gen);
    Gf256Pkt out;
    net::WireHeader hdr;
    ASSERT_EQ(net::decode_into(std::span<const std::uint8_t>(f), 5, 4, out, hdr),
              DecodeStatus::Ok);
    EXPECT_EQ(hdr.generation, gen);
  }
}

TEST(WireFormat, KnownFieldOfWrongPacketTypeRejected) {
  // A valid GF(16) frame offered to a GF(256) decoder: recognized field id,
  // but not the one this receiver speaks.
  sim::Rng rng(3);
  const auto pkt = random_dense<gf::GF16>(5, 4, rng);
  std::vector<std::uint8_t> f;
  net::encode_into(pkt, 5, f);
  EXPECT_EQ(try_decode(f), DecodeStatus::BadField);
}

TEST(WireFormat, OversizedHeaderCountsRejectedBeforeAllocation) {
  auto f = good_frame();
  net::write_header(f.data(),
                    net::WireHeader{WireField::Gf256, net::kDefaultLimits.max_k + 1, 4});
  EXPECT_EQ(try_decode(f, net::kDefaultLimits.max_k + 1, 4), DecodeStatus::Oversized);
  net::write_header(f.data(), net::WireHeader{WireField::Gf256, 5,
                                              net::kDefaultLimits.max_payload_len + 1});
  EXPECT_EQ(try_decode(f, 5, net::kDefaultLimits.max_payload_len + 1),
            DecodeStatus::Oversized);
}

TEST(WireFormat, ShapeDisagreementWithReceiverRejected) {
  const auto f = good_frame(5, 4);
  EXPECT_EQ(try_decode(f, 6, 4), DecodeStatus::Mismatch);
  EXPECT_EQ(try_decode(f, 5, 3), DecodeStatus::Mismatch);
}

TEST(WireFormat, TrailingGarbageRejected) {
  auto f = good_frame();
  f.push_back(0x00);
  EXPECT_EQ(try_decode(f), DecodeStatus::TrailingBytes);
}

TEST(WireFormat, OutOfRangeGf16SymbolRejected) {
  sim::Rng rng(5);
  const auto pkt = random_dense<gf::GF16>(5, 4, rng);
  std::vector<std::uint8_t> f;
  net::encode_into(pkt, 5, f);
  f[net::kHeaderBytes] = 16;  // first coefficient out of field range
  Gf16Pkt out;
  EXPECT_EQ(net::decode_into(std::span<const std::uint8_t>(f), 5, 4, out),
            DecodeStatus::BadSymbol);
}

TEST(WireFormat, NonzeroGf2SpareBitsRejected) {
  sim::Rng rng(6);
  // k = 5: three spare bits in the single coefficient byte.
  const auto pkt = random_bit(5, 2, rng);
  std::vector<std::uint8_t> f;
  net::encode_into(pkt, 5, f);
  f[net::kHeaderBytes] |= 0x80;
  linalg::BitPacket out;
  EXPECT_EQ(net::decode_into(std::span<const std::uint8_t>(f), 5, 2, out),
            DecodeStatus::BadSymbol);
}

// --- control frames --------------------------------------------------------

TEST(WireFormat, ControlFrameRoundTrip) {
  net::ControlFrame in;
  in.sender = 42;
  in.data = {0xde, 0xad, 0xbe, 0xef};
  std::vector<std::uint8_t> f;
  const std::size_t n = net::encode_control(in, f);
  ASSERT_EQ(n, net::kHeaderBytes + 4);

  net::ControlFrame out;
  ASSERT_EQ(net::decode_control(std::span<const std::uint8_t>(f), out), DecodeStatus::Ok);
  EXPECT_EQ(out.sender, 42u);
  EXPECT_EQ(out.data, in.data);

  // Empty body is legal.
  net::ControlFrame empty;
  empty.sender = 7;
  net::encode_control(empty, f);
  ASSERT_EQ(net::decode_control(std::span<const std::uint8_t>(f), out), DecodeStatus::Ok);
  EXPECT_EQ(out.sender, 7u);
  EXPECT_TRUE(out.data.empty());
}

TEST(WireFormat, ControlFrameV1AndGenerationRoundTrip) {
  net::ControlFrame in;
  in.sender = 9;
  in.data = {1, 2, 3};
  net::ControlFrame out;
  net::WireHeader hdr;

  // Control frames in the retired 12-byte v1 layout (version byte 1, no
  // generation field) are rejected: Truncated while shorter than a v2
  // header, BadVersion from there on.
  std::vector<std::uint8_t> v1 = {0x41, 0x47, 1, 0, 9, 0, 0, 0, 3, 0, 0, 0, 1, 2, 3};
  EXPECT_EQ(net::decode_control(std::span<const std::uint8_t>(v1), out, hdr),
            DecodeStatus::Truncated);
  v1[8] = 4;
  v1.push_back(4);
  EXPECT_EQ(net::decode_control(std::span<const std::uint8_t>(v1), out, hdr),
            DecodeStatus::BadVersion);

  // Control frames carry the generation id through verbatim.
  std::vector<std::uint8_t> f;
  net::encode_control(in, f, 77);
  ASSERT_EQ(net::decode_control(std::span<const std::uint8_t>(f), out, hdr),
            DecodeStatus::Ok);
  EXPECT_EQ(out.sender, 9u);
  EXPECT_EQ(hdr.generation, 77u);
  std::vector<std::uint8_t> again;
  net::encode_control(out, again, hdr.generation);
  EXPECT_EQ(again, f);
}

TEST(WireFormat, ControlAndCodedFramesDoNotCrossDecode) {
  net::ControlFrame cf;
  cf.sender = 1;
  cf.data = {1, 2, 3};
  std::vector<std::uint8_t> f;
  net::encode_control(cf, f);
  // k slot holds the sender id (1) and payload_len 3, so offer those as the
  // expected shape: the field id alone must reject it.
  EXPECT_EQ(try_decode(f, 1, 3), DecodeStatus::BadField);

  const auto coded = good_frame();
  net::ControlFrame out;
  EXPECT_EQ(net::decode_control(std::span<const std::uint8_t>(coded), out),
            DecodeStatus::BadField);
}

TEST(WireFormat, ControlFrameTruncationAndTrailingRejected) {
  net::ControlFrame cf;
  cf.sender = 9;
  cf.data = {5, 6, 7, 8};
  std::vector<std::uint8_t> f;
  net::encode_control(cf, f);
  net::ControlFrame out;
  for (std::size_t cut = 0; cut < f.size(); ++cut) {
    const std::vector<std::uint8_t> t(f.begin(), f.begin() + cut);
    EXPECT_EQ(net::decode_control(std::span<const std::uint8_t>(t), out),
              DecodeStatus::Truncated)
        << "cut=" << cut;
  }
  f.push_back(0);
  EXPECT_EQ(net::decode_control(std::span<const std::uint8_t>(f), out),
            DecodeStatus::TrailingBytes);
}

TEST(WireFormat, StatusAndFieldNamesAreStable) {
  EXPECT_EQ(net::to_string(DecodeStatus::Ok), "ok");
  EXPECT_EQ(net::to_string(DecodeStatus::BadMagic), "bad-magic");
  EXPECT_EQ(net::to_string(WireField::Gf256), "gf256");
  EXPECT_EQ(net::to_string(WireField::Control), "control");
}

}  // namespace
