// libFuzzer harness for net::decode_into over every wire field.
//
// The input IS the frame (no interpreted prefix, so seed frames from the
// encoder are valid inputs byte for byte).  Each frame is offered to all
// four packet codecs plus the control codec, under three shape
// expectations per codec:
//
//   * the shape the header itself declares (the deep path: body parsing),
//   * a fixed small shape (exercises Mismatch),
//   * a shape straddling the bit-packing boundary (k = 13).
//
// Checked properties, enforced with FUZZ_ASSERT in every build:
//
//   1. decode_into never crashes, whatever the bytes (the contract of
//      src/net/wire.hpp: malformed input is REJECTED, not fatal).
//   2. Canonical encoding: if a frame decodes Ok, re-encoding the decoded
//      packet with the generation the header reported reproduces the input
//      bytes exactly (for every generation id value the fuzzer mutates into
//      the header).
//   3. A decoded packet is well-shaped: coeff/payload sizes match the
//      expectation the decoder was constructed with, and every symbol is
//      inside its field's range (what makes it safe to feed table-driven
//      field arithmetic downstream).
#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "fuzz_common.hpp"
#include "net/wire.hpp"

namespace {

using namespace ag;
using net::DecodeStatus;

// Replay-friendly limits: big enough for every committed seed, small enough
// that a hostile header cannot make the harness allocate gigabytes while
// the fuzzer explores the Oversized boundary.
constexpr net::WireLimits kLimits{1u << 12, 1u << 12};

template <typename P>
void check_canonical_reencode(const P& pkt, std::size_t k, const net::WireHeader& hdr,
                              std::span<const std::uint8_t> frame) {
  std::vector<std::uint8_t> again;
  const std::size_t m = net::encode_into(pkt, k, again, hdr.generation);
  FUZZ_ASSERT(m == frame.size(), "re-encoded size differs");
  FUZZ_ASSERT(std::equal(again.begin(), again.end(), frame.begin()),
              "re-encoded bytes differ (non-canonical decode accepted)");
}

void check_bit_shape(std::span<const std::uint8_t> frame, std::size_t k,
                     std::size_t len) {
  linalg::BitPacket pkt;
  net::WireHeader hdr;
  if (net::decode_into(frame, k, len, pkt, hdr, kLimits) != DecodeStatus::Ok) return;
  FUZZ_ASSERT(pkt.coeffs.size() == (k + 63) / 64, "coeff words != ceil(k/64)");
  FUZZ_ASSERT(pkt.payload.size() == len, "payload length != expectation");
  if (k % 64 != 0 && !pkt.coeffs.empty()) {
    FUZZ_ASSERT(pkt.coeffs.back() >> (k % 64) == 0,
                "nonzero spare coefficient bits accepted");
  }
  check_canonical_reencode(pkt, k, hdr, frame);
}

template <typename F>
void check_dense_shape(std::span<const std::uint8_t> frame, std::size_t k,
                       std::size_t len) {
  linalg::DensePacket<F> pkt;
  net::WireHeader hdr;
  if (net::decode_into(frame, k, len, pkt, hdr, kLimits) != DecodeStatus::Ok) return;
  FUZZ_ASSERT(pkt.coeffs.size() == k, "coeff count != expectation");
  FUZZ_ASSERT(pkt.payload.size() == len, "payload length != expectation");
  for (const auto c : pkt.coeffs)
    FUZZ_ASSERT(static_cast<std::uint32_t>(c) < F::order, "coefficient out of field");
  for (const auto s : pkt.payload)
    FUZZ_ASSERT(static_cast<std::uint32_t>(s) < F::order, "payload symbol out of field");
  check_canonical_reencode(pkt, k, hdr, frame);
}

template <typename ShapeCheck>
void check_field(std::span<const std::uint8_t> frame, ShapeCheck&& check) {
  // Shape from the header itself (capped by the harness limits): the deep
  // path where the declared sizes agree and the body parser runs.
  net::WireHeader h;
  if (net::read_header(frame, h, kLimits) == DecodeStatus::Ok) {
    check(frame, h.k, h.payload_len);
  }
  check(frame, 5, 4);   // fixed small shape: exercises Mismatch
  check(frame, 13, 0);  // sub-byte coefficient tail, empty payload
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::uint8_t> frame(data, size);

  check_field(frame, [](auto f, std::size_t k, std::size_t n) { check_bit_shape(f, k, n); });
  check_field(frame, [](auto f, std::size_t k, std::size_t n) { check_dense_shape<gf::GF16>(f, k, n); });
  check_field(frame, [](auto f, std::size_t k, std::size_t n) { check_dense_shape<gf::GF256>(f, k, n); });
  check_field(frame, [](auto f, std::size_t k, std::size_t n) { check_dense_shape<gf::GF65536>(f, k, n); });

  ag::net::ControlFrame ctl;
  net::WireHeader chdr;
  if (ag::net::decode_control(frame, ctl, chdr, kLimits) == DecodeStatus::Ok) {
    std::vector<std::uint8_t> again;
    const std::size_t m = net::encode_control(ctl, again, chdr.generation);
    FUZZ_ASSERT(m == frame.size(), "control re-encoded size differs");
    FUZZ_ASSERT(std::equal(again.begin(), again.end(), frame.begin()),
                "control re-encoded bytes differ");
  }
  return 0;
}
