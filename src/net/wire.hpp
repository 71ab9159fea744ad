/// \file
/// Wire format for coded gossip packets.
///
/// Every datagram the socket transports exchange is one frame:
///
/// ```
///   offset  size  field
///   0       2     magic        "AG" (0x41 0x47)
///   2       1     version      kWireVersion (2; any other value is rejected)
///   3       1     field id     WireField (which packet encoding follows)
///   4       4     k            coefficient count, u32 little-endian
///   8       4     payload_len  payload symbol count, u32 little-endian
///   12      4     generation   generation id, u32 little-endian
///   16      ...   coefficients (layout per field, below)
///   ...     ...   payload      (layout per field, below)
/// ```
///
/// The generation id serves the sliding-window coding layer
/// (`src/coding/`): a frame's coefficients are relative to one generation's
/// message block, so the receiver must route it to that generation's
/// decoder.  One-shot traffic sends generation 0.  Each (header, body) pair
/// has exactly one byte representation, and re-encoding a decoded frame
/// with the generation its header reported reproduces the input bytes.
///
/// Per-field body layout (all multi-byte integers little-endian):
///
/// | field id | packet type              | coefficients        | payload symbol |
/// |----------|--------------------------|---------------------|----------------|
/// | Control  | net::ControlFrame        | none (k = sender id)| 1 raw byte     |
/// | Gf2Bit   | linalg::BitPacket        | ceil(k/8) bytes     | 8 bytes (word) |
/// | Gf16     | DensePacket<gf::GF16>    | 1 byte each (< 16)  | 1 byte (< 16)  |
/// | Gf256    | DensePacket<gf::GF256>   | 1 byte each         | 1 byte         |
/// | Gf65536  | DensePacket<gf::GF65536> | 2 bytes each        | 2 bytes        |
///
/// GF(2) coefficient bit i lives at byte i/8, bit i%8; spare bits of the
/// last byte MUST be zero (encode zeroes them, decode rejects violations),
/// so every packet has exactly one canonical encoding and
/// decode(encode(p)) == p re-encodes byte-identically -- what the fuzz
/// round-trip test pins.
///
/// Robustness contract: decode_into NEVER aborts on attacker-controlled
/// input.  Truncated frames, bad magic/version/field ids, header counts
/// over the WireLimits, counts that disagree with the receiving decoder's
/// (k, payload_len), out-of-range symbols, and trailing garbage all return
/// a distinct DecodeStatus; `out` may hold partially written data after a
/// failure and must not be used.  encode_into is zero-copy-friendly: it
/// resizes the caller's buffer (capacity is reused across calls) and writes
/// in place.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "gf/gf2m.hpp"
#include "linalg/bit_decoder.hpp"
#include "linalg/dense_decoder.hpp"

namespace ag::net {

inline constexpr std::uint8_t kWireMagic0 = 0x41;  // 'A'
inline constexpr std::uint8_t kWireMagic1 = 0x47;  // 'G'
inline constexpr std::uint8_t kWireVersion = 2;
inline constexpr std::size_t kHeaderBytes = 16;

/// Which packet encoding a frame's body carries.  Id 2 is unassigned: it
/// was a byte-per-symbol GF(2) encoding that duplicated Gf2Bit, and reading
/// it now returns BadField rather than giving the id a new meaning.
enum class WireField : std::uint8_t {
  Control = 0,  ///< transport/driver control frame (k = sender node id)
  Gf2Bit = 1,   ///< linalg::BitPacket (word-packed GF(2))
  Gf16 = 3,     ///< linalg::DensePacket<gf::GF16>
  Gf256 = 4,    ///< linalg::DensePacket<gf::GF256>
  Gf65536 = 5,  ///< linalg::DensePacket<gf::GF65536>
};

/// Why a frame was rejected.  Ok is 0 so `if (status != DecodeStatus::Ok)`
/// reads naturally.
enum class DecodeStatus : std::uint8_t {
  Ok = 0,
  Truncated,      ///< frame shorter than the header or the declared body
  BadMagic,       ///< first two bytes are not "AG"
  BadVersion,     ///< version byte is not kWireVersion
  BadField,       ///< unassigned field id, or id != the expected packet type
  Oversized,      ///< k or payload_len exceeds WireLimits
  Mismatch,       ///< k/payload_len disagree with the receiving decoder's
  BadSymbol,      ///< symbol out of field range / nonzero GF(2) spare bits
  TrailingBytes,  ///< frame longer than header + declared body
};

std::string_view to_string(WireField f) noexcept;
std::string_view to_string(DecodeStatus s) noexcept;

/// Hard ceilings a decoder enforces BEFORE trusting header counts, so a
/// malicious 4 GiB-coefficient header cannot drive an allocation.  The
/// defaults comfortably cover every configuration in this repo.
struct WireLimits {
  std::uint32_t max_k = 1u << 20;
  std::uint32_t max_payload_len = 1u << 20;
};
inline constexpr WireLimits kDefaultLimits{};

struct WireHeader {
  WireField field = WireField::Control;
  std::uint32_t k = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t generation = 0;
};

/// Parses and validates magic/version/field/limits.  On Ok, `out` holds the
/// header and the caller may trust its counts up to the limits.
DecodeStatus read_header(std::span<const std::uint8_t> frame, WireHeader& out,
                         const WireLimits& limits = kDefaultLimits) noexcept;

/// Writes the header at `dst` (must have kHeaderBytes of room).
void write_header(std::uint8_t* dst, const WireHeader& h) noexcept;

namespace detail {

inline void put_u32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}
inline std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}
inline void put_u64(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

inline constexpr std::size_t bit_bytes(std::size_t nbits) noexcept {
  return (nbits + 7) / 8;
}

// Packs k word-packed GF(2) coefficient bits (BitPacket layout) into
// ceil(k/8) bytes; bit i of the logical vector is word i/64, bit i%64.
// Spare bits of the last byte come from the words' spare bits, which the
// decoders keep zero; encode masks them anyway so the encoding is canonical
// even for hand-built packets.
inline void pack_word_bits(std::span<const std::uint64_t> words, std::size_t k,
                           std::uint8_t* dst) {
  const std::size_t nbytes = bit_bytes(k);
  for (std::size_t b = 0; b < nbytes; ++b) {
    const std::size_t word = b / 8;
    std::uint8_t byte =
        word < words.size()
            ? static_cast<std::uint8_t>(words[word] >> (8 * (b % 8)))
            : std::uint8_t{0};
    if (b == nbytes - 1 && k % 8 != 0) {
      byte = static_cast<std::uint8_t>(byte & ((1u << (k % 8)) - 1u));
    }
    dst[b] = byte;
  }
}

inline DecodeStatus unpack_word_bits(const std::uint8_t* src, std::size_t k,
                                     std::vector<std::uint64_t>& out) {
  const std::size_t nwords = (k + 63) / 64;
  const std::size_t nbytes = bit_bytes(k);
  out.assign(nwords, 0);
  for (std::size_t b = 0; b < nbytes; ++b) {
    out[b / 8] |= static_cast<std::uint64_t>(src[b]) << (8 * (b % 8));
  }
  if (k % 8 != 0) {
    const std::uint8_t spare =
        static_cast<std::uint8_t>(src[nbytes - 1] >> (k % 8));
    if (spare != 0) return DecodeStatus::BadSymbol;
  }
  return DecodeStatus::Ok;
}

}  // namespace detail

/// Per-packet-type codec traits.  Specializations define:
///   field         -- the WireField id
///   coeff_bytes(k), payload_bytes(len) -- body sizes
///   put_body / get_body                -- serialize / parse the body
template <typename Packet>
struct WireCodec;

template <>
struct WireCodec<linalg::BitPacket> {
  static constexpr WireField field = WireField::Gf2Bit;
  static std::size_t coeff_bytes(std::size_t k) noexcept { return detail::bit_bytes(k); }
  // BitPacket payload symbols are whole 64-bit words.
  static std::size_t payload_bytes(std::size_t len) noexcept { return len * 8; }

  static void put_body(const linalg::BitPacket& pkt, std::size_t k,
                       std::size_t payload_len, std::uint8_t* dst) {
    assert(pkt.coeffs.size() == (k + 63) / 64);
    assert(pkt.payload.size() == payload_len);
    detail::pack_word_bits(pkt.coeffs, k, dst);
    dst += coeff_bytes(k);
    for (std::size_t i = 0; i < payload_len; ++i) detail::put_u64(dst + 8 * i, pkt.payload[i]);
  }

  static DecodeStatus get_body(const std::uint8_t* src, std::size_t k,
                               std::size_t payload_len, linalg::BitPacket& out) {
    const DecodeStatus st = detail::unpack_word_bits(src, k, out.coeffs);
    if (st != DecodeStatus::Ok) return st;
    src += coeff_bytes(k);
    out.payload.resize(payload_len);
    for (std::size_t i = 0; i < payload_len; ++i) out.payload[i] = detail::get_u64(src + 8 * i);
    return DecodeStatus::Ok;
  }
};

namespace detail {

// Shared codec for the byte/short symbol fields: one little-endian
// sizeof(value_type) stripe per symbol, with out-of-range rejection where
// the field does not fill its storage type (GF16).
template <typename F, WireField Id>
struct DenseCodec {
  using value_type = typename F::value_type;
  static constexpr WireField field = Id;
  static constexpr std::size_t kSymBytes = sizeof(value_type);

  static std::size_t coeff_bytes(std::size_t k) noexcept { return k * kSymBytes; }
  static std::size_t payload_bytes(std::size_t len) noexcept { return len * kSymBytes; }

  static void put_body(const linalg::DensePacket<F>& pkt, std::size_t k,
                       std::size_t payload_len, std::uint8_t* dst) {
    assert(pkt.coeffs.size() == k);
    assert(pkt.payload.size() == payload_len);
    (void)payload_len;
    put_symbols(pkt.coeffs, dst);
    put_symbols(pkt.payload, dst + coeff_bytes(k));
  }

  static DecodeStatus get_body(const std::uint8_t* src, std::size_t k,
                               std::size_t payload_len, linalg::DensePacket<F>& out) {
    DecodeStatus st = get_symbols(src, k, out.coeffs);
    if (st != DecodeStatus::Ok) return st;
    return get_symbols(src + coeff_bytes(k), payload_len, out.payload);
  }

 private:
  static void put_symbols(const std::vector<value_type>& sym, std::uint8_t* dst) {
    for (std::size_t i = 0; i < sym.size(); ++i) {
      if constexpr (kSymBytes == 1) {
        dst[i] = static_cast<std::uint8_t>(sym[i]);
      } else {
        dst[2 * i] = static_cast<std::uint8_t>(sym[i]);
        dst[2 * i + 1] = static_cast<std::uint8_t>(sym[i] >> 8);
      }
    }
  }

  static DecodeStatus get_symbols(const std::uint8_t* src, std::size_t n,
                                  std::vector<value_type>& out) {
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t v;
      if constexpr (kSymBytes == 1) {
        v = src[i];
      } else {
        v = static_cast<std::uint32_t>(src[2 * i]) |
            (static_cast<std::uint32_t>(src[2 * i + 1]) << 8);
      }
      if (v >= F::order) return DecodeStatus::BadSymbol;
      out[i] = static_cast<value_type>(v);
    }
    return DecodeStatus::Ok;
  }
};

}  // namespace detail

template <>
struct WireCodec<linalg::DensePacket<gf::GF16>>
    : detail::DenseCodec<gf::GF16, WireField::Gf16> {};
template <>
struct WireCodec<linalg::DensePacket<gf::GF256>>
    : detail::DenseCodec<gf::GF256, WireField::Gf256> {};
template <>
struct WireCodec<linalg::DensePacket<gf::GF65536>>
    : detail::DenseCodec<gf::GF65536, WireField::Gf65536> {};

/// Frame size for a (field, k, payload_len) triple of packet type P.
template <typename P>
std::size_t encoded_size(std::size_t k, std::size_t payload_len) noexcept {
  return kHeaderBytes + WireCodec<P>::coeff_bytes(k) +
         WireCodec<P>::payload_bytes(payload_len);
}

/// Serializes `pkt` (a k-coefficient packet) into `out`, reusing its
/// capacity.  Returns the frame size.  The payload length is taken from the
/// packet itself (decoders always emit full-length payloads).  `generation`
/// tags the frame for the sliding-window coding layer; one-shot callers
/// leave it 0.
template <typename P>
std::size_t encode_into(const P& pkt, std::size_t k, std::vector<std::uint8_t>& out,
                        std::uint32_t generation = 0) {
  const std::size_t payload_len = pkt.payload.size();
  const std::size_t total = encoded_size<P>(k, payload_len);
  out.resize(total);
  WireHeader h;
  h.field = WireCodec<P>::field;
  h.k = static_cast<std::uint32_t>(k);
  h.payload_len = static_cast<std::uint32_t>(payload_len);
  h.generation = generation;
  write_header(out.data(), h);
  WireCodec<P>::put_body(pkt, k, payload_len, out.data() + kHeaderBytes);
  return total;
}

/// Parses one frame into `pkt`, enforcing the full robustness contract plus
/// agreement with the receiving decoder's shape: header k must equal
/// `expect_k` and header payload_len must equal `expect_payload_len`
/// (DecodeStatus::Mismatch otherwise) -- a wire peer speaking a different
/// generation/config must not be able to corrupt local decoder state.
/// On Ok, `hdr` holds the parsed header; `hdr.generation` tells the caller
/// which generation's decoder the packet belongs to.
template <typename P>
DecodeStatus decode_into(std::span<const std::uint8_t> frame, std::size_t expect_k,
                         std::size_t expect_payload_len, P& pkt, WireHeader& hdr,
                         const WireLimits& limits = kDefaultLimits) {
  DecodeStatus st = read_header(frame, hdr, limits);
  if (st != DecodeStatus::Ok) return st;
  if (hdr.field != WireCodec<P>::field) return DecodeStatus::BadField;
  if (hdr.k != expect_k || hdr.payload_len != expect_payload_len)
    return DecodeStatus::Mismatch;
  const std::size_t want = encoded_size<P>(hdr.k, hdr.payload_len);
  if (frame.size() < want) return DecodeStatus::Truncated;
  if (frame.size() > want) return DecodeStatus::TrailingBytes;
  return WireCodec<P>::get_body(frame.data() + kHeaderBytes, hdr.k, hdr.payload_len,
                                pkt);
}

/// decode_into for callers that do not care about the generation id.
template <typename P>
DecodeStatus decode_into(std::span<const std::uint8_t> frame, std::size_t expect_k,
                         std::size_t expect_payload_len, P& pkt,
                         const WireLimits& limits = kDefaultLimits) {
  WireHeader hdr;
  return decode_into(frame, expect_k, expect_payload_len, pkt, hdr, limits);
}

/// Transport/driver control frame: no coefficients, a sender node id in the
/// header's k slot, and an opaque byte body (the swarm driver ships its
/// per-node delivery watermarks in it, n u32 little-endian counters).
struct ControlFrame {
  std::uint32_t sender = 0;
  std::vector<std::uint8_t> data;
};

std::size_t encode_control(const ControlFrame& f, std::vector<std::uint8_t>& out,
                           std::uint32_t generation = 0);
DecodeStatus decode_control(std::span<const std::uint8_t> frame, ControlFrame& out,
                            WireHeader& hdr,
                            const WireLimits& limits = kDefaultLimits);
DecodeStatus decode_control(std::span<const std::uint8_t> frame, ControlFrame& out,
                            const WireLimits& limits = kDefaultLimits);

}  // namespace ag::net
