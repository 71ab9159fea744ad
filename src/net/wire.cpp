#include "net/wire.hpp"

#include <algorithm>

namespace ag::net {

std::string_view to_string(WireField f) noexcept {
  switch (f) {
    case WireField::Control: return "control";
    case WireField::Gf2Bit: return "gf2-bit";
    case WireField::Gf16: return "gf16";
    case WireField::Gf256: return "gf256";
    case WireField::Gf65536: return "gf65536";
  }
  return "?";
}

std::string_view to_string(DecodeStatus s) noexcept {
  switch (s) {
    case DecodeStatus::Ok: return "ok";
    case DecodeStatus::Truncated: return "truncated";
    case DecodeStatus::BadMagic: return "bad-magic";
    case DecodeStatus::BadVersion: return "bad-version";
    case DecodeStatus::BadField: return "bad-field";
    case DecodeStatus::Oversized: return "oversized";
    case DecodeStatus::Mismatch: return "mismatch";
    case DecodeStatus::BadSymbol: return "bad-symbol";
    case DecodeStatus::TrailingBytes: return "trailing-bytes";
  }
  return "?";
}

DecodeStatus read_header(std::span<const std::uint8_t> frame, WireHeader& out,
                         const WireLimits& limits) noexcept {
  if (frame.size() < kHeaderBytes) return DecodeStatus::Truncated;
  if (frame[0] != kWireMagic0 || frame[1] != kWireMagic1) return DecodeStatus::BadMagic;
  if (frame[2] != kWireVersion) return DecodeStatus::BadVersion;
  // Id 2 is retired (see WireField); ids above Gf65536 were never assigned.
  if (frame[3] == 2 || frame[3] > static_cast<std::uint8_t>(WireField::Gf65536))
    return DecodeStatus::BadField;
  out.field = static_cast<WireField>(frame[3]);
  out.k = detail::get_u32(frame.data() + 4);
  out.payload_len = detail::get_u32(frame.data() + 8);
  out.generation = detail::get_u32(frame.data() + 12);
  if (out.k > limits.max_k || out.payload_len > limits.max_payload_len)
    return DecodeStatus::Oversized;
  return DecodeStatus::Ok;
}

void write_header(std::uint8_t* dst, const WireHeader& h) noexcept {
  dst[0] = kWireMagic0;
  dst[1] = kWireMagic1;
  dst[2] = kWireVersion;
  dst[3] = static_cast<std::uint8_t>(h.field);
  detail::put_u32(dst + 4, h.k);
  detail::put_u32(dst + 8, h.payload_len);
  detail::put_u32(dst + 12, h.generation);
}

std::size_t encode_control(const ControlFrame& f, std::vector<std::uint8_t>& out,
                           std::uint32_t generation) {
  const std::size_t total = kHeaderBytes + f.data.size();
  out.resize(total);
  WireHeader h;
  h.field = WireField::Control;
  h.k = f.sender;
  h.payload_len = static_cast<std::uint32_t>(f.data.size());
  h.generation = generation;
  write_header(out.data(), h);
  std::copy(f.data.begin(), f.data.end(), out.begin() + kHeaderBytes);
  return total;
}

DecodeStatus decode_control(std::span<const std::uint8_t> frame, ControlFrame& out,
                            WireHeader& hdr, const WireLimits& limits) {
  const DecodeStatus st = read_header(frame, hdr, limits);
  if (st != DecodeStatus::Ok) return st;
  if (hdr.field != WireField::Control) return DecodeStatus::BadField;
  const std::size_t want = kHeaderBytes + hdr.payload_len;
  if (frame.size() < want) return DecodeStatus::Truncated;
  if (frame.size() > want) return DecodeStatus::TrailingBytes;
  out.sender = hdr.k;
  out.data.assign(frame.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes), frame.end());
  return DecodeStatus::Ok;
}

DecodeStatus decode_control(std::span<const std::uint8_t> frame, ControlFrame& out,
                            const WireLimits& limits) {
  WireHeader hdr;
  return decode_control(frame, out, hdr, limits);
}

}  // namespace ag::net
