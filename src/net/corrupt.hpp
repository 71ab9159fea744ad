/// \file
/// Deterministic wire-frame corruptor: turns one valid encoded frame into
/// the canonical malformed variants of the fuzz corpus (fuzz/gen_corpus.cpp
/// `bad_*` families), so adversarial tests and the Byzantine scenario layer
/// can inject wire-level hostility without carrying a corpus around.
///
/// Each family maps to the DecodeStatus the robustness contract demands;
/// `decode_into` must reject every output of corrupt_frame() (the adversary
/// test suite pins this, mirroring the corpus-replay ctests).  The corruptor
/// is pure and deterministic -- same frame, same family, same output -- so
/// adversarial wire runs stay reproducible.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "net/wire.hpp"

namespace ag::net {

/// The corpus `bad_*` families expressible as a mutation of a valid frame.
enum class CorruptionFamily : std::uint8_t {
  Truncate,      ///< drop the last byte                      -> Truncated
  BadMagic,      ///< flip the first magic byte               -> BadMagic
  BadVersion,    ///< unassigned version byte                 -> BadVersion
  BadField,      ///< unassigned field id (0xFF)              -> BadField
  OversizedK,    ///< header k above WireLimits               -> Oversized
  OversizedLen,  ///< header payload_len above WireLimits     -> Oversized
  ShapeMismatch, ///< header k off by one vs. the decoder     -> Mismatch/Truncated
  Trailing,      ///< one byte appended past the body         -> TrailingBytes
  DirtySymbol,   ///< out-of-range symbol / nonzero spare bit -> BadSymbol
};

inline constexpr CorruptionFamily kAllCorruptionFamilies[] = {
    CorruptionFamily::Truncate,      CorruptionFamily::BadMagic,
    CorruptionFamily::BadVersion,    CorruptionFamily::BadField,
    CorruptionFamily::OversizedK,    CorruptionFamily::OversizedLen,
    CorruptionFamily::ShapeMismatch, CorruptionFamily::Trailing,
    CorruptionFamily::DirtySymbol,
};

inline std::string_view to_string(CorruptionFamily f) noexcept {
  switch (f) {
    case CorruptionFamily::Truncate: return "truncate";
    case CorruptionFamily::BadMagic: return "bad-magic";
    case CorruptionFamily::BadVersion: return "bad-version";
    case CorruptionFamily::BadField: return "bad-field";
    case CorruptionFamily::OversizedK: return "oversized-k";
    case CorruptionFamily::OversizedLen: return "oversized-len";
    case CorruptionFamily::ShapeMismatch: return "shape-mismatch";
    case CorruptionFamily::Trailing: return "trailing";
    case CorruptionFamily::DirtySymbol: return "dirty-symbol";
  }
  return "?";
}

/// Applies `family` to a VALID frame.  Returns std::nullopt when the family
/// cannot be expressed for this frame (DirtySymbol on a field whose symbols
/// fill their carrier exactly, e.g. GF(256), or on an empty body; Truncate
/// on an empty frame).  The input is never modified.
inline std::optional<std::vector<std::uint8_t>> corrupt_frame(
    std::span<const std::uint8_t> frame, CorruptionFamily family) {
  WireHeader h;
  if (read_header(frame, h) != DecodeStatus::Ok) return std::nullopt;
  std::vector<std::uint8_t> out(frame.begin(), frame.end());
  switch (family) {
    case CorruptionFamily::Truncate:
      if (out.empty()) return std::nullopt;
      out.pop_back();
      return out;
    case CorruptionFamily::BadMagic:
      out[0] = static_cast<std::uint8_t>(out[0] ^ 0xFFu);
      return out;
    case CorruptionFamily::BadVersion:
      out[2] = 0x7F;
      return out;
    case CorruptionFamily::BadField:
      out[3] = 0xFF;
      return out;
    case CorruptionFamily::OversizedK:
      detail::put_u32(out.data() + 4, 0xFFFFFFFFu);
      return out;
    case CorruptionFamily::OversizedLen:
      detail::put_u32(out.data() + 8, 0xFFFFFFFFu);
      return out;
    case CorruptionFamily::ShapeMismatch:
      detail::put_u32(out.data() + 4, h.k + 1);
      return out;
    case CorruptionFamily::Trailing:
      out.push_back(0xA5);
      return out;
    case CorruptionFamily::DirtySymbol: {
      switch (h.field) {
        case WireField::Gf2Bit: {
          // Nonzero spare bit above k in the last coefficient byte.
          if (h.k % 8 == 0) return std::nullopt;
          const std::size_t last = kHeaderBytes + detail::bit_bytes(h.k) - 1;
          if (last >= out.size()) return std::nullopt;
          out[last] = static_cast<std::uint8_t>(out[last] | (1u << (h.k % 8)));
          return out;
        }
        case WireField::Gf16:
          // One byte per symbol, only the low nibble is a field element.
          if (h.k == 0 && h.payload_len == 0) return std::nullopt;
          if (kHeaderBytes >= out.size()) return std::nullopt;
          out[kHeaderBytes] = 0xFF;
          return out;
        default:
          // GF(256)/GF(65536) symbols fill their carrier: every byte
          // pattern is a valid symbol.  Control frames have no symbols.
          return std::nullopt;
      }
    }
  }
  return std::nullopt;
}

}  // namespace ag::net
