/// \file
/// Bulk span operations over finite fields.
///
/// These are the hot loops of the library: building a random linear
/// combination is a sequence of axpy calls (dst += c * src), and Gaussian
/// elimination is axpy plus scale.  The GF(256) byte kernels and the GF(2)
/// word-XOR kernel dispatch through the runtime-selected SIMD backend
/// (gf/backend/backend.hpp: scalar reference, SSSE3, AVX2, GFNI; pick with
/// AG_GF_BACKEND or let CPUID decide), so every decoder and protocol gets
/// the fastest available implementation with no call-site changes.  Other
/// fields (GF(16), GF(2^16)) use the generic per-element loops below.
///
/// Contract:
///   * dst and src must be the same length.  Earlier versions silently
///     operated on min(dst, src), which masked caller bugs (a short
///     destination truncated the update instead of failing); debug builds
///     assert.
///   * dst and src must NOT overlap.  Aliased spans silently corrupt the
///     elimination (the kernels read src while writing dst, vector widths
///     at a time); debug builds assert disjointness.  In-place updates are
///     what scale() is for.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "gf/backend/backend.hpp"
#include "gf/field_concept.hpp"
#include "gf/gf2m.hpp"

namespace ag::gf {

namespace detail {

// Debug-only overlap check.  Pointer comparison across unrelated objects is
// done on uintptr_t; spans from different objects can never compare as
// overlapping under any sane address map.
inline bool spans_disjoint(const void* a, const void* b,
                           std::size_t bytes) noexcept {
  if (bytes == 0) return true;
  // ag-lint: allow(no-reinterpret-cast) -- pointer-to-integer only, for an address-range test
  const auto pa = reinterpret_cast<std::uintptr_t>(a);
  // ag-lint: allow(no-reinterpret-cast) -- pointer-to-integer only, for an address-range test
  const auto pb = reinterpret_cast<std::uintptr_t>(b);
  return pa + bytes <= pb || pb + bytes <= pa;
}

}  // namespace detail

/// Bytewise dst ^= src (the GF(256) c == 1 / GF(2^m) addition path), routed
/// through the active SIMD backend.
inline void xor_bytes(std::span<std::uint8_t> dst,
                      std::span<const std::uint8_t> src) noexcept {
  assert(dst.size() == src.size() && "gf::xor_bytes: span length mismatch");
  assert(detail::spans_disjoint(dst.data(), src.data(), dst.size()) &&
         "gf::xor_bytes: dst and src overlap");
  if (dst.empty()) return;
  backend::active().xor_bytes(dst.data(), src.data(), dst.size());
}

/// GF(256) axpy: dst[i] ^= c * src[i], routed through the active backend
/// (PSHUFB split-nibble kernels under SSSE3/AVX2, GF2P8AFFINEQB under GFNI,
/// log/exp loop under scalar).
inline void axpy_gf256(std::span<std::uint8_t> dst,
                       std::span<const std::uint8_t> src,
                       std::uint8_t c) noexcept {
  assert(dst.size() == src.size() && "axpy_gf256: span length mismatch");
  assert(detail::spans_disjoint(dst.data(), src.data(), dst.size()) &&
         "axpy_gf256: dst and src overlap");
  if (c == 0 || dst.empty()) return;
  const backend::KernelTable& k = backend::active();
  if (c == 1) {
    k.xor_bytes(dst.data(), src.data(), dst.size());
    return;
  }
  k.axpy_u8(dst.data(), src.data(), dst.size(), c);
}

/// dst[i] = F::add(dst[i], F::mul(c, src[i])) for all i.  GF(256) rows are
/// routed through the backend byte kernels above.
template <GaloisField F>
void axpy(std::span<typename F::value_type> dst,
          std::span<const typename F::value_type> src,
          typename F::value_type c) noexcept {
  assert(dst.size() == src.size() && "gf::axpy: span length mismatch");
  assert(detail::spans_disjoint(dst.data(), src.data(),
                                dst.size() * sizeof(typename F::value_type)) &&
         "gf::axpy: dst and src overlap");
  if constexpr (std::is_same_v<F, GF2m<8, 0x11D>>) {
    axpy_gf256(dst, src, c);
    return;
  } else {
    if (c == F::zero) return;
    const std::size_t m = dst.size();
    if (c == F::one) {
      for (std::size_t i = 0; i < m; ++i) dst[i] = F::add(dst[i], src[i]);
      return;
    }
    for (std::size_t i = 0; i < m; ++i) dst[i] = F::add(dst[i], F::mul(c, src[i]));
  }
}

/// dst[i] = F::mul(c, dst[i]) for all i (in place; the one sanctioned aliased
/// update).  GF(256) rows go through the backend scale kernel.
template <GaloisField F>
void scale(std::span<typename F::value_type> dst, typename F::value_type c) noexcept {
  if (c == F::one) return;
  if constexpr (std::is_same_v<F, GF2m<8, 0x11D>>) {
    if (dst.empty()) return;
    backend::active().scale_u8(dst.data(), dst.size(), c);
  } else {
    for (auto& x : dst) x = F::mul(c, x);
  }
}

/// Word-parallel XOR for bit-packed GF(2) rows: dst ^= src.  Spans of up to
/// kInlineXorWords words (every coefficient row at k <= 256) take an inline
/// scalar loop; longer ones go through the active backend (128/256-bit
/// vector XOR under SSSE3/AVX2, 512-bit under GFNI), where the indirect call
/// pays for itself.
inline constexpr std::size_t kInlineXorWords = 4;

inline void xor_words(std::span<std::uint64_t> dst,
                      std::span<const std::uint64_t> src) noexcept {
  assert(dst.size() == src.size() && "gf::xor_words: span length mismatch");
  assert(detail::spans_disjoint(dst.data(), src.data(), dst.size() * 8) &&
         "gf::xor_words: dst and src overlap");
  if (dst.size() <= kInlineXorWords) {
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] ^= src[i];
    return;
  }
  backend::active().xor_words(dst.data(), src.data(), dst.size());
}

}  // namespace ag::gf
