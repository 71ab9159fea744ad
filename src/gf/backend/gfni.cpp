// GFNI + AVX-512 GF(256) kernels: 64 bytes per step, one GF2P8AFFINEQB per
// multiply.
//
// Compiled with -mavx512f -mavx512bw -mgfni only on x86 targets whose
// compiler supports them (the build sets AG_GF_ENABLE_GFNI alongside the
// flags); otherwise this file degrades to a stub provider returning nullptr.
// Runtime CPU support is checked separately by the dispatcher.
//
// GF2P8AFFINEQB multiplies every byte of a vector by an 8x8 bit matrix, and
// "multiply by c" in the 0x11D field is such a matrix (detail::
// affine_matrices(), built beside the nibble tables), so one instruction
// replaces the two PSHUFB lookups, shift and masks of the SSSE3/AVX2
// kernels.  Every tail is one masked load/store (AVX-512BW byte masks), so
// there is no scalar remainder loop and no byte outside [0, n) is read or
// written.
#include "gf/backend/backend.hpp"
#include "gf/backend/nibble_tables.hpp"

#if defined(AG_GF_ENABLE_GFNI)

#include <immintrin.h>

namespace ag::gf::backend {

namespace {

// The low n bits set, 0 < n < 64: the lanes of a partial last vector.
__mmask64 low_lanes(std::size_t n) noexcept { return ~__mmask64{0} >> (64 - n); }

void xor_bytes_gfni(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i d = _mm512_loadu_si512(dst + i);
    const __m512i s = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_xor_si512(d, s));
  }
  if (i == n) return;
  const __mmask64 m = low_lanes(n - i);
  const __m512i d = _mm512_maskz_loadu_epi8(m, dst + i);
  const __m512i s = _mm512_maskz_loadu_epi8(m, src + i);
  _mm512_mask_storeu_epi8(dst + i, m, _mm512_xor_si512(d, s));
}

void xor_words_gfni(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i d = _mm512_loadu_si512(dst + i);
    const __m512i s = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_xor_si512(d, s));
  }
  if (i == n) return;
  const auto m = static_cast<__mmask8>(low_lanes(n - i));
  const __m512i d = _mm512_maskz_loadu_epi64(m, dst + i);
  const __m512i s = _mm512_maskz_loadu_epi64(m, src + i);
  _mm512_mask_storeu_epi64(dst + i, m, _mm512_xor_si512(d, s));
}

__m512i affine_of(std::uint8_t c) noexcept {
  return _mm512_set1_epi64(
      static_cast<long long>(detail::affine_matrices().affine[c]));
}

void axpy_u8_gfni(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                  std::uint8_t c) noexcept {
  if (c == 0) return;
  if (c == 1) {
    xor_bytes_gfni(dst, src, n);
    return;
  }
  const __m512i a = affine_of(c);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i s = _mm512_loadu_si512(src + i);
    const __m512i d = _mm512_loadu_si512(dst + i);
    _mm512_storeu_si512(dst + i,
                        _mm512_xor_si512(d, _mm512_gf2p8affine_epi64_epi8(s, a, 0)));
  }
  if (i == n) return;
  const __mmask64 m = low_lanes(n - i);
  const __m512i s = _mm512_maskz_loadu_epi8(m, src + i);
  const __m512i d = _mm512_maskz_loadu_epi8(m, dst + i);
  _mm512_mask_storeu_epi8(dst + i, m,
                          _mm512_xor_si512(d, _mm512_gf2p8affine_epi64_epi8(s, a, 0)));
}

// c == 0 needs no branch of its own: affine[0] is the zero matrix.
void scale_u8_gfni(std::uint8_t* dst, std::size_t n, std::uint8_t c) noexcept {
  if (c == 1) return;
  const __m512i a = affine_of(c);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i d = _mm512_loadu_si512(dst + i);
    _mm512_storeu_si512(dst + i, _mm512_gf2p8affine_epi64_epi8(d, a, 0));
  }
  if (i == n) return;
  const __mmask64 m = low_lanes(n - i);
  const __m512i d = _mm512_maskz_loadu_epi8(m, dst + i);
  _mm512_mask_storeu_epi8(dst + i, m, _mm512_gf2p8affine_epi64_epi8(d, a, 0));
}

constexpr KernelTable kGfniTable{
    axpy_u8_gfni, scale_u8_gfni, xor_bytes_gfni, xor_words_gfni,
    "gfni",
};

}  // namespace

const KernelTable* detail::gfni_kernels() noexcept { return &kGfniTable; }

}  // namespace ag::gf::backend

#else  // !AG_GF_ENABLE_GFNI

namespace ag::gf::backend {
const KernelTable* detail::gfni_kernels() noexcept { return nullptr; }
}  // namespace ag::gf::backend

#endif
