// GF(256) product tables shared by the SIMD backends: split-nibble tables
// for the PSHUFB kernels and affine matrices for the GFNI kernels.
//
// PSHUFB can look 16 bytes up in a 16-byte table in one instruction, so the
// classic vector GF(256) multiply splits each source byte s into nibbles and
// uses two per-multiplicand tables:
//
//   lo[c][x] = c * x          for x in 0..15   (product with the low nibble)
//   hi[c][x] = c * (x << 4)   for x in 0..15   (product with the high nibble)
//
// Then c * s == lo[c][s & 0xf] ^ hi[c][s >> 4] because GF(2^m) multiplication
// distributes over the XOR decomposition s = (s & 0xf) ^ (s >> 4 << 4).
// The same identity drives the shared scalar tail below, so vector body and
// tail agree byte-for-byte with each other and with the log/exp reference.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ag::gf::backend::detail {

struct alignas(32) NibbleTables {
  std::uint8_t lo[256][16];
  std::uint8_t hi[256][16];
};

// Built once on first use from the canonical GF(256) log/exp tables
// (8 KiB total; each 16-byte row is 16-byte aligned for _mm_load_si128).
const NibbleTables& nibble_tables() noexcept;

// GF2P8AFFINEQB form of the same products: affine[c] is the 8x8 bit matrix
// of "multiply by c" in the 0x11D field, as the instruction reads it.  Byte
// 7 - i of the matrix is the row for output bit i, and bit j of that row is
// bit i of c * x^j, so output bit i = parity(row_i & s) = bit i of c * s.
// Built once on first use from the same canonical tables (2 KiB).
struct AffineMatrices {
  std::uint64_t affine[256];
};

const AffineMatrices& affine_matrices() noexcept;

// Scalar remainder loops used by every vector kernel after the full-vector
// body: exact GF(256) products via the same nibble tables.
inline void axpy_u8_tail(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t n, const std::uint8_t* lo,
                         const std::uint8_t* hi) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t s = src[i];
    dst[i] ^= static_cast<std::uint8_t>(lo[s & 0x0f] ^ hi[s >> 4]);
  }
}

inline void scale_u8_tail(std::uint8_t* dst, std::size_t n,
                          const std::uint8_t* lo, const std::uint8_t* hi) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t d = dst[i];
    dst[i] = static_cast<std::uint8_t>(lo[d & 0x0f] ^ hi[d >> 4]);
  }
}

}  // namespace ag::gf::backend::detail
