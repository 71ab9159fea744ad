// Runtime-dispatched GF(256) / GF(2) kernel backend.
//
// Every protocol in the paper reduces to the same inner loop -- random linear
// combination and Gaussian elimination -- so the throughput of the four bulk
// kernels below is the ceiling on how large an (n, k) sweep the simulator can
// run.  This subsystem provides one portable scalar reference implementation
// plus SSSE3 and AVX2 GF(256) kernels (classic PSHUFB split-nibble product
// tables) and a GFNI + AVX-512 kernel (one GF2P8AFFINEQB bit-matrix multiply
// per 64 bytes), selected ONCE at startup from CPUID feature detection and
// exposed through a table of function pointers.  `gf::axpy` / `gf::scale` /
// `gf::xor_words` in bulk_ops.hpp are thin dispatchers over this table, so
// DenseDecoder, BitDecoder and all protocols pick up the fastest kernel with
// zero call-site churn.
//
// Selection:
//   * default: the best backend both compiled in AND supported by the CPU
//     (GFNI > AVX2 > SSSE3 > scalar);
//   * override: the AG_GF_BACKEND environment variable
//     (scalar|ssse3|avx2|gfni).
//     Requesting a backend that is unknown, compiled out, or unsupported by
//     the running CPU falls back gracefully to the detected best -- it never
//     aborts, so a pinned CI recipe still runs on older hardware.
//
// Correctness contract: GF arithmetic is exact, so every backend must produce
// byte-identical results for identical inputs.  tests/test_gf_backends.cpp
// differentially checks each available backend against the scalar reference
// over lengths 0..130, unaligned offsets 0..31 and all 256 multiplicands,
// and the golden-trace / differential-decoder suites are re-run under every
// forced AG_GF_BACKEND value in CI.
//
// Alignment: all kernels use unaligned loads/stores, so ANY buffer is
// correct; 32-byte aligned data additionally avoids cache-line splits for
// the AVX2 kernels, which is why the decoder row arenas are 32-byte aligned
// and row-stride padded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace ag::gf::backend {

// The kernel table one backend provides.  All kernels accept n == 0 and any
// multiplicand value (including 0 and 1); dst/src must not overlap.
struct KernelTable {
  // dst[i] ^= c * src[i] over GF(256), i in [0, n).
  void (*axpy_u8)(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                  std::uint8_t c) noexcept;
  // dst[i] = c * dst[i] over GF(256), i in [0, n).
  void (*scale_u8)(std::uint8_t* dst, std::size_t n, std::uint8_t c) noexcept;
  // dst[i] ^= src[i] bytewise (the GF(256) c == 1 path), i in [0, n).
  void (*xor_bytes)(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t n) noexcept;
  // dst[i] ^= src[i] over 64-bit words (bit-packed GF(2) rows), i in [0, n).
  void (*xor_words)(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t n) noexcept;
  const char* name;
};

enum class Backend : int { scalar = 0, ssse3 = 1, avx2 = 2, gfni = 3 };

// Canonical lower-case name ("scalar", "ssse3", "avx2", "gfni").
const char* to_string(Backend b) noexcept;

// Parses an AG_GF_BACKEND value; returns false for unknown names.
bool parse_backend(std::string_view s, Backend& out) noexcept;

// The kernel table for `b`, or nullptr when that backend was compiled out or
// the running CPU lacks the instruction set.  Backend::scalar never fails.
const KernelTable* table_for(Backend b) noexcept;

// Best backend available on this build + CPU (GFNI > AVX2 > SSSE3 > scalar).
Backend detect_best() noexcept;

// Every backend usable right now, scalar first.
std::vector<Backend> available_backends();

// The selected backend / kernel table.  Resolved once on first use (CPUID +
// AG_GF_BACKEND override) and cached; `active()` afterwards is one atomic
// pointer load, cheap enough to sit in front of every bulk call.
Backend active_backend() noexcept;
const KernelTable& active() noexcept;

// Re-reads AG_GF_BACKEND and re-runs selection (for tests that setenv and
// want the change observed).  Returns the newly selected backend.
Backend reselect() noexcept;

namespace detail {
// Per-backend table providers.  The SIMD providers return nullptr when their
// translation unit was compiled without the matching -m flag (non-x86 target
// or unsupported compiler); CPU support is checked separately in table_for.
const KernelTable& scalar_kernels() noexcept;
const KernelTable* ssse3_kernels() noexcept;
const KernelTable* avx2_kernels() noexcept;
const KernelTable* gfni_kernels() noexcept;
bool cpu_has_ssse3() noexcept;
bool cpu_has_avx2() noexcept;
// GFNI with AVX-512BW: the kernels use 512-bit GF2P8AFFINEQB and byte masks.
bool cpu_has_gfni() noexcept;
}  // namespace detail

}  // namespace ag::gf::backend
