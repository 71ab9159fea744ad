// Differential tests for the runtime-dispatched GF kernel backends.
//
// Every backend this build + CPU provides is checked byte-for-byte against
// an elementwise GF(256) reference (and against the scalar backend, which is
// the shipped reference implementation) over:
//   * lengths 0..130 -- crosses the 16-byte SSSE3, 32-byte AVX2 and 64-byte
//     GFNI vector widths, including every tail size;
//   * unaligned source/destination offsets 0..31 -- no kernel may require
//     alignment;
//   * all 256 multiplicands at spot lengths -- the split-nibble tables and
//     the GFNI affine matrices must agree with log/exp multiplication
//     everywhere, including c = 0 / 1.
// Buffers carry guard bands, so a kernel that over-reads is caught by ASan
// (CI forces AG_GF_BACKEND=avx2 and =gfni under ASan) and a kernel that
// over-WRITES is caught right here by the guard comparison.
//
// The dispatch tests assert the AG_GF_BACKEND forcing contract: every
// available backend can be forced by name, and unknown or unavailable names
// fall back gracefully to the detected best instead of aborting.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gf/backend/backend.hpp"
#include "gf/backend/nibble_tables.hpp"
#include "gf/bulk_ops.hpp"
#include "gf/gf2m.hpp"

namespace {

namespace be = ag::gf::backend;
using ag::gf::GF256;

// Deterministic byte pattern; distinct streams per (seed, index).
std::uint8_t pattern(std::uint64_t seed, std::size_t i) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + i * 0xBF58476D1CE4E5B9ull;
  x ^= x >> 31;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 29;
  return static_cast<std::uint8_t>(x);
}

constexpr std::size_t kGuard = 64;  // guard band on each side of the dst region

struct Sweep {
  std::size_t len;
  std::size_t dst_off;
  std::size_t src_off;
  std::uint8_t c;
};

// All (len 0..130) x (offset 0..31) combinations with a handful of
// multiplicands, plus all 256 multiplicands at spot lengths.
std::vector<Sweep> sweep_cases() {
  std::vector<Sweep> cases;
  constexpr std::uint8_t kSpotC[] = {0, 1, 2, 37, 0x8E, 255};
  for (std::size_t len = 0; len <= 130; ++len) {
    for (std::size_t off = 0; off < 32; ++off) {
      // One src/dst offset pair per (len, off); the pair decorrelates the
      // two offsets so both axes get full 0..31 coverage across the sweep.
      const std::size_t dst_off = off;
      const std::size_t src_off = (off * 7 + 3) % 32;
      for (const std::uint8_t c : kSpotC) cases.push_back({len, dst_off, src_off, c});
    }
  }
  for (unsigned c = 0; c < 256; ++c) {
    for (const std::size_t len : {1u, 16u, 31u, 32u, 33u, 64u, 127u, 128u}) {
      cases.push_back({len, (c * 5) % 32, (c * 11 + 7) % 32,
                       static_cast<std::uint8_t>(c)});
    }
  }
  return cases;
}

class GfBackendDifferential : public ::testing::TestWithParam<be::Backend> {};

TEST_P(GfBackendDifferential, AxpyMatchesElementwiseReference) {
  const be::KernelTable* kt = be::table_for(GetParam());
  ASSERT_NE(kt, nullptr);
  std::uint64_t seed = 1;
  for (const Sweep& sw : sweep_cases()) {
    ++seed;
    std::vector<std::uint8_t> dst(kGuard + 32 + sw.len + kGuard);
    std::vector<std::uint8_t> src(32 + sw.len);
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = pattern(seed, i);
    for (std::size_t i = 0; i < src.size(); ++i) src[i] = pattern(seed + 1, i);

    std::vector<std::uint8_t> expected = dst;
    std::uint8_t* const d = dst.data() + kGuard + sw.dst_off;
    std::uint8_t* const e = expected.data() + kGuard + sw.dst_off;
    const std::uint8_t* const s = src.data() + sw.src_off;
    for (std::size_t i = 0; i < sw.len; ++i) e[i] ^= GF256::mul(sw.c, s[i]);

    kt->axpy_u8(d, s, sw.len, sw.c);
    ASSERT_EQ(dst, expected) << "backend=" << kt->name << " len=" << sw.len
                             << " dst_off=" << sw.dst_off
                             << " src_off=" << sw.src_off
                             << " c=" << static_cast<int>(sw.c);
  }
}

TEST_P(GfBackendDifferential, ScaleMatchesElementwiseReference) {
  const be::KernelTable* kt = be::table_for(GetParam());
  ASSERT_NE(kt, nullptr);
  std::uint64_t seed = 1000;
  for (const Sweep& sw : sweep_cases()) {
    ++seed;
    std::vector<std::uint8_t> dst(kGuard + 32 + sw.len + kGuard);
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = pattern(seed, i);

    std::vector<std::uint8_t> expected = dst;
    std::uint8_t* const d = dst.data() + kGuard + sw.dst_off;
    std::uint8_t* const e = expected.data() + kGuard + sw.dst_off;
    for (std::size_t i = 0; i < sw.len; ++i) e[i] = GF256::mul(sw.c, e[i]);

    kt->scale_u8(d, sw.len, sw.c);
    ASSERT_EQ(dst, expected) << "backend=" << kt->name << " len=" << sw.len
                             << " dst_off=" << sw.dst_off
                             << " c=" << static_cast<int>(sw.c);
  }
}

TEST_P(GfBackendDifferential, XorBytesMatchesElementwiseReference) {
  const be::KernelTable* kt = be::table_for(GetParam());
  ASSERT_NE(kt, nullptr);
  std::uint64_t seed = 2000;
  for (std::size_t len = 0; len <= 130; ++len) {
    for (std::size_t off = 0; off < 32; ++off) {
      ++seed;
      const std::size_t dst_off = off, src_off = (off * 13 + 5) % 32;
      std::vector<std::uint8_t> dst(kGuard + 32 + len + kGuard);
      std::vector<std::uint8_t> src(32 + len);
      for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = pattern(seed, i);
      for (std::size_t i = 0; i < src.size(); ++i) src[i] = pattern(seed + 1, i);

      std::vector<std::uint8_t> expected = dst;
      for (std::size_t i = 0; i < len; ++i)
        expected[kGuard + dst_off + i] ^= src[src_off + i];

      kt->xor_bytes(dst.data() + kGuard + dst_off, src.data() + src_off, len);
      ASSERT_EQ(dst, expected) << "backend=" << kt->name << " len=" << len
                               << " dst_off=" << dst_off << " src_off=" << src_off;
    }
  }
}

TEST_P(GfBackendDifferential, XorWordsMatchesElementwiseReference) {
  const be::KernelTable* kt = be::table_for(GetParam());
  ASSERT_NE(kt, nullptr);
  std::uint64_t seed = 3000;
  for (std::size_t words = 0; words <= 40; ++words) {
    for (std::size_t off = 0; off < 8; ++off) {
      ++seed;
      const std::size_t dst_off = off, src_off = (off * 3 + 1) % 8;
      std::vector<std::uint64_t> dst(8 + 8 + words + 8);
      std::vector<std::uint64_t> src(8 + words);
      for (std::size_t i = 0; i < dst.size(); ++i)
        dst[i] = pattern(seed, i) * 0x0101010101010101ull;
      for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = pattern(seed + 1, i) * 0x0101010101010101ull;

      std::vector<std::uint64_t> expected = dst;
      for (std::size_t i = 0; i < words; ++i)
        expected[8 + dst_off + i] ^= src[src_off + i];

      kt->xor_words(dst.data() + 8 + dst_off, src.data() + src_off, words);
      ASSERT_EQ(dst, expected) << "backend=" << kt->name << " words=" << words
                               << " dst_off=" << dst_off << " src_off=" << src_off;
    }
  }
}

// Cross-backend agreement: every available backend vs the scalar kernels on
// identical inputs (the scalar backend IS the reference implementation the
// others must be byte-identical to).
TEST_P(GfBackendDifferential, AgreesWithScalarBackend) {
  const be::KernelTable* kt = be::table_for(GetParam());
  const be::KernelTable& ref = be::detail::scalar_kernels();
  ASSERT_NE(kt, nullptr);
  for (const std::size_t len : {0u, 1u, 15u, 16u, 17u, 33u, 64u, 129u, 1024u}) {
    for (const std::uint8_t c : {0, 1, 2, 91, 254, 255}) {
      std::vector<std::uint8_t> a(len), b(len), src(len);
      for (std::size_t i = 0; i < len; ++i) {
        a[i] = b[i] = pattern(42, i);
        src[i] = pattern(43, i);
      }
      kt->axpy_u8(a.data(), src.data(), len, c);
      ref.axpy_u8(b.data(), src.data(), len, c);
      ASSERT_EQ(a, b) << "axpy backend=" << kt->name << " len=" << len
                      << " c=" << static_cast<int>(c);
      kt->scale_u8(a.data(), len, c);
      ref.scale_u8(b.data(), len, c);
      ASSERT_EQ(a, b) << "scale backend=" << kt->name << " len=" << len
                      << " c=" << static_cast<int>(c);
    }
  }
}

// The public dispatcher: spans up to gf::kInlineXorWords take an inline loop,
// longer ones the active backend.  Both paths, at unaligned offsets, must
// match the scalar kernel (run under each AG_GF_BACKEND by the CI matrix).
TEST(GfBackend, DispatchedXorWordsMatchesScalar) {
  const be::KernelTable& ref = be::detail::scalar_kernels();
  std::uint64_t seed = 5000;
  for (std::size_t words = 0; words <= 9; ++words) {
    for (std::size_t off = 0; off < 4; ++off) {
      ++seed;
      const std::size_t dst_off = off, src_off = (off * 3 + 1) % 4;
      std::vector<std::uint64_t> dst(4 + words), src(4 + words);
      for (std::size_t i = 0; i < dst.size(); ++i) {
        dst[i] = pattern(seed, i) * 0x0101010101010101ull;
        src[i] = pattern(seed + 1, i) * 0x0101010101010101ull;
      }
      std::vector<std::uint64_t> expected = dst;
      ref.xor_words(expected.data() + dst_off, src.data() + src_off, words);
      ag::gf::xor_words(std::span(dst).subspan(dst_off, words),
                        std::span<const std::uint64_t>(src).subspan(src_off, words));
      ASSERT_EQ(dst, expected) << "words=" << words << " dst_off=" << dst_off
                               << " src_off=" << src_off;
    }
  }
}

// The GFNI kernels' matrices, applied bit by bit the way GF2P8AFFINEQB
// reads them (output bit i = parity of byte 7 - i AND the source byte), are
// multiplication by c for every c and every source byte.  Needs no GFNI
// hardware, so the tables are checked on every host.
TEST(GfBackend, AffineMatricesMatchMultiply) {
  const auto& m = be::detail::affine_matrices();
  for (unsigned c = 0; c < 256; ++c) {
    for (unsigned s = 0; s < 256; ++s) {
      unsigned out = 0;
      for (unsigned i = 0; i < 8; ++i) {
        const auto row = static_cast<unsigned>((m.affine[c] >> (8 * (7 - i))) & 0xff);
        out |= static_cast<unsigned>(std::popcount(row & s) & 1) << i;
      }
      ASSERT_EQ(out, GF256::mul(static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(s)))
          << "c=" << c << " s=" << s;
    }
  }
}

std::string backend_param_name(const ::testing::TestParamInfo<be::Backend>& info) {
  return be::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllAvailable, GfBackendDifferential,
                         ::testing::ValuesIn(be::available_backends()),
                         backend_param_name);

// ---------------------------------------------------------------------------
// Dispatch contract
// ---------------------------------------------------------------------------

class GfBackendDispatch : public ::testing::Test {
 protected:
  void TearDown() override {
    // Restore whatever forcing the surrounding test run was started with
    // (the CI backend matrix exports AG_GF_BACKEND for the whole process).
    if (saved_.has_value()) {
      ::setenv("AG_GF_BACKEND", saved_->c_str(), 1);
    } else {
      ::unsetenv("AG_GF_BACKEND");
    }
    be::reselect();
  }

  void SetUp() override {
    if (const char* e = std::getenv("AG_GF_BACKEND")) saved_ = std::string(e);
  }

 private:
  std::optional<std::string> saved_;
};

TEST_F(GfBackendDispatch, ScalarAlwaysAvailable) {
  EXPECT_NE(be::table_for(be::Backend::scalar), nullptr);
  const auto avail = be::available_backends();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), be::Backend::scalar);
}

TEST_F(GfBackendDispatch, ForcingEveryAvailableBackendIsHonored) {
  for (const be::Backend b : be::available_backends()) {
    ::setenv("AG_GF_BACKEND", be::to_string(b), 1);
    EXPECT_EQ(be::reselect(), b);
    EXPECT_EQ(be::active_backend(), b);
    EXPECT_STREQ(be::active().name, be::to_string(b));
  }
}

TEST_F(GfBackendDispatch, UnknownNameFallsBackToDetectedBest) {
  ::setenv("AG_GF_BACKEND", "avx512", 1);  // not a backend we ship
  EXPECT_EQ(be::reselect(), be::detect_best());
  ::setenv("AG_GF_BACKEND", "bogus", 1);
  EXPECT_EQ(be::reselect(), be::detect_best());
  ::setenv("AG_GF_BACKEND", "", 1);  // empty value = no forcing
  EXPECT_EQ(be::reselect(), be::detect_best());
}

TEST_F(GfBackendDispatch, UnavailableBackendFallsBackGracefully) {
  // Request every backend we know the NAME of; whether or not this build/CPU
  // provides it, selection must land on a non-null kernel table.
  for (const char* name : {"scalar", "ssse3", "avx2", "gfni"}) {
    ::setenv("AG_GF_BACKEND", name, 1);
    const be::Backend got = be::reselect();
    EXPECT_NE(be::table_for(got), nullptr) << "forced " << name;
    be::Backend requested{};
    ASSERT_TRUE(be::parse_backend(name, requested));
    if (be::table_for(requested) != nullptr) {
      EXPECT_EQ(got, requested) << "available backend must be honored";
    } else {
      EXPECT_EQ(got, be::detect_best()) << "unavailable backend must fall back";
    }
  }
}

TEST_F(GfBackendDispatch, UnsetEnvSelectsDetectedBest) {
  ::unsetenv("AG_GF_BACKEND");
  EXPECT_EQ(be::reselect(), be::detect_best());
}

// The public bulk ops must follow a reselect (they dispatch through
// active(); a stale cached pointer would mean the env knob silently stopped
// working after the first call).
TEST_F(GfBackendDispatch, BulkOpsFollowReselection) {
  std::vector<std::uint8_t> base(100), src(100);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = pattern(7, i);
    src[i] = pattern(8, i);
  }
  std::vector<std::vector<std::uint8_t>> results;
  for (const be::Backend b : be::available_backends()) {
    ::setenv("AG_GF_BACKEND", be::to_string(b), 1);
    be::reselect();
    std::vector<std::uint8_t> dst = base;
    ag::gf::axpy_gf256(dst, src, std::uint8_t{37});
    results.push_back(std::move(dst));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0])
        << "backend " << be::to_string(be::available_backends()[i])
        << " disagrees with scalar through the public dispatcher";
  }
}

}  // namespace
