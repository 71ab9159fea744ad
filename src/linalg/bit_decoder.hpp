/// \file
/// Bit-packed incremental decoder over GF(2).
///
/// Same contract as DenseDecoder<GF2> but with coefficient rows packed 64 bits
/// per word, so a rank update costs O(k * rank / 64) word operations.  The
/// large stopping-time sweeps (e.g. the barbell's Theta(n^2) rounds, Table 1 /
/// E5) use this representation: the paper's bounds hold for every q >= 2, and
/// q = 2 only changes the helpfulness constant from 1 - 1/q to 1/2, not the
/// order.
///
/// BitRrefView<Mutable> is the state as a view; BitDecoder owns one node's
/// worth of it (layout and ownership rules: linalg/rref_view.hpp).  Each row
/// is a contiguous [coeff words | payload words] stripe.  Stored rows are
/// zero before their pivot word (first set bit = pivot), so eliminations XOR
/// only the tail from the pivot word on.  insert() XORs the coefficient
/// words first and the payload words only for a helpful packet; back
/// elimination XORs a stored row's coefficient tail and payload in one
/// xor_words call over the contiguous stripe.
///
/// The two kernels every gossip round runs avoid a data-dependent branch
/// per row:
///   * the uniform combination draws one 64-bit word per 64 stored rows and
///     walks the set bits of the draw, XORing each selected row in.  When
///     the row is one coefficient word and nothing else (a rank tracker at
///     k <= 64, the pooled engines' shape) it instead sums all 64 rows of
///     the chunk in a register, each masked by its bit (row & (0 - bit)),
///     and stores the word once;
///   * the coefficient pass of a one-word row sums, in a register, the row
///     of every set bit of the packet, masked to zero when no row owns that
///     pivot, and stores the reduced word once.
/// Wider rows keep the per-bit XOR of coefficient tails: micro_decoder
/// measured the masked forms slower there (they load a row for every set
/// bit, owned or not, and lose xor_words' vector path).  Draws, verdicts and
/// stored rows are those of the per-row loops (tests/bit_row_loop_oracle.hpp).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gf/bulk_ops.hpp"
#include "linalg/rref_view.hpp"
#include "util/urbg.hpp"

namespace ag::linalg {

/// A GF(2) coded packet; coefficients and payload both bit/word packed.
struct BitPacket {
  std::vector<std::uint64_t> coeffs;   // ceil(k/64) words
  std::vector<std::uint64_t> payload;  // payload_words words

  bool is_zero() const noexcept {
    for (auto w : coeffs)
      if (w != 0) return false;
    return true;
  }
};

/// \brief Incremental RREF view over GF(2) with coefficient rows packed 64
/// bits per word; payload symbols are whole words.
///
/// Mutable = false is the read-only view (no insert()); see
/// linalg/rref_view.hpp for the state it views and for who owns it.
template <bool Mutable>
class BitRrefView : public detail::RrefViewBase<BitRrefView<Mutable>, std::uint64_t,
                                                BitPacket, Mutable> {
  using Base = detail::RrefViewBase<BitRrefView, std::uint64_t, BitPacket, Mutable>;
  friend Base;
  using Base::kNoColumn, Base::k_, Base::width_, Base::pivot_row_, Base::rank_,
      Base::payload_, Base::row_stride_, Base::scratch_, Base::row_ptr, Base::tail,
      Base::coeff_tail;

 public:
  using value_type = std::uint64_t;
  using packet_type = BitPacket;
  using const_view = BitRrefView<false>;
  using Base::Base;

  static constexpr std::size_t words_for(std::size_t bits) noexcept {
    return (bits + 63) / 64;
  }
  static constexpr std::size_t coeff_width(std::size_t k) noexcept {
    return words_for(k);
  }

  /// Payload symbols are whole words over GF(2); any 64-bit value is valid.
  static constexpr std::uint64_t payload_symbol_from(std::uint64_t w) noexcept {
    return w;
  }

  /// Wire size of one coded packet: k coefficient bits + payload bits.
  static double symbol_bits() noexcept { return 64.0; }  // one payload word
  static double packet_bits(std::size_t k, std::size_t payload_words) noexcept {
    return static_cast<double>(k) + static_cast<double>(payload_words) * 64.0;
  }

  /// Inserts a packet; returns true iff it increased the rank (was helpful).
  bool insert(const packet_type& pkt) requires Mutable {
    if (this->full_rank()) return false;
    const std::size_t pivot = reduce<true>(pkt.coeffs);
    if (pivot == kNoColumn) return false;
    std::uint64_t* row = scratch_;

    // The payload gets the XORs the coefficient pass made: one per set bit
    // of the packet's own coefficients at a stored pivot column (see
    // linalg/rref_view.hpp).
    const std::span<std::uint64_t> payload = this->stage_payload(pkt);
    if (!payload.empty()) {
      for (std::size_t w = 0; w < width_; ++w) {
        for (std::uint64_t bits = pkt.coeffs[w]; bits != 0; bits &= bits - 1) {
          const std::uint32_t ri = pivot_row_[w * 64 + std::countr_zero(bits)];
          if (ri != kNoPivot) gf::xor_words(payload, this->payload_of(row_ptr(ri)));
        }
      }
    }

    // Back-eliminate this pivot from existing rows (keeps RREF).  A row with
    // this pivot bit set has its own pivot strictly below `pivot`, so its
    // prefix words are untouched.
    const std::size_t pw = pivot / 64;
    const std::uint64_t pm = std::uint64_t{1} << (pivot % 64);
    for (std::uint32_t i = 0; i < *rank_; ++i) {
      std::uint64_t* r = row_ptr(i);
      if (r[pw] & pm) gf::xor_words(tail(r, pw), tail(row, pw));
    }
    return this->append(pivot);
  }

  /// Whether `coeffs` lies in the stored row space.  Clobbers the scratch
  /// stripe; allocates nothing.
  bool contains(std::span<const std::uint64_t> coeffs) const {
    return reduce<false>(coeffs) == kNoColumn;
  }

  /// Uniform random combination (each stored row joins with probability
  /// 1/2).  One util::random_bits(rng, 64) draw per chunk of 64 stored rows,
  /// bit i selecting row i of the chunk, so any URBG width is handled and
  /// the draws depend on the rank alone.  The selected rows are summed
  /// without a per-row branch (file comment).
  template <typename URBG>
  bool random_combination_into(URBG& rng, packet_type& out) const {
    const std::uint32_t rank = *rank_;
    if (rank == 0) return false;
    out.coeffs.assign(width_, 0);
    out.payload.assign(payload_, 0);
    for (std::uint32_t base = 0; base < rank; base += 64) {
      const std::uint32_t n = std::min<std::uint32_t>(rank - base, 64);
      const std::uint64_t bits = util::random_bits(rng, 64);
      if (width_ == 1 && payload_ == 0) {
        std::uint64_t a = 0;
        const std::uint64_t* r = row_ptr(base);
        for (std::uint32_t i = 0; i < n; ++i, r += row_stride_) {
          a ^= *r & (0 - ((bits >> i) & 1));
        }
        out.coeffs[0] ^= a;
        continue;
      }
      const std::uint64_t live = n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
      for (std::uint64_t b = bits & live; b != 0; b &= b - 1) {
        const std::uint64_t* r = row_ptr(base + std::countr_zero(b));
        gf::xor_words(out.coeffs, {r, width_});
        if (payload_ != 0) gf::xor_words(out.payload, this->payload_of(r));
      }
    }
    return true;
  }

  /// Sparse-coding variant: each stored row joins the XOR independently with
  /// probability `density` (over GF(2) the only nonzero coefficient is 1).
  template <typename URBG>
  bool random_combination_into(URBG& rng, double density, packet_type& out) const {
    return this->combine(out, [&] {
      return static_cast<std::uint64_t>(util::canonical_double(rng) < density);
    });
  }

 private:
  /// The coefficient pass: stages `coeffs` in the scratch stripe and XORs
  /// into it, word by word, the coefficient tail of the stored row of every
  /// set bit of `coeffs` that has one.  Returns the lowest set pivot-free
  /// column -- the new pivot -- or kNoColumn if `coeffs` lies in the row
  /// space.  After word w's XORs that word holds only pivot-free bits, and
  /// no later XOR reaches it (stored rows are zero before their pivot word).
  /// Full = false (contains()) stops at the first such word; Full = true
  /// (insert()) finishes the pass, so the row ends zero at every pivot
  /// column as a stored row must be.  One-word rows take reduce_word().
  template <bool Full>
  std::size_t reduce(std::span<const std::uint64_t> coeffs) const {
    if (width_ == 1) return reduce_word(coeffs[0]);
    const std::span<std::uint64_t> row = this->stage_coeffs(coeffs);
    std::size_t pivot = kNoColumn;
    for (std::size_t w = 0; w < width_; ++w) {
      for (std::uint64_t bits = coeffs[w]; bits != 0; bits &= bits - 1) {
        const std::uint32_t ri = pivot_row_[w * 64 + std::countr_zero(bits)];
        if (ri != kNoPivot) gf::xor_words(row.subspan(w), coeff_tail(row_ptr(ri), w));
      }
      if (row[w] != 0 && pivot == kNoColumn) {
        const std::size_t col = w * 64 + static_cast<std::size_t>(std::countr_zero(row[w]));
        if constexpr (!Full) return col;
        pivot = col;
      }
    }
    assert(reduced_at_pivots(row));
    return pivot;
  }

  /// The coefficient pass of a one-word row (k <= 64), summed in a register
  /// and stored to the scratch stripe once.  A set bit without a stored row
  /// masks its load to zero instead of branching; row 0 stands in for the
  /// missing row, so the sum runs only at rank > 0.
  std::size_t reduce_word(std::uint64_t coeffs) const {
    std::uint64_t a = coeffs;
    if (*rank_ != 0) {
      for (std::uint64_t bits = coeffs; bits != 0; bits &= bits - 1) {
        const std::uint32_t ri = pivot_row_[std::countr_zero(bits)];
        const std::uint64_t has = ri != kNoPivot;
        a ^= *row_ptr(has ? ri : 0) & (0 - has);
      }
    }
    *scratch_ = a;
    assert(reduced_at_pivots({scratch_, 1}));
    return a != 0 ? static_cast<std::size_t>(std::countr_zero(a)) : kNoColumn;
  }

  // Whether `row` is zero at every stored pivot column: true after a full
  // pass exactly when the stored rows are fully reduced.
  bool reduced_at_pivots(std::span<const std::uint64_t> row) const noexcept {
    for (std::size_t c = 0; c < k_; ++c) {
      if (pivot_row_[c] != kNoPivot && ((row[c / 64] >> (c % 64)) & 1) != 0) return false;
    }
    return true;
  }

  static void set_unit(std::vector<std::uint64_t>& coeffs, std::size_t i) {
    coeffs[i / 64] = std::uint64_t{1} << (i % 64);
  }
  static void add_scaled(std::span<std::uint64_t> dst, std::span<const std::uint64_t> src,
                         std::uint64_t /*c == 1*/) noexcept {
    gf::xor_words(dst, src);
  }
};

/// \brief Bit-packed GF(2) decoder with payload storage: the workhorse for
/// the paper's big stopping-time sweeps.  For rank-only large-n work use
/// linalg::BitRankTracker.
using BitDecoder = detail::RrefOwner<BitRrefView<true>, false>;

}  // namespace ag::linalg
