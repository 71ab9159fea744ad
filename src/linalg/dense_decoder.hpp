/// \file
/// Incremental Gaussian-elimination decoder over a generic finite field.
///
/// This is the data structure every algebraic-gossip node maintains (Section 2
/// of the paper): a matrix of linear equations over F_q in the k unknown
/// messages, kept in reduced row-echelon form.  A received packet is appended
/// iff it is linearly independent of the stored rows -- i.e. iff it is a
/// "helpful message" (Definition 3); otherwise it is ignored.  Once the rank
/// reaches k the node solves the system, which in RREF is a read-off.
///
/// DenseRrefView<F, Mutable> is that state as a view, one GF(q) symbol per
/// coefficient; DenseDecoder<F> owns one node's worth of it (the shared
/// layout and ownership rules are in linalg/rref_view.hpp).  Rows are
/// contiguous [coeffs (k) | payload (r)] stripes.  insert() reduces the
/// coefficients first and touches the payload only for a helpful packet; back
/// elimination then updates a stored row's coefficient tail and payload with
/// one axpy over the contiguous stripe.  insert_from() is the same insert for
/// a packet sent as coefficients alone: a helpful packet's payload is built
/// from the sender's rows, a dependent one's is never built at all.
///
/// Elimination exploits the RREF prefix invariant (every stored row is zero
/// strictly before its pivot column, proved in insert() below): eliminating
/// at column p only ever touches columns >= p, so all axpys run on the
/// [p, width) or [p, stride) tail instead of the whole row.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gf/bulk_ops.hpp"
#include "gf/field_concept.hpp"
#include "linalg/rref_view.hpp"
#include "util/urbg.hpp"

namespace ag::linalg {

/// A coded packet: coefficient vector over F (length k) plus payload symbols
/// over the same field (length r).  The pair represents the linear equation
///   sum_i coeffs[i] * x_i = payload.
template <gf::GaloisField F>
struct DensePacket {
  std::vector<typename F::value_type> coeffs;
  std::vector<typename F::value_type> payload;

  bool is_zero() const noexcept {
    for (auto c : coeffs)
      if (c != F::zero) return false;
    return true;
  }
};

/// \brief Incremental RREF view over GF(q) symbols, one per coefficient.
///
/// Cost per insert: O(k * rank) field operations.  Rows are normalized
/// (pivot = 1) and back-eliminated on insertion so that full rank implies the
/// identity matrix and decoded_message() is a read-off.  Mutable = false is
/// the read-only view (no insert()); see linalg/rref_view.hpp for the state
/// it views and for who owns it.
template <gf::GaloisField F, bool Mutable>
class DenseRrefView : public detail::RrefViewBase<DenseRrefView<F, Mutable>,
                                                  typename F::value_type,
                                                  DensePacket<F>, Mutable> {
  using Base = detail::RrefViewBase<DenseRrefView, typename F::value_type,
                                    DensePacket<F>, Mutable>;
  friend Base;
  using Base::kNoColumn, Base::k_, Base::pivot_row_, Base::rank_, Base::scratch_,
      Base::row_ptr, Base::tail, Base::coeff_tail;

 public:
  using field_type = F;
  using value_type = typename F::value_type;
  using packet_type = DensePacket<F>;
  using const_view = DenseRrefView<F, false>;
  using Base::Base;

  static constexpr std::size_t coeff_width(std::size_t k) noexcept { return k; }

  /// Maps an arbitrary 64-bit word to a valid payload symbol of this field.
  static constexpr value_type payload_symbol_from(std::uint64_t w) noexcept {
    return static_cast<value_type>(w % F::order);
  }

  /// Wire size of one coded packet (Section 2: "the length of each message is
  /// r log2 q + k log2 q bits").  A rank tracker simulates the same packets,
  /// so its accounting is the same although it stores no payload.
  static double symbol_bits() noexcept {
    return std::log2(static_cast<double>(F::order));
  }
  static double packet_bits(std::size_t k, std::size_t payload_len) noexcept {
    return static_cast<double>(k + payload_len) * symbol_bits();
  }

  /// Inserts a packet; returns true iff it increased the rank (was helpful).
  /// Draws no randomness.
  bool insert(const packet_type& pkt) requires Mutable {
    return insert_staged(pkt.coeffs, [&] { return this->stage_payload(pkt); });
  }

  /// Inserts the equation with coefficients `coeffs` whose payload is built
  /// from `sender`'s rows on demand: insert() of the packet `sender` would
  /// have sent, for any `coeffs` in `sender`'s row space.  Same verdict and
  /// same stored rows, byte for byte (the payload of an equation c in a
  /// fully reduced row space is sum_p c[p] * payload(row with pivot p),
  /// whichever rows the space currently has), but a dependent packet reads
  /// no payload anywhere and a helpful one is combined once, here.
  /// `sender` must be another node's state (it may have gained rows since
  /// `coeffs` was drawn) with this view's payload length.
  template <bool M>
  bool insert_from(std::span<const value_type> coeffs,
                   const DenseRrefView<F, M>& sender) requires Mutable {
    assert(this->payload_length() == 0 || sender.payload_length() == this->payload_length());
    return insert_staged(coeffs, [&] {
      const std::span<value_type> payload = this->stage_zero_payload();
      sender.add_pivot_payloads(payload, coeffs);
      return payload;
    });
  }

  /// Whether `coeffs` lies in the stored row space.  Clobbers the scratch
  /// stripe; allocates nothing.
  bool contains(std::span<const value_type> coeffs) const {
    return reduce<false>(coeffs) == kNoColumn;
  }

  /// Emits a uniformly random linear combination of the stored equations
  /// (the RLNC transmit rule).  Coefficients are i.i.d. uniform over F_q,
  /// so the all-zero combination is possible, exactly as the paper assumes
  /// when it lower-bounds helpfulness by 1 - 1/q.  Returns false when the
  /// node stores nothing (it has nothing to send).  `out`'s buffers are
  /// reused: a caller that recycles the same packet allocates nothing.
  template <typename URBG>
  bool random_combination_into(URBG& rng, packet_type& out) const {
    return this->combine(out, uniform_draw(rng));
  }

  /// The same transmit rule without the payload: the same draws in the same
  /// order, the same coefficients, and no payload kernel call.  The receiver
  /// builds the payload with insert_from() against this node's rows.
  template <typename URBG>
  bool random_coefficients_into(URBG& rng, std::vector<value_type>& coeffs) const {
    return this->combine(coeffs, uniform_draw(rng));
  }

  /// Sparse-coding variant (systems extension; kodo-style density knob): each
  /// stored row joins the combination independently with probability
  /// `density`, with a uniform *nonzero* coefficient.  density = 1 keeps every
  /// row (with nonzero coefficients, so strictly denser than the paper's
  /// uniform rule); low densities shrink the helpfulness probability, which
  /// bench E15 quantifies.  The all-zero packet is emitted when no row is
  /// selected -- part of the density trade-off.
  template <typename URBG>
  bool random_combination_into(URBG& rng, double density, packet_type& out) const {
    return this->combine(out, [&] {
      if (util::canonical_double(rng) >= density) return value_type{F::zero};
      return static_cast<value_type>(1 + util::uniform_below(rng, F::order - 1));
    });
  }

 private:
  template <gf::GaloisField, bool>
  friend class DenseRrefView;  // insert_from reads the sender's rows

  template <typename URBG>
  static auto uniform_draw(URBG& rng) noexcept {
    return [&rng] { return static_cast<value_type>(util::uniform_below(rng, F::order)); };
  }

  /// The one elimination body of insert() and insert_from(), which differ
  /// only in stage_payload(): called once the packet is known to be
  /// helpful, it stages the packet's payload behind the reduced
  /// coefficients and returns the payload span.
  template <typename StagePayload>
  bool insert_staged(std::span<const value_type> coeffs,
                     StagePayload stage_payload) requires Mutable {
    if (this->full_rank()) return false;
    const std::size_t pivot = reduce<true>(coeffs);
    if (pivot == kNoColumn) return false;  // linearly dependent: not helpful
    value_type* row = scratch_;

    // The payload gets the eliminations the coefficient pass made, with the
    // same multipliers: the packet's own coefficients at the pivot columns
    // (see linalg/rref_view.hpp).
    add_pivot_payloads(stage_payload(), coeffs);

    // Normalize so the pivot element is 1.  Everything before the pivot is
    // already zero, so scale the tail only.
    gf::scale<F>(tail(row, pivot), F::inv(row[pivot]));

    // Back-eliminate this pivot from all existing rows to keep RREF.  A row
    // with a nonzero entry at `pivot` has its own pivot strictly before
    // `pivot` (its pivot column is zero in the new row after forward
    // elimination), so its prefix is untouched and the invariant holds.
    for (std::uint32_t i = 0; i < *rank_; ++i) {
      value_type* r = row_ptr(i);
      const value_type c = r[pivot];
      if (c != F::zero) gf::axpy<F>(tail(r, pivot), tail(row, pivot), c);
    }
    return this->append(pivot);
  }

  /// dst += sum over stored pivots p of coeffs[p] * payload(row with pivot
  /// p).  No-op for an empty `dst` (a rank tracker's payload).
  void add_pivot_payloads(std::span<value_type> dst,
                          std::span<const value_type> coeffs) const {
    if (dst.empty()) return;
    for (std::size_t p = 0; p < k_; ++p) {
      const value_type c = coeffs[p];
      const std::uint32_t ri = pivot_row_[p];
      if (c != F::zero && ri != kNoPivot) gf::axpy<F>(dst, this->payload_of(row_ptr(ri)), c);
    }
  }

  /// The coefficient pass: stages `coeffs` in the scratch stripe and
  /// eliminates it, left to right, against every stored pivot row, using the
  /// coefficient's own value at the pivot as the multiplier.  Returns the
  /// first nonzero pivot-free column -- the new pivot -- or kNoColumn if
  /// `coeffs` lies in the row space.  A pivot-free column is final the moment
  /// the pass reaches it: eliminating at p touches only columns >= p.
  /// Full = false (contains()) stops there; Full = true (insert()) finishes
  /// the pass, so the row ends zero at every pivot column as a stored row
  /// must be.
  template <bool Full>
  std::size_t reduce(std::span<const value_type> coeffs) const {
    const std::span<value_type> row = this->stage_coeffs(coeffs);
    std::size_t pivot = kNoColumn;
    for (std::size_t p = 0; p < k_; ++p) {
      const std::uint32_t ri = pivot_row_[p];
      if (ri != kNoPivot) {
        const value_type c = coeffs[p];
        if (c != F::zero) gf::axpy<F>(row.subspan(p), coeff_tail(row_ptr(ri), p), c);
      } else if (row[p] != F::zero && pivot == kNoColumn) {
        if constexpr (!Full) return p;
        pivot = p;
      }
    }
    assert(reduced_at_pivots(row));
    return pivot;
  }

  // Whether `row` is zero at every stored pivot column: true after a full
  // pass exactly when the stored rows are fully reduced.
  bool reduced_at_pivots(std::span<const value_type> row) const noexcept {
    for (std::size_t p = 0; p < k_; ++p) {
      if (pivot_row_[p] != kNoPivot && row[p] != F::zero) return false;
    }
    return true;
  }

  static void set_unit(std::vector<value_type>& coeffs, std::size_t i) {
    coeffs[i] = F::one;
  }
  static void add_scaled(std::span<value_type> dst, std::span<const value_type> src,
                         value_type c) noexcept {
    gf::axpy<F>(dst, src, c);
  }
};

/// \brief The full-fidelity node state over F: O(k * (k + payload)) symbols,
/// O(k * rank) field operations per insert, a read-off decode at full rank.
/// For stopping-time-only sweeps at large n use linalg::DenseRankTracker.
template <gf::GaloisField F>
using DenseDecoder = detail::RrefOwner<DenseRrefView<F, true>, false>;

}  // namespace ag::linalg
