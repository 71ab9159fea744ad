/// \file
/// The incremental reduced-row-echelon (RREF) state of one node, shared by
/// both coefficient representations.
///
/// Section 2 of the paper: a node's whole state is its equations over F_q in
/// the k unknown messages, kept in RREF; a received packet is helpful
/// (Definition 3) iff inserting it raises the rank.  linalg/ implements that
/// object once per representation -- DenseRrefView<F, M> (one GF(q) symbol
/// per coefficient, dense_decoder.hpp) and BitRrefView<M> (GF(2)
/// coefficients packed 64 per word, bit_decoder.hpp) -- as a VIEW over
/// externally owned state:
///   * a row arena: rank() rows, row_stride symbols apart, each a contiguous
///     [coefficients (width) | payload] stripe, zero before its pivot;
///   * a uint32 pivot map, pivot column -> row index (kNoPivot if none);
///   * a uint32 rank counter;
///   * one scratch stripe of row_stride symbols, clobbered by insert() and
///     contains().  It is per-call workspace, never logical state, so a
///     read-only view still carries a writable scratch pointer.
///
/// Stored rows are fully reduced: each is 1 at its pivot and 0 at every
/// other pivot column.  So when a packet is reduced against them, the
/// multiplier of the row with pivot p is the packet's own coefficient at p,
/// whatever the other rows did to the stripe first.  insert() uses this to
/// reduce the coefficients alone, learn whether the packet is helpful, and
/// only then stage the payload and apply the same multipliers to it: the
/// payload of a dependent packet is never copied or read, and a full-rank
/// view rejects a packet without reading a row.
///
/// Payload width and row stride are run-time values.  Payload width 0 is the
/// rank tracker: payloads handed in are accepted and dropped, combinations
/// are emitted with an empty payload, and decoded_message() is empty.  Every
/// stopping time depends only on rank evolution, so a rank tracker fed the
/// same packets gives the same verdicts as the full decoder, and its
/// transmit rules draw the same RNG stream (the draws depend on the rank
/// alone; payload arithmetic draws nothing).
///
/// combine() below is the transmit rules' shared row loop, one draw per
/// stored row in row order.  All three rules of DenseRrefView run it -- the
/// uniform and sparse rules, and the coefficient-only rule that emits the
/// uniform rule's coefficients without a payload (the streaming swarm's,
/// whose receivers build payloads on demand) -- and so does the sparse
/// (density < 1) rule of BitRrefView.  BitRrefView's uniform rule has
/// kernels of its own (bit_decoder.hpp) that take one 64-bit draw per 64
/// stored rows.
///
/// The template argument M (Mutable) is the view's const-ness: only a
/// mutable view has insert(), so a const pooled store hands out views that
/// cannot change decoder state behind the swarm's completion tracking.
///
/// Who owns the state is the only other difference between a decoder and a
/// pooled rank store:
///   * RrefOwner (DenseDecoder<F>, BitDecoder and the owning rank trackers)
///     keeps one node's rows and scratch stripe in one 32-byte-aligned
///     block with the row stride padded to a 32-byte multiple (pad symbols
///     are never read), so every row starts on a 32-byte boundary for the
///     SIMD kernels (gf/backend/).
///   * core/swarm_storage.hpp's pooled stores keep every node's rows in one
///     unpadded arena: padding k = 32 GF(2) rows from 1 word to 4 would
///     quadruple a 100k-node swarm.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "util/aligned.hpp"
#include "util/urbg.hpp"

namespace ag::linalg {

/// Sentinel for "no stored row owns this pivot column".
inline constexpr std::uint32_t kNoPivot = 0xFFFFFFFFu;

namespace detail {

/// \brief What both RREF views share: the state pointers, the row geometry,
/// the read-only queries and the transmit rules' row loop.  Derived (one
/// view per representation) supplies coeff_width(k), set_unit(), add_scaled(),
/// insert(), and the coefficient pass that insert() and contains() share.
template <typename Derived, typename T, typename Packet, bool Mutable>
class RrefViewBase {
 public:
  template <typename U>
  using ptr = std::conditional_t<Mutable, U*, const U*>;

  /// \param arena      row arena; the first *rank rows are live
  /// \param pivot_row  k entries mapping pivot column -> row index (kNoPivot)
  /// \param rank       live row count, incremented by insert()
  /// \param scratch    one stripe of row_stride symbols (see file comment)
  /// \param k          number of unknown messages
  /// \param payload    payload symbols per row; 0 = rank tracker
  /// \param row_stride symbols from one row start to the next; 0 = unpadded
  RrefViewBase(ptr<T> arena, ptr<std::uint32_t> pivot_row, ptr<std::uint32_t> rank,
               T* scratch, std::size_t k, std::size_t payload = 0,
               std::size_t row_stride = 0) noexcept
      : arena_(arena),
        pivot_row_(pivot_row),
        rank_(rank),
        scratch_(scratch),
        k_(k),
        width_(Derived::coeff_width(k)),
        payload_(payload),
        row_stride_(row_stride != 0 ? row_stride : width_ + payload) {}

  std::size_t message_count() const noexcept { return k_; }
  std::size_t payload_length() const noexcept { return payload_; }
  std::size_t rank() const noexcept { return *rank_; }
  bool full_rank() const noexcept { return *rank_ == k_; }

  /// Logical symbols per stored row: coefficients then payload.  Any padding
  /// up to the row stride is private layout.
  std::size_t stride() const noexcept { return width_ + payload_; }

  /// The unit equation e_i * x = payload for a message the node holds at
  /// protocol start.  A rank tracker drops the payload.
  Packet unit_packet(std::size_t i, std::span<const T> payload = {}) const {
    Packet p;
    unit_packet_into(i, payload, p);
    return p;
  }

  /// unit_packet() written into a caller-owned packet whose buffers are
  /// reused: a caller that recycles one packet allocates nothing.
  void unit_packet_into(std::size_t i, std::span<const T> payload, Packet& out) const {
    assert(i < k_);
    out.coeffs.assign(width_, T{});
    Derived::set_unit(out.coeffs, i);
    const auto kept = payload.first(payload_in(payload.size()));
    out.payload.assign(kept.begin(), kept.end());
    out.payload.resize(payload_, T{});
  }

  template <typename URBG>
  std::optional<Packet> random_combination(URBG& rng) const {
    Packet out;
    if (!self().random_combination_into(rng, out)) return std::nullopt;
    return out;
  }

  template <typename URBG>
  std::optional<Packet> random_combination(URBG& rng, double density) const {
    Packet out;
    if (!self().random_combination_into(rng, density, out)) return std::nullopt;
    return out;
  }

  /// Store-and-forward variant (no recoding): emits a uniformly random
  /// *stored* equation verbatim.  This is what a node that cannot recode
  /// would send; bench E15 shows why recoding matters on multi-hop
  /// topologies.
  template <typename URBG>
  bool random_stored_row_into(URBG& rng, Packet& out) const {
    if (*rank_ == 0) return false;
    const T* r = row_ptr(util::uniform_below(rng, *rank_));
    out.coeffs.assign(r, r + width_);
    out.payload.assign(r + width_, r + stride());
    return true;
  }

  template <typename URBG>
  std::optional<Packet> random_stored_row(URBG& rng) const {
    Packet out;
    if (!random_stored_row_into(rng, out)) return std::nullopt;
    return out;
  }

  /// True iff a combination emitted by `other` can be helpful to us, i.e.
  /// other's row space is not contained in ours (Definition 3: helpful
  /// node).  `other` is any decoder or view of the same representation.
  template <typename Other>
  bool is_helpful_node(const Other& other) const {
    if (full_rank()) return false;
    for (std::size_t i = 0; i < other.rank(); ++i) {
      if (!self().contains(other.stored_coeff_row(i))) return true;
    }
    return false;
  }

  /// Stored coefficient row i (for is_helpful_node and differential tests).
  std::span<const T> stored_coeff_row(std::size_t i) const {
    assert(i < *rank_);
    return {row_ptr(i), width_};
  }

  /// Stored payload row i (for differential tests); empty in a rank tracker.
  std::span<const T> stored_payload_row(std::size_t i) const {
    assert(i < *rank_);
    return payload_of(row_ptr(i));
  }

  /// Returns message i's payload; requires full rank.  A rank tracker
  /// returns an empty span, so RlncSwarm::decodes_correctly degenerates to
  /// the full-rank check.
  std::span<const T> decoded_message(std::size_t i) const {
    assert(full_rank() && i < k_);
    return {row_ptr(pivot_row_[i]) + width_, payload_};
  }

 protected:
  static constexpr std::size_t kNoColumn = ~std::size_t{0};

  const Derived& self() const noexcept { return static_cast<const Derived&>(*this); }

  ptr<T> row_ptr(std::size_t i) const noexcept { return arena_ + i * row_stride_; }

  // The [c, stride) tail of a row: coefficients from column (or word) c on
  // plus the payload, one contiguous span, so one kernel call back-eliminates
  // both.  Stored rows are zero before their pivot, so eliminating at c
  // never needs the columns before it.
  template <typename P>
  std::span<std::remove_pointer_t<P>> tail(P row, std::size_t c) const noexcept {
    return std::span(row, stride()).subspan(c);
  }
  // The [c, width) coefficient tail: the coefficient pass of insert() and
  // contains().
  template <typename P>
  std::span<std::remove_pointer_t<P>> coeff_tail(P row, std::size_t c) const noexcept {
    return std::span(row, width_).subspan(c);
  }
  // The payload span of a row (empty in a rank tracker).
  template <typename P>
  std::span<std::remove_pointer_t<P>> payload_of(P row) const noexcept {
    return std::span(row, stride()).subspan(width_);
  }

  // Payload symbols to keep from an n-symbol payload.  Longer payloads are a
  // caller bug (debug builds assert) except in a rank tracker, which drops
  // them all; release builds clamp so no copy can run past the stripe.
  std::size_t payload_in(std::size_t n) const noexcept {
    assert((payload_ == 0 || n <= payload_) && "payload longer than payload_length()");
    return n < payload_ ? n : payload_;
  }

  /// Copies `coeffs` into the scratch stripe's coefficient span.
  std::span<T> stage_coeffs(std::span<const T> coeffs) const {
    assert(coeffs.size() == width_);
    const std::span<T> row(scratch_, width_);
    std::copy(coeffs.begin(), coeffs.end(), row.begin());
    return row;
  }

  /// Stages `pkt`'s payload behind the staged coefficients as
  /// [payload | zero fill], the fill running through the row padding, and
  /// returns the payload span.  Called only once a packet is known to be
  /// helpful.
  std::span<T> stage_payload(const Packet& pkt) const {
    const std::span<T> rest = std::span(scratch_, row_stride_).subspan(width_);
    const std::size_t plen = payload_in(pkt.payload.size());
    std::copy_n(pkt.payload.begin(), plen, rest.begin());
    std::ranges::fill(rest.subspan(plen), T{});
    return rest.first(payload_);
  }

  /// stage_payload() of an all-zero payload: the start of a payload that
  /// is then accumulated in place.
  std::span<T> stage_zero_payload() const {
    const std::span<T> rest = std::span(scratch_, row_stride_).subspan(width_);
    std::ranges::fill(rest, T{});
    return rest.first(payload_);
  }

  /// Appends the reduced scratch row as the owner of column `pivot`.
  bool append(std::size_t pivot) const requires Mutable {
    pivot_row_[pivot] = *rank_;
    std::copy_n(scratch_, row_stride_, row_ptr(*rank_));
    ++*rank_;
    return true;
  }

  /// The transmit rules' row loop (the file comment says which rules run
  /// it).  draw() is called once per stored row in row order -- the RNG
  /// stream shared by decoders and trackers -- and a nonzero draw c adds c
  /// times that row.  `out` is a Packet, or a bare coefficient vector for a
  /// coefficient-only rule, whose payload the receiver builds on demand
  /// (DenseRrefView::insert_from).  A rank tracker or a coefficient-only
  /// rule makes no payload kernel call at all, not even a zero-length one.
  template <typename Out, typename Draw>
  bool combine(Out& out, Draw draw) const {
    constexpr bool kWithPayload = std::is_same_v<Out, Packet>;
    const std::uint32_t rank = *rank_;
    const std::size_t width = width_, payload = payload_;
    if (rank == 0) return false;
    std::vector<T>& coeffs = coeffs_of(out);
    coeffs.assign(width, T{});
    if constexpr (kWithPayload) out.payload.assign(payload, T{});
    for (std::uint32_t i = 0; i < rank; ++i) {
      const T c = draw();
      if (c == T{}) continue;
      const T* r = row_ptr(i);
      Derived::add_scaled(coeffs, {r, width}, c);
      if constexpr (kWithPayload) {
        if (payload != 0) Derived::add_scaled(out.payload, {r + width, payload}, c);
      }
    }
    return true;
  }
  static std::vector<T>& coeffs_of(Packet& p) noexcept { return p.coeffs; }
  static std::vector<T>& coeffs_of(std::vector<T>& coeffs) noexcept { return coeffs; }

  ptr<T> arena_;
  ptr<std::uint32_t> pivot_row_;
  ptr<std::uint32_t> rank_;
  T* scratch_;
  std::size_t k_;
  std::size_t width_;       // coefficient symbols per row
  std::size_t payload_;     // payload symbols per row
  std::size_t row_stride_;  // symbols from one row start to the next
};

/// One owner's state: sized for full rank up front.  The k rows and the
/// scratch stripe share one aligned block, rows first, so building a decoder
/// makes one aligned allocation besides the pivot map (aligned allocation is
/// what construction time goes on).  The block is sized without being
/// written (see util/aligned.hpp), so building many decoders touches no
/// arena page.  A base of RrefOwner, so it is built before the view base
/// that points into it.
template <typename T>
struct RrefStorage {
  using aligned_vector = std::vector<T, util::AlignedAllocator<T, 32>>;

  RrefStorage(std::size_t k_msgs, std::size_t width, std::size_t payload_len)
      : k(k_msgs),
        payload(payload_len),
        row_stride(util::round_up_elems<32, sizeof(T)>(width + payload_len)),
        rows((k_msgs + 1) * row_stride),
        pivots(k_msgs, kNoPivot) {}

  // Copies the live rows only; the rest of the arena was never written.
  RrefStorage(const RrefStorage& o)
      : k(o.k),
        payload(o.payload),
        row_stride(o.row_stride),
        count(o.count),
        rows(o.rows.size()),
        pivots(o.pivots) {
    std::copy_n(o.rows.data(), std::size_t{count} * row_stride, rows.data());
  }
  RrefStorage(RrefStorage&&) noexcept = default;
  RrefStorage& operator=(const RrefStorage&) = delete;
  RrefStorage& operator=(RrefStorage&&) noexcept = default;

  template <typename View>
  static View view(RrefStorage& s) noexcept {
    const std::span<T> block(s.rows);
    return View(block.data(), s.pivots.data(), &s.count,
                block.subspan(s.k * s.row_stride).data(), s.k, s.payload, s.row_stride);
  }

  std::size_t k;
  std::size_t payload;
  std::size_t row_stride;  // stride padded up to a 32-byte multiple
  std::uint32_t count = 0;
  aligned_vector rows;     // k rows of row_stride symbols (count of them
                           // live), then the scratch stripe
  std::vector<std::uint32_t> pivots;
};

/// \brief Owning decoder: one node's RREF state behind its read-only view.
///
/// The public base is the const view over the owned state, so the whole
/// query and transmit surface is the view's; insert() alone goes through a
/// mutable view built per call.  RankOnly pins the payload width to 0
/// whatever payload length the constructor is given, which makes the
/// rank trackers drop-in replacements for the decoders they shadow.
/// A moved-from owner may only be assigned to or destroyed.
template <typename View, bool RankOnly>
class RrefOwner : private RrefStorage<typename View::value_type>,
                  public View::const_view {
  using T = typename View::value_type;
  using Storage = RrefStorage<T>;
  using Base = typename View::const_view;

 public:
  /// k: number of unknown messages; payload_len: symbols per message payload.
  explicit RrefOwner(std::size_t k, std::size_t payload_len = 0)
      : Storage(k, View::coeff_width(k), RankOnly ? 0 : payload_len),
        Base(Storage::template view<Base>(*this)) {}

  RrefOwner(const RrefOwner& o) : Storage(o), Base(Storage::template view<Base>(*this)) {}
  RrefOwner(RrefOwner&& o) noexcept
      : Storage(std::move(o)), Base(Storage::template view<Base>(*this)) {}
  RrefOwner& operator=(RrefOwner o) noexcept {
    Storage::operator=(std::move(o));
    Base::operator=(Storage::template view<Base>(*this));
    return *this;
  }

  /// Inserts a packet; returns true iff it increased the rank (was helpful).
  bool insert(const typename Base::packet_type& pkt) {
    return Storage::template view<View>(*this).insert(pkt);
  }

  /// Inserts the equation `coeffs` with its payload built from `sender`'s
  /// rows (DenseRrefView::insert_from).
  template <typename Sender>
  bool insert_from(std::span<const T> coeffs, const Sender& sender) {
    return Storage::template view<View>(*this).insert_from(coeffs, sender);
  }

  /// Returns to the empty state while keeping the arena: the generation
  /// scheduler (src/coding/) and node churn recycle decoders in place, so
  /// the steady-state loops allocate nothing.
  void clear() noexcept {
    Storage::count = 0;
    std::fill(Storage::pivots.begin(), Storage::pivots.end(), kNoPivot);
  }

  /// Exact decoder-state footprint: arena and scratch capacity plus the
  /// pivot map.
  std::size_t memory_bytes() const noexcept {
    return Storage::rows.capacity() * sizeof(T) +
           Storage::pivots.capacity() * sizeof(std::uint32_t);
  }
};

}  // namespace detail
}  // namespace ag::linalg
