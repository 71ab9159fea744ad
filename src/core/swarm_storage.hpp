/// \file
/// Decoder storage policies for RlncSwarm: how n nodes' decoder state is
/// laid out in memory.
// ag-lint: allow-file(data-arith) -- SoA pool slicing: node id < n_ is asserted and every
// stripe offset is v * fixed-stride into arenas sized n_ * stride at construction.
///
/// RlncSwarm<D, Store> is parameterised over a Store so the same protocol
/// code runs at two very different scales:
///
///   * VectorNodeStore<D> (the default): one self-contained decoder object
///     per node, exactly the pre-policy behaviour.  Right for full decoders
///     (payload arenas, per-node scratch) at the n of the paper's figures.
///
///   * PooledRankStore<View> (aliases DenseRankStore<F>, BitRankStore):
///     structure-of-arrays pools for the rank-only trackers
///     (linalg/rank_tracker.hpp).  ALL nodes' rows live in one arena
///     allocation (n * k * stride symbols), pivot maps and rank
///     counters are flat arrays, and scratch is one stripe *per shard* of a
///     ShardPlan (core/shard_plan.hpp): at(v) hands out the stripe of the
///     shard owning v, so the sharded round runner can insert into nodes of
///     different shards concurrently without the stripes aliasing.  The
///     default plan has one shard -- a single stripe for the whole swarm,
///     exactly the serial layout.  At n = 100k, k = 32 over GF(2) the whole
///     swarm's decoder state is ~26 MiB in three allocations instead of
///     ~400k separate heap blocks.  The row arena is sized without being
///     written (util::UninitVector) and reset(v) rewinds only v's pivot map
///     and rank: a view reads rows below its rank alone, so rows at or
///     above it are never read (prefetch() is a hint).  Building a swarm
///     therefore writes only the pivot maps, and a row's page is first
///     touched when a row lands in it.  Debug builds fill fresh and reset
///     rows with a nonzero poison pattern instead, so a read of a dead row
///     changes a verdict there rather than seeing zeros.
///
/// Store interface consumed by RlncSwarm:
///   Store(n, k, payload_len)      construct n empty decoders
///   at(v) -> D& or ref-view       decoder access (value-semantics views OK)
///   reset(v)                      return node v to the empty-decoder state
///   configure_shards(s)           size the scratch pool for s-way sharding
///   prefetch(v)                   cache hint ahead of reading v's rows
///   memory_bytes()                decoder-state footprint (for benches)
///
/// Thread-safety: with the default single-shard plan, one swarm is owned by
/// one protocol instance and touched by one run (parallel sweeps use one
/// store per worker).  After configure_shards(s), concurrent access is safe
/// iff each thread only calls at(v)/reset(v) for nodes v of one shard --
/// the contiguous-range discipline core/sharded_round.hpp enforces.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/shard_plan.hpp"
#include "graph/graph.hpp"
#include "linalg/rank_tracker.hpp"
#include "util/aligned.hpp"

namespace ag::core {

namespace detail {

/// Issues a read prefetch for every 64-byte line `s` touches.  A hint only:
/// results never depend on it.
template <typename T>
void prefetch_lines(std::span<const T> s) noexcept {
  if (s.empty()) return;
  constexpr std::size_t kStep = sizeof(T) >= 64 ? 1 : 64 / sizeof(T);
  for (std::size_t i = 0; i < s.size(); i += kStep) __builtin_prefetch(&s[i]);
  __builtin_prefetch(&s.back());
}

/// Marks rows no view may read (see the file comment): a nonzero fill in
/// debug builds, nothing in release builds.
template <typename T>
void poison_dead_rows([[maybe_unused]] std::span<T> rows,
                      [[maybe_unused]] T pattern) noexcept {
#ifndef NDEBUG
  std::ranges::fill(rows, pattern);
#endif
}

}  // namespace detail

/// \brief Default storage: a plain vector of self-contained decoders.
template <typename D>
class VectorNodeStore {
 public:
  using decoder_type = D;

  VectorNodeStore(std::size_t n, std::size_t k, std::size_t payload_len) {
    nodes_.reserve(n);
    for (std::size_t v = 0; v < n; ++v) nodes_.emplace_back(k, payload_len);
  }

  D& at(graph::NodeId v) { return nodes_[v]; }
  const D& at(graph::NodeId v) const { return nodes_[v]; }

  /// Churn/recycle reset: node v restarts with an empty decoder, recycled
  /// in place with its arena capacity kept -- what makes the streaming
  /// layer's decode-and-evict pipeline allocation-free in steady state.
  void reset(graph::NodeId v) { nodes_[v].clear(); }

  /// No-op: every decoder object already owns its scratch, so the store is
  /// shard-safe under the contiguous-range discipline as constructed.
  void configure_shards(std::size_t /*shards*/) {}

  /// No-op: each decoder's rows sit behind its own heap pointer.
  void prefetch(graph::NodeId /*v*/) const noexcept {}

  /// Decoder-state footprint: the sum of the decoders' exact footprints.
  /// Arenas are sized for full rank up front, so this is capacity, not
  /// current rank.
  std::size_t memory_bytes() const noexcept {
    std::size_t total = 0;
    for (const D& d : nodes_) total += d.memory_bytes();
    return total;
  }

 private:
  std::vector<D> nodes_;
};

/// \brief Structure-of-arrays pool of rank-tracker state.  View is the
/// tracker's mutable RREF view (DenseRrefView<F, true>, BitRrefView<true>);
/// a row is View::coeff_width(k) symbols.  at(v) returns a thin view into
/// the pool by value; RlncSwarm accesses decoders via decltype(auto), so
/// value views and references interoperate.  At k = 32 over GF(2) a node's
/// whole decoder state is 32 words of rows + 32 pivots + 1 rank counter.
template <typename View>
class PooledRankStore {
 public:
  using decoder_type = linalg::detail::RrefOwner<View, true>;
  using ref_type = View;
  using const_ref_type = typename View::const_view;
  using value_type = typename View::value_type;

  /// payload_len is accepted for signature compatibility and ignored
  /// (rank-only storage has no payload arena).
  PooledRankStore(std::size_t n, std::size_t k, std::size_t /*payload_len*/ = 0)
      : n_(n), k_(k), width_(View::coeff_width(k)),
        arena_(n * k * width_),
        pivot_row_(n * k, linalg::kNoPivot),
        rank_(n, 0),
        plan_(n, 1),
        scratch_(width_, value_type{}) {
    detail::poison_dead_rows(std::span(arena_), kPoison);
  }

  ref_type at(graph::NodeId v) {
    return ref_type(arena_.data() + static_cast<std::size_t>(v) * k_ * width_,
                    pivot_row_.data() + static_cast<std::size_t>(v) * k_,
                    rank_.data() + v, scratch_stripe(v), k_);
  }
  /// Const access yields a view without insert(), mirroring how a const
  /// VectorNodeStore yields `const D&`: const swarm access cannot mutate
  /// decoder state behind the completion tracking.  (The scratch stripe it
  /// carries is per-call workspace for contains(), not decoder state.)
  const_ref_type at(graph::NodeId v) const {
    return const_ref_type(arena_.data() + static_cast<std::size_t>(v) * k_ * width_,
                          pivot_row_.data() + static_cast<std::size_t>(v) * k_,
                          rank_.data() + v, scratch_stripe(v), k_);
  }

  /// Rewinds node v's pivot map and rank; its rows are left as they are
  /// (see the file comment).
  void reset(graph::NodeId v) {
    const std::size_t base = static_cast<std::size_t>(v) * k_;
    detail::poison_dead_rows(std::span(arena_).subspan(base * width_, k_ * width_), kPoison);
    std::fill(pivot_row_.begin() + static_cast<std::ptrdiff_t>(base),
              pivot_row_.begin() + static_cast<std::ptrdiff_t>(base + k_),
              linalg::kNoPivot);
    rank_[v] = 0;
  }

  /// Size the scratch pool for `shards`-way concurrent access: one stripe
  /// per shard of the (n, shards) ShardPlan.  Not safe to call while views
  /// from at() are live (they hold stripe pointers into the old pool).
  void configure_shards(std::size_t shards) {
    plan_ = ShardPlan(n_, shards);
    scratch_.assign(plan_.shard_count() * width_, value_type{});
  }

  /// Prefetches node v's rank counter and row block (what a combination
  /// reads), ahead of a random-partner access.
  void prefetch(graph::NodeId v) const noexcept {
    __builtin_prefetch(rank_.data() + v);
    detail::prefetch_lines(std::span<const value_type>(arena_).subspan(
        static_cast<std::size_t>(v) * k_ * width_, k_ * width_));
  }

  std::size_t memory_bytes() const noexcept {
    return arena_.size() * sizeof(value_type) +
           pivot_row_.size() * sizeof(std::uint32_t) +
           rank_.size() * sizeof(std::uint32_t) + scratch_.size() * sizeof(value_type);
  }

 private:
  value_type* scratch_stripe(graph::NodeId v) const noexcept {
    return scratch_.data() + plan_.shard_of(v) * width_;
  }

  // Odd, so nonzero in every field once reduced to a symbol; any packed
  // GF(2) word is valid as it stands.
  static constexpr value_type kPoison = View::payload_symbol_from(0xA5A5A5A5A5A5A5A5u);

  std::size_t n_;
  std::size_t k_;
  std::size_t width_;                      // symbols per row
  util::UninitVector<value_type> arena_;   // n * k rows of width_ symbols
  std::vector<std::uint32_t> pivot_row_;   // n * k pivot->row maps
  std::vector<std::uint32_t> rank_;        // n rank counters
  ShardPlan plan_;                         // owner of the stripe <-> node map
  mutable std::vector<value_type> scratch_;  // one stripe per shard
};

template <gf::GaloisField F>
using DenseRankStore = PooledRankStore<linalg::DenseRankTrackerRef<F>>;
using BitRankStore = PooledRankStore<linalg::BitRankTrackerRef>;

}  // namespace ag::core
