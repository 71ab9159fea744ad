// Row-loop oracles for the GF(2) kernels of linalg::BitRrefView, written
// against the public view surface only:
//
//   * row_loop_combination(): the uniform transmit rule one stored row at a
//     time -- a 64-bit draw at every 64th row, bit i % 64 of it selecting
//     row i -- XORing each selected row's coefficients and payload in.
//   * RowLoopRref: a packed GF(2) RREF that reduces a packet column by
//     column against whichever stored row owns each set bit of the running
//     row, then back-eliminates the new pivot from every stored row.
//
// test_differential_decoders.cpp (owning decoders, with payloads) and
// test_rank_tracker.cpp (trackers and pooled views) hold the kernels to
// these bit for bit: packets, RNG state, verdicts and stored rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/bit_decoder.hpp"
#include "util/urbg.hpp"

namespace ag::test {

template <typename View, typename URBG>
bool row_loop_combination(const View& d, URBG& rng, linalg::BitPacket& out) {
  if (d.rank() == 0) return false;
  out.coeffs.assign(linalg::BitDecoder::words_for(d.message_count()), 0);
  out.payload.assign(d.payload_length(), 0);
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < d.rank(); ++i) {
    if (i % 64 == 0) bits = util::random_bits(rng, 64);
    if (((bits >> (i % 64)) & 1) == 0) continue;
    const auto c = d.stored_coeff_row(i);
    for (std::size_t w = 0; w < c.size(); ++w) out.coeffs[w] ^= c[w];
    const auto p = d.stored_payload_row(i);
    for (std::size_t j = 0; j < p.size(); ++j) out.payload[j] ^= p[j];
  }
  return true;
}

class RowLoopRref {
 public:
  explicit RowLoopRref(std::size_t k) : k_(k), pivot_row_(k, kNone) {}

  bool contains(std::span<const std::uint64_t> c) const {
    return pivot_of(reduce(c)) == kNone;
  }

  bool insert(std::span<const std::uint64_t> c) {
    const std::vector<std::uint64_t> row = reduce(c);
    const std::size_t p = pivot_of(row);
    if (p == kNone) return false;
    for (auto& r : rows_) {
      if (bit(r, p)) {
        for (std::size_t w = 0; w < r.size(); ++w) r[w] ^= row[w];
      }
    }
    pivot_row_[p] = rows_.size();
    rows_.push_back(row);
    return true;
  }

  std::size_t rank() const { return rows_.size(); }
  const std::vector<std::uint64_t>& row(std::size_t i) const { return rows_[i]; }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  static bool bit(const std::vector<std::uint64_t>& r, std::size_t c) {
    return ((r[c / 64] >> (c % 64)) & 1) != 0;
  }

  std::vector<std::uint64_t> reduce(std::span<const std::uint64_t> c) const {
    std::vector<std::uint64_t> row(c.begin(), c.end());
    for (std::size_t col = 0; col < k_; ++col) {
      if (!bit(row, col) || pivot_row_[col] == kNone) continue;
      const auto& r = rows_[pivot_row_[col]];
      for (std::size_t w = 0; w < row.size(); ++w) row[w] ^= r[w];
    }
    return row;
  }

  std::size_t pivot_of(const std::vector<std::uint64_t>& row) const {
    for (std::size_t col = 0; col < k_; ++col) {
      if (bit(row, col)) return col;
    }
    return kNone;
  }

  std::size_t k_;
  std::vector<std::size_t> pivot_row_;
  std::vector<std::vector<std::uint64_t>> rows_;
};

// The message counts the kernel tests sweep: both sides of every word
// boundary up to five words.
inline constexpr std::size_t kKernelK[] = {1, 31, 32, 63, 64, 65, 128, 129, 300};

// The ranks {1, 63, 64, 65, k} that k admits: one draw's chunk of rows, just
// under, at and over it, and full rank.
inline std::vector<std::size_t> kernel_ranks(std::size_t k) {
  std::vector<std::size_t> out;
  for (const std::size_t r : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                              std::size_t{65}, k}) {
    if (r <= k && (out.empty() || out.back() < r)) out.push_back(r);
  }
  return out;
}

// A packet over k bits with `payload` random words.  Kinds: dense random, sparse (one to three bits, so most set bits own no stored row
// early on), a repeat, the XOR of a random subset of earlier packets
// (dependent), and the zero packet.
template <typename URBG>
linalg::BitPacket kernel_packet(std::size_t k, std::size_t payload,
                                std::vector<linalg::BitPacket>& sent, URBG& rng) {
  linalg::BitPacket p;
  p.coeffs.assign(linalg::BitDecoder::words_for(k), 0);
  const auto kind = util::uniform_below(rng, 8);
  if (kind == 0 && !sent.empty()) {
    p = sent[util::uniform_below(rng, sent.size())];
  } else if (kind == 1 && sent.size() >= 2) {
    for (const auto& q : sent) {
      if (util::uniform_below(rng, 2) == 0) continue;
      for (std::size_t w = 0; w < p.coeffs.size(); ++w) p.coeffs[w] ^= q.coeffs[w];
    }
  } else if (kind == 2 || kind == 3) {
    for (std::uint64_t n = 1 + util::uniform_below(rng, 3); n != 0; --n) {
      const std::size_t c = util::uniform_below(rng, k);
      p.coeffs[c / 64] ^= std::uint64_t{1} << (c % 64);
    }
  } else if (kind != 4) {
    for (auto& w : p.coeffs) w = util::random_bits(rng, 64);
    if (k % 64 != 0) p.coeffs.back() &= (std::uint64_t{1} << (k % 64)) - 1;
  }
  p.payload.resize(payload);
  for (auto& w : p.payload) w = util::random_bits(rng, 64);
  sent.push_back(p);
  return p;
}

}  // namespace ag::test
