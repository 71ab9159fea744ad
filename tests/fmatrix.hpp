/// \file
/// Small dense matrix over a finite field: rank, RREF, matrix-vector product.
///
/// The tests' oracle: it verifies decoder results against a from-scratch
/// elimination; the protocol hot path uses the incremental decoders instead.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "gf/field_concept.hpp"

namespace ag::linalg {

template <gf::GaloisField F>
class FMatrix {
 public:
  using value_type = typename F::value_type;

  FMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, F::zero) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  value_type& at(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  value_type at(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<value_type> row(std::size_t r) {
    return std::span<value_type>(data_).subspan(r * cols_, cols_);
  }
  std::span<const value_type> row(std::size_t r) const {
    return std::span<const value_type>(data_).subspan(r * cols_, cols_);
  }

  void append_row(std::span<const value_type> vals) {
    assert(vals.size() == cols_);
    data_.insert(data_.end(), vals.begin(), vals.end());
    ++rows_;
  }

  // In-place reduction to row echelon form; returns the rank.
  std::size_t rref() {
    std::size_t rank = 0;
    for (std::size_t col = 0; col < cols_ && rank < rows_; ++col) {
      // Find a pivot row.
      std::size_t piv = rank;
      while (piv < rows_ && at(piv, col) == F::zero) ++piv;
      if (piv == rows_) continue;
      swap_rows(piv, rank);
      // Normalize.
      const value_type inv = F::inv(at(rank, col));
      for (std::size_t c = col; c < cols_; ++c) at(rank, c) = F::mul(inv, at(rank, c));
      // Eliminate everywhere else.
      for (std::size_t r = 0; r < rows_; ++r) {
        if (r == rank) continue;
        const value_type f = at(r, col);
        if (f == F::zero) continue;
        for (std::size_t c = col; c < cols_; ++c)
          at(r, c) = F::sub(at(r, c), F::mul(f, at(rank, c)));
      }
      ++rank;
    }
    return rank;
  }

  std::size_t rank() const {
    FMatrix copy = *this;
    return copy.rref();
  }

  std::vector<value_type> mul_vector(std::span<const value_type> x) const {
    assert(x.size() == cols_);
    std::vector<value_type> y(rows_, F::zero);
    for (std::size_t r = 0; r < rows_; ++r) {
      value_type acc = F::zero;
      for (std::size_t c = 0; c < cols_; ++c) acc = F::add(acc, F::mul(at(r, c), x[c]));
      y[r] = acc;
    }
    return y;
  }

 private:
  void swap_rows(std::size_t a, std::size_t b) {
    if (a == b) return;
    for (std::size_t c = 0; c < cols_; ++c) std::swap(at(a, c), at(b, c));
  }

  std::size_t rows_;
  std::size_t cols_;
  std::vector<value_type> data_;
};

}  // namespace ag::linalg
