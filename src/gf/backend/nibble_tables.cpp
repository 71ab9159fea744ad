#include "gf/backend/nibble_tables.hpp"

#include "gf/gf2m.hpp"

namespace ag::gf::backend::detail {

namespace {

NibbleTables build() noexcept {
  NibbleTables t{};
  for (unsigned c = 0; c < 256; ++c) {
    for (unsigned x = 0; x < 16; ++x) {
      t.lo[c][x] = GF256::mul(static_cast<std::uint8_t>(c),
                              static_cast<std::uint8_t>(x));
      t.hi[c][x] = GF256::mul(static_cast<std::uint8_t>(c),
                              static_cast<std::uint8_t>(x << 4));
    }
  }
  return t;
}

AffineMatrices build_affine() noexcept {
  AffineMatrices t{};
  for (unsigned c = 0; c < 256; ++c) {
    std::uint64_t m = 0;
    for (unsigned i = 0; i < 8; ++i) {
      std::uint64_t row = 0;
      for (unsigned j = 0; j < 8; ++j) {
        const unsigned prod = GF256::mul(static_cast<std::uint8_t>(c),
                                         static_cast<std::uint8_t>(1u << j));
        row |= std::uint64_t{(prod >> i) & 1u} << j;
      }
      m |= row << (8 * (7 - i));
    }
    t.affine[c] = m;
  }
  return t;
}

}  // namespace

const NibbleTables& nibble_tables() noexcept {
  static const NibbleTables t = build();
  return t;
}

const AffineMatrices& affine_matrices() noexcept {
  static const AffineMatrices t = build_affine();
  return t;
}

}  // namespace ag::gf::backend::detail
