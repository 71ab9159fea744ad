#include "core/dissemination.hpp"

#include <stdexcept>

namespace ag::core {

OwnedIndex Placement::owned_index(std::size_t n) const {
  OwnedIndex idx;
  idx.offsets.assign(n + 1, 0);
  for (const graph::NodeId v : owner) ++idx.offsets[v + 1];
  for (std::size_t v = 0; v < n; ++v) idx.offsets[v + 1] += idx.offsets[v];
  idx.items.resize(owner.size());
  // Counting sort over ascending message index i keeps each node's span
  // ascending.
  std::vector<std::uint32_t> cursor(idx.offsets.begin(), idx.offsets.end() - 1);
  for (std::size_t i = 0; i < owner.size(); ++i) {
    idx.items[cursor[owner[i]]++] = static_cast<std::uint32_t>(i);
  }
  return idx;
}

Placement all_to_all(std::size_t n) {
  Placement p;
  p.owner.resize(n);
  for (std::size_t i = 0; i < n; ++i) p.owner[i] = static_cast<graph::NodeId>(i);
  return p;
}

Placement uniform_distinct(std::size_t k, std::size_t n, sim::Rng& rng) {
  if (k > n) throw std::invalid_argument("uniform_distinct requires k <= n");
  // Partial Fisher-Yates over [0, n).
  std::vector<graph::NodeId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<graph::NodeId>(i);
  Placement p;
  p.owner.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + rng.uniform(n - i);
    std::swap(ids[i], ids[j]);
    p.owner[i] = ids[i];
  }
  return p;
}

Placement uniform_with_repetition(std::size_t k, std::size_t n, sim::Rng& rng) {
  Placement p;
  p.owner.resize(k);
  for (std::size_t i = 0; i < k; ++i)
    p.owner[i] = static_cast<graph::NodeId>(rng.uniform(n));
  return p;
}

Placement single_source(std::size_t k, graph::NodeId src) {
  Placement p;
  p.owner.assign(k, src);
  return p;
}

std::uint64_t payload_word(std::size_t message_index, std::size_t word_index) {
  std::uint64_t z = 0x9E3779B97F4A7C15ull * (message_index + 1) +
                    0xBF58476D1CE4E5B9ull * (word_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace ag::core
