#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <vector>

#include "graph/algorithms.hpp"
#include "util/urbg.hpp"

namespace ag::graph {

namespace {

// Portable Fisher-Yates: std::shuffle's draw sequence is implementation-
// defined, so the same seed would grow different graphs on libstdc++ and
// libc++.  util::uniform_below pins the algorithm.
template <typename URBG>
void portable_shuffle(std::vector<NodeId>& v, URBG& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(util::uniform_below(rng, i));
    std::swap(v[i - 1], v[j]);
  }
}

}  // namespace

Graph make_path(std::size_t n) {
  GraphBuilder g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g.build();
}

Graph make_cycle(std::size_t n) {
  if (n < 3) throw std::invalid_argument("cycle needs n >= 3");
  GraphBuilder g(make_path(n));
  g.add_edge(static_cast<NodeId>(n - 1), 0);
  return g.build();
}

Graph make_complete(std::size_t n) {
  GraphBuilder g(n);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) g.add_edge(u, v);
  return g.build();
}

Graph make_grid(std::size_t rows, std::size_t cols) {
  GraphBuilder g(rows * cols);
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return g.build();
}

Graph make_torus(std::size_t rows, std::size_t cols) {
  GraphBuilder g(make_grid(rows, cols));
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) g.add_edge(id(r, 0), id(r, cols - 1));
  for (std::size_t c = 0; c < cols; ++c) g.add_edge(id(0, c), id(rows - 1, c));
  return g.build();
}

Graph make_binary_tree(std::size_t n) {
  GraphBuilder g(n);
  for (NodeId i = 1; i < n; ++i) g.add_edge(i, (i - 1) / 2);
  return g.build();
}

Graph make_star(std::size_t n) {
  GraphBuilder g(n);
  for (NodeId i = 1; i < n; ++i) g.add_edge(0, i);
  return g.build();
}

Graph make_hypercube(std::size_t dim) {
  const std::size_t n = std::size_t{1} << dim;
  GraphBuilder g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t b = 0; b < dim; ++b) {
      const NodeId v = u ^ (NodeId{1} << b);
      if (u < v) g.add_edge(u, v);
    }
  }
  return g.build();
}

Graph make_barbell(std::size_t n) {
  if (n < 4) throw std::invalid_argument("barbell needs n >= 4");
  const std::size_t left = n / 2;
  GraphBuilder g(n);
  for (NodeId u = 0; u < left; ++u)
    for (NodeId v = u + 1; v < left; ++v) g.add_edge(u, v);
  for (auto u = static_cast<NodeId>(left); u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) g.add_edge(u, v);
  g.add_edge(static_cast<NodeId>(left - 1), static_cast<NodeId>(left));
  return g.build();
}

Graph make_clique_chain(std::size_t cliques, std::size_t clique_size) {
  if (cliques < 1 || clique_size < 2)
    throw std::invalid_argument("clique_chain needs cliques >= 1, clique_size >= 2");
  const std::size_t n = cliques * clique_size;
  GraphBuilder g(n);
  for (std::size_t c = 0; c < cliques; ++c) {
    const auto base = static_cast<NodeId>(c * clique_size);
    for (NodeId u = 0; u < clique_size; ++u)
      for (NodeId v = u + 1; v < clique_size; ++v)
        g.add_edge(base + u, base + v);
    if (c + 1 < cliques) {
      // Bridge: last node of this clique to first node of the next.
      g.add_edge(static_cast<NodeId>(base + clique_size - 1),
                 static_cast<NodeId>(base + clique_size));
    }
  }
  return g.build();
}

Graph make_lollipop(std::size_t n, std::size_t clique_size) {
  if (clique_size < 2 || clique_size > n)
    throw std::invalid_argument("lollipop needs 2 <= clique_size <= n");
  GraphBuilder g(n);
  for (NodeId u = 0; u < clique_size; ++u)
    for (NodeId v = u + 1; v < clique_size; ++v) g.add_edge(u, v);
  for (auto i = static_cast<NodeId>(clique_size); i < n; ++i)
    g.add_edge(i - 1, i);
  return g.build();
}

Graph make_erdos_renyi(std::size_t n, double p, std::uint64_t seed) {
  // std::bernoulli_distribution's draw count per sample is implementation-
  // defined; comparing a canonical double keeps seeded graphs portable.
  std::mt19937_64 rng(seed);
  for (int attempt = 0; attempt < 200; ++attempt) {
    GraphBuilder b(n);
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v = u + 1; v < n; ++v)
        if (util::canonical_double(rng) < p) b.add_edge(u, v);
    Graph g = b.build();
    if (is_connected(g)) return g;
  }
  throw std::invalid_argument("erdos_renyi: could not produce a connected graph; raise p");
}

Graph make_random_regular(std::size_t n, std::size_t d, std::uint64_t seed) {
  if ((n * d) % 2 != 0 || d >= n)
    throw std::invalid_argument("random_regular needs n*d even and d < n");
  std::mt19937_64 rng(seed);
  for (int attempt = 0; attempt < 500; ++attempt) {
    // Pairing model: n*d half-edge stubs, random perfect matching.
    std::vector<NodeId> stubs;
    stubs.reserve(n * d);
    for (NodeId v = 0; v < n; ++v)
      for (std::size_t i = 0; i < d; ++i) stubs.push_back(v);
    portable_shuffle(stubs, rng);
    GraphBuilder b(n);
    std::size_t i = 0;
    while (i < stubs.size() && b.add_edge(stubs[i], stubs[i + 1])) i += 2;
    if (i < stubs.size()) continue;  // self-loop or duplicate: reject the pairing
    Graph g = b.build();
    if (is_connected(g)) return g;
  }
  throw std::invalid_argument("random_regular: rejection sampling failed; try different n, d");
}

Graph make_ring_with_chords(std::size_t n, std::size_t chords, std::uint64_t seed) {
  GraphBuilder g(make_cycle(n));
  std::mt19937_64 rng(seed);
  const auto pick = [&rng, n] {
    return static_cast<NodeId>(util::uniform_below(rng, n));
  };
  std::size_t added = 0;
  std::size_t guard = 0;
  while (added < chords && guard < 100 * chords + 1000) {
    ++guard;
    const NodeId u = pick();
    const NodeId v = pick();
    if (g.add_edge(u, v)) ++added;
  }
  return g.build();
}

Graph make_random_geometric(std::size_t n, double radius, std::uint64_t seed) {
  if (n == 0 || radius <= 0.0)
    throw std::invalid_argument("random_geometric needs n >= 1 and radius > 0");
  std::mt19937_64 rng(seed);
  const double r2 = radius * radius;
  std::vector<double> x(n), y(n);
  for (int attempt = 0; attempt < 200; ++attempt) {
    // Fresh point set each attempt: two canonical draws per point, in node
    // order, so the layout is portable and seed-determined.
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = util::canonical_double(rng);
      y[i] = util::canonical_double(rng);
    }
    GraphBuilder b(n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        const double dx = x[u] - x[v];
        const double dy = y[u] - y[v];
        if (dx * dx + dy * dy <= r2) b.add_edge(u, v);
      }
    }
    Graph g = b.build();
    if (is_connected(g)) return g;
  }
  throw std::invalid_argument(
      "random_geometric: could not produce a connected graph; raise radius");
}

Graph make_preferential_attachment(std::size_t n, std::size_t m, std::uint64_t seed) {
  if (m < 1 || m + 1 > n)
    throw std::invalid_argument("preferential_attachment needs 1 <= m and m + 1 <= n");
  std::mt19937_64 rng(seed);
  GraphBuilder g(n);
  // Degree-proportional sampling via the repeated-endpoints list: every
  // endpoint of every edge appears once, so a uniform draw from the list is
  // a draw proportional to degree.
  std::vector<NodeId> endpoints;
  endpoints.reserve(2 * (m * (m + 1) / 2 + (n - m - 1) * m));
  const auto connect = [&g, &endpoints](NodeId u, NodeId v) {
    g.add_edge(u, v);
    endpoints.push_back(u);
    endpoints.push_back(v);
  };
  // Seed clique on the first m + 1 nodes (every early node has degree >= m,
  // and the graph stays connected by construction).
  for (NodeId u = 0; u < m + 1; ++u)
    for (NodeId v = u + 1; v < m + 1; ++v) connect(u, v);
  std::vector<NodeId> targets;
  targets.reserve(m);
  for (auto v = static_cast<NodeId>(m + 1); v < n; ++v) {
    // m distinct degree-proportional targets among [0, v); duplicates are
    // resampled.  m < v always holds here, so this terminates.
    targets.clear();
    while (targets.size() < m) {
      const NodeId t = endpoints[util::uniform_below(rng, endpoints.size())];
      bool dup = false;
      for (const NodeId prev : targets) {
        if (prev == t) {
          dup = true;
          break;
        }
      }
      if (!dup) targets.push_back(t);
    }
    // Endpoints join the list only after all m draws: a new edge must not
    // bias this node's own attachment step.
    for (const NodeId t : targets) connect(v, t);
  }
  return g.build();
}

}  // namespace ag::graph
