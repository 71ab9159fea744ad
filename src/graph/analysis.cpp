#include "graph/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace ag::graph {

namespace {

std::size_t volume(const Graph& g) {
  std::size_t vol = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) vol += g.degree(v);
  return vol;
}

}  // namespace

double subset_conductance(const Graph& g, const std::vector<bool>& in_set) {
  std::size_t cut = 0, vol_s = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (!in_set[v]) continue;
    vol_s += g.degree(v);
    for (NodeId u : g.neighbors(v)) {
      if (!in_set[u]) ++cut;
    }
  }
  const std::size_t vol_rest = volume(g) - vol_s;
  const std::size_t denom = std::min(vol_s, vol_rest);
  if (denom == 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(cut) / static_cast<double>(denom);
}

double conductance_exact(const Graph& g) {
  const std::size_t n = g.node_count();
  if (n > 24) throw std::invalid_argument("conductance_exact: n > 24 is infeasible");
  if (n < 2) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  std::vector<bool> in_set(n);
  // Fix node 0 out of S to halve the enumeration (complement symmetry).
  const std::size_t limit = std::size_t{1} << (n - 1);
  for (std::size_t mask = 1; mask < limit; ++mask) {
    for (std::size_t b = 0; b < n - 1; ++b) in_set[b + 1] = (mask >> b) & 1;
    in_set[0] = false;
    best = std::min(best, subset_conductance(g, in_set));
  }
  return best;
}

double conductance_sweep(const Graph& g) {
  const std::size_t n = g.node_count();
  if (n < 2) return 0.0;

  // Fiedler vector of the normalized Laplacian L = I - D^-1/2 A D^-1/2 via
  // power iteration on M = 2I - L (largest eigenvector of M is d^1/2, the
  // second is the Fiedler direction; deflate the first).
  std::vector<double> sqrt_d(n), x(n), y(n);
  double norm1 = 0;
  for (NodeId v = 0; v < n; ++v) {
    sqrt_d[v] = std::sqrt(static_cast<double>(std::max<std::size_t>(g.degree(v), 1)));
    norm1 += sqrt_d[v] * sqrt_d[v];
  }
  norm1 = std::sqrt(norm1);
  std::vector<double> v1(n);
  for (NodeId v = 0; v < n; ++v) v1[v] = sqrt_d[v] / norm1;

  // Deterministic pseudo-random start.
  for (NodeId v = 0; v < n; ++v) {
    x[v] = std::sin(static_cast<double>(v) * 12.9898 + 78.233);
  }

  auto deflate = [&](std::vector<double>& vec) {
    double dot = 0;
    for (NodeId v = 0; v < n; ++v) dot += vec[v] * v1[v];
    for (NodeId v = 0; v < n; ++v) vec[v] -= dot * v1[v];
  };
  auto normalize = [&](std::vector<double>& vec) {
    double nrm = 0;
    for (double t : vec) nrm += t * t;
    nrm = std::sqrt(nrm);
    if (nrm == 0) return;
    for (double& t : vec) t /= nrm;
  };

  deflate(x);
  normalize(x);
  for (int iter = 0; iter < 500; ++iter) {
    // y = (2I - L) x = x + D^-1/2 A D^-1/2 x
    for (NodeId v = 0; v < n; ++v) {
      double acc = x[v];
      for (NodeId u : g.neighbors(v)) {
        acc += x[u] / (sqrt_d[v] * sqrt_d[u]);
      }
      y[v] = acc;
    }
    deflate(y);
    normalize(y);
    std::swap(x, y);
  }

  // Sweep cut: order vertices by x[v] / sqrt_d[v], take the best prefix.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return x[a] / sqrt_d[a] < x[b] / sqrt_d[b];
  });
  std::vector<bool> in_set(n, false);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    in_set[order[i]] = true;
    best = std::min(best, subset_conductance(g, in_set));
  }
  return best;
}

std::size_t stoer_wagner_min_cut(const Graph& g) {
  const std::size_t n = g.node_count();
  if (n < 2) return 0;
  // Dense weight matrix; contractions merge rows/columns.
  std::vector<std::vector<double>> w(n, std::vector<double>(n, 0.0));
  for (const auto& [u, v] : g.edges()) {
    w[u][v] += 1.0;
    w[v][u] += 1.0;
  }
  std::vector<NodeId> vertices(n);
  std::iota(vertices.begin(), vertices.end(), NodeId{0});

  double best = std::numeric_limits<double>::infinity();
  while (vertices.size() > 1) {
    // Maximum adjacency search.
    std::vector<double> weight_to_a(vertices.size(), 0.0);
    std::vector<bool> added(vertices.size(), false);
    std::size_t prev = 0, last = 0;
    for (std::size_t it = 0; it < vertices.size(); ++it) {
      std::size_t sel = static_cast<std::size_t>(-1);
      for (std::size_t i = 0; i < vertices.size(); ++i) {
        if (!added[i] && (sel == static_cast<std::size_t>(-1) ||
                          weight_to_a[i] > weight_to_a[sel])) {
          sel = i;
        }
      }
      added[sel] = true;
      prev = last;
      last = sel;
      for (std::size_t i = 0; i < vertices.size(); ++i) {
        if (!added[i]) weight_to_a[i] += w[vertices[sel]][vertices[i]];
      }
    }
    best = std::min(best, weight_to_a[last]);
    // Contract last into prev.
    const NodeId lv = vertices[last], pv = vertices[prev];
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      const NodeId vi = vertices[i];
      if (vi == lv || vi == pv) continue;
      w[pv][vi] += w[lv][vi];
      w[vi][pv] += w[vi][lv];
    }
    vertices.erase(vertices.begin() + static_cast<std::ptrdiff_t>(last));
  }
  return static_cast<std::size_t>(std::llround(best));
}

CommunityStructure detect_communities(const Graph& g) {
  const std::size_t n = g.node_count();
  // Build the graph minus cut-like edges, then take components.
  GraphBuilder dense_builder(n);
  std::vector<char> is_nbr(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId u : g.neighbors(v)) is_nbr[u] = 1;
    for (NodeId u : g.neighbors(v)) {
      if (u < v) continue;  // handle each edge once
      std::size_t common = 0;
      for (NodeId w : g.neighbors(u)) {
        if (is_nbr[w]) ++common;
      }
      if (4 * common >= std::min(g.degree(v), g.degree(u))) dense_builder.add_edge(v, u);
    }
    for (NodeId u : g.neighbors(v)) is_nbr[u] = 0;
  }
  const Graph dense = dense_builder.build();

  CommunityStructure cs;
  cs.community.assign(n, static_cast<std::size_t>(-1));
  for (NodeId v = 0; v < n; ++v) {
    if (cs.community[v] != static_cast<std::size_t>(-1)) continue;
    const std::size_t id = cs.count++;
    cs.sizes.push_back(0);
    std::vector<NodeId> stack{v};
    cs.community[v] = id;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      ++cs.sizes[id];
      for (NodeId w : dense.neighbors(u)) {
        if (cs.community[w] == static_cast<std::size_t>(-1)) {
          cs.community[w] = id;
          stack.push_back(w);
        }
      }
    }
  }
  return cs;
}

double weak_conductance_estimate(const Graph& g, double c) {
  const std::size_t n = g.node_count();
  if (n == 0 || c < 1.0) return 0.0;
  const auto cs = detect_communities(g);
  const double min_size = static_cast<double>(n) / c;
  for (std::size_t id = 0; id < cs.count; ++id) {
    if (static_cast<double>(cs.sizes[id]) < min_size) return 0.0;
  }
  // Conductance of each community's induced subgraph.
  double worst = std::numeric_limits<double>::infinity();
  for (std::size_t id = 0; id < cs.count; ++id) {
    // Build the induced subgraph.
    std::vector<NodeId> members;
    for (NodeId v = 0; v < n; ++v) {
      if (cs.community[v] == id) members.push_back(v);
    }
    std::vector<std::size_t> local(n, 0);
    for (std::size_t i = 0; i < members.size(); ++i) local[members[i]] = i;
    if (members.size() < 2) continue;
    GraphBuilder sub(members.size());
    for (NodeId v : members) {
      for (NodeId u : g.neighbors(v)) {
        if (u > v && cs.community[u] == id) {
          sub.add_edge(static_cast<NodeId>(local[v]), static_cast<NodeId>(local[u]));
        }
      }
    }
    worst = std::min(worst, conductance_sweep(sub.build()));
  }
  return std::isfinite(worst) ? worst : 0.0;
}

}  // namespace ag::graph
