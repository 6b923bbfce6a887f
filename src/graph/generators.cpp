#include "graph/generators.hpp"

#include <algorithm>
#include <stdexcept>

namespace camelot {

Graph gnp(std::size_t n, double p, u64 seed) {
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("gnp: bad p");
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution coin(p);
  Graph g(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (coin(rng)) g.add_edge(u, v);
    }
  }
  return g;
}

Graph gnm(std::size_t n, std::size_t m, u64 seed) {
  // n(n-1)/2 in 128 bits: the 64-bit product wraps from n = 2^32 + 1.
  const u128 max_edges = u128{n} * (n - 1) / 2;
  if (m > max_edges) throw std::invalid_argument("gnm: too many edges");
  std::mt19937_64 rng(seed);
  Graph g(n);
  std::size_t added = 0;
  while (added < m) {
    const std::size_t u = rng() % n, v = rng() % n;
    if (u == v || g.has_edge(u, v)) continue;
    g.add_edge(u, v);
    ++added;
  }
  return g;
}

Graph complete_graph(std::size_t n) {
  Graph g(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) g.add_edge(u, v);
  }
  return g;
}

Graph cycle_graph(std::size_t n) {
  if (n < 3) throw std::invalid_argument("cycle_graph: n < 3");
  Graph g(n);
  for (std::size_t v = 0; v < n; ++v) g.add_edge(v, (v + 1) % n);
  return g;
}

Graph path_graph(std::size_t n) {
  Graph g(n);
  for (std::size_t v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

Graph star_graph(std::size_t n) {
  if (n == 0) throw std::invalid_argument("star_graph: empty");
  Graph g(n);
  for (std::size_t v = 1; v < n; ++v) g.add_edge(0, v);
  return g;
}

Graph empty_graph(std::size_t n) { return Graph(n); }

Graph petersen_graph() {
  Graph g(10);
  // Outer 5-cycle, inner 5-star (pentagram), spokes.
  for (std::size_t v = 0; v < 5; ++v) {
    g.add_edge(v, (v + 1) % 5);
    g.add_edge(5 + v, 5 + (v + 2) % 5);
    g.add_edge(v, 5 + v);
  }
  return g;
}

Graph complete_bipartite(std::size_t a, std::size_t b) {
  Graph g(a + b);
  for (std::size_t u = 0; u < a; ++u) {
    for (std::size_t v = 0; v < b; ++v) g.add_edge(u, a + v);
  }
  return g;
}

Graph hub_graph(std::size_t n, std::size_t m, std::size_t hubs, u64 seed) {
  if (hubs > n) throw std::invalid_argument("hub_graph: hubs > n");
  std::mt19937_64 rng(seed);
  Graph g(n);
  // Hubs: vertices 0..hubs-1 adjacent to everything.
  for (std::size_t h = 0; h < hubs; ++h) {
    for (std::size_t v = h + 1; v < n; ++v) g.add_edge(h, v);
  }
  // Sparse background among non-hub vertices.
  std::size_t added = 0, attempts = 0;
  while (added < m && attempts < 100 * (m + 1)) {
    ++attempts;
    const std::size_t u = hubs + rng() % (n - hubs);
    const std::size_t v = hubs + rng() % (n - hubs);
    if (u == v || g.has_edge(u, v)) continue;
    g.add_edge(u, v);
    ++added;
  }
  return g;
}

Graph planted_clique(std::size_t n, double p, std::size_t clique_size,
                     u64 seed) {
  if (clique_size > n) throw std::invalid_argument("planted_clique: size > n");
  Graph g = gnp(n, p, seed);
  std::mt19937_64 rng(seed ^ 0xABCDEF);
  std::vector<std::size_t> verts(n);
  std::iota(verts.begin(), verts.end(), std::size_t{0});
  std::shuffle(verts.begin(), verts.end(), rng);
  for (std::size_t i = 0; i < clique_size; ++i) {
    for (std::size_t j = i + 1; j < clique_size; ++j) {
      if (!g.has_edge(verts[i], verts[j])) g.add_edge(verts[i], verts[j]);
    }
  }
  return g;
}

}  // namespace camelot
