#include "graph/generators.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "graph/builder.hpp"
#include "random/alias_table.hpp"

namespace frontier {

namespace {

void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

}  // namespace

Graph barabasi_albert(std::size_t n, std::size_t links_per_vertex, Rng& rng) {
  require(links_per_vertex >= 1, "barabasi_albert: links_per_vertex >= 1");
  require(n > links_per_vertex, "barabasi_albert: n must exceed links");

  GraphBuilder builder(n);
  // `targets` holds one entry per edge endpoint; sampling an index uniformly
  // selects a vertex with probability proportional to its degree.
  std::vector<VertexId> endpoints;
  endpoints.reserve(2 * n * links_per_vertex);

  // Seed clique over the first links_per_vertex+1 vertices.
  const std::size_t seed = links_per_vertex + 1;
  for (VertexId u = 0; u < seed; ++u) {
    for (VertexId v = u + 1; v < seed; ++v) {
      builder.add_undirected_edge(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }

  std::vector<VertexId> chosen;
  chosen.reserve(links_per_vertex);
  for (VertexId v = static_cast<VertexId>(seed); v < n; ++v) {
    chosen.clear();
    while (chosen.size() < links_per_vertex) {
      const VertexId t =
          endpoints[uniform_index(rng, endpoints.size())];
      if (std::find(chosen.begin(), chosen.end(), t) == chosen.end()) {
        chosen.push_back(t);
      }
    }
    for (VertexId t : chosen) {
      builder.add_undirected_edge(v, t);
      endpoints.push_back(v);
      endpoints.push_back(t);
    }
  }
  return builder.build();
}

Graph directed_preferential(std::size_t n, std::size_t links_per_vertex,
                            double reciprocity, Rng& rng) {
  require(links_per_vertex >= 1, "directed_preferential: links >= 1");
  require(n > links_per_vertex, "directed_preferential: n must exceed links");
  require(reciprocity >= 0.0 && reciprocity <= 1.0,
          "directed_preferential: reciprocity in [0,1]");

  GraphBuilder builder(n);
  std::vector<VertexId> endpoints;  // degree-proportional target pool
  endpoints.reserve(2 * n * links_per_vertex);

  const std::size_t seed = links_per_vertex + 1;
  for (VertexId u = 0; u < seed; ++u) {
    for (VertexId v = u + 1; v < seed; ++v) {
      builder.add_edge(u, v);
      builder.add_edge(v, u);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }

  std::vector<VertexId> chosen;
  for (VertexId v = static_cast<VertexId>(seed); v < n; ++v) {
    chosen.clear();
    while (chosen.size() < links_per_vertex) {
      const VertexId t = endpoints[uniform_index(rng, endpoints.size())];
      if (t != v &&
          std::find(chosen.begin(), chosen.end(), t) == chosen.end()) {
        chosen.push_back(t);
      }
    }
    for (VertexId t : chosen) {
      builder.add_edge(v, t);  // v subscribes to t
      if (bernoulli(rng, reciprocity)) builder.add_edge(t, v);
      endpoints.push_back(v);
      endpoints.push_back(t);
    }
  }
  return builder.build();
}

Graph community_preferential(std::size_t n, std::size_t links_per_vertex,
                             double reciprocity, std::size_t communities,
                             std::size_t bridges_per_community, Rng& rng) {
  require(communities >= 1, "community_preferential: communities >= 1");
  require(n >= communities * (links_per_vertex + 2),
          "community_preferential: n too small for community count");

  // Zipf-skewed community sizes (rank^-0.8), floored so each block can host
  // its seed clique.
  const std::size_t min_size = links_per_vertex + 2;
  std::vector<std::size_t> sizes(communities);
  double norm = 0.0;
  for (std::size_t k = 0; k < communities; ++k) {
    norm += std::pow(static_cast<double>(k + 1), -0.8);
  }
  std::size_t assigned = 0;
  for (std::size_t k = 0; k < communities; ++k) {
    const double share =
        std::pow(static_cast<double>(k + 1), -0.8) / norm;
    sizes[k] = std::max(min_size,
                        static_cast<std::size_t>(share *
                                                 static_cast<double>(n)));
    assigned += sizes[k];
  }
  // Absorb rounding drift into the largest community.
  if (assigned < n) {
    sizes[0] += n - assigned;
  } else if (assigned > n) {
    const std::size_t excess = assigned - n;
    sizes[0] -= std::min(sizes[0] - min_size, excess);
  }

  std::vector<Graph> blocks;
  blocks.reserve(communities);
  std::vector<std::size_t> base(communities, 0);
  std::size_t offset = 0;
  for (std::size_t k = 0; k < communities; ++k) {
    base[k] = offset;
    blocks.push_back(
        directed_preferential(sizes[k], links_per_vertex, reciprocity, rng));
    offset += blocks.back().num_vertices();
  }
  Graph merged = disjoint_union(blocks);

  // Re-add the union into a builder so bridges can be appended.
  GraphBuilder builder(merged.num_vertices());
  for (VertexId u = 0; u < merged.num_vertices(); ++u) {
    const auto nbrs = merged.neighbors(u);
    const auto dirs = merged.directions(u);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      const EdgeDir d = dirs[j];
      if (d == EdgeDir::kForward || d == EdgeDir::kBoth) {
        builder.add_edge(u, nbrs[j]);
      }
    }
  }
  // Chain bridge guarantees connectivity; extra random bridges control how
  // loosely the communities couple.
  const auto random_in = [&](std::size_t k) {
    return static_cast<VertexId>(base[k] +
                                 uniform_index(rng, blocks[k].num_vertices()));
  };
  for (std::size_t k = 0; k + 1 < communities; ++k) {
    builder.add_undirected_edge(random_in(k), random_in(k + 1));
  }
  for (std::size_t k = 0; k < communities && communities > 1; ++k) {
    for (std::size_t b = 1; b < bridges_per_community; ++b) {
      std::size_t other;
      do {
        other = uniform_index(rng, communities);
      } while (other == k);
      builder.add_undirected_edge(random_in(k), random_in(other));
    }
  }
  return builder.build();
}

Graph erdos_renyi_gnp(std::size_t n, double p, Rng& rng) {
  require(p >= 0.0 && p <= 1.0, "erdos_renyi_gnp: p in [0,1]");
  GraphBuilder builder(n);
  if (p > 0.0 && n >= 2) {
    // Batagelj–Brandes geometric skipping over the strictly-lower triangle.
    std::uint64_t v = 1;
    std::int64_t w = -1;
    const double logq = std::log1p(-p);
    while (v < n) {
      if (p >= 1.0) {
        ++w;
      } else {
        const double u = 1.0 - uniform01(rng);
        w += 1 + static_cast<std::int64_t>(std::floor(std::log(u) / logq));
      }
      while (w >= static_cast<std::int64_t>(v) && v < n) {
        w -= static_cast<std::int64_t>(v);
        ++v;
      }
      if (v < n) {
        builder.add_undirected_edge(static_cast<VertexId>(v),
                                    static_cast<VertexId>(w));
      }
    }
  }
  return builder.build();
}

Graph configuration_model(std::span<const std::uint32_t> degrees, Rng& rng) {
  std::uint64_t total = 0;
  for (auto d : degrees) total += d;
  require(total % 2 == 0, "configuration_model: degree sum must be even");

  std::vector<VertexId> stubs;
  stubs.reserve(total);
  for (VertexId v = 0; v < degrees.size(); ++v) {
    for (std::uint32_t k = 0; k < degrees[v]; ++k) stubs.push_back(v);
  }
  // Fisher–Yates shuffle, then pair consecutive stubs.
  for (std::size_t i = stubs.size(); i > 1; --i) {
    std::swap(stubs[i - 1], stubs[uniform_index(rng, i)]);
  }
  GraphBuilder builder(degrees.size());
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    if (stubs[i] != stubs[i + 1]) {
      builder.add_undirected_edge(stubs[i], stubs[i + 1]);
    }
  }
  return builder.build();  // parallel edges collapse in build()
}

std::vector<std::uint32_t> power_law_degrees(std::size_t n, double alpha,
                                             std::uint32_t dmin,
                                             std::uint32_t dmax, Rng& rng) {
  require(dmin >= 1 && dmax >= dmin, "power_law_degrees: 1 <= dmin <= dmax");
  require(alpha > 0.0, "power_law_degrees: alpha > 0");

  std::vector<double> weights(dmax - dmin + 1);
  for (std::uint32_t d = dmin; d <= dmax; ++d) {
    weights[d - dmin] = std::pow(static_cast<double>(d), -alpha);
  }
  const AliasTable table{std::span<const double>(weights)};
  std::vector<std::uint32_t> degrees(n);
  std::uint64_t total = 0;
  for (auto& d : degrees) {
    d = dmin + static_cast<std::uint32_t>(table.sample(rng));
    total += d;
  }
  if (total % 2 != 0) {
    // Bump an arbitrary vertex that can still grow by one.
    for (auto& d : degrees) {
      if (d < dmax) {
        ++d;
        break;
      }
    }
    // If every vertex is already at dmax, shrink one instead.
    total = std::accumulate(degrees.begin(), degrees.end(), std::uint64_t{0});
    if (total % 2 != 0) --degrees.front();
  }
  return degrees;
}

Graph stochastic_block_model(std::span<const std::size_t> block_sizes,
                             std::span<const std::vector<double>> probs,
                             Rng& rng) {
  const std::size_t blocks = block_sizes.size();
  require(blocks >= 1, "stochastic_block_model: at least one block");
  require(probs.size() == blocks, "stochastic_block_model: probs is BxB");
  for (const auto& row : probs) {
    require(row.size() == blocks, "stochastic_block_model: probs is BxB");
    for (double p : row) {
      require(p >= 0.0 && p <= 1.0, "stochastic_block_model: p in [0,1]");
    }
  }

  std::vector<std::size_t> base(blocks, 0);
  std::size_t n = 0;
  for (std::size_t i = 0; i < blocks; ++i) {
    base[i] = n;
    n += block_sizes[i];
  }
  GraphBuilder builder(n);

  // Geometric skipping over each block pair (upper triangle within
  // blocks, full rectangle across blocks).
  const auto add_pairs = [&](std::size_t bi, std::size_t bj, double p) {
    if (p <= 0.0) return;
    const std::size_t rows = block_sizes[bi];
    const std::size_t cols = block_sizes[bj];
    const bool diagonal = bi == bj;
    const double logq = std::log1p(-p);
    // Linearize candidate pairs; for the diagonal case enumerate the
    // strictly-lower triangle.
    const std::uint64_t total =
        diagonal ? static_cast<std::uint64_t>(rows) * (rows - 1) / 2
                 : static_cast<std::uint64_t>(rows) * cols;
    std::uint64_t idx = 0;
    for (;;) {
      if (p >= 1.0) {
        if (idx >= total) break;
      } else {
        const double u = 1.0 - uniform01(rng);
        idx += 1 + static_cast<std::uint64_t>(std::floor(std::log(u) / logq));
        --idx;  // first candidate is idx itself when skip = 0
        if (idx >= total) break;
      }
      std::size_t r, c;
      if (diagonal) {
        // Decode strictly-lower-triangle index.
        const auto rr = static_cast<std::size_t>(
            (1.0 + std::sqrt(1.0 + 8.0 * static_cast<double>(idx))) / 2.0);
        std::size_t row = rr;
        while (row * (row - 1) / 2 > idx) --row;
        while ((row + 1) * row / 2 <= idx) ++row;
        r = row;
        c = static_cast<std::size_t>(idx - static_cast<std::uint64_t>(row) *
                                               (row - 1) / 2);
      } else {
        r = static_cast<std::size_t>(idx / cols);
        c = static_cast<std::size_t>(idx % cols);
      }
      builder.add_undirected_edge(static_cast<VertexId>(base[bi] + r),
                                  static_cast<VertexId>(base[bj] + c));
      ++idx;
    }
  };

  for (std::size_t i = 0; i < blocks; ++i) {
    for (std::size_t j = i; j < blocks; ++j) {
      add_pairs(i, j, probs[i][j]);
    }
  }
  return builder.build();
}

Graph watts_strogatz(std::size_t n, std::size_t k, double beta, Rng& rng) {
  require(k >= 1 && 2 * k < n, "watts_strogatz: need 1 <= k and 2k < n");
  require(beta >= 0.0 && beta <= 1.0, "watts_strogatz: beta in [0,1]");

  // Start from the ring lattice, rewire the far endpoint of each edge with
  // probability beta, avoiding self-loops (duplicates collapse in build()).
  GraphBuilder builder(n);
  for (VertexId u = 0; u < n; ++u) {
    for (std::size_t j = 1; j <= k; ++j) {
      VertexId v = static_cast<VertexId>((u + j) % n);
      if (bernoulli(rng, beta)) {
        VertexId w;
        do {
          w = static_cast<VertexId>(uniform_index(rng, n));
        } while (w == u);
        v = w;
      }
      builder.add_undirected_edge(u, v);
    }
  }
  return builder.build();
}

Graph path_graph(std::size_t n) {
  GraphBuilder builder(n);
  for (VertexId v = 0; v + 1 < n; ++v) builder.add_undirected_edge(v, v + 1);
  return builder.build();
}

Graph cycle_graph(std::size_t n) {
  if (n < 3) throw std::invalid_argument("cycle_graph: n >= 3");
  GraphBuilder builder(n);
  for (VertexId v = 0; v < n; ++v) {
    builder.add_undirected_edge(v, static_cast<VertexId>((v + 1) % n));
  }
  return builder.build();
}

Graph star_graph(std::size_t n) {
  if (n < 2) throw std::invalid_argument("star_graph: n >= 2");
  GraphBuilder builder(n);
  for (VertexId v = 1; v < n; ++v) builder.add_undirected_edge(0, v);
  return builder.build();
}

Graph complete_graph(std::size_t n) {
  GraphBuilder builder(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) builder.add_undirected_edge(u, v);
  }
  return builder.build();
}

Graph complete_bipartite(std::size_t a, std::size_t b) {
  GraphBuilder builder(a + b);
  for (VertexId u = 0; u < a; ++u) {
    for (VertexId v = 0; v < b; ++v) {
      builder.add_undirected_edge(u, static_cast<VertexId>(a + v));
    }
  }
  return builder.build();
}

Graph grid_graph(std::size_t rows, std::size_t cols) {
  GraphBuilder builder(rows * cols);
  const auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<VertexId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) builder.add_undirected_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) builder.add_undirected_edge(id(r, c), id(r + 1, c));
    }
  }
  return builder.build();
}

Graph disjoint_union(std::span<const Graph> graphs) {
  std::size_t total = 0;
  for (const Graph& g : graphs) total += g.num_vertices();
  GraphBuilder builder(total);
  VertexId base = 0;
  for (const Graph& g : graphs) {
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      const auto nbrs = g.neighbors(u);
      const auto dirs = g.directions(u);
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        const EdgeDir d = dirs[k];
        if (d == EdgeDir::kForward || d == EdgeDir::kBoth) {
          builder.add_edge(base + u, base + nbrs[k]);
        }
      }
    }
    base += static_cast<VertexId>(g.num_vertices());
  }
  return builder.build();
}

Graph join_by_single_edge(const Graph& a, const Graph& b) {
  if (a.num_vertices() == 0 || b.num_vertices() == 0) {
    throw std::invalid_argument("join_by_single_edge: both graphs non-empty");
  }
  const std::array<const Graph*, 2> gs{&a, &b};
  std::size_t total = a.num_vertices() + b.num_vertices();
  GraphBuilder builder(total);
  VertexId base = 0;
  std::array<VertexId, 2> min_vertex{0, 0};
  for (std::size_t gi = 0; gi < 2; ++gi) {
    const Graph& g = *gs[gi];
    VertexId best = 0;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      if (g.degree(u) < g.degree(best)) best = u;
      const auto nbrs = g.neighbors(u);
      const auto dirs = g.directions(u);
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        const EdgeDir d = dirs[k];
        if (d == EdgeDir::kForward || d == EdgeDir::kBoth) {
          builder.add_edge(base + u, base + nbrs[k]);
        }
      }
    }
    min_vertex[gi] = base + best;
    base += static_cast<VertexId>(g.num_vertices());
  }
  builder.add_undirected_edge(min_vertex[0], min_vertex[1]);
  return builder.build();
}

}  // namespace frontier
