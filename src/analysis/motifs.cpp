#include "analysis/motifs.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "graph/intersect.hpp"
#include "graph/metrics.hpp"

namespace frontier {

namespace {

// C(n, 2) and C(n, 3) over integers.
std::uint64_t choose2(std::uint64_t n) { return n * (n - 1) / 2; }
std::uint64_t choose3(std::uint64_t n) {
  if (n < 3) return 0;
  return n * (n - 1) / 2 * (n - 2) / 3;  // C(n,2) is integral first
}

}  // namespace

void common_neighbors(const Graph& g, VertexId u, VertexId v,
                      std::vector<VertexId>& out) {
  out.clear();
  intersect_sorted(g.num_vertices(), g.neighbors(u), g.neighbors(v),
                   [&out](VertexId x) { out.push_back(x); });
}

void require_simple_graph(const Graph& g) {
  const std::uint64_t n = g.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] == v) {
        throw std::invalid_argument("motifs: graph has a self-loop at vertex " +
                                    std::to_string(v));
      }
      if (i > 0 && nbrs[i] <= nbrs[i - 1]) {
        throw std::invalid_argument(
            "motifs: adjacency of vertex " + std::to_string(v) +
            " is not strictly ascending (parallel edge or unsorted CSR)");
      }
    }
  }
}

std::uint64_t exact_triangle_count(const Graph& g) {
  require_simple_graph(g);
  // Σ over undirected edges of f(u,v) counts each triangle once per edge.
  std::uint64_t sum = 0;
  const std::uint64_t n = g.num_vertices();
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (v <= u) continue;
      sum += shared_neighbors(g, u, v);
    }
  }
  return sum / 3;
}

std::uint64_t exact_wedge_count(const Graph& g) {
  require_simple_graph(g);
  std::uint64_t wedges = 0;
  const std::uint64_t n = g.num_vertices();
  for (VertexId v = 0; v < n; ++v) wedges += choose2(g.degree(v));
  return wedges;
}

double exact_transitivity(const Graph& g) {
  const std::uint64_t wedges = exact_wedge_count(g);
  if (wedges == 0) return 0.0;
  return static_cast<double>(3 * exact_triangle_count(g)) /
         static_cast<double>(wedges);
}

std::vector<double> exact_local_clustering_by_degree(const Graph& g) {
  require_simple_graph(g);
  const std::vector<std::uint64_t> tri = triangles_per_vertex(g);
  std::vector<std::uint64_t> twice_tri_sum;  // Σ 2∆(v) per degree class
  std::vector<std::uint64_t> class_size;
  const std::uint64_t n = g.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    const std::uint32_t d = g.degree(v);
    if (d >= twice_tri_sum.size()) {
      twice_tri_sum.resize(d + 1, 0);
      class_size.resize(d + 1, 0);
    }
    twice_tri_sum[d] += 2 * tri[v];
    class_size[d] += 1;
  }
  std::vector<double> curve(twice_tri_sum.size(), 0.0);
  for (std::size_t k = 2; k < curve.size(); ++k) {
    if (class_size[k] == 0) continue;
    // mean of ∆/C(k,2) = (Σ 2∆) / (n_k · k · (k-1)); every factor is an
    // exact integer below 2^53, so the double quotient is the correctly
    // rounded true value — and bit-identical to ClusteringSink's
    // full-enumeration curve, which divides the same two integers.
    const double denom = static_cast<double>(class_size[k]) *
                         static_cast<double>(k) * (static_cast<double>(k) - 1.0);
    curve[k] = static_cast<double>(twice_tri_sum[k]) / denom;
  }
  return curve;
}

MotifCounts exact_motif_counts(const Graph& g) {
  require_simple_graph(g);
  const std::uint64_t n = g.num_vertices();

  // Degree-sequence terms: wedges and non-induced claws.
  std::uint64_t wedges = 0;
  std::uint64_t claw_n = 0;  // Σ C(deg, 3): claws counted per center
  for (VertexId v = 0; v < n; ++v) {
    const std::uint64_t d = g.degree(v);
    wedges += choose2(d);
    claw_n += choose3(d);
  }

  // Edge-local sums over undirected edges {u < v} with codegree f = f(u,v):
  //   Σ f            = 3 · triangles
  //   Σ [(du-1)(dv-1) - f]  = non-induced P4 (counted per middle edge)
  //   Σ f·(du+dv-4)  = 2 · non-induced paws (per triangle edge, per pendant)
  //   Σ C(f, 2)      = non-induced diamonds (counted per hinge edge)
  //   Σ adjacent pairs within the common neighborhood = 6 · K4
  std::int64_t tri3 = 0;
  std::int64_t p4_n = 0;
  std::int64_t paw2_n = 0;
  std::int64_t diamond_n = 0;
  std::int64_t k4_6 = 0;
  std::vector<VertexId> common;
  for (VertexId u = 0; u < n; ++u) {
    const std::int64_t du = g.degree(u);
    for (VertexId v : g.neighbors(u)) {
      if (v <= u) continue;
      common_neighbors(g, u, v, common);
      const std::int64_t f = static_cast<std::int64_t>(common.size());
      const std::int64_t dv = g.degree(v);
      tri3 += f;
      p4_n += (du - 1) * (dv - 1) - f;
      paw2_n += f * (du + dv - 4);
      diamond_n += f * (f - 1) / 2;
      for (std::size_t i = 0; i < common.size(); ++i) {
        for (std::size_t j = i + 1; j < common.size(); ++j) {
          if (g.has_edge(common[i], common[j])) ++k4_6;
        }
      }
    }
  }

  // Non-induced C4 via codegree pairs: each unordered pair {a, b} with κ
  // common neighbors closes C(κ, 2) four-cycles in which a and b are
  // opposite corners; summing over pairs counts each C4 twice (it has two
  // opposite pairs). Pairs are materialized per wedge center, so memory
  // is O(#wedges).
  std::vector<std::uint64_t> codegree_pairs;
  codegree_pairs.reserve(wedges);
  for (VertexId w = 0; w < n; ++w) {
    const auto nbrs = g.neighbors(w);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        codegree_pairs.push_back((static_cast<std::uint64_t>(nbrs[i]) << 32) |
                                 nbrs[j]);
      }
    }
  }
  std::sort(codegree_pairs.begin(), codegree_pairs.end());
  std::int64_t c4_2n = 0;  // 2 · non-induced C4
  for (std::size_t i = 0; i < codegree_pairs.size();) {
    std::size_t j = i;
    while (j < codegree_pairs.size() && codegree_pairs[j] == codegree_pairs[i])
      ++j;
    c4_2n += static_cast<std::int64_t>(choose2(j - i));
    i = j;
  }

  // Non-induced totals, then inclusion–exclusion down to induced counts
  // (coefficients: copies of the smaller motif inside the larger one).
  const std::int64_t tri = tri3 / 3;
  const std::int64_t paw_n = paw2_n / 2;
  const std::int64_t c4_n = c4_2n / 2;
  const std::int64_t k4 = k4_6 / 6;
  const std::int64_t diamond_i = diamond_n - 6 * k4;
  const std::int64_t c4_i = c4_n - diamond_n + 3 * k4;
  const std::int64_t paw_i = paw_n - 4 * diamond_i - 12 * k4;
  const std::int64_t claw_i =
      static_cast<std::int64_t>(claw_n) - paw_i - 2 * diamond_i - 4 * k4;
  const std::int64_t p4_i =
      p4_n - 4 * c4_i - 2 * paw_i - 6 * diamond_i - 12 * k4;

  MotifCounts out;
  out.wedge = static_cast<std::uint64_t>(wedges - 3 * tri);
  out.triangle = static_cast<std::uint64_t>(tri);
  out.path4 = static_cast<std::uint64_t>(p4_i);
  out.claw = static_cast<std::uint64_t>(claw_i);
  out.cycle4 = static_cast<std::uint64_t>(c4_i);
  out.paw = static_cast<std::uint64_t>(paw_i);
  out.diamond = static_cast<std::uint64_t>(diamond_i);
  out.clique4 = static_cast<std::uint64_t>(k4);
  return out;
}

}  // namespace frontier
