// Exact graph characteristics — the ground truth every estimator is
// compared against (NMSE/CNMSE need the true θ and γ).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace frontier {

/// Which degree notion a distribution refers to.
enum class DegreeKind : std::uint8_t {
  kSymmetric,  ///< degree in G (the walkable symmetric graph)
  kIn,         ///< in-degree in the original directed graph G_d
  kOut,        ///< out-degree in G_d
};

[[nodiscard]] std::uint32_t degree_of(const Graph& g, VertexId v,
                                      DegreeKind kind) noexcept;

/// Exact degree distribution θ: theta[i] = fraction of vertices with the
/// given degree i. Indexed 0..max_degree.
[[nodiscard]] std::vector<double> degree_distribution(const Graph& g,
                                                      DegreeKind kind);

/// CCDF γ of a distribution: gamma[l] = Σ_{k>l} theta[k] (paper eq. 2's γ).
/// Same length as theta; gamma[max] == 0.
[[nodiscard]] std::vector<double> ccdf_from_pdf(
    const std::vector<double>& theta);

/// Exact fraction of vertices satisfying the predicate (θ_l of eq. 6 with
/// 1(l ∈ L_v(v)) = pred(v)).
[[nodiscard]] double exact_label_density(
    const Graph& g, const std::function<bool(VertexId)>& pred);

/// Exact directed degree assortative-mixing coefficient (Newman 2002,
/// eq. 25): correlation of (outdeg(u), indeg(v)) over directed edges
/// (u,v) ∈ E_d. Returns 0 when either marginal has zero variance (the
/// paper reports r = 0 for such graphs, e.g. Barabási–Albert parts of G_AB).
[[nodiscard]] double exact_assortativity(const Graph& g);

/// Number of common neighbors of u and v in G: the f(v,u) of Section 4.2.4.
[[nodiscard]] std::uint32_t shared_neighbors(const Graph& g, VertexId u,
                                             VertexId v) noexcept;

/// Exact number of triangles through each vertex (∆(v) of Section 4.2.4).
[[nodiscard]] std::vector<std::uint64_t> triangles_per_vertex(const Graph& g);

/// Exact global clustering coefficient (eq. 8): mean over vertices with
/// deg(v) >= 2 of ∆(v) / C(deg(v), 2). Returns 0 if no such vertex exists.
[[nodiscard]] double exact_global_clustering(const Graph& g);

/// Row of the paper's Table 1.
struct GraphSummary {
  std::string name;
  std::uint64_t num_vertices = 0;
  std::uint64_t lcc_size = 0;
  std::uint64_t num_directed_edges = 0;
  double average_degree = 0.0;
  double wmax = 0.0;  ///< max degree / average degree
};

[[nodiscard]] GraphSummary summarize(const Graph& g, std::string name);

}  // namespace frontier
