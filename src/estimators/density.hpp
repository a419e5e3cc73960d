// Label-density estimators (Sections 4.2.1 and 4.2.3).
//
// Edge label density (eq. 5):  p̂_l = Σ 1(l ∈ L_e(u_i,v_i)) / B*
// over the sampled edges that carry labels.
//
// Vertex label density (eq. 7): θ̂_l = (1/(S·B)) Σ 1(l ∈ L_v(v_i))/deg(v_i)
// with S = (1/B) Σ 1/deg(v_i) — the importance-reweighted estimator that
// corrects the degree bias of stationary random-walk samples.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "graph/graph.hpp"

namespace frontier {

/// eq. 5 over the subsequence of edges where `labeled` holds; `has_label`
/// decides whether the label of interest is present. Returns 0 when no
/// sampled edge is labeled.
[[nodiscard]] double estimate_edge_label_density(
    const Graph& g, std::span<const Edge> edges,
    const std::function<bool(const Edge&)>& labeled,
    const std::function<bool(const Edge&)>& has_label);

/// eq. 7 from random-walk (or random-edge) sampled edges: the i-th sample
/// contributes through its target vertex v_i. Returns 0 for empty input.
[[nodiscard]] double estimate_vertex_label_density(
    const Graph& g, std::span<const Edge> edges,
    const std::function<bool(VertexId)>& pred);

/// Batched group-affiliation densities (Section 6.5): estimates θ_l for all
/// groups l in [0, num_groups) in one pass. `groups_of(v)` returns the group
/// ids of vertex v.
[[nodiscard]] std::vector<double> estimate_group_densities(
    const Graph& g, std::span<const Edge> edges,
    const std::function<std::span<const std::uint32_t>(VertexId)>& groups_of,
    std::size_t num_groups);

/// Group densities from uniform vertex samples (comparison baseline).
[[nodiscard]] std::vector<double> estimate_group_densities_uniform(
    std::span<const VertexId> vertices,
    const std::function<std::span<const std::uint32_t>(VertexId)>& groups_of,
    std::size_t num_groups);

}  // namespace frontier
