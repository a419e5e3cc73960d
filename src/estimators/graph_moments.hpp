// Scalar graph-moment estimators built on the S-normalization of eq. 7.
//
// The normalizer S = (1/B) Σ 1/deg(v_i) of the paper's vertex-label
// estimator converges to |V|/|E| (Theorem 4.1), so 1/S is an
// asymptotically unbiased estimator of the average degree vol(V)/|V| —
// Section 3 assumes d̄ is known; this is how a crawler obtains it. The
// degree-moment generalization Σ deg^k estimators follow the same pattern.
#pragma once

#include <cmath>
#include <span>

#include "core/types.hpp"
#include "graph/graph.hpp"

namespace frontier {

/// Average symmetric degree d̄ from stationary RW/FS/RE edge samples:
/// 1 / mean(1/deg(v_i)). Returns 0 for empty input.
[[nodiscard]] double estimate_average_degree(const Graph& g,
                                             std::span<const Edge> edges);

/// Average degree from uniform vertex samples (plain mean of degrees).
[[nodiscard]] double estimate_average_degree_uniform(
    const Graph& g, std::span<const VertexId> vertices);

/// deg^e for an integer-valued deg >= 0, bit-equal to
/// std::pow(deg, double(e)). While the running product stays below 2^53
/// every step is an exact integer, and so is pow's result; past that it
/// falls back to std::pow. The power behind GraphMomentsSink's fold (and
/// so behind estimate_degree_moment).
[[nodiscard]] inline double degree_power(double deg, unsigned e) noexcept {
  double p = 1.0;
  for (unsigned i = 0; i < e; ++i) {
    p *= deg;
    if (p >= 0x1p53) return std::pow(deg, static_cast<double>(e));
  }
  return p;
}

/// k-th raw moment of the degree distribution, E[deg^k], from stationary
/// edge samples: mean(deg(v_i)^{k-1}) / mean(deg(v_i)^{-1})^{0}... —
/// implemented as Σ deg^(k-1) / Σ deg^(-1) reweighting. k = 1 reduces to
/// estimate_average_degree.
[[nodiscard]] double estimate_degree_moment(const Graph& g,
                                            std::span<const Edge> edges,
                                            unsigned k);

/// Estimated |E| (ordered symmetric edges = vol(V)) given the true |V| —
/// the companion of estimate_average_degree for crawlers that know the
/// user-id space size: vol ≈ |V| / S.
[[nodiscard]] double estimate_volume(const Graph& g,
                                     std::span<const Edge> edges,
                                     double num_vertices);

}  // namespace frontier
