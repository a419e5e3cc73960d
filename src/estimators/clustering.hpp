// Global clustering coefficient estimator (Section 4.2.4, Corollary 4.2).
//
//   Ĉ = (1/(S·B)) Σ_i f(v_i, u_i) / ( 2 · C(deg(v_i), 2) )
//   S  = (1/B) Σ_i 1/deg(v_i)   restricted to deg(v_i) >= 2,
//
// where f(v,u) counts the common neighbors of v and u. Since
// Σ_{u∈N(v)} f(v,u) = 2∆(v), the numerator converges (Theorem 4.1) to
// (Σ_v c(v))/|E| and S to |V*|/|E|, so Ĉ → C almost surely. Note: the
// paper's displayed estimator carries an extra 1/deg(v_i) in the numerator
// and no factor 1/2; as literally written it converges to
// (2/|V*|) Σ c(v)/deg(v) rather than C — we implement the corrected
// weights (see docs/BENCHMARKS.md, "Surrogates and deviations"); the two
// coincide on regular graphs.
#pragma once

#include <span>

#include "core/types.hpp"
#include "graph/graph.hpp"

namespace frontier {

/// Ĉ from a sequence of stationary-RW (or random-edge) sampled edges.
/// Each sample queries the common-neighbor count f(v_i, u_i) on g — the
/// one-hop information a crawler obtains when it expands both endpoints.
[[nodiscard]] double estimate_global_clustering(const Graph& g,
                                                std::span<const Edge> edges);

}  // namespace frontier
