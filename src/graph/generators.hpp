// Random and deterministic graph generators.
//
// These provide (a) the synthetic workloads of the paper's evaluation — the
// Barabási–Albert G_AB construction of Section 6.1 and the scaled surrogates
// of the crawled datasets (see experiments/datasets.hpp) — and (b) small
// structured graphs with analytically known characteristics used as ground
// truth in the test suite.
//
// Undirected graphs are modeled, as in the paper, as symmetric directed
// graphs (every adjacency carries EdgeDir::kBoth).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "random/rng.hpp"

namespace frontier {

// ----------------------------------------------------------------------
// Random models
// ----------------------------------------------------------------------

/// Barabási–Albert preferential attachment: starts from a clique of
/// `links_per_vertex`+1 vertices; each new vertex attaches `links_per_vertex`
/// edges to existing vertices chosen proportionally to degree (sampling with
/// the repeated-endpoint list trick; duplicate targets are resampled).
/// Undirected, connected, average degree ~ 2*links_per_vertex.
[[nodiscard]] Graph barabasi_albert(std::size_t n, std::size_t links_per_vertex,
                                    Rng& rng);

/// Directed preferential-attachment variant for social-network surrogates:
/// each new vertex subscribes to `links_per_vertex` degree-preferential
/// targets (edge newcomer->target), and each subscription is reciprocated
/// with probability `reciprocity`. In-degrees are heavy-tailed.
[[nodiscard]] Graph directed_preferential(std::size_t n,
                                          std::size_t links_per_vertex,
                                          double reciprocity, Rng& rng);

/// Community-structured directed preferential attachment: `communities`
/// independently grown directed_preferential() blocks (sizes Zipf-skewed),
/// connected into one component by `bridges_per_community` random
/// inter-community undirected edges each (at least one, chained, so the
/// result is connected). Real social graphs are modular and mix slowly —
/// random walkers get trapped inside communities — which pure preferential
/// attachment (an expander) cannot reproduce. Used by the Flickr /
/// LiveJournal / YouTube surrogates.
[[nodiscard]] Graph community_preferential(std::size_t n,
                                           std::size_t links_per_vertex,
                                           double reciprocity,
                                           std::size_t communities,
                                           std::size_t bridges_per_community,
                                           Rng& rng);

/// Erdős–Rényi G(n, p): every unordered pair independently with prob p.
/// O(n + m) via geometric skipping.
[[nodiscard]] Graph erdos_renyi_gnp(std::size_t n, double p, Rng& rng);

/// Configuration model over the given degree sequence (sum must be even).
/// Stub-matching; self-loops and parallel edges are erased, so realized
/// degrees can be slightly below the request for heavy-tailed inputs.
[[nodiscard]] Graph configuration_model(std::span<const std::uint32_t> degrees,
                                        Rng& rng);

/// Power-law degree sequence: P[deg = d] ∝ d^-alpha for d in [dmin, dmax],
/// adjusted so the sum is even.
[[nodiscard]] std::vector<std::uint32_t> power_law_degrees(std::size_t n,
                                                           double alpha,
                                                           std::uint32_t dmin,
                                                           std::uint32_t dmax,
                                                           Rng& rng);

/// Stochastic block model: `block_sizes[i]` vertices per block, edge
/// between u ∈ block i and v ∈ block j with probability probs[i][j]
/// (symmetric matrix, diagonal = within-block). Undirected. The canonical
/// model of community structure; the conductance tooling in analysis/ is
/// tested against it.
[[nodiscard]] Graph stochastic_block_model(
    std::span<const std::size_t> block_sizes,
    std::span<const std::vector<double>> probs, Rng& rng);

/// Watts–Strogatz small world: ring lattice with k nearest neighbors per
/// side, each edge rewired with probability beta.
[[nodiscard]] Graph watts_strogatz(std::size_t n, std::size_t k, double beta,
                                   Rng& rng);

// ----------------------------------------------------------------------
// Deterministic graphs (known characteristics, used as test oracles)
// ----------------------------------------------------------------------

[[nodiscard]] Graph path_graph(std::size_t n);
[[nodiscard]] Graph cycle_graph(std::size_t n);
[[nodiscard]] Graph star_graph(std::size_t n);      ///< center 0, n-1 leaves
[[nodiscard]] Graph complete_graph(std::size_t n);
[[nodiscard]] Graph complete_bipartite(std::size_t a, std::size_t b);
[[nodiscard]] Graph grid_graph(std::size_t rows, std::size_t cols);

// ----------------------------------------------------------------------
// Combinators
// ----------------------------------------------------------------------

/// Disjoint union; vertex ids of graphs[i] are shifted by the total size of
/// the preceding graphs.
[[nodiscard]] Graph disjoint_union(std::span<const Graph> graphs);

/// The paper's G_AB construction (Section 6.1): places a and b side by side
/// and joins them with a single undirected edge between the minimum-degree
/// vertex of each part (ties broken by smallest id, as "ties are resolved
/// arbitrarily" in the paper).
[[nodiscard]] Graph join_by_single_edge(const Graph& a, const Graph& b);

}  // namespace frontier
