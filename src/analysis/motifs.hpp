// Exact small-subgraph (motif) enumeration — the ground truth the
// streaming motif sinks (stream/motif_sinks.hpp) are validated against.
//
// Everything here is exact integer combinatorics over the symmetric graph
// G: the sorted-adjacency intersection kernel gives the per-edge codegree
// f(u,v) = |N(u) ∩ N(v)|, and every connected 3-/4-vertex motif count
// follows from edge-local sums of f plus the degree sequence. Counts are
// returned as std::uint64_t so a full pass over E through a streaming
// sink can be compared for *equality*, not within a tolerance.
//
// All entry points require a simple graph (no self-loops, no parallel
// edges) and throw std::invalid_argument otherwise; GraphBuilder always
// produces simple graphs, but GraphStorage::from_arrays can smuggle in
// malformed CSR, which is exactly what the rejection tests do.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace frontier {

/// Validates that g is simple: every adjacency list strictly ascending
/// (sorted CSR ⇒ a duplicate neighbor appears as an equal consecutive
/// entry) and free of self-loops. Throws std::invalid_argument naming the
/// offending vertex otherwise. All exact_* functions below call this.
void require_simple_graph(const Graph& g);

/// Appends N(u) ∩ N(v), sorted ascending, into `out` (cleared first) by
/// intersecting the two sorted adjacency lists (graph/intersect.hpp, the
/// kernel shared_neighbors counts with). |out| is f(u,v) of Section
/// 4.2.4; the list itself feeds the C4/K4 terms of the motif census.
void common_neighbors(const Graph& g, VertexId u, VertexId v,
                      std::vector<VertexId>& out);

/// Exact number of triangles in G (each counted once).
[[nodiscard]] std::uint64_t exact_triangle_count(const Graph& g);

/// Exact number of wedges (paths of length 2): Σ_v C(deg(v), 2).
[[nodiscard]] std::uint64_t exact_wedge_count(const Graph& g);

/// Exact transitivity ratio 3·triangles / wedges; 0 when the graph has
/// no wedge. (Distinct from exact_global_clustering, which averages the
/// per-vertex coefficient.)
[[nodiscard]] double exact_transitivity(const Graph& g);

/// Exact mean local clustering per degree class: curve[k] is the mean of
/// c(v) = ∆(v)/C(k,2) over vertices with deg(v) = k, for k >= 2; 0 where
/// the class is empty or k < 2. Computed as the integer ratio
/// (Σ 2∆(v)) / (n_k · k · (k-1)) so the streaming ClusteringSink's
/// full-enumeration curve matches it bit for bit.
[[nodiscard]] std::vector<double> exact_local_clustering_by_degree(
    const Graph& g);

/// Exact *induced* counts of every connected motif on 3 and 4 vertices.
/// Each unordered vertex set is counted once under the motif whose edge
/// set it induces.
struct MotifCounts {
  // 3-vertex: induced path (wedge) and triangle.
  std::uint64_t wedge = 0;
  std::uint64_t triangle = 0;
  // 4-vertex, by increasing edge count: path P4 (3 edges), star/claw
  // K1,3 (3), cycle C4 (4), triangle-with-pendant "paw" (4), diamond
  // K4 minus an edge (5), clique K4 (6).
  std::uint64_t path4 = 0;
  std::uint64_t claw = 0;
  std::uint64_t cycle4 = 0;
  std::uint64_t paw = 0;
  std::uint64_t diamond = 0;
  std::uint64_t clique4 = 0;
};

/// Exact induced 3-/4-vertex motif census. Time is dominated by the
/// per-edge codegree intersections plus Σ_e C(f_e, 2) adjacency probes for K4;
/// memory is O(#wedges) for the C4 codegree-pair table.
[[nodiscard]] MotifCounts exact_motif_counts(const Graph& g);

}  // namespace frontier
