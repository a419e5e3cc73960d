// Immutable CSR graph: the symmetric counterpart G of a directed graph G_d.
//
// The paper (Section 2) models a network as a labeled directed graph
// G_d = (V, E_d) and assumes the crawler can retrieve *both* incoming and
// outgoing edges of a queried vertex. Random walks therefore operate on the
// symmetric counterpart G = (V, E) with E = ∪_{(u,v)∈E_d} {(u,v),(v,u)},
// while estimators of directed quantities (in/out-degree distributions,
// directed assortativity) still need the original edge directions. Graph
// stores the symmetric adjacency in CSR form with a per-entry EdgeDir flag
// recording which directed edges exist in E_d.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "core/types.hpp"
#include "graph/storage.hpp"

namespace frontier {

class Graph {
 public:
  Graph() = default;

  /// Wraps a backing store (owned arrays or an mmap'd snapshot); the Graph
  /// reads through span views either way and shares the storage on copy.
  explicit Graph(std::shared_ptr<const GraphStorage> storage)
      : storage_(std::move(storage)) {
    const GraphStorage::Views& v = storage_->views();
    offsets_ = v.offsets;
    neighbors_ = v.neighbors;
    directions_ = v.directions;
    out_degree_ = v.out_degree;
    in_degree_ = v.in_degree;
    num_directed_edges_ = v.num_directed_edges;
  }

  /// Number of vertices |V|.
  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Number of *directed* edges |E_d| in the original graph.
  [[nodiscard]] std::uint64_t num_directed_edges() const noexcept {
    return num_directed_edges_;
  }

  /// Number of ordered symmetric edges |E| (each undirected adjacency
  /// counted twice). Equals vol(V).
  [[nodiscard]] std::uint64_t num_symmetric_edges() const noexcept {
    return neighbors_.size();
  }

  /// Number of unordered adjacencies |E|/2.
  [[nodiscard]] std::uint64_t num_undirected_edges() const noexcept {
    return neighbors_.size() / 2;
  }

  /// Symmetric degree of v: deg(v) = |{u : (v,u) in E}|.
  [[nodiscard]] std::uint32_t degree(VertexId v) const noexcept {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Out-degree of v in the original directed graph G_d.
  [[nodiscard]] std::uint32_t out_degree(VertexId v) const noexcept {
    return out_degree_[v];
  }

  /// In-degree of v in the original directed graph G_d.
  [[nodiscard]] std::uint32_t in_degree(VertexId v) const noexcept {
    return in_degree_[v];
  }

  /// Neighbors of v in G, sorted ascending.
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const noexcept {
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  /// Direction flags of the adjacency entries of v, parallel to neighbors(v).
  [[nodiscard]] std::span<const EdgeDir> directions(VertexId v) const noexcept {
    return {directions_.data() + offsets_[v],
            directions_.data() + offsets_[v + 1]};
  }

  /// k-th neighbor of v (unchecked).
  [[nodiscard]] VertexId neighbor(VertexId v, std::uint32_t k) const noexcept {
    return neighbors_[offsets_[v] + k];
  }

  /// Hints the cache to load v's adjacency range. The batched FS cursor
  /// calls this for the vertex a walker just moved to: that walker will
  /// not be stepped again for ~m steps, which is exactly the latency
  /// window a prefetch needs, so when the walker is next selected its
  /// neighbor list is already cached instead of costing a serial
  /// main-memory access — the dominant cost of a walk step on large
  /// graphs. No-op on compilers without the builtin.
  void prefetch_neighbors(VertexId v) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    const std::uint64_t b = offsets_[v];
    const std::uint64_t e = offsets_[v + 1];
    if (b == e) return;
    const VertexId* p = neighbors_.data();
    __builtin_prefetch(p + b, 0, 1);
    __builtin_prefetch(p + e - 1, 0, 1);
#else
    (void)v;
#endif
  }

  /// Position of v in neighbors(u), or kNotAdjacent when (u,v) is not in
  /// E or either id is out of range. O(log deg(u)). An index is below
  /// deg(u) <= 2^32 - 1, so it never equals the sentinel.
  [[nodiscard]] std::uint32_t neighbor_index(VertexId u,
                                             VertexId v) const noexcept;
  static constexpr std::uint32_t kNotAdjacent = 0xFFFFFFFFu;

  /// True iff (u,v) is in the symmetric edge set E. O(log deg(u)).
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const noexcept;

  /// True iff the *directed* edge (u,v) is in E_d. O(log deg(u)).
  [[nodiscard]] bool has_directed_edge(VertexId u, VertexId v) const noexcept;

  /// vol(S) of the whole vertex set: sum of symmetric degrees = |E|.
  [[nodiscard]] std::uint64_t volume() const noexcept {
    return neighbors_.size();
  }

  /// Average symmetric degree vol(V)/|V|; 0 for the empty graph.
  [[nodiscard]] double average_degree() const noexcept {
    return num_vertices() == 0
               ? 0.0
               : static_cast<double>(volume()) /
                     static_cast<double>(num_vertices());
  }

  /// Maximum symmetric degree.
  [[nodiscard]] std::uint32_t max_degree() const noexcept;

  /// Endpoints of the j-th symmetric edge slot, j in [0, volume()).
  /// Slots enumerate (v, neighbor(v,k)) in CSR order; uniform sampling over
  /// slots is uniform sampling over E.
  [[nodiscard]] Edge edge_at(EdgeIndex j) const noexcept;

  /// CSR offset array (size |V|+1); exposed for algorithms that stream the
  /// whole adjacency (metrics, IO).
  [[nodiscard]] std::span<const EdgeIndex> offsets() const noexcept {
    return offsets_;
  }

  /// Whole CSR arrays, parallel to offsets(); exposed so the binary
  /// snapshot writer can emit them verbatim.
  [[nodiscard]] std::span<const VertexId> neighbor_array() const noexcept {
    return neighbors_;
  }
  [[nodiscard]] std::span<const EdgeDir> direction_array() const noexcept {
    return directions_;
  }
  [[nodiscard]] std::span<const std::uint32_t> out_degree_array()
      const noexcept {
    return out_degree_;
  }
  [[nodiscard]] std::span<const std::uint32_t> in_degree_array()
      const noexcept {
    return in_degree_;
  }

  /// One-line human-readable summary ("|V|=..., |E|=..., d̄=...").
  [[nodiscard]] std::string summary() const;

  /// True when the CSR arrays are views into an mmap'd binary snapshot
  /// rather than owned vectors.
  [[nodiscard]] bool is_memory_mapped() const noexcept {
    return storage_ != nullptr && storage_->is_memory_mapped();
  }

 private:
  // Keeps the arrays (owned vectors or an mmap'd region) alive; the spans
  // below are cached views into it so the hot paths skip the indirection.
  std::shared_ptr<const GraphStorage> storage_;

  std::span<const EdgeIndex> offsets_;    // |V|+1
  std::span<const VertexId> neighbors_;   // vol(V), sorted per vertex
  std::span<const EdgeDir> directions_;   // parallel to neighbors_
  std::span<const std::uint32_t> out_degree_;
  std::span<const std::uint32_t> in_degree_;
  std::uint64_t num_directed_edges_ = 0;
};

}  // namespace frontier
