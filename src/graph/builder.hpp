// Mutable edge-list accumulator that produces an immutable Graph.
//
// The builder accepts directed edges (duplicates allowed), then build():
//   1. drops self-loops (the paper's graphs are simple),
//   2. deduplicates parallel directed edges,
//   3. symmetrizes into G while recording per-entry EdgeDir flags,
//   4. computes original in/out degrees.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "graph/graph.hpp"

namespace frontier {

class GraphBuilder {
 public:
  /// `num_vertices` fixes |V|; vertex ids must be < num_vertices.
  explicit GraphBuilder(std::size_t num_vertices);

  /// Adds the directed edge (u, v). Throws std::out_of_range on bad ids.
  void add_edge(VertexId u, VertexId v);

  /// Adds both (u, v) and (v, u) — convenience for undirected graphs.
  void add_undirected_edge(VertexId u, VertexId v);

  [[nodiscard]] std::size_t num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_added_edges() const noexcept {
    return edges_.size();
  }

  /// Finalizes into an immutable Graph. The builder may be reused afterwards
  /// (its edge list is preserved). `threads` bounds the internal sort
  /// parallelism, 0 meaning default_thread_count() (the FS_THREADS knob;
  /// std::invalid_argument if it is malformed); the result is identical
  /// for every thread count.
  [[nodiscard]] Graph build(std::size_t threads = 0) const;

 private:
  std::size_t n_;
  std::vector<Edge> edges_;
};

}  // namespace frontier
