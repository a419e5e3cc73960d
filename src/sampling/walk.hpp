// Shared sampling vocabulary: sample records, start distributions, and the
// elementary random-walk step.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "graph/graph.hpp"
#include "random/alias_table.hpp"
#include "random/rng.hpp"
#include "stream/block.hpp"

namespace frontier {

/// Output of one sampler run. Walk-based samplers fill `edges` (the ordered
/// sequence {(u_i, v_i)} of Section 4); vertex-based samplers (random vertex,
/// Metropolis–Hastings visits) fill `vertices`.
struct SampleRecord {
  std::vector<Edge> edges;
  std::vector<VertexId> vertices;
  std::vector<VertexId> starts;  ///< initial vertex of each walker
  double cost = 0.0;             ///< budget actually consumed
};

/// Reusable per-run scratch: the sample record a run fills and the event
/// block the drain refills from the sampler's cursor. One arena per
/// worker slot (experiments/replication_runner.hpp hands each slot one
/// for a whole map_reduce call) makes the replication hot loop
/// allocation-free after the first run — reset() keeps vector
/// capacity, and the block's columns are allocated once at construction.
struct SampleArena {
  SampleRecord record;
  StreamEventBlock block;

  /// Clears the record for the next run, keeping all capacity.
  void reset() {
    record.edges.clear();
    record.vertices.clear();
    record.starts.clear();
    record.cost = 0.0;
  }
};

/// How walker start vertices are chosen.
enum class StartMode : std::uint8_t {
  kUniform,             ///< uniform over V (the practical case, Section 5)
  kDegreeProportional,  ///< steady-state start, deg(v)/vol(V) (Section 6.3)
};

/// Draws start vertices. Uniform draws reject degree-0 vertices (a walker
/// cannot leave them; the paper assumes every vertex has an edge) but still
/// charge one jump per draw. Degree-proportional draws use an alias table.
class StartSampler {
 public:
  StartSampler(const Graph& g, StartMode mode);

  [[nodiscard]] VertexId sample(Rng& rng) const;
  [[nodiscard]] StartMode mode() const noexcept { return mode_; }

 private:
  const Graph* graph_;
  StartMode mode_;
  AliasTable degree_table_;  // built only for kDegreeProportional
};

/// Checks an optional caller-pinned start vertex: throws std::out_of_range
/// if it is not a vertex of g and std::invalid_argument if it is isolated
/// (a walker could never leave it). `who` prefixes the message.
void check_fixed_start(const Graph& g, std::optional<VertexId> start,
                       const char* who);

/// One random-walk step from u: a uniformly random neighbor of u.
/// Precondition: deg(u) > 0.
[[nodiscard]] inline VertexId step_uniform_neighbor(const Graph& g, VertexId u,
                                                    Rng& rng) {
  const auto nbrs = g.neighbors(u);
  return nbrs[uniform_index(rng, nbrs.size())];
}

}  // namespace frontier
