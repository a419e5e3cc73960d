// Frontier Sampling (Algorithm 1) — the paper's primary contribution.
//
// FS maintains a list L of m walker positions. Each step:
//   4: select u ∈ L with probability deg(u) / Σ_{v∈L} deg(v),
//   5: select an outgoing edge (u, w) of u uniformly at random,
//   6: replace u by w in L and record (u, w),
// until n >= B - m*c. The process is exactly a single random walk on the
// m-th Cartesian power G^m (Lemma 5.1), so in steady state edges of G are
// sampled uniformly (Theorem 5.2) — yet, unlike m independent walkers, the
// joint law of L started from m uniform vertices is already close to the
// steady state for large m (Theorem 5.4), which is what makes FS robust to
// disconnected and loosely connected graphs.
//
// Walker selection is the per-step hot spot: a Fenwick tree keyed by
// walker (random/weighted_tree.hpp) makes it O(log m) per step.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sampling/walk.hpp"

namespace frontier {

class FrontierSampler {
 public:
  struct Config {
    std::size_t dimension = 10;  ///< m, the number of dependent walkers
    std::uint64_t steps = 0;     ///< total steps n (B - m*c)
    double jump_cost = 1.0;      ///< c, charged once per walker at init
    StartMode start = StartMode::kUniform;
  };

  FrontierSampler(const Graph& g, Config config);

  /// One independent run of Algorithm 1.
  [[nodiscard]] SampleRecord run(Rng& rng) const;

  /// Like run(), but drains into the caller's reusable arena and returns
  /// arena.record — the replication hot path, allocation-free once the
  /// arena has warmed up. Identical output and RNG stream to run().
  const SampleRecord& run_into(SampleArena& arena, Rng& rng) const;

  /// Runs Algorithm 1 from the given initial walker list (|starts| must be
  /// m and every start must have positive degree; FrontierCursor checks
  /// both). Used by experiments that share starting vertices between FS
  /// and MultipleRW (Figures 6 and 9).
  [[nodiscard]] SampleRecord run_from(std::span<const VertexId> starts,
                                      Rng& rng) const;

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

 private:
  const Graph* graph_;
  Config config_;
  StartSampler start_sampler_;
};

/// The one check of a FrontierSampler::Config, run by the sampler and by
/// every FrontierCursor constructor: throws std::invalid_argument if m = 0.
void validate_config(const FrontierSampler::Config& config);

}  // namespace frontier
