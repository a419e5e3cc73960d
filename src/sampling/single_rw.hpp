// SingleRW: the classic single random walker of Section 4.
#pragma once

#include <cstdint>
#include <optional>

#include "graph/graph.hpp"
#include "sampling/walk.hpp"

namespace frontier {

class SingleRandomWalk {
 public:
  struct Config {
    std::uint64_t steps = 0;           ///< B walk steps
    StartMode start = StartMode::kUniform;
    std::optional<VertexId> fixed_start = std::nullopt;  ///< overrides `start` if set
    /// Burn-in (Section 4.3): `burn_in` additional initial walk queries are
    /// paid for and executed but their samples discarded — the classic
    /// MCMC remedy for a non-stationary start.
    std::uint64_t burn_in = 0;
    /// Laziness: probability that a budgeted query stays put instead of
    /// stepping (a lazy walk relaxes the non-bipartite requirement of
    /// Section 4). Stays consume budget but record no edge (a stay is not
    /// an element of E). 0 = classic walk.
    double laziness = 0.0;
  };

  SingleRandomWalk(const Graph& g, Config config);

  /// One independent run: up to `steps` recorded edges (fewer under
  /// laziness), cost = burn_in + steps + 1 jump.
  [[nodiscard]] SampleRecord run(Rng& rng) const;

  /// Like run(), but drains into the caller's reusable arena and returns
  /// arena.record. Identical output and RNG stream to run().
  const SampleRecord& run_into(SampleArena& arena, Rng& rng) const;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  const Graph* graph_;
  Config config_;
  StartSampler start_sampler_;
};

/// The one check of a SingleRandomWalk::Config, run by the sampler and by
/// every SingleRwCursor constructor: throws std::out_of_range for a
/// fixed_start outside V, std::invalid_argument for an isolated
/// fixed_start or a laziness outside [0, 1).
void validate_config(const Graph& g, const SingleRandomWalk::Config& config);

}  // namespace frontier
