// Random walk with jumps (RWJ) — the Web-sampling baseline of the related
// work (Section 7: [17, 32] sample pages near-uniformly by mixing walk
// steps with uniform jumps, PageRank-style).
//
// From v, with probability `jump_probability` the walker teleports to a
// uniformly random vertex (paying the random-vertex query cost c, possibly
// inflated by a hit ratio); otherwise it takes a normal walk step. Jumps
// make the chain irreducible on disconnected graphs — the alternative cure
// for trapping — but (a) every jump costs c/hit_ratio budget, and (b) the
// stationary law is a PageRank-like mixture with no simple closed form, so
// the eq.-7 reweighting is no longer exactly unbiased. The FS comparison
// bench quantifies both effects.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "sampling/budget.hpp"
#include "sampling/walk.hpp"

namespace frontier {

class RandomWalkWithJumps {
 public:
  struct Config {
    double budget = 0.0;          ///< B; steps cost 1, jumps cost c/hit
    double jump_probability = 0.15;
    CostModel cost{};             ///< jump cost model
  };

  RandomWalkWithJumps(const Graph& g, Config config);

  /// One run. `edges` holds walk transitions; jumps break the chain (the
  /// edge after a jump starts at the landing vertex). `vertices` records
  /// every visited vertex including jump landings.
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

/// The one check of a RandomWalkWithJumps::Config, run by the sampler and
/// by every RwjCursor constructor: throws std::invalid_argument unless
/// jump_probability is in [0, 1], hit_ratio in (0, 1], jump_cost > 0 and
/// the budget finite — the conditions under which a run terminates.
void validate_config(const RandomWalkWithJumps::Config& config);

}  // namespace frontier
