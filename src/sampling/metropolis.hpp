// Metropolis–Hastings random walk (related-work baseline, Section 7).
//
// MH-RW targets the *uniform* distribution over vertices: from v, propose a
// uniform neighbor w and accept with probability min(1, deg(v)/deg(w));
// otherwise stay at v. Every step (accepted or not) emits one vertex
// sample, so the visit sequence is asymptotically uniform over V and plain
// empirical averages are unbiased. The paper cites experiments [15, 29]
// showing MH-RW is usually less accurate than the reweighted plain RW.
#pragma once

#include <cstdint>
#include <optional>

#include "graph/graph.hpp"
#include "sampling/walk.hpp"

namespace frontier {

class MetropolisHastingsWalk {
 public:
  struct Config {
    std::uint64_t steps = 0;
    StartMode start = StartMode::kUniform;
    std::optional<VertexId> fixed_start = std::nullopt;
  };

  MetropolisHastingsWalk(const Graph& g, Config config);

  /// One run; `vertices` holds the visit sequence (steps+1 entries,
  /// including the start), `edges` the accepted transitions.
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

/// The one check of a MetropolisHastingsWalk::Config, run by the sampler
/// and by every MetropolisCursor constructor: throws std::out_of_range for
/// a fixed_start outside V and std::invalid_argument for an isolated one.
void validate_config(const Graph& g,
                     const MetropolisHastingsWalk::Config& config);

}  // namespace frontier
