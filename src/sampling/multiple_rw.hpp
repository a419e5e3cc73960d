// MultipleRW: m mutually independent random walkers (Section 4.4) — the
// naive remedy for walker trapping that the paper shows to be inferior to
// Frontier Sampling when walkers start from uniformly sampled vertices.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "sampling/walk.hpp"

namespace frontier {

class MultipleRandomWalks {
 public:
  struct Config {
    std::size_t num_walkers = 10;        ///< m
    std::uint64_t steps_per_walker = 0;  ///< floor(B/m - c)
    double jump_cost = 1.0;              ///< c, charged once per walker
    StartMode start = StartMode::kUniform;
  };

  MultipleRandomWalks(const Graph& g, Config config);

  /// One independent run: edges of all m walkers concatenated in walker
  /// order. Estimators aggregate them exactly as the paper does.
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

/// The one check of a MultipleRandomWalks::Config, run by the sampler and
/// by every MultipleRwCursor constructor: throws std::invalid_argument if
/// m = 0.
void validate_config(const MultipleRandomWalks::Config& config);

}  // namespace frontier
