#include "sampling/multiple_rw.hpp"

#include <stdexcept>
#include <utility>

#include "stream/cursor.hpp"
#include "stream/sampler_cursors.hpp"

namespace frontier {

void validate_config(const MultipleRandomWalks::Config& config) {
  if (config.num_walkers == 0) {
    throw std::invalid_argument("MultipleRandomWalks: num_walkers >= 1");
  }
}

MultipleRandomWalks::MultipleRandomWalks(const Graph& g, Config config)
    : graph_(&g), config_(config), start_sampler_(g, config.start) {
  validate_config(config_);
}

// run() is a thin loop over MultipleRwCursor (stream/): walker starts are
// drawn lazily in walker order, reproducing the batch RNG interleaving.

SampleRecord MultipleRandomWalks::run(Rng& rng) const {
  SampleArena arena;
  run_into(arena, rng);
  return std::move(arena.record);
}

const SampleRecord& MultipleRandomWalks::run_into(SampleArena& arena,
                                                  Rng& rng) const {
  MultipleRwCursor cursor(*graph_, config_, rng, start_sampler_);
  drain_cursor_into(cursor, arena,
                    config_.num_walkers * config_.steps_per_walker);
  rng = cursor.rng();
  return arena.record;
}

}  // namespace frontier
