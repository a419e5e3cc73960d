#include "sampling/single_rw.hpp"

#include <stdexcept>
#include <utility>

#include "stream/cursor.hpp"
#include "stream/sampler_cursors.hpp"

namespace frontier {

void validate_config(const Graph& g, const SingleRandomWalk::Config& config) {
  check_fixed_start(g, config.fixed_start, "SingleRandomWalk");
  if (!(config.laziness >= 0.0 && config.laziness < 1.0)) {
    throw std::invalid_argument("SingleRandomWalk: laziness in [0, 1)");
  }
}

SingleRandomWalk::SingleRandomWalk(const Graph& g, Config config)
    : graph_(&g), config_(config), start_sampler_(g, config.start) {
  validate_config(g, config_);
}

// run() is a thin loop over SingleRwCursor (stream/), the single
// implementation of the walk/burn-in/laziness step.

SampleRecord SingleRandomWalk::run(Rng& rng) const {
  SampleArena arena;
  run_into(arena, rng);
  return std::move(arena.record);
}

const SampleRecord& SingleRandomWalk::run_into(SampleArena& arena,
                                               Rng& rng) const {
  SingleRwCursor cursor(*graph_, config_, rng, start_sampler_);
  drain_cursor_into(cursor, arena, config_.steps);
  rng = cursor.rng();
  return arena.record;
}

}  // namespace frontier
