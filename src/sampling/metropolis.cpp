#include "sampling/metropolis.hpp"

#include <stdexcept>
#include <utility>

#include "stream/cursor.hpp"
#include "stream/sampler_cursors.hpp"

namespace frontier {

void validate_config(const Graph& g,
                     const MetropolisHastingsWalk::Config& config) {
  check_fixed_start(g, config.fixed_start, "MetropolisHastingsWalk");
}

MetropolisHastingsWalk::MetropolisHastingsWalk(const Graph& g, Config config)
    : graph_(&g), config_(config), start_sampler_(g, config.start) {
  validate_config(g, config_);
}

// run() is a thin loop over MetropolisCursor (stream/), the single
// implementation of the propose/accept step.

SampleRecord MetropolisHastingsWalk::run(Rng& rng) const {
  SampleArena arena;
  run_into(arena, rng);
  return std::move(arena.record);
}

const SampleRecord& MetropolisHastingsWalk::run_into(SampleArena& arena,
                                                     Rng& rng) const {
  MetropolisCursor cursor(*graph_, config_, rng, start_sampler_);
  // Every proposal may be accepted, so `steps` bounds the edge count;
  // reserving it up front avoids geometric regrowth during the drain.
  drain_cursor_into(cursor, arena, config_.steps, config_.steps + 1);
  rng = cursor.rng();
  return arena.record;
}

}  // namespace frontier
