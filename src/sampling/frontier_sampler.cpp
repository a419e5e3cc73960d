#include "sampling/frontier_sampler.hpp"

#include <stdexcept>
#include <utility>

#include "stream/cursor.hpp"
#include "stream/sampler_cursors.hpp"

namespace frontier {

void validate_config(const FrontierSampler::Config& config) {
  if (config.dimension == 0) {
    throw std::invalid_argument("FrontierSampler: dimension m >= 1");
  }
}

FrontierSampler::FrontierSampler(const Graph& g, Config config)
    : graph_(&g), config_(config), start_sampler_(g, config.start) {
  validate_config(config_);
}

// run()/run_from() are thin loops over FrontierCursor (stream/): the
// cursor is the single implementation of Algorithm 1's step, so batch and
// streaming results are byte-identical by construction.

SampleRecord FrontierSampler::run(Rng& rng) const {
  SampleArena arena;
  run_into(arena, rng);
  return std::move(arena.record);
}

const SampleRecord& FrontierSampler::run_into(SampleArena& arena,
                                              Rng& rng) const {
  FrontierCursor cursor(*graph_, config_, rng, start_sampler_);
  drain_cursor_into(cursor, arena, config_.steps);
  rng = cursor.rng();
  return arena.record;
}

SampleRecord FrontierSampler::run_from(std::span<const VertexId> starts,
                                       Rng& rng) const {
  FrontierCursor cursor(*graph_, config_,
                        std::vector<VertexId>(starts.begin(), starts.end()),
                        rng);
  SampleRecord rec = drain_cursor(cursor, config_.steps);
  rng = cursor.rng();
  return rec;
}

}  // namespace frontier
