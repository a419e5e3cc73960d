#include "sampling/random_walk_with_jumps.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "stream/cursor.hpp"
#include "stream/sampler_cursors.hpp"

namespace frontier {

void validate_config(const RandomWalkWithJumps::Config& config) {
  if (!(config.jump_probability >= 0.0 && config.jump_probability <= 1.0)) {
    throw std::invalid_argument(
        "RandomWalkWithJumps: jump_probability in [0, 1]");
  }
  if (!(config.cost.hit_ratio > 0.0 && config.cost.hit_ratio <= 1.0)) {
    throw std::invalid_argument("RandomWalkWithJumps: hit_ratio in (0,1]");
  }
  // Jumps that cost nothing (or refund budget) and a budget that is not
  // finite can each keep a run going until memory runs out.
  if (!(config.cost.jump_cost > 0.0)) {
    throw std::invalid_argument("RandomWalkWithJumps: jump_cost > 0");
  }
  if (!std::isfinite(config.budget)) {
    throw std::invalid_argument("RandomWalkWithJumps: budget must be finite");
  }
}

RandomWalkWithJumps::RandomWalkWithJumps(const Graph& g, Config config)
    : graph_(&g),
      config_(config),
      start_sampler_(g, StartMode::kUniform) {
  validate_config(config_);
}

// run() is a thin loop over RwjCursor (stream/), the single implementation
// of the jump/step budget accounting.

SampleRecord RandomWalkWithJumps::run(Rng& rng) const {
  SampleArena arena;
  run_into(arena, rng);
  return std::move(arena.record);
}

const SampleRecord& RandomWalkWithJumps::run_into(SampleArena& arena,
                                                  Rng& rng) const {
  RwjCursor cursor(*graph_, config_, rng, start_sampler_);
  // Walk steps cost 1 each, so the budget bounds the edge count; every
  // step and jump landing records at most one vertex. Reserving the
  // bounds up front keeps the drain free of geometric regrowth. Clamp
  // before the float->int cast: negative budgets (legal, empty run) and
  // astronomical ones would be UB to cast (validate_config has already
  // rejected NaN), and a reserve hint has no business beyond 2^32
  // entries anyway — the drain grows if truly needed.
  const double clamped =
      std::clamp(config_.budget, 0.0, 4294967296.0);  // 2^32
  const auto budget_steps = static_cast<std::uint64_t>(clamped);
  drain_cursor_into(cursor, arena, budget_steps, budget_steps + 1);
  rng = cursor.rng();
  return arena.record;
}

}  // namespace frontier
