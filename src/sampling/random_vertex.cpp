#include "sampling/random_vertex.hpp"

#include <cmath>
#include <stdexcept>

namespace frontier {

RandomVertexSampler::RandomVertexSampler(const Graph& g, Config config)
    : graph_(&g), config_(config) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("RandomVertexSampler: empty graph");
  }
  if (!(config_.cost.hit_ratio > 0.0 && config_.cost.hit_ratio <= 1.0)) {
    throw std::invalid_argument("RandomVertexSampler: hit_ratio in (0,1]");
  }
  if (!(config_.cost.jump_cost > 0.0)) {
    throw std::invalid_argument("RandomVertexSampler: jump_cost > 0");
  }
  // A non-finite budget would let run() sample until memory runs out.
  if (!std::isfinite(config_.budget)) {
    throw std::invalid_argument("RandomVertexSampler: budget must be finite");
  }
}

SampleRecord RandomVertexSampler::run(Rng& rng) const {
  SampleRecord rec;
  while (rec.cost + config_.cost.jump_cost <= config_.budget) {
    // Pay for the miss streak before the next valid hit, then for the hit
    // itself — but never exceed the budget mid-streak.
    const std::uint64_t misses =
        geometric_failures(rng, config_.cost.hit_ratio);
    const double streak_cost =
        static_cast<double>(misses + 1) * config_.cost.jump_cost;
    if (rec.cost + streak_cost > config_.budget) {
      rec.cost = config_.budget;  // budget exhausted inside the miss streak
      break;
    }
    rec.cost += streak_cost;
    rec.vertices.push_back(
        static_cast<VertexId>(uniform_index(rng, graph_->num_vertices())));
  }
  return rec;
}

}  // namespace frontier
