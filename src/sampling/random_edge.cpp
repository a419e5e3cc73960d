#include "sampling/random_edge.hpp"

#include <cmath>
#include <stdexcept>

namespace frontier {

RandomEdgeSampler::RandomEdgeSampler(const Graph& g, Config config)
    : graph_(&g), config_(config) {
  if (g.volume() == 0) {
    throw std::invalid_argument("RandomEdgeSampler: graph has no edges");
  }
  if (!(config_.hit_ratio > 0.0 && config_.hit_ratio <= 1.0)) {
    throw std::invalid_argument("RandomEdgeSampler: hit_ratio in (0,1]");
  }
  if (!(config_.edge_cost > 0.0)) {
    throw std::invalid_argument("RandomEdgeSampler: edge_cost > 0");
  }
  // A non-finite budget would let run() sample until memory runs out.
  if (!std::isfinite(config_.budget)) {
    throw std::invalid_argument("RandomEdgeSampler: budget must be finite");
  }
}

SampleRecord RandomEdgeSampler::run(Rng& rng) const {
  SampleRecord rec;
  while (rec.cost + config_.edge_cost <= config_.budget) {
    const std::uint64_t misses = geometric_failures(rng, config_.hit_ratio);
    const double streak_cost =
        static_cast<double>(misses + 1) * config_.edge_cost;
    if (rec.cost + streak_cost > config_.budget) {
      rec.cost = config_.budget;
      break;
    }
    rec.cost += streak_cost;
    rec.edges.push_back(
        graph_->edge_at(uniform_index(rng, graph_->volume())));
  }
  return rec;
}

}  // namespace frontier
