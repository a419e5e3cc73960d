#include "experiments/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace frontier {

ExperimentConfig ExperimentConfig::from_env() {
  ExperimentConfig cfg;
  cfg.runs_multiplier = env_double("FS_RUNS", 1.0);
  cfg.scale_multiplier = env_double("FS_SCALE", 1.0);
  if (cfg.runs_multiplier < 0.0) {
    throw std::invalid_argument("FS_RUNS must be >= 0, got " +
                                std::to_string(cfg.runs_multiplier));
  }
  if (cfg.scale_multiplier < 0.0) {
    throw std::invalid_argument("FS_SCALE must be >= 0, got " +
                                std::to_string(cfg.scale_multiplier));
  }
  cfg.threads = env_threads();
  cfg.seed = env_u64("FS_SEED", 20100907);
  return cfg;
}

std::size_t ExperimentConfig::runs(std::size_t base_runs) const {
  const double scaled =
      static_cast<double>(base_runs) * std::max(0.001, runs_multiplier);
  return std::max<std::size_t>(4, static_cast<std::size_t>(scaled));
}

std::size_t ExperimentConfig::scaled(std::size_t base_size) const {
  const double scaled =
      static_cast<double>(base_size) * std::max(0.001, scale_multiplier);
  return std::max<std::size_t>(64, static_cast<std::size_t>(scaled));
}

}  // namespace frontier
