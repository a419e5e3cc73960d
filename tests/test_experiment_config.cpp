// ExperimentConfig: the strict FS_* environment parsing every bench and
// experiment reads, and the thread-count resolution it feeds.
#include "experiments/config.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "core/parallel.hpp"

namespace frontier {
namespace {

TEST(ResolveThreads, DefaultsToHardware) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(3), 3u);
}

TEST(ExperimentConfig, EnvDefaults) {
  // No env vars set in the test environment for these names.
  EXPECT_DOUBLE_EQ(env_double("FS_SURELY_UNSET_VAR", 2.5), 2.5);
  EXPECT_EQ(env_u64("FS_SURELY_UNSET_VAR", 77), 77u);
}

/// Sets an environment variable for the duration of one scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(ExperimentConfig, MalformedEnvValuesThrow) {
  {
    ScopedEnv env("FS_RUNS", "banana");
    EXPECT_THROW((void)ExperimentConfig::from_env(), std::invalid_argument);
    EXPECT_THROW((void)env_double("FS_RUNS", 1.0), std::invalid_argument);
  }
  {
    // Trailing garbage must not be silently truncated.
    ScopedEnv env("FS_SCALE", "1.5x");
    EXPECT_THROW((void)ExperimentConfig::from_env(), std::invalid_argument);
  }
  {
    ScopedEnv env("FS_RUNS", "inf");
    EXPECT_THROW((void)ExperimentConfig::from_env(), std::invalid_argument);
  }
  {
    // strtod would read "0x2" as a C99 hex float (2.0); reject instead.
    ScopedEnv env("FS_SCALE", "0x2");
    EXPECT_THROW((void)ExperimentConfig::from_env(), std::invalid_argument);
  }
  {
    // Negative multipliers are rejected, not clamped.
    ScopedEnv env("FS_RUNS", "-1");
    EXPECT_THROW((void)ExperimentConfig::from_env(), std::invalid_argument);
  }
  {
    // strtoull would wrap a negative value into a huge thread count.
    ScopedEnv env("FS_THREADS", "-3");
    EXPECT_THROW((void)ExperimentConfig::from_env(), std::invalid_argument);
  }
  {
    ScopedEnv env("FS_SEED", "0x12");
    EXPECT_THROW((void)ExperimentConfig::from_env(), std::invalid_argument);
  }
  {
    ScopedEnv env("FS_SEED", "99999999999999999999999999");  // > 2^64
    EXPECT_THROW((void)ExperimentConfig::from_env(), std::invalid_argument);
  }
}

TEST(ExperimentConfig, IntegerKnobCeilingIsInclusive) {
  ScopedEnv env("FS_TEST_CEILING", "1048576");
  EXPECT_EQ(env_u64("FS_TEST_CEILING", 1, 1048576), 1048576u);
  EXPECT_THROW((void)env_u64("FS_TEST_CEILING", 1, 1048575),
               std::invalid_argument);
}

TEST(ExperimentConfig, WellFormedEnvValuesParse) {
  ScopedEnv runs("FS_RUNS", "0.25");
  ScopedEnv scale("FS_SCALE", " 2.5 ");  // surrounding whitespace is fine
  ScopedEnv threads("FS_THREADS", "6");
  ScopedEnv seed("FS_SEED", "18446744073709551615");  // 2^64 - 1
  const ExperimentConfig cfg = ExperimentConfig::from_env();
  EXPECT_DOUBLE_EQ(cfg.runs_multiplier, 0.25);
  EXPECT_DOUBLE_EQ(cfg.scale_multiplier, 2.5);
  EXPECT_EQ(cfg.threads, 6u);
  EXPECT_EQ(cfg.seed, 18446744073709551615ULL);
}

TEST(ExperimentConfig, RunsAndScaledClamp) {
  ExperimentConfig cfg;
  cfg.runs_multiplier = 0.0001;
  EXPECT_EQ(cfg.runs(10000), 10u);  // floor at multiplier 0.001
  cfg.runs_multiplier = 2.0;
  EXPECT_EQ(cfg.runs(100), 200u);
  cfg.scale_multiplier = 0.001;
  EXPECT_EQ(cfg.scaled(10000), 64u);  // clamped at 64
}

}  // namespace
}  // namespace frontier
