#include "random/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

namespace frontier {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro, IsDeterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, SplitStreamsDiffer) {
  const Rng base(99);
  Rng s0 = base.split_stream(0);
  Rng s1 = base.split_stream(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (s0() == s1()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, SplitStreamIsReproducible) {
  const Rng base(99);
  Rng a = base.split_stream(17);
  Rng b = base.split_stream(17);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a(), b());
}

TEST(Uniform01, InHalfOpenUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = uniform01(rng);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Uniform01, MeanIsHalf) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += uniform01(rng);
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(UniformIndex, RespectsBound) {
  Rng rng(11);
  for (std::uint64_t n : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(uniform_index(rng, n), n);
    }
  }
}

TEST(UniformIndex, ZeroAndOneAlwaysZero) {
  Rng rng(13);
  EXPECT_EQ(uniform_index(rng, 0), 0u);
  EXPECT_EQ(uniform_index(rng, 1), 0u);
}

TEST(UniformIndex, IsApproximatelyUniform) {
  Rng rng(17);
  const std::uint64_t buckets = 10;
  std::array<int, 10> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[uniform_index(rng, buckets)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(Bernoulli, DegenerateProbabilities) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(bernoulli(rng, 0.0));
    EXPECT_TRUE(bernoulli(rng, 1.0));
    EXPECT_FALSE(bernoulli(rng, -0.5));
    EXPECT_TRUE(bernoulli(rng, 1.5));
  }
}

TEST(Bernoulli, MatchesProbability) {
  Rng rng(29);
  const int n = 200000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (bernoulli(rng, 0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Exponential, MeanIsInverseRate) {
  Rng rng(31);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += exponential(rng, 4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Exponential, AlwaysNonNegative) {
  Rng rng(37);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(exponential(rng, 0.5), 0.0);
  }
}

TEST(GeometricFailures, CertainSuccessYieldsZero) {
  Rng rng(41);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(geometric_failures(rng, 1.0), 0u);
}

TEST(GeometricFailures, MeanMatchesTheory) {
  Rng rng(43);
  const double p = 0.2;
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(geometric_failures(rng, p));
  }
  // E[failures] = (1-p)/p = 4.
  EXPECT_NEAR(sum / n, (1.0 - p) / p, 0.1);
}

class UniformIndexSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UniformIndexSweep, ChiSquareWithinBound) {
  const std::uint64_t k = GetParam();
  Rng rng(1000 + k);
  const std::uint64_t draws = 50000;
  std::vector<std::uint64_t> counts(k, 0);
  for (std::uint64_t i = 0; i < draws; ++i) ++counts[uniform_index(rng, k)];
  const double expected = static_cast<double>(draws) / static_cast<double>(k);
  double chi2 = 0.0;
  for (auto c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  // Very loose bound: chi2 for k-1 dof has mean k-1, sd sqrt(2(k-1));
  // allow 6 sigma.
  const double dof = static_cast<double>(k - 1);
  EXPECT_LT(chi2, dof + 6.0 * std::sqrt(2.0 * dof) + 10.0);
}

INSTANTIATE_TEST_SUITE_P(Bounds, UniformIndexSweep,
                         ::testing::Values(2, 3, 7, 16, 100, 1000));

}  // namespace
}  // namespace frontier
