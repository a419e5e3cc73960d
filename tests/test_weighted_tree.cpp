#include "random/weighted_tree.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace frontier {
namespace {

TEST(WeightedTree, EmptyTotalIsZero) {
  WeightedTree tree(0);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_DOUBLE_EQ(tree.total(), 0.0);
}

TEST(WeightedTree, BuildFromWeights) {
  std::vector<double> w{1.0, 2.0, 3.0};
  WeightedTree tree{std::span<const double>(w)};
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_DOUBLE_EQ(tree.total(), 6.0);
  EXPECT_DOUBLE_EQ(tree.get(0), 1.0);
  EXPECT_DOUBLE_EQ(tree.get(1), 2.0);
  EXPECT_DOUBLE_EQ(tree.get(2), 3.0);
}

TEST(WeightedTree, RejectsNegativeWeight) {
  std::vector<double> w{1.0, -1.0};
  EXPECT_THROW(WeightedTree{std::span<const double>(w)},
               std::invalid_argument);
  WeightedTree tree(2);
  EXPECT_THROW(tree.set(0, -2.0), std::invalid_argument);
}

TEST(WeightedTree, SetUpdatesTotal) {
  WeightedTree tree(4);
  tree.set(0, 1.0);
  tree.set(3, 5.0);
  EXPECT_DOUBLE_EQ(tree.total(), 6.0);
  tree.set(0, 2.0);
  EXPECT_DOUBLE_EQ(tree.total(), 7.0);
  tree.set(3, 0.0);
  EXPECT_DOUBLE_EQ(tree.total(), 2.0);
}

TEST(WeightedTree, OutOfRangeAccessThrows) {
  WeightedTree tree(2);
  EXPECT_THROW(tree.set(2, 1.0), std::out_of_range);
  EXPECT_THROW((void)tree.get(5), std::out_of_range);
}

TEST(WeightedTree, SampleOnZeroTotalThrows) {
  WeightedTree tree(3);
  Rng rng(1);
  EXPECT_THROW((void)tree.sample(rng), std::logic_error);
}

TEST(WeightedTree, FindPrefixPicksCorrectSlot) {
  std::vector<double> w{1.0, 2.0, 3.0, 4.0};  // prefix sums 1, 3, 6, 10
  WeightedTree tree{std::span<const double>(w)};
  EXPECT_EQ(tree.find_prefix(0.0), 0u);
  EXPECT_EQ(tree.find_prefix(0.999), 0u);
  EXPECT_EQ(tree.find_prefix(1.0), 1u);
  EXPECT_EQ(tree.find_prefix(2.999), 1u);
  EXPECT_EQ(tree.find_prefix(3.0), 2u);
  EXPECT_EQ(tree.find_prefix(5.999), 2u);
  EXPECT_EQ(tree.find_prefix(6.0), 3u);
  EXPECT_EQ(tree.find_prefix(9.999), 3u);
}

TEST(WeightedTree, ZeroWeightSlotNeverSampled) {
  std::vector<double> w{2.0, 0.0, 1.0};
  WeightedTree tree{std::span<const double>(w)};
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) EXPECT_NE(tree.sample(rng), 1u);
}

TEST(WeightedTree, EmpiricalFrequenciesMatchWeights) {
  std::vector<double> w{5.0, 1.0, 4.0};
  WeightedTree tree{std::span<const double>(w)};
  Rng rng(11);
  std::vector<int> counts(3, 0);
  const int n = 300000;
  for (int i = 0; i < n; ++i) ++counts[tree.sample(rng)];
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, w[i] / 10.0, 0.005);
  }
}

TEST(WeightedTree, DynamicUpdatesShiftDistribution) {
  WeightedTree tree(2);
  tree.set(0, 1.0);
  tree.set(1, 1.0);
  Rng rng(13);
  tree.set(0, 9.0);  // now 90/10
  int zero_hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (tree.sample(rng) == 0) ++zero_hits;
  }
  EXPECT_NEAR(static_cast<double>(zero_hits) / n, 0.9, 0.01);
}

TEST(WeightedTree, ManyIncrementalUpdatesStayConsistent) {
  const std::size_t k = 64;
  WeightedTree tree(k);
  std::vector<double> shadow(k, 0.0);
  Rng rng(17);
  for (int round = 0; round < 2000; ++round) {
    const std::size_t i = uniform_index(rng, k);
    const double w = uniform01(rng) * 10.0;
    tree.set(i, w);
    shadow[i] = w;
  }
  double total = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_DOUBLE_EQ(tree.get(i), shadow[i]);
    total += shadow[i];
  }
  EXPECT_NEAR(tree.total(), total, 1e-9);
}

// Reference for find_prefix: walk the slots, accumulating weights, and
// return the first slot whose cumulative weight passes the target.
std::size_t cumulative_scan(const std::vector<double>& w, double target) {
  double acc = 0.0;
  for (std::size_t k = 0; k < w.size(); ++k) {
    acc += w[k];
    if (target < acc) return k;
  }
  return w.size() - 1;
}

TEST(WeightedTree, FindPrefixMatchesCumulativeScan) {
  // Integer weights keep every prefix sum exact, so the Fenwick descent
  // must agree with the scan exactly, at every prefix boundary and one
  // ulp either side of it, including around zero-weight slots.
  for (const std::size_t n : {1, 3, 7, 100, 1000, 1500, 2049}) {
    Rng rng(300 + n);
    std::vector<double> w(n);
    for (double& x : w) x = static_cast<double>(uniform_index(rng, 10));
    w[0] = 1.0;  // total > 0
    WeightedTree tree{std::span<const double>(w)};
    for (int round = 0; round < 4; ++round) {
      double prefix = 0.0;
      for (std::size_t k = 0; k <= n; ++k) {
        for (const double target :
             {std::nextafter(prefix, -1.0), prefix,
              std::nextafter(prefix, prefix + 1.0)}) {
          if (target < 0.0 || target >= tree.total()) continue;
          ASSERT_EQ(tree.find_prefix(target), cumulative_scan(w, target))
              << "n " << n << " round " << round << " target " << target;
        }
        if (k < n) prefix += w[k];
      }
      ASSERT_EQ(prefix, tree.total());
      for (std::size_t u = 0; u < 1 + n / 8; ++u) {
        const std::size_t i = uniform_index(rng, n);
        w[i] = static_cast<double>(uniform_index(rng, 10));
        tree.set(i, w[i]);
      }
      w[0] = 1.0;
      tree.set(0, 1.0);
    }
  }
}

class WeightedTreeSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WeightedTreeSizeSweep, LinearWeightsSampleProportionally) {
  const std::size_t k = GetParam();
  std::vector<double> w(k);
  double total = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    w[i] = static_cast<double>(i + 1);
    total += w[i];
  }
  WeightedTree tree{std::span<const double>(w)};
  Rng rng(200 + k);
  std::vector<int> counts(k, 0);
  const int n = 30000 * static_cast<int>(k);
  for (int i = 0; i < n; ++i) ++counts[tree.sample(rng)];
  for (std::size_t i = 0; i < k; ++i) {
    const double expect = w[i] / total;
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, expect,
                0.12 * expect + 2e-4)
        << "slot " << i << " of " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, WeightedTreeSizeSweep,
                         ::testing::Values(1, 2, 3, 8, 33));

}  // namespace
}  // namespace frontier
