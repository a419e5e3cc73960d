#include "stream/degree_selector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace frontier {
namespace {

DegreeSelector make_selector(const std::vector<std::uint32_t>& w) {
  DegreeSelector s(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) s.set(i, w[i]);
  return s;
}

// Reference for find: a linear scan over exact integer prefix sums that
// returns the first slot whose prefix exceeds the target, or the last slot
// with positive weight when none does (target >= total).
std::size_t exact_prefix_scan(const std::vector<std::uint32_t>& w,
                              double target) {
  std::uint64_t acc = 0;
  for (std::size_t k = 0; k < w.size(); ++k) {
    acc += w[k];
    if (static_cast<double>(acc) > target) return k;
  }
  std::size_t last = w.size() - 1;
  while (last > 0 && w[last] == 0) --last;
  return last;
}

TEST(DegreeSelector, EmptyTotalIsZero) {
  const DegreeSelector s(0);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.total(), 0u);
}

TEST(DegreeSelector, SetThenGet) {
  const DegreeSelector s = make_selector({1, 2, 3});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.total(), 6u);
  EXPECT_EQ(s.get(0), 1u);
  EXPECT_EQ(s.get(1), 2u);
  EXPECT_EQ(s.get(2), 3u);
}

TEST(DegreeSelector, SetUpdatesTotal) {
  DegreeSelector s(4);
  s.set(0, 1);
  s.set(3, 5);
  EXPECT_EQ(s.total(), 6u);
  s.set(0, 2);
  EXPECT_EQ(s.total(), 7u);
  s.set(3, 0);
  EXPECT_EQ(s.total(), 2u);
}

TEST(DegreeSelector, OutOfRangeAccessThrows) {
  DegreeSelector s(2);
  EXPECT_THROW(s.set(2, 1), std::out_of_range);
  EXPECT_THROW((void)s.get(5), std::out_of_range);
}

TEST(DegreeSelector, SampleOnZeroTotalThrows) {
  Rng rng(1);
  DegreeSelector s(3);
  EXPECT_THROW((void)s.sample(rng), std::logic_error);
  // Also once every weight has been set back to zero.
  s.set(1, 4);
  (void)s.sample(rng);
  s.set(1, 0);
  EXPECT_THROW((void)s.sample(rng), std::logic_error);
}

TEST(DegreeSelector, FindPicksCorrectSlot) {
  const DegreeSelector s = make_selector({1, 2, 3, 4});  // prefixes 1 3 6 10
  EXPECT_EQ(s.find(0.0), 0u);
  EXPECT_EQ(s.find(0.999), 0u);
  EXPECT_EQ(s.find(1.0), 1u);
  EXPECT_EQ(s.find(2.999), 1u);
  EXPECT_EQ(s.find(3.0), 2u);
  EXPECT_EQ(s.find(5.999), 2u);
  EXPECT_EQ(s.find(6.0), 3u);
  EXPECT_EQ(s.find(9.999), 3u);
}

TEST(DegreeSelector, TargetAtOrAboveTotalGivesLastPositiveSlot) {
  // A draw uniform01 * total can round up to total; the selection then
  // falls on the last slot that can be drawn at all.
  const DegreeSelector s = make_selector({3, 0, 2, 0, 0});
  for (const double target :
       {5.0, std::nextafter(5.0, 6.0), 1e30,
        std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(s.find(target), 2u) << target;
  }
  EXPECT_EQ(s.find(std::nextafter(5.0, 0.0)), 2u);
  // Across blocks: the only positive slot sits in the first block.
  DegreeSelector wide(2000);
  wide.set(7, 9);
  EXPECT_EQ(wide.find(9.0), 7u);
  EXPECT_EQ(wide.find(0.0), 7u);
}

TEST(DegreeSelector, SampleMakesOneDraw) {
  const DegreeSelector s = make_selector({4, 0, 7, 1, 9});
  Rng rng(3);
  for (int k = 0; k < 1000; ++k) {
    Rng copy = rng;
    const std::size_t expect =
        s.find(uniform01(copy) * static_cast<double>(s.total()));
    ASSERT_EQ(s.sample(rng), expect);
    ASSERT_TRUE(rng == copy);
  }
}

TEST(DegreeSelector, FindMatchesExactPrefixScan) {
  // Differential check against the reference scan at every prefix
  // boundary and one ulp either side of it, over random integer weights
  // (about a third zero) with set() calls between rounds. The sizes
  // cross the block width (16) and the width switch at m = 1024.
  for (const std::size_t n : {1, 15, 16, 17, 1023, 1024, 1025, 5000}) {
    Rng rng(300 + n);
    std::vector<std::uint32_t> w(n);
    auto draw = [&rng] {
      return uniform_index(rng, 3) == 0
                 ? 0u
                 : static_cast<std::uint32_t>(uniform_index(rng, 50));
    };
    for (auto& x : w) x = draw();
    DegreeSelector s = make_selector(w);
    for (int round = 0; round < 4; ++round) {
      std::uint64_t prefix = 0;
      for (std::size_t k = 0; k <= n; ++k) {
        const auto p = static_cast<double>(prefix);
        for (const double target :
             {std::nextafter(p, -1.0), p, std::nextafter(p, p + 1.0)}) {
          if (target < 0.0) continue;
          ASSERT_EQ(s.find(target), exact_prefix_scan(w, target))
              << "n " << n << " round " << round << " target " << target;
        }
        if (k < n) prefix += w[k];
      }
      ASSERT_EQ(prefix, s.total());
      for (std::size_t u = 0; u < 1 + n / 8; ++u) {
        const std::size_t i = uniform_index(rng, n);
        w[i] = draw();
        s.set(i, w[i]);
      }
      if (round == 1) {
        // Zero a whole run of slots, so some block sums are zero.
        for (std::size_t i = n / 4; i < n / 2; ++i) {
          w[i] = 0;
          s.set(i, 0);
        }
      }
    }
  }
}

TEST(DegreeSelector, LargeWeightsStayExact) {
  // Sums past 2^32 need the 64-bit block sums and total.
  const std::size_t n = 3000;
  std::vector<std::uint32_t> w(n, std::numeric_limits<std::uint32_t>::max());
  w[5] = 0;
  w[n - 1] = 0;
  const DegreeSelector s = make_selector(w);
  std::uint64_t prefix = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const auto p = static_cast<double>(prefix);
    for (const double target : {std::nextafter(p, -1.0), p}) {
      if (target < 0.0) continue;
      ASSERT_EQ(s.find(target), exact_prefix_scan(w, target)) << k;
    }
    prefix += w[k];
  }
  EXPECT_EQ(s.total(), prefix);
  EXPECT_EQ(s.find(static_cast<double>(prefix)), n - 2);
}

TEST(DegreeSelector, ZeroWeightSlotNeverSampled) {
  const DegreeSelector s = make_selector({2, 0, 1});
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) EXPECT_NE(s.sample(rng), 1u);
}

TEST(DegreeSelector, EmpiricalFrequenciesMatchWeights) {
  const std::vector<std::uint32_t> w{5, 1, 4};
  const DegreeSelector s = make_selector(w);
  Rng rng(11);
  std::vector<int> counts(3, 0);
  const int n = 300000;
  for (int i = 0; i < n; ++i) ++counts[s.sample(rng)];
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, w[i] / 10.0, 0.005);
  }
}

TEST(DegreeSelector, DynamicUpdatesShiftDistribution) {
  DegreeSelector s(2);
  s.set(0, 1);
  s.set(1, 1);
  Rng rng(13);
  s.set(0, 9);  // now 90/10
  int zero_hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (s.sample(rng) == 0) ++zero_hits;
  }
  EXPECT_NEAR(static_cast<double>(zero_hits) / n, 0.9, 0.01);
}

TEST(DegreeSelector, ManyIncrementalUpdatesStayConsistent) {
  const std::size_t k = 64;
  DegreeSelector s(k);
  std::vector<std::uint32_t> shadow(k, 0);
  Rng rng(17);
  for (int round = 0; round < 2000; ++round) {
    const std::size_t i = uniform_index(rng, k);
    const auto w = static_cast<std::uint32_t>(uniform_index(rng, 1000));
    s.set(i, w);
    shadow[i] = w;
  }
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(s.get(i), shadow[i]);
    total += shadow[i];
  }
  EXPECT_EQ(s.total(), total);
}

class DegreeSelectorSizeSweep
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DegreeSelectorSizeSweep, LinearWeightsSampleProportionally) {
  const std::size_t k = GetParam();
  std::vector<std::uint32_t> w(k);
  double total = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    w[i] = static_cast<std::uint32_t>(i + 1);
    total += w[i];
  }
  const DegreeSelector s = make_selector(w);
  Rng rng(200 + k);
  std::vector<int> counts(k, 0);
  const int n = 30000 * static_cast<int>(k);
  for (int i = 0; i < n; ++i) ++counts[s.sample(rng)];
  for (std::size_t i = 0; i < k; ++i) {
    const double expect = w[i] / total;
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, expect,
                0.12 * expect + 2e-4)
        << "slot " << i << " of " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DegreeSelectorSizeSweep,
                         ::testing::Values(1, 2, 3, 8, 33));

}  // namespace
}  // namespace frontier
