#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "stats/accumulators.hpp"
#include "stats/analytic.hpp"
#include "stats/error_metrics.hpp"

namespace frontier {
namespace {

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
}

TEST(RunningStat, EmptyIsZero) {
  const RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MergeMatchesSequential) {
  RunningStat a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 3.0 + i * 0.01;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a;
  a.add(3.0);
  RunningStat empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(MseAccumulator, PerfectEstimatesGiveZeroNmse) {
  MseAccumulator acc({0.5, 0.3, 0.2});
  const std::vector<double> est{0.5, 0.3, 0.2};
  acc.add_run(est);
  acc.add_run(est);
  for (double v : acc.normalized_rmse()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(MseAccumulator, MatchesHandComputedNmse) {
  MseAccumulator acc({0.5});
  acc.add_run(std::vector<double>{0.4});
  acc.add_run(std::vector<double>{0.6});
  // MSE = ((0.1)^2 + (0.1)^2)/2 = 0.01; NMSE = 0.1/0.5 = 0.2.
  EXPECT_NEAR(acc.normalized_rmse()[0], 0.2, 1e-12);
  EXPECT_NEAR(acc.mean_estimate()[0], 0.5, 1e-12);
}

TEST(MseAccumulator, ShortEstimatesAreZeroPadded) {
  MseAccumulator acc({0.5, 0.5});
  acc.add_run(std::vector<double>{0.5});  // second bucket implicitly 0
  EXPECT_DOUBLE_EQ(acc.normalized_rmse()[0], 0.0);
  EXPECT_DOUBLE_EQ(acc.normalized_rmse()[1], 1.0);  // |0 - 0.5| / 0.5
}

TEST(MseAccumulator, ZeroTruthBucketsReportZero) {
  MseAccumulator acc({0.0, 1.0});
  acc.add_run(std::vector<double>{0.7, 1.0});
  EXPECT_DOUBLE_EQ(acc.normalized_rmse()[0], 0.0);
}

TEST(MseAccumulator, MergeMatchesSequential) {
  const std::vector<double> truth{0.4, 0.6};
  MseAccumulator a(truth), b(truth), all(truth);
  for (int r = 0; r < 20; ++r) {
    const std::vector<double> est{0.4 + 0.01 * r, 0.6 - 0.005 * r};
    (r % 2 == 0 ? a : b).add_run(est);
    all.add_run(est);
  }
  a.merge(b);
  EXPECT_EQ(a.runs(), all.runs());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(a.normalized_rmse()[i], all.normalized_rmse()[i], 1e-12);
  }
}

TEST(MseAccumulator, MergeSizeMismatchThrows) {
  MseAccumulator a({0.5});
  MseAccumulator b({0.5, 0.5});
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(ScalarErrorAccumulator, BiasAndNmse) {
  ScalarErrorAccumulator acc(2.0);
  acc.add_run(1.8);
  acc.add_run(2.2);
  EXPECT_DOUBLE_EQ(acc.mean_estimate(), 2.0);
  EXPECT_NEAR(acc.relative_bias(), 0.0, 1e-12);
  EXPECT_NEAR(acc.nmse(), 0.1, 1e-12);  // rmse 0.2 / 2.0
}

TEST(ScalarErrorAccumulator, BiasSignConvention) {
  // Paper's Table 2 bias = 1 - E[est]/truth: underestimates are positive.
  ScalarErrorAccumulator acc(1.0);
  acc.add_run(0.9);
  EXPECT_NEAR(acc.relative_bias(), 0.1, 1e-12);
}

TEST(Nmse, OneShotHelper) {
  const std::vector<double> est{0.4, 0.6};
  EXPECT_NEAR(nmse(est, 0.5), 0.2, 1e-12);
  EXPECT_DOUBLE_EQ(nmse({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(nmse(est, 0.0), 0.0);
}

TEST(LogSpacedDegrees, LinearThenGeometric) {
  const auto xs = log_spaced_degrees(1000, 10, 1.5);
  ASSERT_GE(xs.size(), 11u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(xs[i], i + 1);
  for (std::size_t i = 1; i < xs.size(); ++i) EXPECT_GT(xs[i], xs[i - 1]);
  EXPECT_LE(xs.back(), 1000u);
}

TEST(LogSpacedDegrees, SmallMax) {
  const auto xs = log_spaced_degrees(3);
  EXPECT_EQ(xs, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(MeanHelpers, PositiveOnly) {
  const std::vector<double> vals{0.0, 2.0, 0.0, 8.0};
  EXPECT_DOUBLE_EQ(mean_positive(vals), 5.0);
  EXPECT_DOUBLE_EQ(geometric_mean_positive(vals), 4.0);
  EXPECT_DOUBLE_EQ(mean_positive(std::vector<double>{0.0}), 0.0);
  EXPECT_DOUBLE_EQ(geometric_mean_positive(std::vector<double>{}), 0.0);
}

TEST(AnalyticModels, MatchPaperFormulas) {
  // eq. 4: sqrt((1/theta - 1)/B).
  EXPECT_NEAR(analytic_nmse_vertex_sampling(0.1, 100.0),
              std::sqrt(9.0 / 100.0), 1e-12);
  // eq. 3 with pi = i*theta/d.
  const double pi = 20.0 * 0.01 / 10.0;  // = 0.02
  EXPECT_NEAR(analytic_nmse_edge_sampling(0.01, 20.0, 10.0, 100.0),
              std::sqrt((1.0 / pi - 1.0) / 100.0), 1e-12);
}

TEST(AnalyticModels, CrossoverAtMeanDegree) {
  const double d = 12.0;
  const double budget = 1000.0;
  const double theta = 0.001;
  // Above the mean degree: edge sampling wins.
  EXPECT_LT(analytic_nmse_edge_sampling(theta, 3.0 * d, d, budget),
            analytic_nmse_vertex_sampling(theta, budget));
  // Below the mean degree: vertex sampling wins.
  EXPECT_GT(analytic_nmse_edge_sampling(theta, d / 3.0, d, budget),
            analytic_nmse_vertex_sampling(theta, budget));
}

TEST(AnalyticModels, ValidateInputs) {
  EXPECT_THROW((void)analytic_nmse_vertex_sampling(0.0, 10.0),
               std::invalid_argument);
  EXPECT_THROW((void)analytic_nmse_vertex_sampling(0.5, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)analytic_nmse_edge_sampling(0.5, 0.0, 5.0, 10.0),
               std::invalid_argument);
  EXPECT_THROW((void)analytic_nmse_edge_sampling(0.5, 2.0, 0.0, 10.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace frontier
