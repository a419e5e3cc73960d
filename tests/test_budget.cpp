#include "sampling/budget.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace frontier {
namespace {

TEST(CostModel, ExpectedJumpCost) {
  CostModel cm;
  EXPECT_DOUBLE_EQ(cm.expected_jump_cost(), 1.0);
  cm.jump_cost = 2.0;
  cm.hit_ratio = 0.1;
  EXPECT_DOUBLE_EQ(cm.expected_jump_cost(), 20.0);
}

TEST(MultipleRwSteps, PaperFormula) {
  // floor(B/m - c)
  EXPECT_EQ(multiple_rw_steps_per_walker(1000.0, 10, 1.0), 99u);
  EXPECT_EQ(multiple_rw_steps_per_walker(1000.0, 3, 1.0), 332u);
  EXPECT_EQ(multiple_rw_steps_per_walker(100.0, 10, 5.0), 5u);
}

TEST(MultipleRwSteps, ClampsAtZero) {
  EXPECT_EQ(multiple_rw_steps_per_walker(10.0, 100, 1.0), 0u);
  EXPECT_EQ(multiple_rw_steps_per_walker(0.0, 1, 1.0), 0u);
  EXPECT_EQ(multiple_rw_steps_per_walker(5.0, 0, 1.0), 0u);
}

TEST(FrontierSteps, PaperFormula) {
  // B - m*c (Algorithm 1 line 8)
  EXPECT_EQ(frontier_steps(1000.0, 10, 1.0), 990u);
  EXPECT_EQ(frontier_steps(1000.0, 1000, 1.0), 0u);
  EXPECT_EQ(frontier_steps(500.0, 10, 10.0), 400u);
}

TEST(FrontierSteps, ClampsAtZero) {
  EXPECT_EQ(frontier_steps(5.0, 100, 1.0), 0u);
}

TEST(SingleRwSteps, FloorMinusOneClampedAtZero) {
  // The walker's start costs 1; the rest of floor(B) buys steps.
  EXPECT_EQ(single_rw_steps(0.0), 0u);
  EXPECT_EQ(single_rw_steps(0.5), 0u);
  EXPECT_EQ(single_rw_steps(1.0), 0u);
  EXPECT_EQ(single_rw_steps(1.5), 0u);
  EXPECT_EQ(single_rw_steps(2.0), 1u);
  EXPECT_EQ(single_rw_steps(1000.9), 999u);
  EXPECT_EQ(single_rw_steps(9007199254740992.0), 9007199254740991u);  // 2^53
  EXPECT_EQ(single_rw_steps(-3.0), 0u);
}

TEST(SingleRwSteps, RejectsNonFiniteAndHugeBudgets) {
  for (const double budget : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              18446744073709551616.0}) {  // 2^64
    EXPECT_THROW((void)single_rw_steps(budget), std::invalid_argument)
        << budget;
  }
  // Subtracted in integers, so the largest count below 2^64 stays exact.
  EXPECT_EQ(single_rw_steps(18446744073709549568.0), 18446744073709549567u);
}

// A NaN, infinite or >= 2^64 step count has no uint64_t value; casting
// one is undefined (in practice NaN gave 2^63 FS steps and +inf gave 0).
TEST(StepHelpers, RejectNonFiniteAndHugeBudgets) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double budget : {nan, inf, -inf, 1e30, 18446744073709551616.0}) {
    EXPECT_THROW((void)frontier_steps(budget, 10, 1.0), std::invalid_argument)
        << budget;
    EXPECT_THROW((void)multiple_rw_steps_per_walker(budget, 1, 1.0),
                 std::invalid_argument)
        << budget;
  }
  EXPECT_THROW((void)frontier_steps(1000.0, 10, nan), std::invalid_argument);
  EXPECT_THROW((void)multiple_rw_steps_per_walker(1000.0, 10, nan),
               std::invalid_argument);
  EXPECT_THROW((void)multiple_rw_steps_per_walker(nan, 0, 1.0),
               std::invalid_argument);
  // The largest representable count below 2^64 still converts exactly.
  EXPECT_EQ(frontier_steps(18446744073709549568.0, 0, 1.0),
            18446744073709549568u);
  // Negative budgets and infinite jump costs still clamp to zero steps.
  EXPECT_EQ(frontier_steps(-5.0, 10, 1.0), 0u);
  EXPECT_EQ(frontier_steps(1000.0, 10, inf), 0u);
}

TEST(BudgetComparison, FsTakesMoreStepsThanMrwTotal) {
  // Under the same budget B with c = 1, FS walks B - m steps while
  // MultipleRW walks m * floor(B/m - 1) = B - m (when m | B): identical.
  const double budget = 1000.0;
  const std::size_t m = 10;
  const std::uint64_t fs = frontier_steps(budget, m, 1.0);
  const std::uint64_t mrw =
      m * multiple_rw_steps_per_walker(budget, m, 1.0);
  EXPECT_EQ(fs, mrw);
  // When m does not divide B, MultipleRW loses the remainder.
  const std::uint64_t fs2 = frontier_steps(1005.0, m, 1.0);
  const std::uint64_t mrw2 =
      m * multiple_rw_steps_per_walker(1005.0, m, 1.0);
  EXPECT_GE(fs2, mrw2);
}

}  // namespace
}  // namespace frontier
