#include "sampling/budget.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace frontier {

namespace {

// Casts a step count to uint64_t, clamping at 0. A non-finite budget, a
// NaN count (e.g. from a NaN jump cost) and a count of 2^64 or more have
// no meaningful uint64_t value (the cast would be undefined), so they are
// rejected rather than turned into some arbitrary count.
std::uint64_t to_steps(double budget, double steps, const char* who) {
  if (!std::isfinite(budget) || !(steps < 18446744073709551616.0)) {  // 2^64
    throw std::invalid_argument(
        std::string(who) +
        ": budget must be finite and give fewer than 2^64 steps");
  }
  return steps <= 0.0 ? 0 : static_cast<std::uint64_t>(steps);
}

}  // namespace

std::uint64_t multiple_rw_steps_per_walker(double budget, std::size_t m,
                                           double jump_cost) {
  const double steps =
      m == 0 ? 0.0 : std::floor(budget / static_cast<double>(m) - jump_cost);
  return to_steps(budget, steps, "multiple_rw_steps_per_walker");
}

std::uint64_t frontier_steps(double budget, std::size_t m, double jump_cost) {
  return to_steps(budget, budget - static_cast<double>(m) * jump_cost,
                  "frontier_steps");
}

std::uint64_t single_rw_steps(double budget) {
  // Subtract in integers: floor(B) - 1.0 rounds back to floor(B) above 2^53.
  const std::uint64_t whole =
      to_steps(budget, std::floor(budget), "single_rw_steps");
  return whole == 0 ? 0 : whole - 1;
}

}  // namespace frontier
