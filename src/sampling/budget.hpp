// Budget and cost accounting (Section 2 and Section 4.4 of the paper).
//
// All queries have unit cost unless stated otherwise:
//   * advancing a walker one step queries one vertex  -> cost 1,
//   * randomly sampling a vertex (a "jump") costs c   -> cost jump_cost,
//   * in a sparse id space only a fraction `hit_ratio` of random queries
//     lands on a valid vertex; every attempt is paid for (Section 6.4).
//
// MultipleRW with m walkers gives each walker floor(B/m - c) steps
// (Section 4.4); FS walks until n >= B - m*c (Algorithm 1, line 8); a
// single walker pays 1 for its start and walks floor(B) - 1 steps.
#pragma once

#include <cstdint>

namespace frontier {

struct CostModel {
  double jump_cost = 1.0;  ///< c: cost of one random-vertex query attempt
  double hit_ratio = 1.0;  ///< fraction of random queries that are valid

  /// Expected cost of obtaining one *valid* uniformly random vertex.
  [[nodiscard]] double expected_jump_cost() const noexcept {
    return jump_cost / hit_ratio;
  }
};

/// Steps each of m independent walkers takes under budget B with jump cost
/// c: floor(B/m - c), clamped at 0 (0 when m = 0). Throws
/// std::invalid_argument for a non-finite B or a NaN or >= 2^64 count.
[[nodiscard]] std::uint64_t multiple_rw_steps_per_walker(double budget,
                                                         std::size_t m,
                                                         double jump_cost);

/// Steps a Frontier sampler takes under budget B with m walkers and jump
/// cost c: B - m*c, clamped at 0 (Algorithm 1 line 8). Throws
/// std::invalid_argument for a non-finite B or a NaN or >= 2^64 count.
[[nodiscard]] std::uint64_t frontier_steps(double budget, std::size_t m,
                                           double jump_cost);

/// Steps a single walker (SingleRW, MH) takes under budget B: floor(B) - 1,
/// and 0 when B < 1. Throws std::invalid_argument for a non-finite or
/// >= 2^64 B.
[[nodiscard]] std::uint64_t single_rw_steps(double budget);

}  // namespace frontier
