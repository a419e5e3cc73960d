// Frontier Sampling (Algorithm 1) — the paper's primary contribution.
//
// FS maintains a list L of m walker positions. Each step:
//   4: select u ∈ L with probability deg(u) / Σ_{v∈L} deg(v),
//   5: select an outgoing edge (u, w) of u uniformly at random,
//   6: replace u by w in L and record (u, w),
// until n >= B - m*c. The process is exactly a single random walk on the
// m-th Cartesian power G^m (Lemma 5.1), so in steady state edges of G are
// sampled uniformly (Theorem 5.2) — yet, unlike m independent walkers, the
// joint law of L started from m uniform vertices is already close to the
// steady state for large m (Theorem 5.4), which is what makes FS robust to
// disconnected and loosely connected graphs.
//
// Walker selection is the per-step hot spot: DegreeSelector
// (stream/degree_selector.hpp) keeps the walker degrees as exact integers
// with per-block sums (16 slots a block, about √m from m = 1024), so an
// update is O(1) and a draw scans the block sums and one block.
#pragma once

#include "stream/cursor.hpp"
#include "stream/sampler_cursors.hpp"

namespace frontier {

/// Algorithm 1, batch form: FrontierCursor (stream/sampler_cursors.hpp)
/// defines the method and its Config.
using FrontierSampler = WalkSampler<FrontierCursor>;

}  // namespace frontier
