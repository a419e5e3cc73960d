// Sorted-list intersection — the one kernel behind every codegree
// f(u,v) = |N(u) ∩ N(v)| of Section 4.2.4: shared_neighbors counts the
// matches, common_neighbors collects them, and the streaming codegree
// column, the batch clustering estimator and the exact motif counts all
// go through those two.
//
// Frontier Sampling's edge stream is degree-biased, so on heavy-tailed
// graphs one list is often a hub's and the other a leaf's. The kernel
// puts the shorter list first. When it is under 1/kGallopRatio of the
// longer, each short element is located by a branchless binary search
// over the unsearched tail of the long list (the gallop of Baeza-Yates,
// CPM 2004): |short| · log |long| steps instead of |short| + |long|.
// Otherwise a branchless merge advances both cursors by comparison
// results, not by unpredictable branches. Both paths match an element
// once per copy present in both lists and report matches in ascending
// order, so the path taken never changes the result.
//
// Precondition: both lists ascending. Graph adjacency is strictly
// increasing: GraphBuilder sorts and deduplicates, and the v2 stream
// loader rejects unsorted lists (graph/io.cpp).
#pragma once

#include <cstddef>
#include <span>
#include <utility>

#include "core/types.hpp"

namespace frontier {

/// Length ratio past which intersect_sorted gallops instead of merging.
/// A fixed property of the inputs, not a tuning knob: 8 measured within
/// noise of 16.
inline constexpr std::size_t kGallopRatio = 16;

namespace detail {

/// First element of [base, base + n) not less than x, or base + n; n >= 1.
/// The loop's trip count depends on n alone, and the select compiles to a
/// conditional move.
inline const VertexId* lower_bound_branchless(const VertexId* base,
                                              std::size_t n,
                                              VertexId x) noexcept {
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half] < x ? base + half : base;
    n -= half;
  }
  return base + (*base < x);
}

}  // namespace detail

/// Calls on_match(x) for every x in a ∩ b, ascending. a and b ascending.
template <class OnMatch>
void intersect_sorted(std::span<const VertexId> a, std::span<const VertexId> b,
                      OnMatch&& on_match) {
  if (a.size() > b.size()) std::swap(a, b);
  const std::size_t ns = a.size();
  const std::size_t nl = b.size();
  std::size_t i = 0;
  std::size_t j = 0;
  if (ns * kGallopRatio < nl) {
    for (; i < ns && j < nl; ++i) {
      const VertexId x = a[i];
      j = static_cast<std::size_t>(
          detail::lower_bound_branchless(b.data() + j, nl - j, x) - b.data());
      if (j == nl) return;
      const bool hit = b[j] == x;
      if (hit) on_match(x);
      j += hit;
    }
    return;
  }
  // Indices, not pointers: with pointer cursors g++ turns the advance back
  // into branches.
  while (i < ns && j < nl) {
    const VertexId x = a[i];
    const VertexId y = b[j];
    if (x == y) on_match(x);
    i += x <= y;
    j += y <= x;
  }
}

}  // namespace frontier
