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
// Otherwise it marks and probes: it sets one byte per short element in a
// per-thread array indexed by vertex id, reads the byte of every long
// element in ascending order, and clears the short elements' bytes again.
// Each probe is an independent load, so there is no compare chain to
// mispredict, as a merge has. Both paths report matches in ascending
// order, so the path taken never changes the result.
//
// Preconditions: both lists strictly ascending, and every id < n, the
// vertex count the caller passes (the mark array has n bytes, and the
// kernel writes the byte of every short-list id). Graph adjacency meets
// both: GraphBuilder sorts and deduplicates, and the v2 stream loader
// rejects unsorted lists and out-of-range ids (graph/io.cpp).
//
// The marks are thread_local, grow to the largest n the thread has seen,
// and are all zero whenever no intersection is running on the thread,
// also after on_match throws. on_match must not itself intersect.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "core/types.hpp"

namespace frontier {

/// Length ratio past which intersect_sorted gallops instead of marking.
/// A fixed property of the inputs, not a tuning knob: 8 measured within
/// noise of 16.
inline constexpr std::size_t kGallopRatio = 16;

namespace detail {

/// This thread's mark array, at least n bytes and all zero.
[[nodiscard]] std::uint8_t* intersect_marks(std::size_t n);

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

/// Calls on_match(x) for every x in a ∩ b, ascending. a and b strictly
/// ascending, every id < n.
template <class OnMatch>
void intersect_sorted(std::size_t n, std::span<const VertexId> a,
                      std::span<const VertexId> b, OnMatch&& on_match) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return;
  if (a.size() * kGallopRatio < b.size()) {
    const std::size_t nl = b.size();
    std::size_t j = 0;
    for (const VertexId x : a) {
      j = static_cast<std::size_t>(
          detail::lower_bound_branchless(b.data() + j, nl - j, x) - b.data());
      if (j == nl) return;
      const bool hit = b[j] == x;
      if (hit) on_match(x);
      j += hit;
    }
    return;
  }
  // Clears the marks on every exit, so a throwing on_match cannot leave
  // stale bytes for the thread's next intersection.
  struct Unmark {
    std::uint8_t* marks;
    std::span<const VertexId> ids;
    ~Unmark() {
      for (const VertexId x : ids) marks[x] = 0;
    }
  } unmark{detail::intersect_marks(n), a};
  std::uint8_t* marks = unmark.marks;
  for (const VertexId x : a) marks[x] = 1;
  for (const VertexId y : b) {
    if (marks[y] != 0) on_match(y);
  }
}

}  // namespace frontier
