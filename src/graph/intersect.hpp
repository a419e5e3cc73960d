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
// MarkedSet is the mark half on its own, for a caller that probes many
// lists against one (MotifSink's C4 term marks N(v) once per edge row and
// probes N(x) for every x in N(u)); the kernel's mark path uses it too.
//
// The marks are thread_local, grow to the largest n the thread has seen,
// and are all zero whenever no intersection and no MarkedSet is live on
// the thread, also after on_match throws. on_match must not itself
// intersect.
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

/// Calls on_match(x) for every x in a ∩ b, ascending, where a is under
/// 1/kGallopRatio of b: a branchless binary search of each element of a
/// over the unsearched tail of b.
template <class OnMatch>
void gallop(std::span<const VertexId> a, std::span<const VertexId> b,
            OnMatch&& on_match) {
  const std::size_t nl = b.size();
  std::size_t j = 0;
  for (const VertexId x : a) {
    j = static_cast<std::size_t>(
        lower_bound_branchless(b.data() + j, nl - j, x) - b.data());
    if (j == nl) return;
    const bool hit = b[j] == x;
    if (hit) on_match(x);
    j += hit;
    // A hit on b's last element leaves no tail to search.
    if (j == nl) return;
  }
}

}  // namespace detail

/// A strictly ascending id list marked in this thread's mark array for
/// the object's lifetime, so many lists can be probed against it at one
/// marking's cost. Every id < n. The destructor clears the marks, so they
/// are all zero again on every exit, also when a probe's caller throws.
/// The marks are the kernel's own: no other intersection may run on the
/// thread while a MarkedSet lives.
class MarkedSet {
 public:
  MarkedSet(std::size_t n, std::span<const VertexId> ids)
      : marks_(detail::intersect_marks(n)), ids_(ids) {
    for (const VertexId x : ids_) marks_[x] = 1;
  }
  ~MarkedSet() {
    for (const VertexId x : ids_) marks_[x] = 0;
  }
  MarkedSet(const MarkedSet&) = delete;
  MarkedSet& operator=(const MarkedSet&) = delete;

  [[nodiscard]] bool contains(VertexId x) const noexcept {
    return marks_[x] != 0;
  }

  /// |ids ∩ b| for b strictly ascending, every id < n: one probe per
  /// element of b, or a gallop of the marked ids through b when b is more
  /// than kGallopRatio times longer.
  [[nodiscard]] std::uint32_t count_in(
      std::span<const VertexId> b) const noexcept {
    std::uint32_t count = 0;
    if (ids_.size() * kGallopRatio < b.size()) {
      detail::gallop(ids_, b, [&count](VertexId) { ++count; });
    } else {
      for (const VertexId y : b) count += contains(y) ? 1 : 0;
    }
    return count;
  }

 private:
  std::uint8_t* marks_;
  std::span<const VertexId> ids_;
};

/// Calls on_match(x) for every x in a ∩ b, ascending. a and b strictly
/// ascending, every id < n.
template <class OnMatch>
void intersect_sorted(std::size_t n, std::span<const VertexId> a,
                      std::span<const VertexId> b, OnMatch&& on_match) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return;
  if (a.size() * kGallopRatio < b.size()) {
    detail::gallop(a, b, on_match);
    return;
  }
  const MarkedSet marked(n, a);
  for (const VertexId y : b) {
    if (marked.contains(y)) on_match(y);
  }
}

}  // namespace frontier
