#include "graph/intersect.hpp"

#include <vector>

namespace frontier::detail {

std::uint8_t* intersect_marks(std::size_t n) {
  // Bytes past the old size arrive zeroed, and intersect_sorted clears
  // every byte it sets, so the whole array is zero between calls.
  thread_local std::vector<std::uint8_t> marks;
  if (marks.size() < n) marks.resize(n);
  return marks.data();
}

}  // namespace frontier::detail
