#include "stream/block.hpp"

#include <stdexcept>

#include "core/env.hpp"
#include "graph/metrics.hpp"

namespace frontier {

std::size_t default_block_capacity() {
  static const std::size_t cap = [] {
    const std::uint64_t k = env_u64("FS_BLOCK", 4096, kMaxBlockCapacity);
    return static_cast<std::size_t>(k == 0 ? 1 : k);
  }();
  return cap;
}

StreamEventBlock::StreamEventBlock(std::size_t capacity) : cap_(capacity) {
  if (cap_ == 0) {
    throw std::invalid_argument("StreamEventBlock: capacity >= 1");
  }
  u_.resize(cap_);
  v_.resize(cap_);
  deg_v_.resize(cap_);
  vertex_.resize(cap_);
  flags_.resize(cap_);
}

std::span<const std::uint32_t> StreamEventBlock::codegree(
    const Graph& g) const {
  if (codegree_graph_ != &g) {
    codegree_graph_ = &g;
    codegree_rows_ = 0;
  }
  if (codegree_.size() < size_) codegree_.resize(size_);
  // Prefetch the adjacency of the edge row kAhead rows on: the
  // intersection of row i then overlaps the memory latency of row
  // i + kAhead.
  constexpr std::size_t kAhead = 8;
  for (std::size_t i = codegree_rows_; i < size_; ++i) {
    const std::size_t j = i + kAhead;
    if (j < size_ && (flags_[j] & kHasEdge)) {
      g.prefetch_neighbors(u_[j]);
      g.prefetch_neighbors(v_[j]);
    }
    if (flags_[i] & kHasEdge) {
      codegree_[i] = shared_neighbors(g, u_[i], v_[i]);
    }
  }
  codegree_rows_ = size_;
  return {codegree_.data(), size_};
}

}  // namespace frontier
