#include "stream/block.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/env.hpp"
#include "core/parallel.hpp"
#include "graph/graph.hpp"
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
  u_ = std::make_unique_for_overwrite<VertexId[]>(cap_);
  v_ = std::make_unique_for_overwrite<VertexId[]>(cap_);
  deg_v_ = std::make_unique_for_overwrite<std::uint32_t[]>(cap_);
  vertex_ = std::make_unique_for_overwrite<VertexId[]>(cap_);
  flags_ = std::make_unique_for_overwrite<std::uint8_t[]>(cap_);
  pick_ = std::make_unique_for_overwrite<std::uint32_t[]>(cap_);
}

std::span<const std::uint32_t> StreamEventBlock::codegree(
    const Graph& g) const {
  if (codegree_graph_ != &g) {
    codegree_graph_ = &g;
    codegree_rows_ = 0;
  }
  if (codegree_.size() < size_) codegree_.resize(size_);
  // Each row's value depends on that row alone, so the rows split into
  // contiguous ranges on the pool without changing a single value.
  const std::size_t first = codegree_rows_;
  const std::size_t rows = size_ - first;
  parallel_for_ranges(
      rows, std::min(default_thread_count(), rows / kMinRowsPerWorker),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        fill_codegree(g, first + begin, first + end);
      });
  codegree_rows_ = size_;
  return {codegree_.data(), size_};
}

void StreamEventBlock::fill_codegree(const Graph& g, std::size_t begin,
                                     std::size_t end) const {
  // Prefetch the adjacency of the edge row kAhead rows on: the
  // intersection of row i then overlaps the memory latency of row
  // i + kAhead.
  constexpr std::size_t kAhead = 8;
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t j = i + kAhead;
    if (j < end && (flags_[j] & kHasEdge)) {
      g.prefetch_neighbors(u_[j]);
      g.prefetch_neighbors(v_[j]);
    }
    if (flags_[i] & kHasEdge) {
      codegree_[i] = shared_neighbors(g, u_[i], v_[i]);
    }
  }
}

std::span<const std::uint32_t> StreamEventBlock::pick(const Graph& g) const {
  if (pick_graph_ != &g) {
    pick_graph_ = &g;
    pick_rows_ = 0;
  }
  const bool pushed_hold = pick_source_ == &g;
  if (!pushed_hold) pick_source_ = nullptr;
  for (std::size_t i = pick_rows_; i < size_; ++i) {
    const std::uint8_t f = flags_[i];
    if ((f & kHasEdge) && !(pushed_hold && (f & kPicked))) {
      pick_[i] = g.neighbor_index(u_[i], v_[i]);
    }
  }
  pick_rows_ = size_;
  return {pick_.get(), size_};
}

}  // namespace frontier
