#include "stream/block.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <thread>

#include "core/env.hpp"
#include "core/parallel.hpp"
#include "graph/graph.hpp"
#include "graph/metrics.hpp"

namespace frontier {
namespace {

/// One iteration of a busy wait: tells the core it is spinning.
inline void spin_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

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
  chase_graph_ = &g;
  if (codegree_graph_ != &g) {
    if (chasing_) stop_chase();
    codegree_graph_ = &g;
    codegree_rows_ = 0;
  }
  if (chasing_) finish_fill();
  if (codegree_rows_ < size_) {
    // Each row's value depends on that row alone, so the chunks may be
    // filled by any thread without changing a single value.
    const std::size_t workers = std::min(
        default_thread_count(), (size_ - codegree_rows_) / kMinRowsPerWorker);
    open_fill(codegree_rows_, size_, true, workers > 1 ? workers - 1 : 0);
    finish_fill();
  }
  return {codegree_.data(), size_};
}

bool StreamEventBlock::start_chase(const Graph& g, std::size_t rows) {
  const std::size_t threads = default_thread_count();
  if (threads < 2) return false;
  codegree_graph_ = &g;
  return open_fill(0, rows, false, threads - 1);
}

bool StreamEventBlock::open_fill(std::size_t first, std::size_t last,
                                 bool sealed, std::size_t workers) const {
  if (codegree_.size() < last) codegree_.resize(last);
  fill_base_ = first;
  fill_end_ = size_;
  next_chunk_.store(0, std::memory_order_relaxed);
  published_.store(sealed ? size_ : first, std::memory_order_relaxed);
  sealed_.store(sealed, std::memory_order_relaxed);
  // The pool posts the job under its lock, which orders every store above
  // before the workers' first read.
  chasing_ = start_background(workers, workers_);
  return chasing_;
}

void StreamEventBlock::finish_fill() const {
  fill_chunks();
  if (chasing_) {
    chasing_ = false;
    join_background();
  }
  codegree_rows_ = fill_end_;
}

void StreamEventBlock::stop_chase() const noexcept {
  // Past every chunk: a worker's next claim ends its loop. Far below
  // SIZE_MAX, so the claims after it cannot wrap.
  next_chunk_.store(std::numeric_limits<std::size_t>::max() /
                        (2 * kCodegreeChunkRows),
                    std::memory_order_relaxed);
  if (!sealed_.load(std::memory_order_relaxed)) seal();
  chasing_ = false;
  join_background();  // fill_chunks() cannot throw, so neither can this
}

void StreamEventBlock::fill_chunks() const noexcept {
  const Graph& g = *codegree_graph_;
  for (;;) {
    const std::size_t begin =
        fill_base_ +
        kCodegreeChunkRows * next_chunk_.fetch_add(1, std::memory_order_relaxed);
    std::size_t published = 0;
    for (unsigned spins = 0;; ++spins) {
      // sealed_ first: once it is seen, published_ is the fill's end.
      const bool sealed = sealed_.load(std::memory_order_acquire);
      published = published_.load(std::memory_order_acquire);
      if (sealed || published >= begin + kCodegreeChunkRows) break;
      // The cursor publishes a chunk every few microseconds: poll briefly,
      // then give the core away between polls.
      if (spins < 64) {
        spin_pause();
      } else {
        std::this_thread::yield();
      }
    }
    const std::size_t end = std::min(begin + kCodegreeChunkRows, published);
    if (begin >= end) return;
    fill_codegree(g, begin, end, published);
  }
}

void StreamEventBlock::fill_codegree(const Graph& g, std::size_t begin,
                                     std::size_t end,
                                     std::size_t limit) const noexcept {
  // Prefetch the adjacency of the edge row kAhead rows on: the
  // intersection of row i then overlaps the memory latency of row
  // i + kAhead.
  constexpr std::size_t kAhead = 8;
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t j = i + kAhead;
    if (j < limit && (flags_[j] & kHasEdge)) {
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
