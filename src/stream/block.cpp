#include "stream/block.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/env.hpp"
#include "core/parallel.hpp"
#include "graph/graph.hpp"
#include "graph/metrics.hpp"
#include "stream/sinks.hpp"

namespace frontier {
namespace {

/// One iteration of a busy wait on the cursor or on another worker: the
/// cursor publishes a chunk every few microseconds, so poll briefly, then
/// give the core away between polls.
inline void backoff(unsigned spins) noexcept {
  if (spins < 64) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  } else {
    std::this_thread::yield();
  }
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

StreamEventBlock::~StreamEventBlock() { clear(); }

void StreamEventBlock::clear() noexcept {
  if (chasing_) stop_chase();
  for (const Follower& f : followers_) f.sink->leader_ = nullptr;
  followers_.clear();
  reset_rows(nullptr);
}

void StreamEventBlock::begin_fill(const Graph& g) {
  if (chasing_) stop_chase();
  if (size_ > 0 && std::ranges::any_of(followers_, &Follower::folded)) {
    throw std::logic_error(
        "StreamEventBlock: a follower did not ingest the chased fill "
        "folded into it; clear() the block to drop its followers");
  }
  for (Follower& f : followers_) f.folded = false;
  reset_rows(&g);
}

std::span<const std::uint32_t> StreamEventBlock::codegree(
    const Graph& g) const {
  chase_graph_ = &g;
  if (codegree_graph_ != &g) {
    if (chasing_) finish_fill();
    codegree_graph_ = &g;
    codegree_rows_ = 0;
  }
  if (chasing_) finish_fill();
  if (codegree_rows_ < size_) {
    // Each row's value depends on that row alone, so the chunks may be
    // filled by any thread without changing a single value.
    const std::size_t workers = std::min(
        default_thread_count(), (size_ - codegree_rows_) / kMinRowsPerWorker);
    folding_ = false;
    codegree_fill_ = true;
    open_fill(codegree_rows_, size_, true, workers > 1 ? workers - 1 : 0);
    finish_fill();
  }
  return {codegree_.data(), size_};
}

bool StreamEventBlock::start_chase(std::size_t rows) {
  const std::size_t threads = default_thread_count();
  if (threads < 2) return false;
  const bool codegree = chase_graph_ == fill_graph_;
  folding_ = false;
  bool codegree_readers = false;
  for (Follower& f : followers_) {
    // A follower's derived columns must be the fill's: its graph's.
    f.folded = f.sink->reads_ == 0 || (f.sink->reads_graph_ == fill_graph_ &&
                                       (codegree || !f.codegree));
    f.rows = 0;
    folding_ = folding_ || f.folded;
    codegree_readers = codegree_readers || (f.folded && f.codegree);
  }
  if (!codegree && !folding_) return false;
  codegree_fill_ = codegree;
  if (codegree) codegree_graph_ = fill_graph_;
  if (codegree_readers && !chunk_done_) {
    chunk_done_ = std::make_unique<std::atomic<std::uint64_t>[]>(
        cap_ / kCodegreeChunkRows + 1);
  }
  if (open_fill(0, rows, false, codegree ? threads - 1 : 1)) return true;
  for (Follower& f : followers_) f.folded = false;
  return false;
}

bool StreamEventBlock::open_fill(std::size_t first, std::size_t last,
                                 bool sealed, std::size_t workers) const {
  if (codegree_fill_ && codegree_.size() < last) codegree_.resize(last);
  fill_base_ = first;
  fill_end_ = size_;
  ++fill_seq_;
  next_chunk_.store(0, std::memory_order_relaxed);
  published_.store(sealed ? size_ : first, std::memory_order_relaxed);
  sealed_.store(sealed, std::memory_order_relaxed);
  stopped_.store(false, std::memory_order_relaxed);
  // The pool posts the job under its lock, which orders every store above
  // before the workers' first read.
  chasing_ = start_background(workers, workers_);
  return chasing_;
}

void StreamEventBlock::finish_fill() const {
  if (codegree_fill_) fill_chunks();
  if (chasing_) {
    chasing_ = false;
    join_background();
  }
  if (codegree_fill_) codegree_rows_ = fill_end_;
}

void StreamEventBlock::stop_chase() const noexcept {
  stopped_.store(true, std::memory_order_relaxed);
  // Past every chunk: a worker's next claim ends its loop. Far below
  // SIZE_MAX, so the claims after it cannot wrap.
  next_chunk_.store(std::numeric_limits<std::size_t>::max() /
                        (2 * kCodegreeChunkRows),
                    std::memory_order_relaxed);
  if (!sealed_.load(std::memory_order_relaxed)) seal();
  chasing_ = false;
  join_background();  // the workers' bodies cannot throw, so neither can this
}

std::size_t StreamEventBlock::await_rows(std::size_t begin) const noexcept {
  for (unsigned spins = 0;; ++spins) {
    // sealed_ first: once it is seen, published_ is the fill's end.
    const bool sealed = sealed_.load(std::memory_order_acquire);
    const std::size_t published = published_.load(std::memory_order_acquire);
    if (sealed || published >= begin + kCodegreeChunkRows) return published;
    backoff(spins);
  }
}

bool StreamEventBlock::fill_next_chunk(const BlockRows& rows,
                                       std::uint32_t* out) const noexcept {
  const std::size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t begin = fill_base_ + kCodegreeChunkRows * c;
  const std::size_t published = await_rows(begin);
  const std::size_t end = std::min(begin + kCodegreeChunkRows, published);
  if (begin >= end) return false;
  fill_codegree(rows, out, begin, end, published);
  if (chunk_done_) chunk_done_[c].store(fill_seq_, std::memory_order_release);
  return true;
}

void StreamEventBlock::fill_chunks() const noexcept {
  const BlockRows rows = this->rows();
  std::uint32_t* const out = codegree_.data();
  while (fill_next_chunk(rows, out)) {
  }
}

bool StreamEventBlock::await_codegree(std::size_t c, const BlockRows& rows,
                                      std::uint32_t* out) const noexcept {
  const std::uint64_t seq = fill_seq_;
  for (unsigned spins = 0;
       chunk_done_[c].load(std::memory_order_acquire) != seq; ++spins) {
    if (stopped_.load(std::memory_order_relaxed)) return false;
    if (next_chunk_.load(std::memory_order_relaxed) <= c) {
      fill_next_chunk(rows, out);  // no worker has claimed chunk c yet
    } else {
      backoff(spins);
    }
  }
  return true;
}

void StreamEventBlock::fold_chunks() const noexcept {
  std::uint32_t* const pick = pick_.get();
  std::uint32_t* const out = codegree_.data();
  BlockRows rows = this->rows();
  rows.pick = pick;
  rows.codegree = out;
  const Graph& g = *fill_graph_;
  const std::span<Follower> followers(followers_);
  bool picks = false;
  bool codegree = false;
  for (const Follower& f : followers) {
    picks = picks || (f.folded && f.pick);
    codegree = codegree || (f.folded && f.codegree);
  }
  const auto fold = [&](bool codegree_readers, std::size_t begin,
                        std::size_t end) {
    for (Follower& f : followers) {
      if (!f.folded || f.codegree != codegree_readers || f.error) continue;
      try {
        f.sink->fold_rows(rows, begin, end);
        f.rows = end;
      } catch (...) {
        f.error = std::current_exception();
      }
    }
  };
  for (std::size_t c = 0;; ++c) {
    const std::size_t begin = kCodegreeChunkRows * c;
    const std::size_t end =
        std::min(begin + kCodegreeChunkRows, await_rows(begin));
    if (begin >= end || stopped_.load(std::memory_order_relaxed)) return;
    if (picks) {
      // Cursors push every edge row's pick; locate any that is missing.
      for (std::size_t i = begin; i < end; ++i) {
        if ((rows.flags[i] & (kHasEdge | kPicked)) == kHasEdge) {
          pick[i] = g.neighbor_index(rows.u[i], rows.v[i]);
        }
      }
    }
    fold(false, begin, end);
    if (codegree) {
      if (!await_codegree(c, rows, out)) return;
      fold(true, begin, end);
    }
  }
}

void StreamEventBlock::fill_codegree(const BlockRows& rows, std::uint32_t* out,
                                     std::size_t begin, std::size_t end,
                                     std::size_t limit) const noexcept {
  const Graph& g = *codegree_graph_;
  const std::uint8_t* const flags = rows.flags;
  const VertexId* const u = rows.u;
  const VertexId* const v = rows.v;
  // Prefetch the adjacency of the edge row kAhead rows on: the
  // intersection of row i then overlaps the memory latency of row
  // i + kAhead.
  constexpr std::size_t kAhead = 8;
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t j = i + kAhead;
    if (j < limit && (flags[j] & kHasEdge)) {
      g.prefetch_neighbors(u[j]);
      g.prefetch_neighbors(v[j]);
    }
    if (flags[i] & kHasEdge) out[i] = shared_neighbors(g, u[i], v[i]);
  }
}

// ---------------------------------------------------------------- followers

StreamEventBlock::Follower* StreamEventBlock::find_follower(
    const EstimatorSink& sink) const {
  for (Follower& f : followers_) {
    if (f.sink == &sink) return &f;
  }
  return nullptr;
}

bool StreamEventBlock::owed_by(const EstimatorSink& sink) const {
  const Follower* const f = find_follower(sink);
  return f != nullptr && f->folded && size_ > 0;
}

std::size_t StreamEventBlock::take_fold(const EstimatorSink& sink) const {
  if (sink.leader_ != this) return 0;
  Follower* const f = find_follower(sink);
  if (f == nullptr || !f->folded) return 0;
  if (chasing_) finish_fill();
  f->folded = false;
  if (f->error) std::rethrow_exception(std::exchange(f->error, nullptr));
  return f->rows;
}

void StreamEventBlock::follow(EstimatorSink& sink) const {
  if (sink.leader_ != nullptr && sink.leader_->owed_by(sink)) {
    throw std::logic_error(
        "EstimatorSink: ingested another block before the chased fill "
        "folded into it");
  }
  if (fill_graph_ == nullptr) return;  // not a cursor fill
  if ((sink.reads_ != 0) && sink.reads_graph_ != fill_graph_) return;
  if (sink.leader_ != nullptr) sink.leader_->unfollow(sink);
  // The workers read followers_.
  if (chasing_) finish_fill();
  followers_.push_back(
      {&sink, (sink.reads_ & EstimatorSink::kReadsCodegree) != 0,
       (sink.reads_ & EstimatorSink::kReadsPick) != 0, false, 0, nullptr});
  sink.leader_ = this;
}

void StreamEventBlock::unfollow(const EstimatorSink& sink) const noexcept {
  // The workers read followers_ and may be folding into `sink`.
  if (chasing_) stop_chase();
  std::erase_if(followers_,
                [&](const Follower& f) { return f.sink == &sink; });
  sink.leader_ = nullptr;
}

std::span<const std::uint32_t> StreamEventBlock::pick(const Graph& g) const {
  // The fold worker reads the pushed picks.
  if (chasing_) finish_fill();
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
