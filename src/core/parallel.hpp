// Thread-count resolution and data-parallel building blocks shared by the
// graph ingestion path (parallel edge-list parsing, CSR construction), the
// streaming codegree fill and the experiment ReplicationRunner. Every
// helper degrades to the sequential algorithm when one worker is resolved,
// so results never depend on the thread count.
//
// parallel_for_ranges is the only way into the library's one worker pool
// (core/parallel.cpp): a process-wide set of threads started on first use,
// grown to the largest worker count any call asks for, reused by every
// later call and joined at exit. Worker slot w of a call always runs on
// the pool's thread w (the caller is slot 0), so a worker's thread_local
// state lives as long as the pool. One call owns the pool at a time: a
// call made from inside a running call (by the caller's own slot or by a
// worker) or from another thread while the pool is owned runs all its
// partitions inline, in order, on the calling thread. Nesting therefore
// cannot deadlock, and concurrent callers get the same partitions, hence
// the same results, as a serial caller.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <thread>
#include <vector>

namespace frontier {

/// Number of worker threads to use: `requested`, or hardware concurrency
/// when requested == 0 (at least 1).
[[nodiscard]] inline std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1u, hw);
}

/// resolve_threads(env_threads()), i.e. the FS_THREADS knob with 0 or
/// unset meaning hardware concurrency, read once per process (the
/// hardware query reads /sys on every call, too slow for a per-block
/// caller). A malformed FS_THREADS throws std::invalid_argument.
[[nodiscard]] std::size_t default_thread_count();

namespace detail {

/// A parallel_for_ranges body with its type erased: call(body, w, b, e).
struct RangeBody {
  void (*call)(const void* body, std::size_t worker, std::size_t begin,
               std::size_t end);
  const void* body;
};

/// Runs the `workers` >= 2 partitions of [0, total) on the pool, or
/// inline when the pool is owned; rethrows the lowest worker's exception.
void run_partitions(std::size_t total, std::size_t workers, RangeBody body);

}  // namespace detail

/// Runs body(worker, begin, end) over a static block partition of
/// [0, total) on `workers` workers: worker w gets [total*w/workers,
/// total*(w+1)/workers). Blocks are contiguous and in worker order, so
/// per-worker outputs can be concatenated deterministically. workers == 1
/// runs on the caller; otherwise the caller runs partition 0 and the pool
/// the rest (or the caller all of them, inline, as the file comment
/// says). Every partition runs even when one throws; the lowest worker's
/// exception is then rethrown here, matching the sequential path instead
/// of std::terminate.
template <typename Body>
void parallel_for_ranges(std::size_t total, std::size_t workers,
                         const Body& body) {
  workers = std::max<std::size_t>(1, std::min(workers, total));
  if (workers == 1) {
    body(std::size_t{0}, std::size_t{0}, total);
    return;
  }
  detail::run_partitions(
      total, workers,
      {[](const void* b, std::size_t w, std::size_t begin, std::size_t end) {
         (*static_cast<const Body*>(b))(w, begin, end);
       },
       &body});
}

/// Sorts [first, last) with `comp` using block sort + pairwise merges.
/// `threads` bounds the workers, 0 meaning default_thread_count() (the
/// FS_THREADS knob; std::invalid_argument if it is malformed); small
/// inputs fall back to std::sort. Equivalent elements may land in any
/// order (not stable), exactly like std::sort.
template <typename It, typename Comp>
void parallel_sort(It first, It last, Comp comp, std::size_t threads = 0) {
  const auto n = static_cast<std::size_t>(std::distance(first, last));
  // Below ~64k elements a worker's share is too small to pay its wake-up;
  // just sort in place.
  constexpr std::size_t kMinPerWorker = std::size_t{1} << 16;
  std::size_t workers =
      std::min(threads == 0 ? default_thread_count() : threads,
               std::max<std::size_t>(n / kMinPerWorker, 1));
  if (workers <= 1) {
    std::sort(first, last, comp);
    return;
  }

  std::vector<std::size_t> bounds(workers + 1);
  for (std::size_t w = 0; w <= workers; ++w) bounds[w] = n * w / workers;

  parallel_for_ranges(workers, workers,
                      [&](std::size_t, std::size_t wb, std::size_t we) {
                        for (std::size_t w = wb; w < we; ++w) {
                          std::sort(first + bounds[w], first + bounds[w + 1],
                                    comp);
                        }
                      });

  // log2(workers) rounds of pairwise in-place merges, each round parallel
  // over the disjoint merge pairs.
  for (std::size_t width = 1; width < workers; width *= 2) {
    std::vector<std::size_t> lefts;
    for (std::size_t i = 0; i + width < workers; i += 2 * width) {
      lefts.push_back(i);
    }
    parallel_for_ranges(lefts.size(), lefts.size(),
                        [&](std::size_t, std::size_t pb, std::size_t pe) {
                          for (std::size_t p = pb; p < pe; ++p) {
                            const std::size_t i = lefts[p];
                            const std::size_t mid = i + width;
                            const std::size_t right =
                                std::min(i + 2 * width, workers);
                            std::inplace_merge(first + bounds[i],
                                               first + bounds[mid],
                                               first + bounds[right], comp);
                          }
                        });
  }
}

}  // namespace frontier
