// Thread-count resolution and data-parallel building blocks shared by the
// graph ingestion path (parallel edge-list parsing, CSR construction) and
// the experiment ReplicationRunner. Header-only: every helper degrades to the
// sequential algorithm when one worker is resolved, so results never depend
// on the thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
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

/// Runs body(worker, begin, end) over a static block partition of
/// [0, total) on `workers` threads. Blocks are contiguous and in worker
/// order, so per-worker outputs can be concatenated deterministically.
/// An exception thrown by any worker is rethrown here (the lowest worker's
/// wins), matching the sequential path instead of std::terminate.
template <typename Body>
void parallel_for_ranges(std::size_t total, std::size_t workers,
                         const Body& body) {
  workers = std::max<std::size_t>(1, std::min(workers, total));
  if (workers == 1) {
    body(std::size_t{0}, std::size_t{0}, total);
    return;
  }
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t begin = total * w / workers;
    const std::size_t end = total * (w + 1) / workers;
    pool.emplace_back([&body, &errors, w, begin, end] {
      try {
        body(w, begin, end);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (auto& t : pool) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Sorts [first, last) with `comp` using block sort + pairwise merges.
/// `threads` resolves like resolve_threads; small inputs fall back to
/// std::sort. Equivalent elements may land in any order (not stable),
/// exactly like std::sort.
template <typename It, typename Comp>
void parallel_sort(It first, It last, Comp comp, std::size_t threads = 0) {
  const auto n = static_cast<std::size_t>(std::distance(first, last));
  // Below ~64k elements thread startup dominates; just sort in place.
  constexpr std::size_t kMinPerWorker = std::size_t{1} << 16;
  std::size_t workers = std::min(resolve_threads(threads),
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
