// Parallel replication engine for Monte-Carlo experiments.
//
// Every figure and table of the paper is an average over many independent
// replications. ReplicationRunner fans those replications across worker
// threads with run r always drawing from the RNG substream
// Rng(seed).split_stream(r), and materializes per-run results in run-index
// slots that are reduced in run order after the pool drains. Scheduling is
// therefore free to be dynamic (an atomic work queue balances uneven run
// costs), while the output — including every floating-point rounding — is
// bit-identical for any thread count, which tests/test_replication_runner
// asserts and CI diffs across 1- vs 8-thread bench reports.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "random/rng.hpp"
#include "sampling/walk.hpp"

namespace frontier {

class ReplicationRunner {
 public:
  /// `threads` resolves like resolve_threads(); the worker count is also
  /// capped at the run count so tiny experiments never wake idle workers.
  ReplicationRunner(std::size_t runs, std::uint64_t seed,
                    std::size_t threads = 0)
      : runs_(runs),
        seed_(seed),
        workers_(std::min(resolve_threads(threads),
                          std::max<std::size_t>(runs, 1))) {}

  [[nodiscard]] std::size_t runs() const noexcept { return runs_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }

  /// Runs body(run_index, rng[, arena]) -> R for every run and applies
  /// fold(acc, std::move(result_r)) for r = 0, 1, ..., runs-1 regardless
  /// of how the runs were scheduled, so the reduction is bit-identical for
  /// any thread count. The 3-argument body receives its worker slot's
  /// SampleArena: one arena per worker slot, built once per call and
  /// handed to slot w in every chunk, so a body that drains samplers
  /// through run_into() allocates nothing after its first run. The arena
  /// carries *scratch*, never results: runs scheduled onto the same slot
  /// must not communicate through it. Runs are processed in fixed-size
  /// chunks (kReduceChunk — a constant, so the fold order never depends
  /// on the thread count), each dispatched on the process-wide pool of
  /// parallel_for_ranges, where worker slot w is the same thread in every
  /// chunk and every call, so thread_local state (ingest_sample's event
  /// block, the intersection kernel's marks) lives as long as the pool
  /// and is built once per thread. Each chunk's slots are released after
  /// folding: transient memory is O(chunk * result), not O(runs * result).
  template <typename Acc, typename Body, typename Fold>
  [[nodiscard]] Acc map_reduce(Acc init, const Body& body,
                               const Fold& fold) const {
    using R = body_result_t<Body>;
    Acc acc = std::move(init);
    std::vector<std::optional<R>> slots(std::min(runs_, kReduceChunk));
    std::vector<SampleArena> arenas(workers_);
    for (std::size_t base = 0; base < runs_; base += kReduceChunk) {
      const std::size_t count = std::min(kReduceChunk, runs_ - base);
      dispatch_range(base, base + count, arenas,
                     [&](std::size_t r, Rng& rng, SampleArena& arena) {
                       slots[r - base].emplace(
                           invoke_body(body, r, rng, arena));
                     });
      for (std::size_t i = 0; i < count; ++i) {
        fold(acc, std::move(*slots[i]));
        slots[i].reset();
      }
    }
    return acc;
  }

 private:
  /// Chunk granularity of map_reduce: large enough that the per-chunk
  /// barrier is noise next to the Monte-Carlo work, small enough that a
  /// chunk of per-run estimates stays a few MB.
  static constexpr std::size_t kReduceChunk = 256;

  /// Invokes 2-arg (run, rng) and 3-arg (run, rng, arena) bodies alike.
  template <typename Body>
  static decltype(auto) invoke_body(const Body& body, std::size_t r,
                                    Rng& rng, SampleArena& arena) {
    if constexpr (std::is_invocable_v<const Body&, std::size_t, Rng&,
                                      SampleArena&>) {
      return body(r, rng, arena);
    } else {
      return body(r, rng);
    }
  }

  template <typename Body>
  using body_result_t = std::decay_t<decltype(invoke_body(
      std::declval<const Body&>(), std::size_t{}, std::declval<Rng&>(),
      std::declval<SampleArena&>()))>;

  /// Runs [begin, end) on parallel_for_ranges: workers claim run indices
  /// from a shared atomic counter and invoke per_run with that run's
  /// derived generator and arenas[worker slot]. An exception thrown by
  /// any run stops further claims and is rethrown here (the lowest
  /// worker's wins) after the pool drains.
  void dispatch_range(
      std::size_t begin, std::size_t end, std::span<SampleArena> arenas,
      const std::function<void(std::size_t, Rng&, SampleArena&)>& per_run)
      const;

  std::size_t runs_;
  std::uint64_t seed_;
  std::size_t workers_;
};

}  // namespace frontier
