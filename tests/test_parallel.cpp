// parallel_for_ranges and the process-wide pool behind it: the static
// contiguous partition for 1, 2 and 8 workers, the caller running
// partition 0, the lowest worker's exception rethrown after every
// partition ran, nested calls and concurrent callers run inline with the
// same partitions, and the pool's threads reused across calls (slot w on
// the same thread every time, so thread_local state survives the call).
// A background job runs its slots on the pool's threads, not the
// caller's, owns the pool until it is joined, hands its lowest error to
// the join, and is not started from inside a call.
#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace frontier {
namespace {

struct Partition {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::thread::id thread;
  int calls = 0;
};

/// Runs one call and records what each worker slot was handed.
std::vector<Partition> partitions_of(std::size_t total, std::size_t workers) {
  std::vector<Partition> seen(std::max<std::size_t>(workers, 1));
  parallel_for_ranges(total, workers,
                      [&](std::size_t w, std::size_t begin, std::size_t end) {
                        seen[w].begin = begin;
                        seen[w].end = end;
                        seen[w].thread = std::this_thread::get_id();
                        ++seen[w].calls;
                      });
  return seen;
}

TEST(ParallelForRanges, StaticContiguousPartition) {
  for (const std::size_t workers : {1, 2, 8}) {
    SCOPED_TRACE(workers);
    const std::size_t total = 1000;
    const std::vector<Partition> seen = partitions_of(total, workers);
    std::set<std::thread::id> threads;
    for (std::size_t w = 0; w < workers; ++w) {
      EXPECT_EQ(seen[w].calls, 1);
      EXPECT_EQ(seen[w].begin, total * w / workers);
      EXPECT_EQ(seen[w].end, total * (w + 1) / workers);
      threads.insert(seen[w].thread);
    }
    // The caller runs partition 0; every other slot has a thread of its
    // own.
    EXPECT_EQ(seen[0].thread, std::this_thread::get_id());
    EXPECT_EQ(threads.size(), workers);
  }
}

TEST(ParallelForRanges, WorkersCappedAtTotal) {
  // Three items on eight workers: three partitions of one item each.
  const std::vector<Partition> seen = partitions_of(3, 8);
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_EQ(seen[w].calls, 1);
    EXPECT_EQ(seen[w].end - seen[w].begin, 1u);
  }
  for (std::size_t w = 3; w < 8; ++w) EXPECT_EQ(seen[w].calls, 0);
  // Nothing to do still calls the body once, inline, with an empty range.
  const std::vector<Partition> none = partitions_of(0, 4);
  EXPECT_EQ(none[0].calls, 1);
  EXPECT_EQ(none[0].begin, none[0].end);
  EXPECT_EQ(none[0].thread, std::this_thread::get_id());
}

TEST(ParallelForRanges, LowestWorkersExceptionIsRethrownAfterAllRan) {
  std::vector<std::atomic<int>> ran(4);
  try {
    parallel_for_ranges(4, 4, [&](std::size_t w, std::size_t, std::size_t) {
      ran[w].store(1);
      if (w == 1 || w == 3) {
        throw std::runtime_error("worker " + std::to_string(w));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "worker 1");
  }
  for (const std::atomic<int>& r : ran) EXPECT_EQ(r.load(), 1);
  // The pool is released after a throwing call and serves the next one.
  const std::vector<Partition> seen = partitions_of(4, 4);
  for (const Partition& p : seen) EXPECT_EQ(p.calls, 1);
}

TEST(ParallelForRanges, NestedCallsRunInlineOnTheirWorker) {
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 3;
  std::vector<std::vector<Partition>> inner(kOuter);
  std::vector<std::thread::id> outer(kOuter);
  parallel_for_ranges(kOuter, kOuter,
                      [&](std::size_t w, std::size_t, std::size_t) {
                        outer[w] = std::this_thread::get_id();
                        inner[w] = partitions_of(30, kInner);
                      });
  for (std::size_t w = 0; w < kOuter; ++w) {
    for (std::size_t i = 0; i < kInner; ++i) {
      EXPECT_EQ(inner[w][i].calls, 1);
      EXPECT_EQ(inner[w][i].begin, 30 * i / kInner);
      EXPECT_EQ(inner[w][i].end, 30 * (i + 1) / kInner);
      EXPECT_EQ(inner[w][i].thread, outer[w]) << "outer " << w;
    }
  }
  // A nested throw still reaches the outer call as the lowest one.
  EXPECT_THROW(parallel_for_ranges(
                   2, 2,
                   [](std::size_t, std::size_t, std::size_t) {
                     parallel_for_ranges(
                         2, 2, [](std::size_t w, std::size_t, std::size_t) {
                           if (w == 1) throw std::logic_error("inner");
                         });
                   }),
               std::logic_error);
}

TEST(ParallelForRanges, ConcurrentCallersGetTheSerialResult) {
  constexpr std::size_t kTotal = 1 << 14;
  constexpr std::size_t kCallers = 4;
  constexpr int kRounds = 25;
  // Per-partition sums of i * i, concatenated in worker order.
  const auto sums = [] {
    std::vector<std::uint64_t> out(4);
    parallel_for_ranges(kTotal, 4,
                        [&](std::size_t w, std::size_t begin,
                            std::size_t end) {
                          std::uint64_t s = 0;
                          for (std::size_t i = begin; i < end; ++i) {
                            s += i * i;
                          }
                          out[w] = s;
                        });
    return out;
  };
  const std::vector<std::uint64_t> want = sums();
  std::vector<std::vector<std::vector<std::uint64_t>>> got(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) got[c].push_back(sums());
    });
  }
  for (std::thread& t : callers) t.join();
  for (const auto& rounds : got) {
    ASSERT_EQ(rounds.size(), static_cast<std::size_t>(kRounds));
    for (const auto& s : rounds) EXPECT_EQ(s, want);
  }
}

TEST(ParallelForRanges, PoolThreadsAreReusedAcrossCalls) {
  constexpr std::size_t kWorkers = 4;
  constexpr int kCalls = 100;
  // Counts the calls each thread ran a partition of; a thread started
  // for one call only would count 1.
  thread_local int calls_on_thread = 0;
  std::mutex mu;
  std::set<std::thread::id> threads;
  std::vector<int> last_count(kWorkers, 0);
  for (int c = 0; c < kCalls; ++c) {
    parallel_for_ranges(kWorkers, kWorkers,
                        [&](std::size_t w, std::size_t, std::size_t) {
                          const int n = ++calls_on_thread;
                          const std::lock_guard lock(mu);
                          threads.insert(std::this_thread::get_id());
                          last_count[w] = n;
                        });
  }
  EXPECT_EQ(threads.size(), kWorkers);
  // Slot w ran on one thread in all 100 calls.
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_GE(last_count[w], kCalls) << "slot " << w;
  }
}

TEST(StartBackground, RunsOnPoolThreadsWhileTheCallerOwnsThePool) {
  constexpr std::size_t kWorkers = 3;
  std::vector<std::thread::id> ran(kWorkers + 1);
  std::vector<int> calls(kWorkers + 1, 0);
  // Holds the workers until the caller has checked the pool is owned.
  std::atomic<bool> go{false};
  const auto body = [&](std::size_t w) {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    ran[w] = std::this_thread::get_id();
    ++calls[w];
  };
  ASSERT_TRUE(start_background(kWorkers, body));
  // While the job runs the caller owns the pool: its calls run inline,
  // and a second background job does not start.
  const std::vector<Partition> inline_call = partitions_of(4, 4);
  for (const Partition& p : inline_call) {
    EXPECT_EQ(p.thread, std::this_thread::get_id());
  }
  const auto never = [](std::size_t) { ADD_FAILURE() << "second job ran"; };
  EXPECT_FALSE(start_background(1, never));
  go.store(true, std::memory_order_release);
  join_background();
  EXPECT_EQ(calls[0], 0);  // the caller runs no slot
  // Slot w ran once, on the pool's thread w, the one a call gives slot w.
  const std::vector<Partition> after = partitions_of(kWorkers + 1,
                                                     kWorkers + 1);
  for (std::size_t w = 1; w <= kWorkers; ++w) {
    EXPECT_EQ(calls[w], 1) << "slot " << w;
    EXPECT_EQ(ran[w], after[w].thread) << "slot " << w;
  }
}

TEST(StartBackground, ErrorsReachJoinAndThePoolIsReleased) {
  const auto body = [](std::size_t w) {
    if (w >= 2) throw std::runtime_error("slot " + std::to_string(w));
  };
  ASSERT_TRUE(start_background(3, body));
  try {
    join_background();
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "slot 2");
  }
  const auto nothing = [](std::size_t) {};
  ASSERT_TRUE(start_background(2, nothing));
  join_background();
  EXPECT_FALSE(start_background(0, nothing));
}

TEST(StartBackground, NotStartedFromInsideACall) {
  std::vector<int> started(2, -1);
  const auto nothing = [](std::size_t) {};
  parallel_for_ranges(2, 2, [&](std::size_t w, std::size_t, std::size_t) {
    started[w] = start_background(1, nothing) ? 1 : 0;
  });
  EXPECT_EQ(started, (std::vector<int>{0, 0}));
}

}  // namespace
}  // namespace frontier
