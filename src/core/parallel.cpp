#include "core/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>

#include "core/env.hpp"

namespace frontier {

std::size_t default_thread_count() {
  static const std::size_t threads = resolve_threads(env_threads());
  return threads;
}

namespace detail {
namespace {

/// Runs partition w of [0, total) on the calling thread; returns what it
/// threw.
std::exception_ptr run_one(std::size_t total, std::size_t workers,
                           std::size_t w, const RangeBody& body) noexcept {
  try {
    body.call(body.body, w, total * w / workers, total * (w + 1) / workers);
    return nullptr;
  } catch (...) {
    return std::current_exception();
  }
}

/// The lowest non-null entry of errors, or null; empties every entry so
/// no exception outlives its call.
std::exception_ptr take_first(std::vector<std::exception_ptr>& errors) {
  std::exception_ptr first;
  for (std::exception_ptr& e : errors) {
    if (!first) first = e;
    e = nullptr;
  }
  return first;
}

/// The process-wide pool. Thread w (w >= 1) runs partition w of every
/// call with more than w workers; the owning caller runs partition 0 and
/// waits for the rest. Built on first use, joined by its destructor.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      const std::lock_guard lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// Claims the pool for one call; false while another call owns it.
  [[nodiscard]] bool try_claim() noexcept {
    return !owned_.exchange(true, std::memory_order_acq_rel);
  }

  /// Runs one claimed call and releases the claim.
  void run(std::size_t total, std::size_t workers, const RangeBody& body) {
    struct Release {
      std::atomic<bool>& owned;
      ~Release() { owned.store(false, std::memory_order_release); }
    } release{owned_};
    {
      const std::lock_guard lock(mu_);
      while (threads_.size() + 1 < workers) {
        threads_.emplace_back(
            [this, slot = threads_.size() + 1, seen = generation_] {
              work(slot, seen);
            });
      }
      errors_.assign(workers, nullptr);
      job_ = Job{total, workers, body};
      pending_ = workers - 1;
      ++generation_;
    }
    wake_.notify_all();
    errors_[0] = run_one(total, workers, 0, body);
    {
      std::unique_lock lock(mu_);
      done_.wait(lock, [this] { return pending_ == 0; });
    }
    if (const std::exception_ptr e = take_first(errors_)) {
      std::rethrow_exception(e);
    }
  }

 private:
  struct Job {
    std::size_t total = 0;
    std::size_t workers = 0;
    RangeBody body{};
  };

  void work(std::size_t slot, std::uint64_t seen) {
    std::unique_lock lock(mu_);
    for (;;) {
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      if (slot >= job_.workers) continue;
      const Job job = job_;
      lock.unlock();
      // errors_ is sized before the job is posted and read only after
      // pending_ drops to zero, so each slot is this thread's alone.
      errors_[slot] = run_one(job.total, job.workers, slot, job.body);
      lock.lock();
      if (--pending_ == 0) done_.notify_one();
    }
  }

  std::atomic<bool> owned_{false};
  // Guarded by mu_, except errors_[w], which only slot w's thread writes
  // while a job runs.
  std::mutex mu_;
  std::condition_variable wake_;  // a new job, or stop_
  std::condition_variable done_;  // pending_ reached zero
  std::vector<std::exception_ptr> errors_;
  Job job_;
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;
  // Last, after everything the threads use.
  std::vector<std::thread> threads_;
};

}  // namespace

void run_partitions(std::size_t total, std::size_t workers, RangeBody body) {
  Pool& pool = Pool::instance();
  if (pool.try_claim()) {
    pool.run(total, workers, body);
    return;
  }
  std::exception_ptr first;
  for (std::size_t w = 0; w < workers; ++w) {
    std::exception_ptr e = run_one(total, workers, w, body);
    if (!first) first = std::move(e);
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace detail
}  // namespace frontier
