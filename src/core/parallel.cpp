#include "core/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
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
/// job with more than w partitions and is woken for those jobs only; the
/// owner of a call runs partition 0 and waits for the rest, the owner of
/// a background job runs none of it. Built on first use, joined by its
/// destructor.
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
    for (const std::unique_ptr<Slot>& slot : slots_) slot->wake.notify_one();
    for (const std::unique_ptr<Slot>& slot : slots_) slot->thread.join();
  }

  /// Claims the pool for one job; false while another job owns it.
  [[nodiscard]] bool try_claim() noexcept {
    return !owned_.exchange(true, std::memory_order_acq_rel);
  }

  void release() noexcept { owned_.store(false, std::memory_order_release); }

  /// Posts partitions 1..width-1 of a claimed job over [0, total) to
  /// threads 1..width-1, starting any that do not exist yet, and wakes
  /// those threads only.
  void post(std::size_t total, std::size_t width, const RangeBody& body) {
    {
      const std::lock_guard lock(mu_);
      slots_.reserve(width - 1);
      while (slots_.size() + 1 < width) {
        auto slot = std::make_unique<Slot>();
        slot->thread = std::thread(
            [this, s = slot.get(), w = slots_.size() + 1] { work(*s, w); });
        slots_.push_back(std::move(slot));
      }
      errors_.assign(width, nullptr);
      job_ = Job{total, width, body};
      pending_ = width - 1;
      for (std::size_t w = 1; w < width; ++w) slots_[w - 1]->posted = true;
    }
    // Only the owner grows slots_, so it reads it here without the lock.
    for (std::size_t w = 1; w < width; ++w) slots_[w - 1]->wake.notify_one();
  }

  /// Waits for the posted partitions, releases the claim and rethrows the
  /// lowest partition's exception (errors_[0] holds the owner's, if any).
  void wait() {
    struct Release {
      Pool& pool;
      ~Release() { pool.release(); }
    } release{*this};
    {
      std::unique_lock lock(mu_);
      done_.wait(lock, [this] { return pending_ == 0; });
    }
    if (const std::exception_ptr e = take_first(errors_)) {
      std::rethrow_exception(e);
    }
  }

  /// Runs one claimed call, the owner taking partition 0, and releases
  /// the claim.
  void run(std::size_t total, std::size_t workers, const RangeBody& body) {
    try {
      post(total, workers, body);
    } catch (...) {
      release();
      throw;
    }
    errors_[0] = run_one(total, workers, 0, body);
    wait();
  }

 private:
  struct Job {
    std::size_t total = 0;
    std::size_t width = 0;
    RangeBody body{};
  };

  /// One pool thread and its wake-up.
  struct Slot {
    std::condition_variable wake;  // posted, or stop_
    bool posted = false;           // guarded by mu_
    std::thread thread;
  };

  void work(Slot& slot, std::size_t w) {
    std::unique_lock lock(mu_);
    for (;;) {
      slot.wake.wait(lock, [&] { return stop_ || slot.posted; });
      if (stop_) return;
      slot.posted = false;
      const Job job = job_;
      lock.unlock();
      // errors_ is sized before the job is posted and read only after
      // pending_ drops to zero, so each slot is this thread's alone.
      errors_[w] = run_one(job.total, job.width, w, job.body);
      lock.lock();
      if (--pending_ == 0) done_.notify_one();
    }
  }

  std::atomic<bool> owned_{false};
  // Guarded by mu_, except errors_[w], which only slot w's thread writes
  // while a job runs.
  std::mutex mu_;
  std::condition_variable done_;  // pending_ reached zero
  std::vector<std::exception_ptr> errors_;
  Job job_;
  std::size_t pending_ = 0;
  bool stop_ = false;
  // Last, after everything the threads use; slots_[w - 1] is thread w.
  std::vector<std::unique_ptr<Slot>> slots_;
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

bool start_background(std::size_t workers, RangeBody body) {
  Pool& pool = Pool::instance();
  if (workers == 0 || !pool.try_claim()) return false;
  try {
    pool.post(workers + 1, workers + 1, body);
  } catch (...) {
    pool.release();
    throw;
  }
  return true;
}

}  // namespace detail

void join_background() { detail::Pool::instance().wait(); }

}  // namespace frontier
