#include "experiments/replication_runner.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "obs/metrics.hpp"

namespace frontier {
namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::uint64_t ns_since(Clock::time_point start) noexcept {
  const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - start)
                     .count();
  return d < 0 ? 0 : static_cast<std::uint64_t>(d);
}

/// Pool telemetry, registered once per dispatch_range call when metrics
/// are on. Handles are value types, so each worker times its own runs
/// without touching shared state (the cells are per-thread shards).
struct PoolMetrics {
  Counter runs_total;
  Counter busy_ns_total;
  Gauge workers;
  Gauge queue_depth;
  Histogram run_ns;
  Histogram dispatch_ns;

  static PoolMetrics make() {
    MetricsRegistry& reg = MetricsRegistry::global();
    return PoolMetrics{reg.counter("replication.runs_total"),
                       reg.counter("replication.busy_ns_total"),
                       reg.gauge("replication.workers"),
                       reg.gauge("replication.queue_depth"),
                       reg.histogram("replication.run_ns"),
                       reg.histogram("replication.dispatch_ns")};
  }
};

}  // namespace

void ReplicationRunner::dispatch_range(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, Rng&, SampleArena&)>& per_run)
    const {
  if (begin >= end) return;
  const Rng base(seed_);
  const std::size_t workers = std::min(workers_, end - begin);

  const bool instrumented = metrics_enabled();
  PoolMetrics metrics;
  Clock::time_point dispatch_start{};
  if (instrumented) {
    metrics = PoolMetrics::make();
    metrics.workers.set(static_cast<double>(workers));
    metrics.queue_depth.set(static_cast<double>(end - begin));
    dispatch_start = Clock::now();
  }

  if (workers <= 1) {
    SampleArena arena;  // reused across every run, like a worker's
    for (std::size_t r = begin; r < end; ++r) {
      Rng rng = base.split_stream(r);
      if (instrumented) {
        const auto run_start = Clock::now();
        per_run(r, rng, arena);
        const std::uint64_t ns = ns_since(run_start);
        metrics.run_ns.observe(ns);
        metrics.busy_ns_total.add(ns);
        metrics.runs_total.add(1);
        metrics.queue_depth.set(static_cast<double>(end - r - 1));
      } else {
        per_run(r, rng, arena);
      }
    }
    if (instrumented) metrics.dispatch_ns.observe(ns_since(dispatch_start));
    return;
  }

  std::atomic<std::size_t> next{begin};
  std::atomic<bool> failed{false};
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      try {
        // One arena per worker, constructed on the worker's own thread
        // (first-touch locality) and reused across all its runs.
        SampleArena arena;
        while (!failed.load(std::memory_order_relaxed)) {
          const std::size_t r = next.fetch_add(1, std::memory_order_relaxed);
          if (r >= end) break;
          Rng rng = base.split_stream(r);
          if (instrumented) {
            metrics.queue_depth.set(
                static_cast<double>(r + 1 < end ? end - r - 1 : 0));
            const auto run_start = Clock::now();
            per_run(r, rng, arena);
            const std::uint64_t ns = ns_since(run_start);
            metrics.run_ns.observe(ns);
            metrics.busy_ns_total.add(ns);
            metrics.runs_total.add(1);
          } else {
            per_run(r, rng, arena);
          }
        }
      } catch (...) {
        errors[w] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : pool) t.join();
  if (instrumented) {
    metrics.queue_depth.set(0.0);
    metrics.dispatch_ns.observe(ns_since(dispatch_start));
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace frontier
