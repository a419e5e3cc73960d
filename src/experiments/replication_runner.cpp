#include "experiments/replication_runner.hpp"

#include <atomic>
#include <chrono>

#include "obs/metrics.hpp"

namespace frontier {
namespace {

using Clock = std::chrono::steady_clock;

/// Pool telemetry for one dispatch_range call: live handles when metrics
/// are on, inert ones (every store a no-op, no clock read) when off.
/// Handles are value types, so each worker times its own runs without
/// touching shared state (the cells are per-thread shards).
struct PoolMetrics {
  Counter runs_total;
  Counter busy_ns_total;
  Gauge workers;
  Gauge queue_depth;
  Histogram run_ns;
  Histogram dispatch_ns;

  static PoolMetrics make() {
    if (!metrics_enabled()) return {};
    MetricsRegistry& reg = MetricsRegistry::global();
    return PoolMetrics{reg.counter("replication.runs_total"),
                       reg.counter("replication.busy_ns_total"),
                       reg.gauge("replication.workers"),
                       reg.gauge("replication.queue_depth"),
                       reg.histogram("replication.run_ns"),
                       reg.histogram("replication.dispatch_ns")};
  }

  [[nodiscard]] bool live() const noexcept { return runs_total.active(); }

  /// The clock, read only when the handles are live.
  [[nodiscard]] Clock::time_point now() const {
    return live() ? Clock::now() : Clock::time_point{};
  }

  void on_run(Clock::time_point start) const {
    if (!live()) return;
    const std::uint64_t ns = elapsed_ns(start);
    run_ns.observe(ns);
    busy_ns_total.add(ns);
    runs_total.add(1);
  }

  void on_dispatch(Clock::time_point start) const {
    if (!live()) return;
    queue_depth.set(0.0);
    dispatch_ns.observe(elapsed_ns(start));
  }
};

}  // namespace

void ReplicationRunner::dispatch_range(
    std::size_t begin, std::size_t end, std::span<SampleArena> arenas,
    const std::function<void(std::size_t, Rng&, SampleArena&)>& per_run)
    const {
  if (begin >= end) return;
  const Rng base(seed_);
  const std::size_t workers = std::min(workers_, end - begin);

  const PoolMetrics metrics = PoolMetrics::make();
  metrics.workers.set(static_cast<double>(workers));
  metrics.queue_depth.set(static_cast<double>(end - begin));
  const auto dispatch_start = metrics.now();

  // Workers claim run indices from a shared counter; the first failure
  // stops further claims, and parallel_for_ranges rethrows it.
  std::atomic<std::size_t> next{begin};
  std::atomic<bool> failed{false};
  parallel_for_ranges(workers, workers, [&](std::size_t w, std::size_t,
                                            std::size_t) {
    try {
      while (!failed.load(std::memory_order_relaxed)) {
        const std::size_t r = next.fetch_add(1, std::memory_order_relaxed);
        if (r >= end) break;
        metrics.queue_depth.set(static_cast<double>(end - r - 1));
        Rng rng = base.split_stream(r);
        const auto run_start = metrics.now();
        per_run(r, rng, arenas[w]);
        metrics.on_run(run_start);
      }
    } catch (...) {
      failed.store(true, std::memory_order_relaxed);
      throw;
    }
  });
  metrics.on_dispatch(dispatch_start);
}

}  // namespace frontier
