// MetricsRegistry — process-wide runtime telemetry counters.
//
// Three metric kinds, all registered by name (registration is idempotent,
// so instrumentation sites can look handles up lazily):
//   * counters   — monotonic uint64, saturating at UINT64_MAX,
//   * gauges     — last-write-wins doubles (queue depths, frontier sizes),
//   * histograms — log2-bucketed uint64 distributions (latencies in ns,
//                  sizes in bytes): bucket 0 holds the value 0, bucket
//                  b >= 1 holds [2^(b-1), 2^b - 1], plus saturating
//                  sum and exact min/max.
//
// Counter and histogram cells are sharded per thread: each thread owns a
// block of uint64 cells that only it writes, so a hot-path increment is a
// relaxed load + relaxed store of a thread-local cell — no contended
// atomics, no locks, no fences. snapshot() merges the shards (sum for
// counters/buckets, min/max for the extrema) under the registry mutex.
//
// The registry observes; it never participates. Nothing in this module
// draws random numbers or touches estimator state, so metrics-on and
// metrics-off crawls are bit-identical by construction (enforced by
// tests/test_obs_determinism.cpp and the CI checkpoint-compare gate).
//
// Handles are trivially copyable POD-ish values. A default-constructed
// handle is inert: every operation on it is a no-op, which is how
// instrumented code paths compile to nearly nothing when telemetry is
// disabled.
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace frontier {

class MetricsRegistry;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Merged (cross-shard) state of one histogram at snapshot time.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;  ///< saturating; UINT64_MAX means "at least"
  std::uint64_t min = 0;  ///< meaningful iff count > 0
  std::uint64_t max = 0;  ///< meaningful iff count > 0
  /// Sparse non-zero buckets, ascending by index (0..64).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// One merged view of every registered metric, in registration order.
/// Pure data — the schema-v1 JSONL rendering lives in obs/snapshot.hpp.
struct MetricsSnapshot {
  static constexpr int kSchemaVersion = 1;

  std::uint64_t seq = 0;          ///< exporter-assigned line number
  double elapsed_seconds = 0.0;   ///< since the exporter started
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t minor_page_faults = 0;
  std::uint64_t major_page_faults = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

/// Log2 bucket of a value: bit_width(v), i.e. 0 -> 0, 1 -> 1, [2,3] -> 2,
/// [4,7] -> 3, ..., [2^63, 2^64-1] -> 64.
[[nodiscard]] constexpr std::uint32_t histogram_bucket(
    std::uint64_t value) noexcept {
  return static_cast<std::uint32_t>(std::bit_width(value));
}

/// Inclusive [lo, hi] range of values a bucket covers.
[[nodiscard]] constexpr std::pair<std::uint64_t, std::uint64_t>
histogram_bucket_range(std::uint32_t bucket) noexcept {
  if (bucket == 0) return {0, 0};
  const std::uint64_t lo = std::uint64_t{1} << (bucket - 1);
  const std::uint64_t hi =
      bucket >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bucket) - 1;
  return {lo, hi};
}

/// Monotonic counter handle. Default-constructed handles are inert.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) const noexcept;
  [[nodiscard]] bool active() const noexcept { return registry_ != nullptr; }

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* registry, std::uint32_t cell)
      : registry_(registry), cell_(cell) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t cell_ = 0;
};

/// Last-write-wins gauge handle.
class Gauge {
 public:
  Gauge() = default;
  void set(double value) const noexcept;
  [[nodiscard]] bool active() const noexcept { return registry_ != nullptr; }

 private:
  friend class MetricsRegistry;
  Gauge(MetricsRegistry* registry, std::uint32_t slot)
      : registry_(registry), slot_(slot) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Log2-bucket histogram handle.
class Histogram {
 public:
  Histogram() = default;
  void observe(std::uint64_t value) const noexcept;
  [[nodiscard]] bool active() const noexcept { return registry_ != nullptr; }

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* registry, std::uint32_t cell)
      : registry_(registry), cell_(cell) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t cell_ = 0;
};

/// Steady-clock nanoseconds since `start`, clamped at 0.
[[nodiscard]] inline std::uint64_t elapsed_ns(
    std::chrono::steady_clock::time_point start) noexcept {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
}

/// RAII timer: records the scope's wall duration in nanoseconds into a
/// histogram at destruction. Inert (no clock calls) when the histogram is.
class ScopeTimer {
 public:
  explicit ScopeTimer(Histogram h) noexcept : h_(h) {
    if (h_.active()) start_ = std::chrono::steady_clock::now();
  }
  ~ScopeTimer() {
    if (h_.active()) h_.observe(elapsed_ns(start_));
  }
  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

 private:
  Histogram h_;
  std::chrono::steady_clock::time_point start_;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or looks up) a metric. Idempotent per name; re-registering
  /// a name under a different kind throws std::invalid_argument, as do
  /// empty names and names with characters outside printable ASCII minus
  /// '"' and '\'.
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Gauge gauge(std::string_view name);
  [[nodiscard]] Histogram histogram(std::string_view name);

  /// Merged view of every registered metric, in registration order. Safe
  /// to call concurrently with hot-path updates (which are relaxed, so a
  /// snapshot is a consistent-enough instant, not a linearization point).
  /// seq/elapsed/process fields are left zero — the exporter stamps them.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  [[nodiscard]] std::size_t num_metrics() const;

  /// The process-wide registry used by library seams (graph loading,
  /// replication) when metrics_enabled() is on.
  [[nodiscard]] static MetricsRegistry& global();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  // Cell space: chunked so a shard can grow lock-free while a snapshot
  // walks it (chunk pointers are acquire/release, cells relaxed).
  static constexpr std::size_t kChunkBits = 9;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kMaxChunks = 128;  // 65536 cells
  static constexpr std::size_t kMaxGauges = 1024;

  // Histogram cell layout: 65 buckets, then saturating sum, then ~min
  // (bitwise NOT, so the zero-initialized cell is the neutral element),
  // then max.
  static constexpr std::size_t kNumBuckets = 65;
  static constexpr std::size_t kSumOffset = kNumBuckets;
  static constexpr std::size_t kNotMinOffset = kNumBuckets + 1;
  static constexpr std::size_t kMaxOffset = kNumBuckets + 2;
  static constexpr std::size_t kHistogramCells = kNumBuckets + 3;

  struct Shard;
  struct MetricDef {
    std::string name;
    MetricKind kind;
    std::uint32_t slot;  // first cell index; gauge: index into gauges_
  };

  [[nodiscard]] Shard& local_shard();
  [[nodiscard]] std::uint32_t register_metric(std::string_view name,
                                              MetricKind kind,
                                              std::size_t cells);

  mutable std::mutex mu_;
  std::vector<MetricDef> defs_;
  std::size_t cell_count_ = 0;
  std::size_t gauge_count_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<std::atomic<double>[]> gauges_;
  std::uint64_t instance_id_;  // distinguishes reused addresses in TL cache
};

/// Process-wide telemetry switch, off by default. Library seams that
/// instrument themselves (graph loading, the replication pool) check this
/// with one relaxed atomic load before touching the global registry.
[[nodiscard]] bool metrics_enabled() noexcept;
void set_metrics_enabled(bool enabled) noexcept;

}  // namespace frontier
