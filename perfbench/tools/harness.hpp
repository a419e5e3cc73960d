// Shared plumbing of the perfbench driver: the command line, the result
// line, order statistics, and the span log the traced runs record.
//
// Every workload (crawl.cpp, serve.cpp, replicate.cpp) fills one Report
// and returns it; perfbench.cpp prints Report::result_line() as the last
// line of standard output. The span log is the benchmark's tracing: spans
// are opened and closed by the driver around its own calls into the
// library's public functions, kept in memory, and written out once when
// the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (steady_clock); only differences are meaningful.
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double seconds_since(std::uint64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

struct Options {
  std::string workload;  ///< crawl | serve | replicate
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed window
  bool trace = false;
  std::string inputs;     ///< directory written by `perfbench prep`
  std::string run_dir;    ///< scratch: spool, checkpoints, spans
  std::string serve_bin;  ///< the frontier_serve executable
  unsigned threads = 1;   ///< worker cap (nproc)
};

/// The prepared input files of one seed (see `perfbench prep`).
struct Inputs {
  std::string ba_txt;   ///< Barabási–Albert graph, text edge list
  std::string ba_bin;   ///< the same graph as a v2 snapshot
  std::string gab_txt;  ///< the paper's G_AB, text edge list
};

[[nodiscard]] Inputs inputs_in(const std::string& dir);

/// Accumulates one run's metrics and operation counts.
class Report {
 public:
  void metric(std::string name, double value, std::string unit);
  void attempted(std::uint64_t n = 1) { attempted_ += n; }
  /// Counts one failed operation and says why on stderr.
  void fail(const std::string& what);
  /// Checks `ok`; a false check counts as one failed operation.
  void check(bool ok, const std::string& what);

  [[nodiscard]] bool correct() const noexcept { return failed_ == 0; }
  void merge(const Report& other);

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  [[nodiscard]] std::string result_line() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Order statistics. All take their samples by value and sort the copy.

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank quantile, q in (0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// Timed windows run on until they hold this many latency samples, so a
/// reported p90 always has >= 100 samples beyond it.
inline constexpr std::size_t kMinLatencySamples = 1000;

/// Latency samples summarized window by window in constant memory (so the
/// benchmark's bookkeeping stays out of the measured process's peak RSS).
/// Each full window of `window` consecutive samples contributes its median
/// and p90; the reported figures are medians over windows, so a burst of
/// interference moves only the windows it falls in. With no full window
/// the partial one is used.
class LatencyLog {
 public:
  explicit LatencyLog(std::size_t window) : window_(window) {
    buf_.reserve(window);
  }
  void add(double v);
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double p50() const;
  [[nodiscard]] double p90() const;

 private:
  std::size_t window_;
  std::size_t count_ = 0;
  std::vector<double> buf_;
  std::vector<double> p50s_;
  std::vector<double> p90s_;
};

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mib();

/// 52-bit FNV-1a over the bit patterns of `values` — the repository's
/// result_fingerprint scheme, small enough to print losslessly.
[[nodiscard]] std::uint64_t fingerprint(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Spans.

/// Per-name totals of a span log. self_ns = total_ns minus the time the
/// name's direct child spans covered.
struct SpanTotal {
  std::uint64_t total_ns = 0;
  std::uint64_t child_ns = 0;
  [[nodiscard]] std::uint64_t self_ns() const noexcept {
    return total_ns - child_ns;
  }
};

/// One thread's span log. Names are interned per log, in the order first
/// opened. Spans nest strictly (open/close form a stack). The first `cap`
/// spans are stored for the span file; every span feeds the totals.
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t thread, std::size_t cap = 20000)
      : thread_(thread), cap_(cap) {}

  [[nodiscard]] std::uint32_t name_id(std::string_view name);
  void open(std::uint32_t name) { open_at(name, now_ns()); }
  void open_at(std::uint32_t name, std::uint64_t t);
  void close() { close_at(now_ns()); }
  void close_at(std::uint64_t t);

  [[nodiscard]] SpanTotal total(std::string_view name) const;
  /// Drops everything recorded so far (names stay interned).
  void clear();

  /// Appends the stored spans as JSON lines; ids are offset by `id_base`
  /// so several logs can share one file. Returns the number appended.
  std::size_t append_jsonl(std::string& out, std::size_t id_base) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::int64_t parent = -1;  ///< stored index of the enclosing span
    std::uint64_t start = 0;
    std::uint64_t end = 0;
  };
  struct Open {
    std::uint32_t name = 0;
    std::uint64_t start = 0;
    std::int64_t slot = -1;  ///< stored index, -1 past the cap
  };

  std::uint32_t thread_;
  std::size_t cap_;
  std::vector<std::string> names_;
  std::vector<SpanTotal> totals_;  // by name id
  std::vector<Span> spans_;
  std::vector<Open> stack_;
};

/// Writes the span logs as one JSON-lines file (durably replaced).
void write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
