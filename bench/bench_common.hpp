// Shared harness for the paper-reproduction benchmarks.
//
// Every bench binary regenerates one table or figure of Ribeiro & Towsley
// (IMC 2010) on the synthetic surrogate datasets (docs/BENCHMARKS.md,
// "Surrogates and deviations"). Absolute error values differ from the
// paper (different graphs, scaled-down sizes and run counts); the *shape*
// — method ordering, crossovers, error decay — is the reproduction target,
// and docs/BENCHMARKS.md records what each binary should show.
//
// Environment knobs: FS_RUNS, FS_SCALE, FS_THREADS, FS_SEED (see
// experiments/config.hpp; malformed values are a fatal error, exit 2).
//
// Every binary additionally accepts `--json <path>`: on exit the harness
// writes a BenchReport (stats/bench_report.hpp) there — name, config
// fingerprint, wall time, and whatever metrics the bench recorded — which
// is what CI's perf-smoke job uploads and validates.
#pragma once

#include <chrono>
#include <functional>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "core/frontier.hpp"

namespace frontier::bench {

/// A sampling method under comparison: name + one-run edge producer. The
/// producer drains into the worker's reusable SampleArena (via the
/// samplers' run_into) and returns a view of the sampled edges; the view
/// is consumed before the arena's next run, so replications allocate
/// nothing after each worker's first.
struct EdgeMethod {
  std::string name;
  std::function<std::span<const Edge>(Rng&, SampleArena&)> run;
};

/// Wraps any sampler with a `run_into(arena, rng)` method into an
/// EdgeMethod producer. The sampler is captured by reference and must
/// outlive the method (benches keep samplers on the stack of main).
template <typename Sampler>
[[nodiscard]] EdgeMethod edge_method(std::string name, const Sampler& s) {
  return {std::move(name), [&s](Rng& rng, SampleArena& arena) {
            return std::span<const Edge>(s.run_into(arena, rng).edges);
          }};
}

/// Result of a CNMSE/NMSE curve experiment for several methods.
struct CurveResult {
  std::vector<std::uint32_t> degrees;           // x values (log spaced)
  std::vector<std::string> names;               // per method
  std::vector<std::vector<double>> curves;      // per method, indexed by degree
  std::vector<double> mean_error;               // mean positive NMSE per method
};

/// Per-bench lifetime object: parses the shared `--json <path>` flag
/// (leaving any bench-specific arguments alone), loads the experiment
/// configuration from the environment — exiting 2 with a clear message on
/// malformed FS_* knobs — and, on destruction, writes the accumulated
/// BenchReport when a path was given (exit 3 if the write fails).
class BenchSession {
 public:
  BenchSession(int argc, char** argv, std::string name);
  ~BenchSession();
  BenchSession(const BenchSession&) = delete;
  BenchSession& operator=(const BenchSession&) = delete;

  [[nodiscard]] const ExperimentConfig& config() const noexcept {
    return config_;
  }

  /// Records one named metric in the report.
  void metric(std::string name, double value, std::string unit = "");

  /// Records per-method geometric-mean errors plus `result_fingerprint`, a
  /// 52-bit FNV-1a hash over every curve value's bit pattern. Reports from
  /// different FS_THREADS settings must show the *same* fingerprint — the
  /// replication engine is bit-identical across thread counts — while
  /// their wall_time_seconds exposes the parallel speedup.
  void add_curves(const CurveResult& result);

 private:
  ExperimentConfig config_;
  BenchReport report_;
  std::string json_path_;  // empty = report discarded
  std::chrono::steady_clock::time_point start_;
};

/// Runs `runs` replications of each method, estimating the `kind` degree
/// distribution (as CCDF when `use_ccdf`), and returns per-degree
/// normalized RMSE curves against the exact distribution of `g`. Fanned
/// across resolve_threads(cfg.threads) workers by ReplicationRunner; the
/// result is bit-identical for any thread count.
CurveResult degree_error_curves(const Graph& g,
                                const std::vector<EdgeMethod>& methods,
                                DegreeKind kind, bool use_ccdf,
                                std::size_t runs,
                                const ExperimentConfig& cfg);

/// Runs row `figure` (1, 4, 5, 8, 10 or 11) of the degree-CCDF CNMSE table
/// in bench_common.cpp: FS, SingleRW and MultipleRW at one budget.
void run_degree_cnmse_figure(BenchSession& session, int figure);

/// Prints a CurveResult as an aligned table plus per-method means.
void print_curve_result(const std::string& x_name, const CurveResult& result);

/// Prints the standard bench header (dataset summary + parameters).
void print_header(const std::string& title, const Graph& g,
                  const std::string& params);

/// Budget shorthand: |V| / divisor.
[[nodiscard]] double vertex_fraction_budget(const Graph& g, double divisor);

/// Scales the paper's walker count so steps-per-walker stays comparable
/// when the budget shrinks with the surrogate graphs: keeps
/// budget/m ≈ paper_budget/paper_m, with a floor.
[[nodiscard]] std::size_t scaled_dimension(double budget, double paper_budget,
                                           std::size_t paper_m,
                                           std::size_t floor_m = 10);

/// 52-bit FNV-1a hash over the bit patterns of `values` — the shared
/// `result_fingerprint` scheme (same core and mask as the curve
/// fingerprint of add_curves), small enough to live losslessly in a
/// double-valued metric. Benches that do not go through add_curves hash
/// their deterministic result values with this and emit the metric
/// themselves, so CI's bit-identity gates cover them too.
[[nodiscard]] double values_fingerprint(std::span<const double> values);

/// Small-integer env knob (e.g. FS_STREAM_MAX_EXP) with the same strict
/// parsing as the FS_* knobs: malformed values exit 2 with a message.
[[nodiscard]] int checked_env_int(const char* name, int fallback);

}  // namespace frontier::bench
