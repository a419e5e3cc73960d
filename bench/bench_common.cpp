#include "bench_common.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string_view>
#include <utility>

namespace frontier::bench {
namespace {

/// 52-bit hash over every curve value, degree, and method name — small
/// enough to live losslessly in a double-valued metric. Uses the same
/// FNV-1a core as BenchReport::config_fingerprint.
double curve_fingerprint(const CurveResult& result) {
  std::uint64_t hash = kFnv1aOffsetBasis;
  for (const std::uint32_t d : result.degrees) hash = fnv1a_u64(hash, d);
  for (const std::string& name : result.names) {
    hash = fnv1a_bytes(hash, name.data(), name.size());
  }
  for (const auto& curve : result.curves) {
    for (const double v : curve) {
      hash = fnv1a_u64(hash, std::bit_cast<std::uint64_t>(v));
    }
  }
  for (const double v : result.mean_error) {
    hash = fnv1a_u64(hash, std::bit_cast<std::uint64_t>(v));
  }
  return static_cast<double>(hash & ((std::uint64_t{1} << 52) - 1));
}

// One degree-CCDF CNMSE experiment at budget B = |V|/divisor. In its text
// fields {B}, {m} and {runs} stand for the budget, walker and run counts.
struct DegreeCnmseFigure {
  int figure;
  Dataset (*dataset)(const ExperimentConfig&);
  bool lcc;  // run on the largest connected component
  double divisor;
  std::size_t m;        // fixed walker count, or 0 for the scaled one:
  double paper_budget;  // m = scaled_dimension(B, paper_budget, 1000)
  std::size_t base_runs;
  DegreeKind kind;
  StartMode walk_start;  // SingleRW and MultipleRW starts
  const char *fs_label, *srw_label, *mrw_label;  // no FS if fs_label null
  const char *subject, *params, *shape;
};

const DegreeCnmseFigure kDegreeCnmseFigures[] = {
    {1, synthetic_flickr, false, 10.0, 10, 0.0, 400, DegreeKind::kIn,
     StartMode::kUniform, nullptr, "SingleRW", "MultipleRW(m={m})",
     "SingleRW vs MultipleRW",
     "B = |V|/10 = {B}, m = {m}, c = 1, runs = {runs}",
     "SingleRW below MultipleRW at most degrees"},
    {4, synthetic_flickr, true, 100.0, 0, 17152.0, 600, DegreeKind::kIn,
     StartMode::kUniform, "FS(m={m})", "SingleRW", "MultipleRW(m={m})",
     "LCC of Flickr", "B = |V|/100 = {B}, m = {m}, runs = {runs}",
     "FS lowest (paper: FS < SingleRW < MultipleRW; at bench scale "
     "MultipleRW ties FS while SingleRW trails — the community traps "
     "dominate here)"},
    {5, synthetic_flickr, false, 100.0, 0, 17152.0, 600, DegreeKind::kIn,
     StartMode::kUniform, "FS(m={m})", "SingleRW", "MultipleRW(m={m})",
     "complete Flickr", "B = |V|/100 = {B}, m = {m}, runs = {runs}",
     "FS < SingleRW < MultipleRW, with a wider FS gap than Figure 4 "
     "(disconnected components)"},
    {8, synthetic_livejournal, false, 100.0, 0, 52844.0, 600, DegreeKind::kOut,
     StartMode::kUniform, "FS(m={m})", "SingleRW", "MultipleRW(m={m})",
     "LiveJournal", "B = |V|/100 = {B}, m = {m}, runs = {runs}",
     "FS lowest, biggest margin at small out-degrees"},
    {10, synthetic_gab, false, 10.0, 100, 0.0, 600, DegreeKind::kSymmetric,
     StartMode::kUniform, "FS(m={m})", "SingleRW", "MultipleRW(m={m})",
     "GAB graph",
     "B = |V|/10 = {B}, m = {m}, runs = {runs} (budget raised from the "
     "paper's |V|/100 so each MultipleRW walker takes >= 1 step at bench "
     "scale)",
     "FS lowest across the whole degree range"},
    {11, synthetic_flickr, false, 100.0, 0, 17152.0, 600, DegreeKind::kIn,
     StartMode::kDegreeProportional, "FS(m={m},uniform)", "SingleRW(steady)",
     "MultipleRW(steady)", "Flickr; SRW/MRW start in steady state",
     "B = |V|/100 = {B}, m = {m}, runs = {runs}",
     "all three methods now comparable (MultipleRW's Figure 5 errors were "
     "start-up transients)"},
};

}  // namespace

void run_degree_cnmse_figure(BenchSession& session, int figure) {
  const DegreeCnmseFigure& row = *std::ranges::find(
      kDegreeCnmseFigures, figure, &DegreeCnmseFigure::figure);
  const ExperimentConfig& cfg = session.config();
  const Dataset ds = row.dataset(cfg);
  Graph lcc;
  const Graph& g =
      row.lcc ? (lcc = largest_connected_component(ds.graph).graph) : ds.graph;

  const double budget = vertex_fraction_budget(g, row.divisor);
  const std::size_t m =
      row.m != 0 ? row.m : scaled_dimension(budget, row.paper_budget, 1000);
  const std::size_t runs = cfg.runs(row.base_runs);
  const std::string degree = row.kind == DegreeKind::kIn    ? "in-degree"
                             : row.kind == DegreeKind::kOut ? "out-degree"
                                                            : "degree";
  const auto fill = [&](std::string text) {
    for (std::size_t at; (at = text.find('{')) != std::string::npos;) {
      const std::string key = text.substr(at, text.find('}', at) - at + 1);
      text.replace(at, key.size(),
                   key == "{B}" ? format_number(budget)
                                : std::to_string(key == "{m}" ? m : runs));
    }
    return text;
  };
  print_header("Figure " + std::to_string(figure) + ": CNMSE of " + degree +
                   " CCDF, " + row.subject,
               g, fill(row.params));

  const FrontierSampler fs(
      g, {.dimension = m, .steps = frontier_steps(budget, m, 1.0)});
  const SingleRandomWalk srw(
      g, {.steps = single_rw_steps(budget), .start = row.walk_start});
  const MultipleRandomWalks mrw(
      g, {.num_walkers = m,
          .steps_per_walker = multiple_rw_steps_per_walker(budget, m, 1.0),
          .start = row.walk_start});
  std::vector<EdgeMethod> methods;
  if (row.fs_label != nullptr) {
    methods.push_back(edge_method(fill(row.fs_label), fs));
  }
  methods.push_back(edge_method(fill(row.srw_label), srw));
  methods.push_back(edge_method(fill(row.mrw_label), mrw));

  const CurveResult result =
      degree_error_curves(g, methods, row.kind, true, runs, cfg);
  print_curve_result(degree, result);
  session.add_curves(result);
  std::cout << "\nexpected shape: " << row.shape << '\n';
}

double values_fingerprint(std::span<const double> values) {
  std::uint64_t hash = kFnv1aOffsetBasis;
  for (const double v : values) {
    hash = fnv1a_u64(hash, std::bit_cast<std::uint64_t>(v));
  }
  return static_cast<double>(hash & ((std::uint64_t{1} << 52) - 1));
}

BenchSession::BenchSession(int argc, char** argv, std::string name)
    : start_(std::chrono::steady_clock::now()) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "bad argument: --json requires a file path\n";
        std::exit(2);
      }
      json_path_ = argv[i + 1];
      ++i;
    }
  }
  try {
    config_ = ExperimentConfig::from_env();
    // FS_BLOCK is read lazily at the first block construction, deep in
    // the run; force the parse here so a malformed value fails the
    // session up front like every other FS_* knob.
    (void)default_block_capacity();
  } catch (const std::exception& e) {
    std::cerr << "bad environment: " << e.what() << '\n';
    std::exit(2);
  }
  report_ = BenchReport::make(std::move(name), config_);
}

BenchSession::~BenchSession() {
  if (json_path_.empty()) return;
  report_.add_metric("threads_resolved",
                     static_cast<double>(resolve_threads(config_.threads)));
  // Process-level resource columns (obs/resource.hpp): peak RSS is the
  // run's high-water mark, the fault counts expose mmap-vs-rebuild load
  // behavior. Recorded in every report so regressions show up in CI's
  // perf-smoke artifacts without rerunning anything.
  const ResourceUsage usage = process_usage();
  report_.add_metric("peak_rss_bytes",
                     static_cast<double>(usage.peak_rss_bytes), "bytes");
  report_.add_metric("minor_page_faults",
                     static_cast<double>(usage.minor_page_faults));
  report_.add_metric("major_page_faults",
                     static_cast<double>(usage.major_page_faults));
  report_.wall_time_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  try {
    report_.write_file(json_path_);
    std::cout << "wrote bench report: " << json_path_ << '\n';
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    // Normal return would hide the lost report from CI; die loudly instead.
    std::_Exit(3);
  }
}

void BenchSession::metric(std::string name, double value, std::string unit) {
  report_.add_metric(std::move(name), value, std::move(unit));
}

void BenchSession::add_curves(const CurveResult& result) {
  const std::size_t summarized =
      std::min(result.names.size(), result.mean_error.size());
  for (std::size_t i = 0; i < summarized; ++i) {
    metric("geo_mean_error/" + result.names[i], result.mean_error[i]);
  }
  metric("result_fingerprint", curve_fingerprint(result), "fnv52");
}

CurveResult degree_error_curves(const Graph& g,
                                const std::vector<EdgeMethod>& methods,
                                DegreeKind kind, bool use_ccdf,
                                std::size_t runs,
                                const ExperimentConfig& cfg) {
  const auto theta = degree_distribution(g, kind);
  const auto truth = use_ccdf ? ccdf_from_pdf(theta) : theta;

  CurveResult result;
  result.degrees = log_spaced_degrees(
      static_cast<std::uint32_t>(truth.size() - 1));

  const ReplicationRunner runner(runs, cfg.seed, cfg.threads);
  for (const EdgeMethod& method : methods) {
    // Each run returns its estimate vector; add_run folds them into the
    // accumulator in run order, so the curves (roundoff included) do not
    // depend on how the runs were scheduled across workers.
    MseAccumulator acc = runner.map_reduce(
        MseAccumulator(truth),
        [&](std::size_t, Rng& rng, SampleArena& arena) {
          const auto edges = method.run(rng, arena);
          const auto est = estimate_degree_distribution(g, edges, kind);
          return use_ccdf ? ccdf_from_pdf(est) : est;
        },
        [](MseAccumulator& dst, std::vector<double>&& est) {
          dst.add_run(est);
        });
    result.names.push_back(method.name);
    result.curves.push_back(acc.normalized_rmse());
    // Summarize only over the log-spaced display degrees so a long flat
    // tail does not dominate the mean.
    std::vector<double> at_display;
    for (std::uint32_t d : result.degrees) {
      if (d < result.curves.back().size()) {
        at_display.push_back(result.curves.back()[d]);
      }
    }
    result.mean_error.push_back(geometric_mean_positive(at_display));
  }
  return result;
}

void print_curve_result(const std::string& x_name, const CurveResult& result) {
  print_curves(std::cout, x_name, result.degrees, result.names,
               result.curves);
  std::cout << "\ngeometric-mean error over displayed degrees:\n";
  for (std::size_t i = 0; i < result.names.size(); ++i) {
    std::cout << "  " << result.names[i] << ": "
              << format_number(result.mean_error[i]) << '\n';
  }
}

void print_header(const std::string& title, const Graph& g,
                  const std::string& params) {
  print_banner(std::cout, title);
  std::cout << "graph: " << g.summary() << '\n';
  if (!params.empty()) std::cout << "params: " << params << '\n';
  std::cout << '\n';
}

double vertex_fraction_budget(const Graph& g, double divisor) {
  return static_cast<double>(g.num_vertices()) / divisor;
}

std::size_t scaled_dimension(double budget, double paper_budget,
                             std::size_t paper_m, std::size_t floor_m) {
  const double scaled = static_cast<double>(paper_m) * budget / paper_budget;
  return std::max(floor_m, static_cast<std::size_t>(std::llround(scaled)));
}

int checked_env_int(const char* name, int fallback) {
  try {
    const std::uint64_t value =
        env_u64(name, static_cast<std::uint64_t>(fallback));
    if (value > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      throw std::invalid_argument(std::string(name) + "=" +
                                  std::to_string(value) +
                                  ": value does not fit in int");
    }
    return static_cast<int>(value);
  } catch (const std::exception& e) {
    std::cerr << "bad environment: " << e.what() << '\n';
    std::exit(2);
  }
}

}  // namespace frontier::bench
