// Figure 6: four sample paths of θ̂₁(n) — the estimated fraction of
// vertices with in-degree 1 on the complete Flickr graph — as a function of
// the number of walk steps n, for FS, SingleRW and MultipleRW. FS and
// MultipleRW share the same uniformly sampled start vertices in each run.
// Paper shape: all FS paths converge quickly to θ₁; SingleRW paths settle
// at wrong values depending on the component they start in; MultipleRW
// overestimates persistently.
#include "bench_common.hpp"

namespace {

using namespace frontier;

/// Incremental eq.-7 estimator for a fixed vertex predicate.
class RunningDensity {
 public:
  RunningDensity(const Graph& g, std::function<bool(VertexId)> pred)
      : graph_(&g), pred_(std::move(pred)) {}

  void absorb(const Edge& e) {
    const double inv_deg = 1.0 / static_cast<double>(graph_->degree(e.v));
    s_ += inv_deg;
    if (pred_(e.v)) hits_ += inv_deg;
  }

  [[nodiscard]] double value() const { return s_ == 0.0 ? 0.0 : hits_ / s_; }

 private:
  const Graph* graph_;
  std::function<bool(VertexId)> pred_;
  double s_ = 0.0;
  double hits_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace frontier::bench;
  BenchSession session(argc, argv, "bench_fig06_sample_paths");
  const ExperimentConfig& cfg = session.config();
  const Dataset ds = synthetic_flickr(cfg);
  const Graph& g = ds.graph;

  const auto pred = [&g](VertexId v) { return g.in_degree(v) == 1; };
  const double theta1 = exact_label_density(g, pred);
  const std::size_t m = scaled_dimension(
      static_cast<double>(g.num_vertices()) / 100.0, 17152.0, 1000, 10);
  const std::uint64_t max_steps = g.num_vertices() / 4;

  print_header("Figure 6: sample paths of theta_1(n), complete Flickr", g,
               "theta_1 = " + format_number(theta1) + ", m = " +
                   std::to_string(m) + ", 4 runs per method");

  // Checkpoints: log-spaced step counts.
  std::vector<std::uint32_t> checkpoints;
  for (std::uint64_t n = 64; n <= max_steps; n *= 2) {
    checkpoints.push_back(static_cast<std::uint32_t>(n));
  }

  std::vector<std::string> names;
  std::vector<std::vector<double>> series;

  for (int run = 0; run < 4; ++run) {
    Rng rng(cfg.seed + static_cast<std::uint64_t>(run));
    const StartSampler starts(g, StartMode::kUniform);
    std::vector<VertexId> init(m);
    for (auto& v : init) v = starts.sample(rng);

    // --- FS from the shared starts.
    {
      Rng walk_rng = rng.split_stream(1);
      FrontierCursor fs(g, {.dimension = m, .steps = max_steps}, init,
                        walk_rng);
      const SampleRecord rec = drain_cursor(fs, max_steps);
      RunningDensity est(g, pred);
      std::vector<double> path(checkpoints.back() + 1, 0.0);
      std::size_t next = 0;
      for (std::size_t i = 0; i < rec.edges.size() && next < checkpoints.size();
           ++i) {
        est.absorb(rec.edges[i]);
        if (i + 1 == checkpoints[next]) {
          path[checkpoints[next]] = est.value();
          ++next;
        }
      }
      names.push_back("FS#" + std::to_string(run));
      series.push_back(std::move(path));
    }

    // --- MultipleRW from the same starts, stepped round-robin.
    {
      Rng walk_rng = rng.split_stream(2);
      std::vector<VertexId> pos = init;
      RunningDensity est(g, pred);
      std::vector<double> path(checkpoints.back() + 1, 0.0);
      std::size_t next = 0;
      for (std::uint64_t n = 0; n < max_steps && next < checkpoints.size();
           ++n) {
        auto& p = pos[n % m];
        const VertexId v = step_uniform_neighbor(g, p, walk_rng);
        est.absorb(Edge{p, v});
        p = v;
        if (n + 1 == checkpoints[next]) {
          path[checkpoints[next]] = est.value();
          ++next;
        }
      }
      names.push_back("MRW#" + std::to_string(run));
      series.push_back(std::move(path));
    }

    // --- SingleRW from its own uniform start.
    {
      Rng walk_rng = rng.split_stream(3);
      VertexId p = init[0];
      RunningDensity est(g, pred);
      std::vector<double> path(checkpoints.back() + 1, 0.0);
      std::size_t next = 0;
      for (std::uint64_t n = 0; n < max_steps && next < checkpoints.size();
           ++n) {
        const VertexId v = step_uniform_neighbor(g, p, walk_rng);
        est.absorb(Edge{p, v});
        p = v;
        if (n + 1 == checkpoints[next]) {
          path[checkpoints[next]] = est.value();
          ++next;
        }
      }
      names.push_back("SRW#" + std::to_string(run));
      series.push_back(std::move(path));
    }
  }

  print_curves(std::cout, "steps n", checkpoints, names, series);
  session.metric("theta_1_target", theta1);
  session.add_curves(CurveResult{checkpoints, names, series, {}});
  std::cout << "\ntarget theta_1 = " << format_number(theta1)
            << "\nexpected shape: FS paths converge to the target; SRW/MRW "
               "paths settle off-target when trapped outside/inside the "
               "LCC\n";
  return 0;
}
