// Figure 9: four sample paths of θ̂₁₀(n) on the G_AB graph (two BA graphs,
// average degrees 2 and 10, joined by a single edge), m = 100. FS and
// MultipleRW share starting vertices. Paper shape: FS converges quickly to
// θ₁₀; SingleRW over/underestimates depending on its component; most
// MultipleRW paths converge to the same wrong value.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace frontier;
  using namespace frontier::bench;
  BenchSession session(argc, argv, "bench_fig09_gab_sample_paths");
  const ExperimentConfig& cfg = session.config();
  const Dataset ds = synthetic_gab(cfg);
  const Graph& g = ds.graph;

  const auto pred = [&g](VertexId v) { return g.degree(v) == 10; };
  const double theta10 = exact_label_density(g, pred);
  const std::size_t m = 100;
  const std::uint64_t max_steps = g.num_vertices();

  print_header("Figure 9: sample paths of theta_10(n), GAB graph", g,
               "theta_10 = " + format_number(theta10) +
                   ", m = 100, 4 runs per method");

  std::vector<std::uint32_t> checkpoints;
  for (std::uint64_t n = 128; n <= max_steps; n *= 2) {
    checkpoints.push_back(static_cast<std::uint32_t>(n));
  }

  std::vector<std::string> names;
  std::vector<std::vector<double>> series;

  const auto record_path =
      [&](const std::string& name,
          const std::function<Edge(Rng&)>& stepper, Rng& rng) {
        double s = 0.0;
        double hits = 0.0;
        std::vector<double> path(checkpoints.back() + 1, 0.0);
        std::size_t next = 0;
        for (std::uint64_t n = 0;
             n < max_steps && next < checkpoints.size(); ++n) {
          const Edge e = stepper(rng);
          const double inv = 1.0 / static_cast<double>(g.degree(e.v));
          s += inv;
          if (pred(e.v)) hits += inv;
          if (n + 1 == checkpoints[next]) {
            path[checkpoints[next]] = s == 0.0 ? 0.0 : hits / s;
            ++next;
          }
        }
        names.push_back(name);
        series.push_back(std::move(path));
      };

  for (int run = 0; run < 4; ++run) {
    Rng rng(cfg.seed + 100 + static_cast<std::uint64_t>(run));
    const StartSampler starts(g, StartMode::kUniform);
    std::vector<VertexId> init(m);
    for (auto& v : init) v = starts.sample(rng);

    {  // FS via its cursor from the shared starts.
      Rng walk_rng = rng.split_stream(1);
      FrontierCursor fs(g, {.dimension = m, .steps = max_steps}, init,
                        walk_rng);
      const SampleRecord rec = drain_cursor(fs, max_steps);
      std::size_t i = 0;
      record_path("FS#" + std::to_string(run),
                  [&](Rng&) { return rec.edges[i++]; }, walk_rng);
    }
    {  // MultipleRW round-robin from the same starts.
      Rng walk_rng = rng.split_stream(2);
      std::vector<VertexId> pos = init;
      std::uint64_t n = 0;
      record_path(
          "MRW#" + std::to_string(run),
          [&](Rng& r) {
            auto& p = pos[n++ % m];
            const VertexId v = step_uniform_neighbor(g, p, r);
            const Edge e{p, v};
            p = v;
            return e;
          },
          walk_rng);
    }
    {  // SingleRW.
      Rng walk_rng = rng.split_stream(3);
      VertexId p = init[0];
      record_path(
          "SRW#" + std::to_string(run),
          [&](Rng& r) {
            const VertexId v = step_uniform_neighbor(g, p, r);
            const Edge e{p, v};
            p = v;
            return e;
          },
          walk_rng);
    }
  }

  print_curves(std::cout, "steps n", checkpoints, names, series);
  session.metric("theta_10_target", theta10);
  session.add_curves(CurveResult{checkpoints, names, series, {}});
  std::cout << "\ntarget theta_10 = " << format_number(theta10)
            << "\nexpected shape: FS paths hug the target; SRW/MRW paths "
               "converge to component-local (wrong) values\n";
  return 0;
}
