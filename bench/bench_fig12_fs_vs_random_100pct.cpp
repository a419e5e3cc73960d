// Figure 12: NMSE (not CNMSE) of the in-degree distribution on Flickr at
// 100% hit ratio: random edge sampling (cost 2/edge) vs random vertex
// sampling (cost 1/vertex) vs FS, B = |V|/100. Paper shape: RE beats RV
// above the average in-degree and loses below it (eqs. 3-4); FS tracks RE.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace frontier;
  using namespace frontier::bench;
  BenchSession session(argc, argv, "bench_fig12_fs_vs_random_100pct");
  const ExperimentConfig& cfg = session.config();
  const Dataset ds = synthetic_flickr(cfg);
  const Graph& g = ds.graph;

  const double budget = vertex_fraction_budget(g, 100.0);
  const std::size_t m = scaled_dimension(budget, 18612.0, 1000, 10);
  const std::size_t runs = cfg.runs(1500);
  const auto theta = degree_distribution(g, DegreeKind::kIn);

  print_header("Figure 12: NMSE of in-degree estimates, 100% hit ratio", g,
               "B = |V|/100 = " + format_number(budget) + ", m = " +
                   std::to_string(m) + ", runs = " + std::to_string(runs) +
                   ", avg in-degree = " +
                   format_number(static_cast<double>(g.num_directed_edges()) /
                                 static_cast<double>(g.num_vertices())));

  const RandomEdgeSampler re(g, {.budget = budget, .edge_cost = 2.0});
  const RandomVertexSampler rv(g, {.budget = budget});
  const FrontierSampler fs(
      g, {.dimension = m, .steps = frontier_steps(budget, m, 1.0)});

  const auto run_curve =
      [&](const std::function<std::vector<double>(Rng&)>& estimate,
          std::uint64_t salt) {
        const ReplicationRunner runner(runs, cfg.seed + salt, cfg.threads);
        MseAccumulator acc = runner.map_reduce(
            MseAccumulator(theta),
            [&](std::size_t, Rng& rng) {
              MseAccumulator out(theta);
              out.add_run(estimate(rng));
              return out;
            },
            [](MseAccumulator& a, MseAccumulator&& b) { a.merge(b); });
        return acc.normalized_rmse();
      };

  const std::vector<std::string> names{"RandomEdge(100%)", "FS(100%)",
                                       "RandomVertex(100%)"};
  std::vector<std::vector<double>> curves;
  curves.push_back(run_curve(
      [&](Rng& rng) {
        return estimate_degree_distribution(g, re.run(rng).edges,
                                            DegreeKind::kIn);
      },
      1));
  curves.push_back(run_curve(
      [&](Rng& rng) {
        return estimate_degree_distribution(g, fs.run(rng).edges,
                                            DegreeKind::kIn);
      },
      2));
  curves.push_back(run_curve(
      [&](Rng& rng) {
        return estimate_degree_distribution_uniform(g, rv.run(rng).vertices,
                                                    DegreeKind::kIn);
      },
      3));

  const auto degrees =
      log_spaced_degrees(static_cast<std::uint32_t>(theta.size() - 1));
  print_curves(std::cout, "in-degree", degrees,
               std::vector<std::string>(names),
               std::vector<std::vector<double>>(curves));
  session.add_curves(CurveResult{degrees, names, curves, {}});
  std::cout << "\nexpected shape: RandomVertex best below the average "
               "in-degree, worst above it; FS tracks RandomEdge\n";
  return 0;
}
