// Figure 13: CNMSE of the in-degree CCDF on LiveJournal under sparse
// user-id spaces: random vertex sampling with a 10% hit ratio, random edge
// sampling with a 1% hit ratio, and FS (which pays the 10% hit ratio only
// for its m starting vertices). Paper shape: FS beats both — it is far
// more robust to low hit ratios.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace frontier;
  using namespace frontier::bench;
  BenchSession session(argc, argv, "bench_fig13_fs_vs_random_low_hit");
  const ExperimentConfig& cfg = session.config();
  const Dataset ds = synthetic_livejournal(cfg);
  const Graph& g = ds.graph;

  const double budget = vertex_fraction_budget(g, 100.0);
  const std::size_t m = scaled_dimension(budget, 52844.0, 1000, 10);
  const std::size_t runs = cfg.runs(800);
  const double vertex_hit = 0.10;
  const double edge_hit = 0.01;

  print_header("Figure 13: CNMSE of in-degree CCDF under low hit ratios",
               g,
               "B = |V|/100 = " + format_number(budget) + ", m = " +
                   std::to_string(m) + ", RV hit = 10%, RE hit = 1%, runs = " +
                   std::to_string(runs));

  // FS pays ~1/hit queries per starting vertex; remaining budget walks.
  const CostModel fs_cost{.jump_cost = 1.0, .hit_ratio = vertex_hit};
  const double fs_steps =
      budget - static_cast<double>(m) * fs_cost.expected_jump_cost();
  const FrontierSampler fs(
      g, {.dimension = m,
          .steps = fs_steps <= 0.0
                       ? 0
                       : static_cast<std::uint64_t>(fs_steps)});
  const RandomVertexSampler rv(
      g, {.budget = budget, .cost = {.jump_cost = 1.0, .hit_ratio = vertex_hit}});
  const RandomEdgeSampler re(
      g, {.budget = budget, .edge_cost = 2.0, .hit_ratio = edge_hit});

  const auto theta = degree_distribution(g, DegreeKind::kIn);
  const auto truth = ccdf_from_pdf(theta);
  const auto run_curve =
      [&](const std::function<std::vector<double>(Rng&)>& estimate,
          std::uint64_t salt) {
        const ReplicationRunner runner(runs, cfg.seed + salt, cfg.threads);
        MseAccumulator acc = runner.map_reduce(
            MseAccumulator(truth),
            [&](std::size_t, Rng& rng) {
              MseAccumulator out(truth);
              out.add_run(ccdf_from_pdf(estimate(rng)));
              return out;
            },
            [](MseAccumulator& a, MseAccumulator&& b) { a.merge(b); });
        return acc.normalized_rmse();
      };

  const std::vector<std::string> names{"RandomEdge(1% hit)",
                                       "FS(10% hit starts)",
                                       "RandomVertex(10% hit)"};
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
      log_spaced_degrees(static_cast<std::uint32_t>(truth.size() - 1));
  print_curves(std::cout, "in-degree", degrees,
               std::vector<std::string>(names),
               std::vector<std::vector<double>>(curves));
  session.add_curves(CurveResult{degrees, names, curves, {}});
  std::cout << "\nexpected shape: FS below RandomEdge everywhere and below "
               "RandomVertex for all but the smallest in-degrees\n";
  return 0;
}
