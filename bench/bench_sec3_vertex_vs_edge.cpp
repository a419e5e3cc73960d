// Section 3 (eqs. 3-4): analytic NMSE of random vertex vs random edge
// sampling of the out-degree distribution, with a Monte-Carlo cross-check.
// Paper claim: edge sampling is more accurate above the average degree,
// vertex sampling below it — so edge sampling wins on the tail.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace frontier;
  using namespace frontier::bench;
  BenchSession session(argc, argv, "bench_sec3_vertex_vs_edge");
  const ExperimentConfig& cfg = session.config();
  const Dataset ds = synthetic_flickr(cfg);
  const Graph& g = ds.graph;
  const auto theta = degree_distribution(g, DegreeKind::kOut);
  const double budget = vertex_fraction_budget(g, 100.0);
  const std::size_t runs = cfg.runs(2000);

  // Average *out*-degree (= |E_d| / |V|), the crossover point of eqs. 3-4.
  const double d = static_cast<double>(g.num_directed_edges()) /
                   static_cast<double>(g.num_vertices());

  print_header("Section 3: analytic NMSE, random vertex vs random edge",
               g,
               "B = |V|/100 = " + format_number(budget) +
                   ", avg out-degree = " + format_number(d) +
                   ", runs(MC) = " + std::to_string(runs));

  // Monte-Carlo: B vertex samples vs B edge samples (unit cost each, as in
  // the Section 3 model), estimating theta directly.
  const RandomVertexSampler rv(g, {.budget = budget});
  const RandomEdgeSampler re(g, {.budget = budget, .edge_cost = 1.0});
  const auto merge = [](MseAccumulator& a, MseAccumulator&& b) {
    a.merge(b);
  };
  MseAccumulator rv_acc =
      ReplicationRunner(runs, cfg.seed, cfg.threads)
          .map_reduce(
              MseAccumulator(theta),
              [&](std::size_t, Rng& rng) {
                MseAccumulator out(theta);
                out.add_run(estimate_degree_distribution_uniform(
                    g, rv.run(rng).vertices, DegreeKind::kOut));
                return out;
              },
              merge);
  MseAccumulator re_acc =
      ReplicationRunner(runs, cfg.seed + 1, cfg.threads)
          .map_reduce(
              MseAccumulator(theta),
              [&](std::size_t, Rng& rng) {
                MseAccumulator out(theta);
                out.add_run(estimate_degree_distribution(g, re.run(rng).edges,
                                                         DegreeKind::kOut));
                return out;
              },
              merge);
  const auto rv_mc = rv_acc.normalized_rmse();
  const auto re_mc = re_acc.normalized_rmse();
  {
    std::vector<double> rv_display;
    std::vector<double> re_display;
    for (std::uint32_t deg :
         log_spaced_degrees(static_cast<std::uint32_t>(theta.size() - 1))) {
      if (deg >= theta.size() || theta[deg] <= 0.0) continue;
      rv_display.push_back(rv_mc[deg]);
      re_display.push_back(re_mc[deg]);
    }
    session.metric("geo_mean_nmse/RandomVertex",
                   geometric_mean_positive(rv_display));
    session.metric("geo_mean_nmse/RandomEdge",
                   geometric_mean_positive(re_display));
    session.metric("avg_out_degree_crossover", d);
  }

  TextTable table({"out-deg", "theta", "RV analytic (eq.4)", "RV Monte-Carlo",
                   "RE analytic (eq.3)", "RE Monte-Carlo", "winner"});
  for (std::uint32_t deg :
       log_spaced_degrees(static_cast<std::uint32_t>(theta.size() - 1))) {
    if (deg >= theta.size() || theta[deg] <= 0.0) continue;
    const double rv_an = analytic_nmse_vertex_sampling(theta[deg], budget);
    const double re_an =
        analytic_nmse_edge_sampling(theta[deg], deg, d, budget);
    table.add_row({std::to_string(deg), format_number(theta[deg], 3),
                   format_number(rv_an), format_number(rv_mc[deg]),
                   format_number(re_an), format_number(re_mc[deg]),
                   re_an < rv_an ? "edge" : "vertex"});
  }
  table.print(std::cout);
  std::cout << "\nexpected shape: winner flips from 'vertex' to 'edge' at "
               "the average out-degree ("
            << format_number(d) << ")\n";
  return 0;
}
