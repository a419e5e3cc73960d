// Figure 14: NMSE of the density estimates of the 200 most popular special-
// interest groups in Flickr, ordered by decreasing popularity — FS vs
// SingleRW vs MultipleRW (m = 100). Paper shape: FS clearly lowest across
// the whole popularity range.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace frontier;
  using namespace frontier::bench;
  BenchSession session(argc, argv, "bench_fig14_group_density");
  const ExperimentConfig& cfg = session.config();
  const Dataset ds = synthetic_flickr(cfg);
  const Graph& g = ds.graph;

  const std::size_t top =
      std::min<std::size_t>(200, ds.num_groups);
  const double budget = vertex_fraction_budget(g, 10.0);
  const std::size_t m = 100;
  const std::size_t runs = cfg.runs(600);

  print_header(
      "Figure 14: NMSE of the top-" + std::to_string(top) +
          " group densities, Flickr",
      g,
      "B = |V|/10 = " + format_number(budget) + ", m = 100, runs = " +
          std::to_string(runs) +
          " (budget raised from the paper's |V|/100 so each MultipleRW "
          "walker takes >= 1 step at bench scale)");

  // Exact group densities; groups are already ordered by popularity rank.
  std::vector<double> truth(top, 0.0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (std::uint32_t grp : ds.groups(v)) {
      if (grp < top) truth[grp] += 1.0;
    }
  }
  for (double& t : truth) t /= static_cast<double>(g.num_vertices());

  const auto groups_of = [&ds](VertexId v) { return ds.groups(v); };
  const FrontierSampler fs(
      g, {.dimension = m, .steps = frontier_steps(budget, m, 1.0)});
  const SingleRandomWalk srw(
      g, {.steps = single_rw_steps(budget)});
  const MultipleRandomWalks mrw(
      g, {.num_walkers = m,
          .steps_per_walker = multiple_rw_steps_per_walker(budget, m, 1.0)});

  const auto run_curve =
      [&](const std::function<std::vector<Edge>(Rng&)>& sample,
          std::uint64_t salt) {
        const ReplicationRunner runner(runs, cfg.seed + salt, cfg.threads);
        MseAccumulator acc = runner.map_reduce(
            MseAccumulator(truth),
            [&](std::size_t, Rng& rng) {
              MseAccumulator out(truth);
              out.add_run(
                  estimate_group_densities(g, sample(rng), groups_of, top));
              return out;
            },
            [](MseAccumulator& a, MseAccumulator&& b) { a.merge(b); });
        return acc.normalized_rmse();
      };

  const std::vector<std::string> names{"FS(m=100)", "SingleRW",
                                       "MultipleRW(m=100)"};
  std::vector<std::vector<double>> curves;
  curves.push_back(run_curve([&](Rng& rng) { return fs.run(rng).edges; }, 1));
  curves.push_back(run_curve([&](Rng& rng) { return srw.run(rng).edges; }, 2));
  curves.push_back(run_curve([&](Rng& rng) { return mrw.run(rng).edges; }, 3));

  // Group index axis (1-based rank).
  std::vector<std::uint32_t> ranks;
  for (std::uint32_t r = 1; r < top; r += (r < 10 ? 1 : 10)) ranks.push_back(r);
  print_curves(std::cout, "group rank", ranks,
               std::vector<std::string>(names),
               std::vector<std::vector<double>>(curves));

  std::cout << "\nmean NMSE over all " << top << " groups:\n";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const double mean_nmse = mean_positive(curves[i]);
    std::cout << "  " << names[i] << ": " << format_number(mean_nmse)
              << '\n';
    session.metric("mean_nmse/" + names[i], mean_nmse);
  }
  session.add_curves(CurveResult{ranks, names, curves, {}});
  std::cout << "\nexpected shape: FS clearly below SingleRW and MultipleRW\n";
  return 0;
}
