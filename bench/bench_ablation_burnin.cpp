// Ablation: burn-in (the classical remedy of Section 4.3) versus Frontier
// Sampling. Burn-in discards the transient but *pays* for it, and no
// burn-in length can rescue a walker trapped in a disconnected component —
// FS needs no burn-in at all.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace frontier;
  using namespace frontier::bench;
  BenchSession session(argc, argv, "bench_ablation_burnin");
  const ExperimentConfig& cfg = session.config();
  const Dataset ds = synthetic_flickr(cfg);
  const Graph& g = ds.graph;

  const double budget = vertex_fraction_budget(g, 100.0);
  const std::size_t runs = cfg.runs(500);
  const auto theta = degree_distribution(g, DegreeKind::kIn);
  const auto truth = ccdf_from_pdf(theta);

  print_header("Ablation: SingleRW burn-in vs Frontier Sampling", g,
               "B = |V|/100 = " + format_number(budget) +
                   " (burn-in consumes budget), runs = " +
                   std::to_string(runs));

  const auto gm_error = [&](const std::function<std::vector<Edge>(Rng&)>& run,
                            std::uint64_t salt) {
    const ReplicationRunner runner(runs, cfg.seed + salt, cfg.threads);
    MseAccumulator acc = runner.map_reduce(
        MseAccumulator(truth),
        [&](std::size_t, Rng& rng) {
          MseAccumulator out(truth);
          out.add_run(ccdf_from_pdf(
              estimate_degree_distribution(g, run(rng), DegreeKind::kIn)));
          return out;
        },
        [](MseAccumulator& a, MseAccumulator&& b) { a.merge(b); });
    const auto curve = acc.normalized_rmse();
    std::vector<double> at_display;
    for (std::uint32_t d :
         log_spaced_degrees(static_cast<std::uint32_t>(truth.size() - 1))) {
      if (d < curve.size()) at_display.push_back(curve[d]);
    }
    return geometric_mean_positive(at_display);
  };

  TextTable table({"method", "burn-in", "kept samples", "geo-mean CNMSE"});
  const auto total = static_cast<std::uint64_t>(budget);
  for (double frac : {0.0, 0.1, 0.25, 0.5, 0.75}) {
    const auto burn = static_cast<std::uint64_t>(frac * budget);
    const std::uint64_t kept = total - burn - 1;
    const SingleRandomWalk walker(g, {.steps = kept, .burn_in = burn});
    const double err =
        gm_error([&](Rng& rng) { return walker.run(rng).edges; },
                 static_cast<std::uint64_t>(frac * 100));
    table.add_row({"SingleRW", std::to_string(burn), std::to_string(kept),
                   format_number(err)});
    session.metric("cnmse/SingleRW/burn=" + std::to_string(burn), err);
  }
  const std::size_t m = scaled_dimension(budget, 17152.0, 1000, 10);
  const FrontierSampler fs(
      g, {.dimension = m, .steps = frontier_steps(budget, m, 1.0)});
  const double fs_err =
      gm_error([&](Rng& rng) { return fs.run(rng).edges; }, 999);
  table.add_row({"FS(m=" + std::to_string(m) + ")", "0",
                 std::to_string(frontier_steps(budget, m, 1.0)),
                 format_number(fs_err)});
  session.metric("cnmse/FS", fs_err);
  table.print(std::cout);
  std::cout << "\nexpected shape: burn-in helps SingleRW a little, then "
               "hurts (it spends budget without sampling); FS beats every "
               "burn-in setting because no burn-in fixes disconnected "
               "components\n";
  return 0;
}
