// Ablation: the FS dimension m. The paper evaluates m in {10, 100, 1000};
// this sweep traces the whole curve under a fixed budget B on the complete
// (disconnected) Flickr surrogate. Two forces trade off:
//   * larger m -> the uniform start is closer to the FS steady state
//     (Theorem 5.4) and walkers cover more components, but
//   * larger m -> fewer steps per walker (budget B - m*c) and m=B leaves
//     no steps at all.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace frontier;
  using namespace frontier::bench;
  BenchSession session(argc, argv, "bench_ablation_dimension");
  const ExperimentConfig& cfg = session.config();
  const Dataset ds = synthetic_flickr(cfg);
  const Graph& g = ds.graph;

  const double budget = vertex_fraction_budget(g, 100.0);
  const std::size_t runs = cfg.runs(500);
  const auto theta = degree_distribution(g, DegreeKind::kIn);
  const auto truth = ccdf_from_pdf(theta);

  print_header("Ablation: FS dimension m under fixed budget", g,
               "B = |V|/100 = " + format_number(budget) +
                   ", runs = " + std::to_string(runs));

  TextTable table({"m", "steps (B - m)", "geo-mean CNMSE"});
  const std::vector<std::size_t> dims{
      1, 4, 16, 64, 128, 256, static_cast<std::size_t>(budget) * 3 / 4};
  std::vector<double> errors;  // per m, for the result fingerprint
  for (std::size_t m : dims) {
    const std::uint64_t steps = frontier_steps(budget, m, 1.0);
    if (steps == 0) continue;
    const FrontierSampler fs(g, {.dimension = m, .steps = steps});
    const ReplicationRunner runner(runs, cfg.seed + m, cfg.threads);
    MseAccumulator acc = runner.map_reduce(
        MseAccumulator(truth),
        [&](std::size_t, Rng& rng) {
          MseAccumulator out(truth);
          out.add_run(ccdf_from_pdf(estimate_degree_distribution(
              g, fs.run(rng).edges, DegreeKind::kIn)));
          return out;
        },
        [](MseAccumulator& a, MseAccumulator&& b) { a.merge(b); });
    const auto curve = acc.normalized_rmse();
    std::vector<double> at_display;
    for (std::uint32_t d :
         log_spaced_degrees(static_cast<std::uint32_t>(truth.size() - 1))) {
      if (d < curve.size()) at_display.push_back(curve[d]);
    }
    const double err = geometric_mean_positive(at_display);
    table.add_row({std::to_string(m), std::to_string(steps),
                   format_number(err)});
    session.metric("cnmse/m=" + std::to_string(m), err);
    errors.push_back(err);
  }
  table.print(std::cout);
  session.metric("result_fingerprint", values_fingerprint(errors), "fnv52");
  std::cout << "\nexpected shape: error falls as m grows (robustness to "
               "disconnected components), then rises again when m*c eats "
               "the walking budget\n";
  return 0;
}
