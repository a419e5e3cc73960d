// Ablation: the random-jump cost c (Section 4.4). FS pays m*c once; under
// expensive jumps (sparse user-id spaces, rate-limited APIs) the effective
// dimension a budget can afford shrinks. This sweep shows how FS degrades
// gracefully while MultipleRW collapses (its per-walker budget
// floor(B/m - c) hits zero).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace frontier;
  using namespace frontier::bench;
  BenchSession session(argc, argv, "bench_ablation_jump_cost");
  const ExperimentConfig& cfg = session.config();
  const Dataset ds = synthetic_flickr(cfg);
  const Graph& g = ds.graph;

  const double budget = vertex_fraction_budget(g, 100.0);
  const std::size_t m = 50;
  const std::size_t runs = cfg.runs(500);
  const auto theta = degree_distribution(g, DegreeKind::kIn);
  const auto truth = ccdf_from_pdf(theta);

  print_header("Ablation: jump cost c, FS vs MultipleRW (m = 50)", g,
               "B = |V|/100 = " + format_number(budget) +
                   ", runs = " + std::to_string(runs));

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

  TextTable table({"c", "FS steps", "FS CNMSE", "MRW steps/walker",
                   "MRW CNMSE"});
  for (double c : {1.0, 2.0, 4.0, 6.0}) {
    const std::uint64_t fs_steps = frontier_steps(budget, m, c);
    const std::uint64_t mrw_steps = multiple_rw_steps_per_walker(budget, m, c);
    std::string fs_err = "-";
    std::string mrw_err = "-";
    if (fs_steps > 0) {
      const FrontierSampler fs(g, {.dimension = m, .steps = fs_steps,
                                   .jump_cost = c});
      const double err =
          gm_error([&](Rng& rng) { return fs.run(rng).edges; },
                   static_cast<std::uint64_t>(c * 10));
      fs_err = format_number(err);
      session.metric("cnmse/FS/c=" + format_number(c, 2), err);
    }
    if (mrw_steps > 0) {
      const MultipleRandomWalks mrw(
          g, {.num_walkers = m, .steps_per_walker = mrw_steps,
              .jump_cost = c});
      const double err =
          gm_error([&](Rng& rng) { return mrw.run(rng).edges; },
                   static_cast<std::uint64_t>(c * 10) + 1);
      mrw_err = format_number(err);
      session.metric("cnmse/MRW/c=" + format_number(c, 2), err);
    }
    table.add_row({format_number(c, 2), std::to_string(fs_steps), fs_err,
                   std::to_string(mrw_steps), mrw_err});
  }
  table.print(std::cout);
  std::cout << "\nexpected shape: FS error grows slowly with c (loses m*c "
               "steps); MultipleRW error grows faster (each walker loses c "
               "steps out of B/m)\n";
  return 0;
}
