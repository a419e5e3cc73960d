// Table 2: bias and NMSE of assortative-mixing estimates — FS vs
// MultipleRW vs SingleRW across all datasets, budget |V|/100, 100 runs.
// Paper shape: FS consistently most accurate; SingleRW catastrophically
// biased on G_AB (it sees only one component, where r = 0); Internet RLT
// shows little FS/MultipleRW difference.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace frontier;
  using namespace frontier::bench;
  BenchSession session(argc, argv, "bench_table2_assortativity");
  const ExperimentConfig& cfg = session.config();
  // The paper uses 100 runs; with ~40x smaller sample sizes the bias
  // estimate itself is noisy, so the default here is higher.
  const std::size_t runs = cfg.runs(400);

  std::vector<Dataset> datasets = table1_datasets(cfg);
  datasets.push_back(synthetic_gab_er(cfg));

  print_banner(std::cout,
               "Table 2: assortativity estimates (bias, |NMSE|), B = |V|/100");
  std::cout << "runs = " << runs
            << "; GAB uses ER halves (see docs/BENCHMARKS.md: BA halves "
               "have r ~ 0 at bench scale)\n\n";

  TextTable table({"Graph", "r", "FS bias", "FS NMSE", "MRW bias", "MRW NMSE",
                   "SRW bias", "SRW NMSE"});
  // Every exact r and per-method bias and NMSE: the batch estimator
  // (ingest_sample, whose rows locate their picks) must give the same
  // bytes for any thread count and block size.
  std::vector<double> fingerprint_values;

  for (const Dataset& ds : datasets) {
    const Graph& g = ds.graph;
    const double r_true = exact_assortativity(g);
    const double budget = vertex_fraction_budget(g, 100.0);
    // Keep steps-per-walker comparable to the paper (B=|V|/100 of a ~40x
    // larger graph with m = 1000).
    const std::size_t m = scaled_dimension(budget, 17152.0, 1000, 10);

    const FrontierSampler fs(
        g, {.dimension = m, .steps = frontier_steps(budget, m, 1.0)});
    const MultipleRandomWalks mrw(
        g, {.num_walkers = m,
            .steps_per_walker = multiple_rw_steps_per_walker(budget, m, 1.0)});
    const SingleRandomWalk srw(
        g, {.steps = single_rw_steps(budget)});

    const auto eval = [&](const std::function<std::vector<Edge>(Rng&)>& run,
                          std::uint64_t salt) {
      const ReplicationRunner runner(runs, cfg.seed + salt, cfg.threads);
      return runner.map_reduce(
          ScalarErrorAccumulator(r_true),
          [&](std::size_t, Rng& rng) {
            ScalarErrorAccumulator acc(r_true);
            acc.add_run(estimate_assortativity(g, run(rng)));
            return acc;
          },
          [](ScalarErrorAccumulator& a, ScalarErrorAccumulator&& b) {
            a.merge(b);
          });
    };
    const auto fs_acc =
        eval([&](Rng& rng) { return fs.run(rng).edges; }, 11);
    const auto mrw_acc =
        eval([&](Rng& rng) { return mrw.run(rng).edges; }, 22);
    const auto srw_acc =
        eval([&](Rng& rng) { return srw.run(rng).edges; }, 33);

    table.add_row({ds.name, format_number(r_true, 3),
                   format_percent(fs_acc.relative_bias()),
                   format_number(fs_acc.nmse(), 3),
                   format_percent(mrw_acc.relative_bias()),
                   format_number(mrw_acc.nmse(), 3),
                   format_percent(srw_acc.relative_bias()),
                   format_number(srw_acc.nmse(), 3)});
    session.metric("bias/" + ds.name + "/FS", fs_acc.relative_bias());
    session.metric("bias/" + ds.name + "/MRW", mrw_acc.relative_bias());
    session.metric("bias/" + ds.name + "/SRW", srw_acc.relative_bias());
    session.metric("nmse/" + ds.name + "/FS", fs_acc.nmse());
    session.metric("nmse/" + ds.name + "/MRW", mrw_acc.nmse());
    session.metric("nmse/" + ds.name + "/SRW", srw_acc.nmse());
    fingerprint_values.push_back(r_true);
    for (const auto* acc : {&fs_acc, &mrw_acc, &srw_acc}) {
      fingerprint_values.push_back(acc->relative_bias());
      fingerprint_values.push_back(acc->nmse());
    }
  }
  table.print(std::cout);
  session.metric("result_fingerprint", values_fingerprint(fingerprint_values),
                 "fnv52");
  std::cout << "\nexpected shape: FS has the smallest |bias| on every row "
               "(the paper's headline: Flickr FS 8% vs MRW 752% vs SRW "
               "-619%); SRW bias ~100% on GAB. NMSE values are huge where "
               "the true r is near 0 (also true in the paper) and FS/MRW "
               "NMSE can tie at bench-scale budgets.\n";
  return 0;
}
