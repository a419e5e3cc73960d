// Table 3: global clustering coefficient estimates E[Ĉ] (NMSE) on Flickr
// and LiveJournal, budget 1% of |V| — FS vs SingleRW vs MultipleRW.
// Paper shape: all three close to the true C, FS with the smallest NMSE.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace frontier;
  using namespace frontier::bench;
  BenchSession session(argc, argv, "bench_table3_clustering");
  const ExperimentConfig& cfg = session.config();
  const std::size_t runs = cfg.runs(400);

  print_banner(std::cout,
               "Table 3: global clustering estimates, B = |V|/100");
  std::cout << "runs = " << runs << "\n\n";

  TextTable table({"Graph", "C", "FS E[C] (NMSE)", "SRW E[C] (NMSE)",
                   "MRW E[C] (NMSE)"});

  // Every exact C and per-method mean and NMSE: the batch estimator
  // (the codegree column's intersection kernel, on ReplicationRunner
  // workers) must give the same bytes for any thread count and block size.
  std::vector<double> fingerprint_values;
  std::vector<Dataset> datasets;
  datasets.push_back(synthetic_flickr(cfg));
  datasets.push_back(synthetic_livejournal(cfg));

  for (const Dataset& ds : datasets) {
    const Graph& g = ds.graph;
    const double c_true = exact_global_clustering(g);
    const double budget = vertex_fraction_budget(g, 100.0);
    const std::size_t m = scaled_dimension(budget, 17152.0, 1000, 10);

    const FrontierSampler fs(
        g, {.dimension = m, .steps = frontier_steps(budget, m, 1.0)});
    const SingleRandomWalk srw(
        g, {.steps = single_rw_steps(budget)});
    const MultipleRandomWalks mrw(
        g, {.num_walkers = m,
            .steps_per_walker = multiple_rw_steps_per_walker(budget, m, 1.0)});

    const auto eval = [&](const std::function<std::vector<Edge>(Rng&)>& run,
                          std::uint64_t salt) {
      const ReplicationRunner runner(runs, cfg.seed + salt, cfg.threads);
      return runner.map_reduce(
          ScalarErrorAccumulator(c_true),
          [&](std::size_t, Rng& rng) {
            ScalarErrorAccumulator acc(c_true);
            acc.add_run(estimate_global_clustering(g, run(rng)));
            return acc;
          },
          [](ScalarErrorAccumulator& a, ScalarErrorAccumulator&& b) {
            a.merge(b);
          });
    };
    const auto fmt = [](const ScalarErrorAccumulator& acc) {
      return format_number(acc.mean_estimate(), 3) + " (" +
             format_number(acc.nmse(), 2) + ")";
    };
    const auto fs_acc = eval([&](Rng& rng) { return fs.run(rng).edges; }, 1);
    const auto srw_acc = eval([&](Rng& rng) { return srw.run(rng).edges; }, 2);
    const auto mrw_acc = eval([&](Rng& rng) { return mrw.run(rng).edges; }, 3);
    table.add_row({ds.name, format_number(c_true, 3), fmt(fs_acc),
                   fmt(srw_acc), fmt(mrw_acc)});
    session.metric("nmse/" + ds.name + "/FS", fs_acc.nmse());
    session.metric("nmse/" + ds.name + "/SRW", srw_acc.nmse());
    session.metric("nmse/" + ds.name + "/MRW", mrw_acc.nmse());
    fingerprint_values.push_back(c_true);
    for (const auto* acc : {&fs_acc, &srw_acc, &mrw_acc}) {
      fingerprint_values.push_back(acc->mean_estimate());
      fingerprint_values.push_back(acc->nmse());
    }
  }
  table.print(std::cout);
  session.metric("result_fingerprint", values_fingerprint(fingerprint_values),
                 "fnv52");
  std::cout << "\nexpected shape: all means near C; FS with the smallest "
               "NMSE\n";
  return 0;
}
