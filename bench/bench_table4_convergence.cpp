// Table 4 (Appendix B): relative worst-case difference between steady-state
// and transient edge-sampling probabilities after the budget is spent, on
// the LCCs of Internet RLT, YouTube and Hep-Th. FS(K=10) vs SRW vs
// MRW(K=10); budgets 100 / 20 / 20. Paper shape: the independent walkers'
// deviations are 5-42x larger than Frontier sampling's.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace frontier;
  using namespace frontier::bench;
  BenchSession session(argc, argv, "bench_table4_convergence");
  const ExperimentConfig& cfg = session.config();
  const std::size_t k = 10;
  const std::size_t mc_runs = cfg.runs(400000);

  print_banner(std::cout,
               "Table 4: worst-case transient edge-sampling deviation");
  std::cout << "K = 10 walkers; SRW/MRW computed exactly on the dense "
               "chain, FS by Rao-Blackwellized Monte Carlo (" << mc_runs
            << " runs)\n\n";

  // Budgets: the paper uses B = 100 / 20 / 20 on graphs 10-80x larger than
  // the surrogates; B = 20 keeps SingleRW visibly transient here. The
  // GAB-ER row (loosely connected communities) shows the paper's full
  // ordering — FS << SRW < MRW — even at a larger budget.
  struct Row {
    Dataset ds;
    double budget;
  };
  std::vector<Row> rows;
  rows.push_back({synthetic_internet_rlt(cfg), 20.0});
  rows.push_back({synthetic_youtube(cfg), 20.0});
  rows.push_back({synthetic_hepth(cfg), 20.0});
  rows.push_back({synthetic_gab_er(cfg), 100.0});

  TextTable table({"Graph", "B", "FS(K=10)", "MRW(K=10)", "SRW"});
  for (const Row& row : rows) {
    const Graph lcc = largest_connected_component(row.ds.graph).graph;
    Rng mc(cfg.seed ^ 0x7ab1e4ULL);
    const double fs = fs_edge_deficit_mc(
        lcc, k, static_cast<std::uint64_t>(row.budget) - k, mc_runs, mc);
    const double srw = srw_edge_deficit_exact(lcc, single_rw_steps(row.budget));
    const double mrw = mrw_edge_deficit_exact(lcc, k, row.budget);
    table.add_row({row.ds.name, format_number(row.budget, 3),
                   format_percent(fs), format_percent(mrw),
                   format_percent(srw)});
    session.metric("deficit/" + row.ds.name + "/FS", fs);
    session.metric("deficit/" + row.ds.name + "/MRW", mrw);
    session.metric("deficit/" + row.ds.name + "/SRW", srw);
  }
  table.print(std::cout);
  std::cout << "\nexpected shape: FS far below MRW on every row, and far "
               "below SRW wherever SRW is still transient (Internet RLT, "
               "GAB-ER; paper: 17-43% vs 156-1510%). On fast-mixing "
               "surrogates SRW is already stationary at B=20 — the FS "
               "number there is a Monte-Carlo noise floor.\n";
  return 0;
}
