// Figure 8 (LiveJournal out-degree): row 8 of the table in bench_common.cpp
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace frontier::bench;
  BenchSession session(argc, argv, "bench_fig08_livejournal_cnmse");
  run_degree_cnmse_figure(session, 8);
}
