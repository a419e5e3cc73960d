// Figure 10 (G_AB): row 10 of the table in bench_common.cpp
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace frontier::bench;
  BenchSession session(argc, argv, "bench_fig10_gab_cnmse");
  run_degree_cnmse_figure(session, 10);
}
