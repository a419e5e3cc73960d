// Figure 1 (SingleRW vs MultipleRW): row 1 of the table in bench_common.cpp
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace frontier::bench;
  BenchSession session(argc, argv, "bench_fig01_multiplerw_vs_singlerw");
  run_degree_cnmse_figure(session, 1);
}
