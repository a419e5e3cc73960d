// Figure 11 (steady-state starts): row 11 of the table in bench_common.cpp
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace frontier::bench;
  BenchSession session(argc, argv, "bench_fig11_stationary_start");
  run_degree_cnmse_figure(session, 11);
}
