// Figure 4 (LCC of Flickr): row 4 of the table in bench_common.cpp
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace frontier::bench;
  BenchSession session(argc, argv, "bench_fig04_flickr_lcc_cnmse");
  run_degree_cnmse_figure(session, 4);
}
