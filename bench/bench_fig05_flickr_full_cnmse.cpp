// Figure 5 (complete Flickr): row 5 of the table in bench_common.cpp
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace frontier::bench;
  BenchSession session(argc, argv, "bench_fig05_flickr_full_cnmse");
  run_degree_cnmse_figure(session, 5);
}
