// Graph load-path benchmark: text edge list vs binary v2 (mmap).
//
// Generates a Barabási–Albert graph (default 250k vertices, attach 4 —
// just over one million directed edges), writes it in both formats, and
// times a cold load of each plus the first full touch of the loaded
// arrays. The v2 load is O(1) — header validation plus an mmap call — so
// its speedup over text (parse + densify + full CSR build) grows with the
// graph; the acceptance bar is >= 20x at >= 1M directed edges. RSS deltas
// come from /proc/self/status (VmRSS), 0 where unavailable: the mmap load
// itself should admit ~no resident growth until the arrays are touched.
//
//   bench_graph_load [--n N]     N = vertices (default 250000; CI smoke
//                                 passes a small N to gate regressions)
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace frontier;
namespace fs = std::filesystem;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Current resident set size in MiB (VmRSS); 0.0 when unavailable.
double rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Forces every CSR page resident and returns a checksum so the traversal
/// cannot be optimized away.
std::uint64_t touch_all(const Graph& g) {
  std::uint64_t sum = g.num_directed_edges();
  for (const EdgeIndex o : g.offsets()) sum += o;
  for (const VertexId v : g.neighbor_array()) sum += v;
  for (const EdgeDir d : g.direction_array()) {
    sum += static_cast<std::uint64_t>(d);
  }
  for (const std::uint32_t d : g.out_degree_array()) sum += d;
  for (const std::uint32_t d : g.in_degree_array()) sum += d;
  return sum;
}

struct LoadRow {
  std::string format;
  double file_mib = 0.0;
  double load_ms = 0.0;
  double touch_ms = 0.0;
  double rss_delta_mib = 0.0;
  std::uint64_t checksum = 0;
};

template <typename LoadFn>
LoadRow measure(const std::string& format, const std::string& path,
                const LoadFn& load) {
  LoadRow row;
  row.format = format;
  row.file_mib =
      static_cast<double>(fs::file_size(path)) / (1024.0 * 1024.0);
  const double rss_before = rss_mib();
  const auto t0 = Clock::now();
  const Graph g = load(path);
  row.load_ms = ms_since(t0);
  row.rss_delta_mib = rss_mib() - rss_before;
  const auto t1 = Clock::now();
  row.checksum = touch_all(g);
  row.touch_ms = ms_since(t1);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  frontier::bench::BenchSession session(argc, argv, "bench_graph_load");
  std::size_t n = 250000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      n = static_cast<std::size_t>(std::strtoull(argv[i + 1], nullptr, 10));
    }
  }

  Rng rng(1);
  std::cout << "generating barabasi_albert(n=" << n << ", attach=4)...\n";
  const Graph g = barabasi_albert(n, 4, rng);
  std::cout << g.summary() << "\n\n";

  const std::string stem =
      (fs::temp_directory_path() / "frontier_bench_load").string();
  const std::string text_path = stem + ".txt";
  const std::string v2_path = stem + ".v2.bin";
  write_edge_list_file(g, text_path);
  write_binary_file(g, v2_path);

  std::vector<LoadRow> rows;
  // mmap first: a later text load cannot pollute its RSS delta.
  rows.push_back(measure("v2 (mmap)", v2_path,
                         [](const std::string& p) {
                           return read_binary_file(p);
                         }));
  rows.push_back(measure("text", text_path, [](const std::string& p) {
    return read_edge_list_file(p);
  }));

  fs::remove(text_path);
  fs::remove(v2_path);

  TextTable table({"format", "file MiB", "load ms", "first-touch ms",
                   "rss delta MiB"});
  for (const LoadRow& r : rows) {
    table.add_row({r.format, format_number(r.file_mib),
                   format_number(r.load_ms), format_number(r.touch_ms),
                   format_number(r.rss_delta_mib)});
  }
  table.print(std::cout);

  if (rows[0].checksum != rows[1].checksum) {
    std::cerr << "FAIL: formats disagree on graph contents\n";
    return 1;
  }

  const double text_over_v2 =
      rows[1].load_ms / std::max(rows[0].load_ms, 1e-6);
  std::cout << "\nv2 mmap speedup: " << format_number(text_over_v2)
            << "x vs text\n";
  for (const LoadRow& r : rows) {
    session.metric("load_ms/" + r.format, r.load_ms, "ms");
    session.metric("first_touch_ms/" + r.format, r.touch_ms, "ms");
  }
  session.metric("vertices", static_cast<double>(n));
  session.metric("directed_edges",
                 static_cast<double>(g.num_directed_edges()));
  session.metric("mmap_speedup_vs_text", text_over_v2, "x");
  const bool big_enough = g.num_directed_edges() >= 1000000;
  if (big_enough) {
    std::cout << (text_over_v2 >= 20.0 ? "PASS" : "FAIL")
              << ": acceptance bar is >= 20x vs text at >= 1M directed "
                 "edges\n";
  } else {
    std::cout << "note: graph below 1M directed edges; acceptance bar "
                 "applies to the default size\n";
  }
  return big_enough && text_over_v2 < 20.0 ? 1 : 0;
}
