#include "cli/load.hpp"

#include <stdexcept>

#include "graph/io.hpp"
#include "graph/storage.hpp"  // FRONTIER_HAS_MMAP

namespace frontier::cli {

Graph load_graph(const std::string& path, bool want_mmap) {
  const bool is_bin =
      path.size() > 4 && path.substr(path.size() - 4) == ".bin";
  if (want_mmap && !is_bin) {
    throw std::invalid_argument(
        "--mmap requires a .bin snapshot (create one with: frontier_cli "
        "convert " +
        path + " graph.bin)");
  }
#if !FRONTIER_HAS_MMAP
  if (want_mmap) {
    throw std::invalid_argument(
        "--mmap: memory-mapped loading is unavailable on this platform");
  }
#endif
  return is_bin ? read_binary_file(path) : read_edge_list_file(path);
}

void save_graph(const Graph& g, const std::string& path) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".bin") {
    write_binary_file(g, path);
  } else {
    write_edge_list_file(g, path);
  }
}

}  // namespace frontier::cli
