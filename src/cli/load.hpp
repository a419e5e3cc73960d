// Graph loading/saving shared by the CLI tools (frontier_cli,
// frontier_serve): extension-driven format choice plus the --mmap
// contract — when the caller asked for a zero-copy load, an input that
// cannot be mapped is an error instead of a silent rebuild.
#pragma once

#include <string>

#include "graph/graph.hpp"

namespace frontier::cli {

/// Loads `path` (.bin → binary snapshot, else edge list). With
/// `want_mmap`, requires a .bin path on a platform with mmap (where a
/// snapshot is always mapped) and throws std::invalid_argument otherwise.
[[nodiscard]] Graph load_graph(const std::string& path, bool want_mmap);

/// Writes `g` to `path` (.bin → format-v2 snapshot, else edge list).
void save_graph(const Graph& g, const std::string& path);

}  // namespace frontier::cli
