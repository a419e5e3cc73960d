// Graph persistence.
//
// Text: whitespace-separated edge list (one directed edge "u v" per line,
// '#' comments, sparse ids densified by numeric order). Parsing is a
// chunked, multi-threaded std::from_chars scanner; malformed lines
// (negative ids, non-numeric tokens, trailing garbage) raise IoError with
// the 1-based line number.
//
// Binary: format v2 snapshot, the only binary format — a 40-byte header
// (magic, version, vertex / directed-edge / symmetric-edge counts)
// followed by the raw little-endian CSR arrays (offsets, neighbors,
// directions, out/in degrees), each starting on an 8-byte boundary. Both
// readers decode the header through one function, which checks the magic,
// the version and the counts before anything else is touched. A format-v1
// header (per-edge u,v pairs, no longer read) is refused with an IoError
// that says to re-create the snapshot from its edge list with
// `frontier_cli convert`. read_binary_file memory-maps the file and serves
// the arrays zero-copy, so loading is O(1) in the graph size.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "core/io_error.hpp"  // IoError lives in core; re-exported here
#include "graph/graph.hpp"

namespace frontier {

/// Writes the directed edge list of g ("u v" per line).
void write_edge_list(const Graph& g, std::ostream& os);
void write_edge_list_file(const Graph& g, const std::string& path);

/// Reads a directed edge list. Vertex ids may be arbitrary (sparse)
/// non-negative integers; they are densified in numeric order. `threads`
/// resolves like resolve_threads (0 = hardware concurrency); the result is
/// identical for every thread count. Throws IoError (with line number) on
/// negative ids, non-numeric tokens, or trailing garbage.
[[nodiscard]] Graph read_edge_list(std::istream& is, std::size_t threads = 0);
[[nodiscard]] Graph read_edge_list_file(const std::string& path,
                                        std::size_t threads = 0);

/// Writes the format-v2 binary snapshot (header + raw CSR arrays).
void write_binary(const Graph& g, std::ostream& os);
void write_binary_file(const Graph& g, const std::string& path);

/// Reads a snapshot from a stream into owned arrays, checking the payload's
/// structure (offsets, neighbor range, sorted adjacency, direction flags,
/// degree sums) as it goes. Throws IoError on any violation, and on any
/// byte after the last array ("snapshot size mismatch", as the mapped
/// path refuses a file of the wrong size).
[[nodiscard]] Graph read_binary(std::istream& is);

/// Reads a snapshot file. Where mmap exists the file is mapped zero-copy
/// (O(1) load; Graph::is_memory_mapped() reports true): the header counts
/// must match the file size exactly, and the array contents are trusted.
/// Elsewhere the file goes through read_binary.
[[nodiscard]] Graph read_binary_file(const std::string& path);

}  // namespace frontier
