#include "graph/io.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include <chrono>

#include "core/failpoint.hpp"
#include "core/parallel.hpp"
#include "graph/builder.hpp"
#include "graph/storage.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"

namespace frontier {

// The binary format stores raw little-endian arrays; a big-endian port
// would need byte-swapping read/write paths.
static_assert(std::endian::native == std::endian::little,
              "graph binary IO assumes a little-endian host");

namespace {

constexpr std::uint64_t kMagic = 0x46524f4e54474230ULL;  // "FRONTGB0"
constexpr std::uint32_t kVersion = 2;
constexpr std::uint64_t kV2HeaderBytes = 40;  // magic,ver,reserved,n,dir,sym

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

// Without mmap, files are read through streams.
#if !FRONTIER_HAS_MMAP
std::ifstream open_in(const std::string& path, std::ios_base::openmode mode) {
  std::ifstream f(path, mode);
  if (!f) throw IoError("cannot open for reading: " + path);
  return f;
}

std::uint64_t file_size_of(const std::string& path) {
  std::ifstream f(path, std::ios_base::binary | std::ios_base::ate);
  const auto size = f.tellg();
  return (f && size > 0) ? static_cast<std::uint64_t>(size) : 0;
}
#endif

// Graph snapshots are created (streamed, possibly GBs — too big to
// buffer for the durable helper), not atomically replaced; a writer that
// needs crash-safe replacement should write to a scratch name and move
// it durably itself.
std::ofstream open_out(const std::string& path, std::ios_base::openmode mode) {  // lint:allow(durable-file-replacement): streamed create-only snapshot writer
  std::ofstream f(path, mode);  // lint:allow(durable-file-replacement): streamed create-only snapshot writer
  if (!f) throw IoError("cannot open for writing: " + path);
  return f;
}

/// Flushes and verifies the stream so a full disk surfaces as IoError
/// instead of silently losing the tail of the file.
void flush_or_throw(std::ofstream& f, const std::string& what,  // lint:allow(durable-file-replacement): helper for the create-only writers above
                    const std::string& path) {
  f.flush();
  if (!f) throw IoError(what + ": flush failed (disk full?): " + path);
}

// ---------------------------------------------------------------------------
// Text parsing: chunked std::from_chars scanner.
// ---------------------------------------------------------------------------

struct ChunkResult {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;
  std::size_t lines = 0;       // lines fully visited in this chunk
  std::size_t error_line = 0;  // 1-based line within the chunk; 0 = no error
  std::string error_what;      // message without position info
};

/// Parses one chunk whose start is at a line boundary. Stops at the first
/// malformed line, recording the local line number and message.
void parse_chunk(std::string_view text, ChunkResult& out) {
  const char* p = text.data();
  const char* const end = p + text.size();
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r';
  };
  while (p < end) {
    const char* nl =
        static_cast<const char*>(std::memchr(p, '\n', end - p));
    const char* const eol = nl != nullptr ? nl : end;
    ++out.lines;
    const char* q = p;
    while (q < eol && is_space(*q)) ++q;
    if (q == eol || *q == '#') {  // blank line or comment
      p = nl != nullptr ? nl + 1 : end;
      continue;
    }
    const auto fail = [&](const char* what) {
      out.error_line = out.lines;
      out.error_what = what;
    };
    std::uint64_t ids[2] = {0, 0};
    for (int k = 0; k < 2 && out.error_line == 0; ++k) {
      if (q < eol && *q == '-') {
        fail("negative vertex id");
        break;
      }
      const auto [ptr, ec] = std::from_chars(q, eol, ids[k]);
      if (ec == std::errc::result_out_of_range) {
        fail("vertex id out of range");
        break;
      }
      if (ec != std::errc() || (ptr < eol && !is_space(*ptr))) {
        fail(k == 0 ? "expected two vertex ids" : "malformed second id");
        break;
      }
      q = ptr;
      while (q < eol && is_space(*q)) ++q;
      if (k == 0 && q == eol) {
        fail("expected two vertex ids");
        break;
      }
    }
    if (out.error_line == 0 && q < eol && *q != '#') {
      fail("trailing garbage after edge");
    }
    if (out.error_line != 0) return;
    out.edges.emplace_back(ids[0], ids[1]);
    p = nl != nullptr ? nl + 1 : end;
  }
}

Graph parse_edge_list_text(std::string_view text, std::size_t threads) {
  // Auto mode only fans out when each worker gets at least ~1 MiB of text;
  // an explicit thread count is honored (down to one line per chunk) so
  // tests can exercise the parallel path on small inputs.
  constexpr std::size_t kAutoBytesPerWorker = std::size_t{1} << 20;
  std::size_t workers =
      threads == 0
          ? std::min(default_thread_count(),
                     std::max<std::size_t>(text.size() / kAutoBytesPerWorker,
                                           1))
          : std::min(threads, std::max<std::size_t>(text.size(), 1));

  // Chunk boundaries: byte targets advanced to the next line start.
  std::vector<std::string_view> chunks;
  std::size_t begin = 0;
  for (std::size_t w = 1; w <= workers && begin < text.size(); ++w) {
    std::size_t target = text.size() * w / workers;
    if (w == workers) {
      target = text.size();
    } else {
      const std::size_t nl = text.find('\n', std::max(target, begin));
      target = nl == std::string_view::npos ? text.size() : nl + 1;
    }
    if (target > begin) chunks.push_back(text.substr(begin, target - begin));
    begin = target;
  }

  std::vector<ChunkResult> results(chunks.size());
  parallel_for_ranges(chunks.size(), chunks.size(),
                      [&](std::size_t, std::size_t cb, std::size_t ce) {
                        for (std::size_t c = cb; c < ce; ++c) {
                          parse_chunk(chunks[c], results[c]);
                        }
                      });

  std::size_t total_edges = 0;
  std::size_t lines_before = 0;
  for (const ChunkResult& r : results) {
    if (r.error_line != 0) {
      throw IoError("read_edge_list: " + r.error_what + " at line " +
                    std::to_string(lines_before + r.error_line));
    }
    lines_before += r.lines;
    total_edges += r.edges.size();
  }

  // Densify by *numeric order* so graphs written by write_edge_list (which
  // are already dense) round-trip with identical vertex ids.
  std::vector<std::uint64_t> ids;
  ids.reserve(total_edges * 2);
  for (const ChunkResult& r : results) {
    for (const auto& [a, b] : r.edges) {
      ids.push_back(a);
      ids.push_back(b);
    }
  }
  parallel_sort(ids.begin(), ids.end(), std::less<>{}, threads);
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::unordered_map<std::uint64_t, VertexId> dense;
  dense.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    dense.emplace(ids[i], static_cast<VertexId>(i));
  }

  GraphBuilder builder(ids.size());
  for (const ChunkResult& r : results) {
    for (const auto& [a, b] : r.edges) {
      builder.add_edge(dense.at(a), dense.at(b));
    }
  }
  return builder.build(threads);
}

// ---------------------------------------------------------------------------
// Binary format v2 layout.
// ---------------------------------------------------------------------------

constexpr std::uint64_t pad8(std::uint64_t pos) { return (pos + 7) & ~7ULL; }

struct V2Header {
  std::uint64_t num_vertices = 0;
  std::uint64_t num_directed_edges = 0;
  std::uint64_t num_symmetric_edges = 0;
};

/// Byte offsets of the five arrays relative to the header start, plus the
/// total snapshot size. With n and s bounded by decode_v2_header none of
/// the sums below can overflow.
struct V2Layout {
  std::uint64_t offsets;
  std::uint64_t neighbors;
  std::uint64_t directions;
  std::uint64_t out_degree;
  std::uint64_t in_degree;
  std::uint64_t total;
};

V2Layout v2_layout(const V2Header& h) {
  const std::uint64_t n = h.num_vertices;
  const std::uint64_t s = h.num_symmetric_edges;
  V2Layout l{};
  std::uint64_t pos = kV2HeaderBytes;
  l.offsets = pos = pad8(pos);
  pos += (n + 1) * sizeof(EdgeIndex);
  l.neighbors = pos = pad8(pos);
  pos += s * sizeof(VertexId);
  l.directions = pos = pad8(pos);
  pos += s * sizeof(EdgeDir);
  l.out_degree = pos = pad8(pos);
  pos += n * sizeof(std::uint32_t);
  l.in_degree = pos = pad8(pos);
  pos += n * sizeof(std::uint32_t);
  l.total = pos;
  return l;
}

/// Decodes the header from the first min(40, file size) bytes of a
/// snapshot. Checks the magic, the version and the counts, the latter
/// against `available` payload bytes when known, *before* any allocation.
V2Header decode_v2_header(std::span<const std::byte> bytes,
                          std::optional<std::uint64_t> available) {
  const auto field = [&bytes]<typename T>(std::size_t at, T& out) {
    std::memcpy(&out, bytes.data() + at, sizeof(T));
  };
  if (bytes.size() < 12) throw IoError("read_binary: truncated header");
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  field(0, magic);
  field(8, version);
  if (magic != kMagic) throw IoError("read_binary: bad magic");
  if (version == 1) {
    throw IoError(
        "read_binary: format v1 snapshots are no longer read; re-create the "
        "snapshot from its edge list with: frontier_cli convert graph.txt "
        "graph.bin");
  }
  if (version != kVersion) {
    throw IoError("read_binary: unsupported version " +
                  std::to_string(version));
  }
  if (bytes.size() < kV2HeaderBytes) {
    throw IoError("read_binary: truncated header");
  }
  V2Header h{};
  field(16, h.num_vertices);
  field(24, h.num_directed_edges);
  field(32, h.num_symmetric_edges);
  if (h.num_vertices > static_cast<std::uint64_t>(kInvalidVertex)) {
    throw IoError("read_binary: vertex count too large");
  }
  // Each symmetric edge occupies at least 5 bytes (neighbor + direction),
  // so any plausible s is far below 2^60; larger values mean corruption
  // and would overflow the layout arithmetic.
  if (h.num_symmetric_edges > (std::uint64_t{1} << 60)) {
    throw IoError("read_binary: symmetric edge count too large");
  }
  if (h.num_directed_edges > h.num_symmetric_edges) {
    throw IoError("read_binary: directed edge count exceeds symmetric count");
  }
  if (available.has_value() &&
      v2_layout(h).total - kV2HeaderBytes > *available) {
    throw IoError("read_binary: header counts exceed stream size");
  }
  return h;
}

/// Bytes left in a seekable stream; nullopt when the stream cannot seek.
std::optional<std::uint64_t> remaining_bytes(std::istream& is) {
  const auto pos = is.tellg();
  if (pos < 0) return std::nullopt;
  is.seekg(0, std::ios_base::end);
  const auto endpos = is.tellg();
  is.seekg(pos);
  if (endpos < 0 || endpos < pos) return std::nullopt;
  return static_cast<std::uint64_t>(endpos - pos);
}

/// Reads `count` elements into `out`, growing in bounded steps so a corrupt
/// count on a non-seekable stream cannot trigger a huge up-front allocation.
template <typename T>
void read_array_chunked(std::istream& is, std::vector<T>& out,
                        std::uint64_t count) {
  constexpr std::uint64_t kStepBytes = std::uint64_t{1} << 24;  // 16 MiB
  const std::uint64_t step = std::max<std::uint64_t>(kStepBytes / sizeof(T), 1);
  out.clear();
  std::uint64_t done = 0;
  while (done < count) {
    const std::uint64_t take = std::min(count - done, step);
    out.resize(static_cast<std::size_t>(done + take));
    is.read(reinterpret_cast<char*>(out.data() + done),
            static_cast<std::streamsize>(take * sizeof(T)));
    if (!is) throw IoError("read_binary: truncated stream");
    done += take;
  }
}

#if FRONTIER_HAS_MMAP
Graph map_v2_file(MmapFile file, const std::string& path) {
  const std::byte* base = file.data();
  const V2Header h = decode_v2_header(
      {base, std::min<std::size_t>(file.size(), kV2HeaderBytes)},
      std::nullopt);
  const V2Layout l = v2_layout(h);
  if (l.total != file.size()) {
    throw IoError("read_binary: snapshot size mismatch (" + path +
                  " is truncated or corrupt)");
  }

  // The arrays start on 8-byte boundaries of the page-aligned mapping, so
  // the reinterpret_casts below are properly aligned. Unlike the stream
  // path, array *contents* beyond the O(1) checks here are trusted — a
  // full scan would defeat the O(1)-load contract. Snapshots from
  // untrusted sources should go through read_binary (stream) once.
  GraphStorage::Views views;
  views.num_directed_edges = h.num_directed_edges;
  views.offsets = {reinterpret_cast<const EdgeIndex*>(base + l.offsets),
                   static_cast<std::size_t>(h.num_vertices + 1)};
  views.neighbors = {reinterpret_cast<const VertexId*>(base + l.neighbors),
                     static_cast<std::size_t>(h.num_symmetric_edges)};
  views.directions = {reinterpret_cast<const EdgeDir*>(base + l.directions),
                      static_cast<std::size_t>(h.num_symmetric_edges)};
  views.out_degree = {
      reinterpret_cast<const std::uint32_t*>(base + l.out_degree),
      static_cast<std::size_t>(h.num_vertices)};
  views.in_degree = {
      reinterpret_cast<const std::uint32_t*>(base + l.in_degree),
      static_cast<std::size_t>(h.num_vertices)};
  if (views.offsets.front() != 0 ||
      views.offsets.back() != h.num_symmetric_edges) {
    throw IoError("read_binary: inconsistent offset array");
  }
  return Graph(GraphStorage::from_mapped(std::move(file), views));
}
#endif

/// Telemetry seam for the file-load entry points: counts loads per mode
/// (text parse, binary mmap, binary stream rebuild), records wall time and
/// input bytes, and samples the post-load peak RSS. Gated on the global
/// metrics_enabled() switch so uninstrumented loads pay one relaxed load.
void note_graph_load(const char* mode, std::chrono::steady_clock::time_point
                     start, std::uint64_t bytes) {
  if (!metrics_enabled()) return;
  const std::uint64_t ns = elapsed_ns(start);
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter(std::string("graph.load.") + mode + "_total").add(1);
  reg.histogram("graph.load_ns").observe(ns);
  reg.histogram("graph.load_bytes").observe(bytes);
  reg.gauge("graph.peak_rss_bytes")
      .set(static_cast<double>(process_usage().peak_rss_bytes));
}

}  // namespace

void write_edge_list(const Graph& g, std::ostream& os) {
  os << "# libfrontier directed edge list: " << g.num_vertices()
     << " vertices, " << g.num_directed_edges() << " directed edges\n";
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto dirs = g.directions(u);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const EdgeDir d = dirs[k];
      if (d == EdgeDir::kForward || d == EdgeDir::kBoth) {
        os << u << ' ' << nbrs[k] << '\n';
      }
    }
  }
  if (!os) throw IoError("write_edge_list: stream failure");
}

void write_edge_list_file(const Graph& g, const std::string& path) {
  FRONTIER_FAILPOINT("graph.write");
  auto f = open_out(path, std::ios_base::out);
  write_edge_list(g, f);
  flush_or_throw(f, "write_edge_list", path);
}

Graph read_edge_list(std::istream& is, std::size_t threads) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = std::move(buffer).str();
  return parse_edge_list_text(text, threads);
}

Graph read_edge_list_file(const std::string& path, std::size_t threads) {
  FRONTIER_FAILPOINT("graph.read");
  const auto start = std::chrono::steady_clock::now();
#if FRONTIER_HAS_MMAP
  // Map the text read-only instead of copying it: the parser only needs a
  // string_view, so peak memory stays at the parsed edges, not file + copy.
  const MmapFile file = MmapFile::open(path);
  const char* data = reinterpret_cast<const char*>(file.data());
  Graph g = parse_edge_list_text(
      data == nullptr ? std::string_view{}
                      : std::string_view(data, file.size()),
      threads);
  note_graph_load("text", start, file.size());
  return g;
#else
  auto f = open_in(path, std::ios_base::in | std::ios_base::binary);
  f.seekg(0, std::ios_base::end);
  const auto size = f.tellg();
  if (size < 0) throw IoError("read_edge_list: cannot size " + path);
  f.seekg(0);
  std::string text(static_cast<std::size_t>(size), '\0');
  f.read(text.data(), size);
  if (!f && size != 0) throw IoError("read_edge_list: short read: " + path);
  Graph g = parse_edge_list_text(text, threads);
  note_graph_load("text", start, static_cast<std::uint64_t>(size));
  return g;
#endif
}

void write_binary(const Graph& g, std::ostream& os) {
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t s = g.num_symmetric_edges();
  write_pod(os, kMagic);
  write_pod<std::uint32_t>(os, kVersion);
  write_pod<std::uint32_t>(os, 0);  // reserved (alignment)
  write_pod<std::uint64_t>(os, n);
  write_pod<std::uint64_t>(os, g.num_directed_edges());
  write_pod<std::uint64_t>(os, s);

  std::uint64_t pos = kV2HeaderBytes;
  const auto write_array = [&](const void* data, std::uint64_t bytes) {
    while (pos % 8 != 0) {
      os.put('\0');
      ++pos;
    }
    os.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(bytes));
    pos += bytes;
  };
  const auto offsets = g.offsets();
  if (offsets.empty()) {
    // Default-constructed empty graph: emit the canonical one-entry array.
    const EdgeIndex zero = 0;
    write_array(&zero, sizeof(zero));
  } else {
    write_array(offsets.data(), offsets.size_bytes());
  }
  write_array(g.neighbor_array().data(), g.neighbor_array().size_bytes());
  write_array(g.direction_array().data(), g.direction_array().size_bytes());
  write_array(g.out_degree_array().data(),
              g.out_degree_array().size_bytes());
  write_array(g.in_degree_array().data(), g.in_degree_array().size_bytes());
  if (!os) throw IoError("write_binary: stream failure");
}

void write_binary_file(const Graph& g, const std::string& path) {
  FRONTIER_FAILPOINT("graph.write");
  auto f = open_out(path, std::ios_base::out | std::ios_base::binary);
  write_binary(g, f);
  flush_or_throw(f, "write_binary", path);
}

Graph read_binary(std::istream& is) {
  std::array<std::byte, kV2HeaderBytes> header{};
  is.read(reinterpret_cast<char*>(header.data()), header.size());
  const V2Header h = decode_v2_header(
      std::span(header).first(static_cast<std::size_t>(is.gcount())),
      remaining_bytes(is));
  const V2Layout l = v2_layout(h);

  GraphStorage::Arrays arrays;
  arrays.num_directed_edges = h.num_directed_edges;
  std::uint64_t pos = kV2HeaderBytes;
  const auto read_array = [&](auto& vec, std::uint64_t at,
                              std::uint64_t count) {
    const auto padding = static_cast<std::streamsize>(at - pos);
    if (is.ignore(padding).gcount() != padding) {
      throw IoError("read_binary: truncated stream");
    }
    read_array_chunked(is, vec, count);
    pos = at + count * sizeof(vec[0]);
  };
  read_array(arrays.offsets, l.offsets, h.num_vertices + 1);
  read_array(arrays.neighbors, l.neighbors, h.num_symmetric_edges);
  read_array(arrays.directions, l.directions, h.num_symmetric_edges);
  read_array(arrays.out_degree, l.out_degree, h.num_vertices);
  read_array(arrays.in_degree, l.in_degree, h.num_vertices);
  // The mmap path refuses a file of any other size than l.total, so the
  // stream path refuses bytes past the last array too.
  if (is.peek() != std::char_traits<char>::eof()) {
    throw IoError(
        "read_binary: snapshot size mismatch (bytes after the in-degree "
        "array)");
  }
  // The stream path already pays O(n + s); validate the payload's
  // structure — offset monotonicity, neighbor bounds, strictly increasing
  // adjacency per vertex (the intersection kernel's precondition),
  // direction-flag domain, degree sums — so a bit-flipped snapshot
  // surfaces as IoError, not a downstream crash or a wrong codegree.
  if (arrays.offsets.front() != 0 ||
      arrays.offsets.back() != h.num_symmetric_edges ||
      !std::is_sorted(arrays.offsets.begin(), arrays.offsets.end())) {
    throw IoError("read_binary: inconsistent offset array");
  }
  for (std::uint64_t u = 0; u < h.num_vertices; ++u) {
    const std::uint64_t begin = arrays.offsets[u];
    for (std::uint64_t k = begin; k < arrays.offsets[u + 1]; ++k) {
      const VertexId v = arrays.neighbors[k];
      if (v >= h.num_vertices) {
        throw IoError("read_binary: neighbor id out of range");
      }
      if (k > begin && v <= arrays.neighbors[k - 1]) {
        throw IoError("read_binary: unsorted adjacency");
      }
    }
  }
  for (const EdgeDir d : arrays.directions) {
    const auto bits = static_cast<std::uint8_t>(d);
    if (bits < 1 || bits > 3) {
      throw IoError("read_binary: invalid direction flag");
    }
  }
  std::uint64_t out_sum = 0;
  std::uint64_t in_sum = 0;
  for (const std::uint32_t d : arrays.out_degree) out_sum += d;
  for (const std::uint32_t d : arrays.in_degree) in_sum += d;
  if (out_sum != h.num_directed_edges || in_sum != h.num_directed_edges) {
    throw IoError("read_binary: degree arrays disagree with edge count");
  }
  return Graph(GraphStorage::from_arrays(std::move(arrays)));
}

Graph read_binary_file(const std::string& path) {
  FRONTIER_FAILPOINT("graph.read");
  const auto start = std::chrono::steady_clock::now();
#if FRONTIER_HAS_MMAP
  MmapFile file = MmapFile::open(path);
  const std::uint64_t bytes = file.size();
  Graph g = map_v2_file(std::move(file), path);
  note_graph_load("binary_mmap", start, bytes);
#else
  auto f = open_in(path, std::ios_base::in | std::ios_base::binary);
  Graph g = read_binary(f);
  note_graph_load("binary_stream", start, file_size_of(path));
#endif
  return g;
}

}  // namespace frontier
