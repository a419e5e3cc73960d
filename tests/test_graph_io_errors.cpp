// Malformed-input suite for graph IO: negative ids, trailing garbage,
// truncated / corrupt v2 binaries, refused v1 headers, empty graphs,
// sparse ids, and full-disk flush detection.
#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace frontier {
namespace {

std::string io_error_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const IoError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected IoError";
  return "";
}

// Checks the refusal of a format-v1 header: it names the convert command.
void expect_v1_refusal(const std::string& msg) {
  EXPECT_NE(msg.find("v1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("frontier_cli convert"), std::string::npos) << msg;
}

Graph parse(const std::string& text, std::size_t threads = 0) {
  std::stringstream ss(text);
  return read_edge_list(ss, threads);
}

TEST(EdgeListErrors, NegativeFirstIdThrowsWithLineNumber) {
  const std::string msg =
      io_error_message([] { (void)parse("-1 2\n"); });
  EXPECT_NE(msg.find("negative vertex id"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
}

TEST(EdgeListErrors, NegativeSecondIdThrows) {
  EXPECT_THROW((void)parse("0 -1\n"), IoError);
}

TEST(EdgeListErrors, LineNumberCountsCommentsAndBlanks) {
  const std::string msg = io_error_message(
      [] { (void)parse("# header\n0 1\n\n2 3\n-4 5\n"); });
  EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
}

TEST(EdgeListErrors, TrailingGarbageThrows) {
  const std::string msg =
      io_error_message([] { (void)parse("0 1\n1 2 junk\n"); });
  EXPECT_NE(msg.find("trailing garbage"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
}

TEST(EdgeListErrors, GarbageStuckToNumberThrows) {
  EXPECT_THROW((void)parse("0x1 2\n"), IoError);
  EXPECT_THROW((void)parse("0 1x\n"), IoError);
}

TEST(EdgeListErrors, MissingSecondIdThrows) {
  EXPECT_THROW((void)parse("5\n"), IoError);
  EXPECT_THROW((void)parse("5 \n"), IoError);
}

TEST(EdgeListErrors, OutOfRangeIdThrows) {
  const std::string msg = io_error_message(
      [] { (void)parse("99999999999999999999999999 1\n"); });
  EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
}

TEST(EdgeListErrors, ErrorInLaterParallelChunkReportsGlobalLine) {
  // Force many chunks so the bad line lands away from chunk 0; the line
  // number must still be global.
  std::string text;
  for (int i = 0; i < 99; ++i) text += "0 1\n";
  text += "bad line\n";  // line 100
  std::stringstream ss(text);
  const std::string msg =
      io_error_message([&] { (void)read_edge_list(ss, 8); });
  EXPECT_NE(msg.find("line 100"), std::string::npos) << msg;
}

TEST(EdgeListErrors, InlineCommentAfterEdgeIsAllowed) {
  const Graph g = parse("0 1 # forward edge\n1 2\t# tabbed comment\n");
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_directed_edges(), 2u);
}

TEST(EdgeListErrors, CrlfLineEndingsParse) {
  const Graph g = parse("0 1\r\n1 2\r\n");
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_directed_edges(), 2u);
}

TEST(EdgeListErrors, EmptyAndCommentOnlyInputsYieldEmptyGraph) {
  EXPECT_EQ(parse("").num_vertices(), 0u);
  EXPECT_EQ(parse("# nothing here\n\n").num_vertices(), 0u);
}

TEST(EdgeListErrors, SparseIdsDensifyInNumericOrder) {
  const Graph g = parse("1000000 42\n42 7\n", 4);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_directed_edges(), 2u);
  // Numeric order: 7 -> 0, 42 -> 1, 1000000 -> 2.
  EXPECT_TRUE(g.has_directed_edge(2, 1));
  EXPECT_TRUE(g.has_directed_edge(1, 0));
}

TEST(BinaryErrors, CorruptV1EdgeCountFailsFastWithoutAllocation) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  const std::uint64_t magic = 0x46524f4e54474230ULL;
  const std::uint32_t version = 1;
  const std::uint64_t n = 4;
  const std::uint64_t m = std::uint64_t{1} << 60;  // absurd edge count
  ss.write(reinterpret_cast<const char*>(&magic), 8);
  ss.write(reinterpret_cast<const char*>(&version), 4);
  ss.write(reinterpret_cast<const char*>(&n), 8);
  ss.write(reinterpret_cast<const char*>(&m), 8);
  expect_v1_refusal(io_error_message([&] { (void)read_binary(ss); }));
}

TEST(BinaryErrors, V1EdgeEndpointOutOfRangeThrows) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  const std::uint64_t magic = 0x46524f4e54474230ULL;
  const std::uint32_t version = 1;
  const std::uint64_t n = 2;
  const std::uint64_t m = 1;
  const std::uint32_t u = 0, v = 7;  // v >= n
  ss.write(reinterpret_cast<const char*>(&magic), 8);
  ss.write(reinterpret_cast<const char*>(&version), 4);
  ss.write(reinterpret_cast<const char*>(&n), 8);
  ss.write(reinterpret_cast<const char*>(&m), 8);
  ss.write(reinterpret_cast<const char*>(&u), 4);
  ss.write(reinterpret_cast<const char*>(&v), 4);
  expect_v1_refusal(io_error_message([&] { (void)read_binary(ss); }));
}

TEST(BinaryErrors, TruncatedV2StreamThrows) {
  Rng rng(4);
  const Graph g = barabasi_albert(60, 2, rng);
  std::stringstream full(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(g, full);
  const std::string bytes = full.str();
  for (const std::size_t cut : {std::size_t{6}, std::size_t{10},
                                std::size_t{39}, std::size_t{41},
                                bytes.size() / 2, bytes.size() - 1}) {
    std::stringstream trunc(std::ios::in | std::ios::out | std::ios::binary);
    trunc << bytes.substr(0, cut);
    EXPECT_THROW((void)read_binary(trunc), IoError) << "cut at " << cut;
  }
}

TEST(BinaryErrors, TruncatedAndPaddedV2FilesThrow) {
  Rng rng(5);
  const Graph g = barabasi_albert(80, 2, rng);
  const std::string path = ::testing::TempDir() + "trunc_v2.bin";
  write_binary_file(g, path);
  const auto full_size = std::filesystem::file_size(path);

  std::filesystem::resize_file(path, full_size / 2);
  EXPECT_THROW((void)read_binary_file(path), IoError);

  // One byte short of a header: the mapped path decodes and refuses it
  // itself; there is no stream reader to fall back to.
  std::filesystem::resize_file(path, 39);
  const std::string msg =
      io_error_message([&] { (void)read_binary_file(path); });
  EXPECT_NE(msg.find("truncated header"), std::string::npos) << msg;

  // Trailing garbage (wrong total size) must also be rejected.
  write_binary_file(g, path);
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f << "extra";
  }
  EXPECT_THROW((void)read_binary_file(path), IoError);
  std::filesystem::remove(path);
}

TEST(BinaryErrors, TruncatedAndPaddedV2StreamsThrow) {
  // The stream reader's twin of the mapped file checks above: a snapshot
  // cut short or followed by any byte is refused, with the mmap path's
  // wording for the latter.
  Rng rng(5);
  const Graph g = barabasi_albert(80, 2, rng);
  std::stringstream full(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(g, full);
  const std::string bytes = full.str();

  std::stringstream half(std::ios::in | std::ios::out | std::ios::binary);
  half << bytes.substr(0, bytes.size() / 2);
  EXPECT_THROW((void)read_binary(half), IoError);

  const std::string tails[] = {"extra", std::string(1, '\0')};
  for (const std::string& tail : tails) {
    std::stringstream padded(std::ios::in | std::ios::out | std::ios::binary);
    padded << bytes;
    padded.write(tail.data(), static_cast<std::streamsize>(tail.size()));
    const std::string msg =
        io_error_message([&] { (void)read_binary(padded); });
    EXPECT_NE(msg.find("snapshot size mismatch"), std::string::npos) << msg;
  }

  std::stringstream exact(std::ios::in | std::ios::out | std::ios::binary);
  exact << bytes;
  EXPECT_EQ(read_binary(exact).num_vertices(), g.num_vertices());
}

TEST(BinaryErrors, CorruptV2CountsFailFast) {
  Rng rng(6);
  const Graph g = barabasi_albert(40, 2, rng);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(g, ss);
  std::string bytes = ss.str();
  // Overwrite the symmetric-edge count (offset 32) with an absurd value.
  const std::uint64_t huge = std::uint64_t{1} << 61;
  bytes.replace(32, 8, reinterpret_cast<const char*>(&huge), 8);
  std::stringstream corrupt(std::ios::in | std::ios::out | std::ios::binary);
  corrupt << bytes;
  EXPECT_THROW((void)read_binary(corrupt), IoError);
}

TEST(BinaryErrors, CorruptV2PayloadRejectedByStreamPath) {
  Rng rng(8);
  const Graph g = barabasi_albert(50, 2, rng);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(g, ss);
  const std::string bytes = ss.str();

  // Non-monotone offsets: swap two adjacent offset entries.
  {
    std::string corrupt = bytes;
    const std::size_t off = 40 + 8;  // offsets[1], after the 40-byte header
    std::swap_ranges(corrupt.begin() + off, corrupt.begin() + off + 8,
                     corrupt.begin() + off + 8);
    std::stringstream in(std::ios::in | std::ios::out | std::ios::binary);
    in << corrupt;
    EXPECT_THROW((void)read_binary(in), IoError);
  }

  // Out-of-range neighbor id: overwrite the first neighbor entry.
  {
    std::string corrupt = bytes;
    const std::size_t neighbors_off =
        40 + (g.num_vertices() + 1) * 8;  // offsets array then neighbors
    const std::uint32_t bogus = 0xFFFFFFFFu;
    corrupt.replace(neighbors_off, 4,
                    reinterpret_cast<const char*>(&bogus), 4);
    std::stringstream in(std::ios::in | std::ios::out | std::ios::binary);
    in << corrupt;
    EXPECT_THROW((void)read_binary(in), IoError);
  }
}

TEST(BinaryErrors, UnsortedV2AdjacencyRejectedByStreamPath) {
  // The intersection kernel assumes strictly increasing adjacency; the
  // stream loader checks it. Corrupt vertex 0's list two ways: swap its
  // first two neighbors, and repeat its first neighbor.
  Rng rng(9);
  const Graph g = barabasi_albert(50, 2, rng);
  ASSERT_GE(g.degree(0), 2u);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(g, ss);
  const std::string bytes = ss.str();
  const std::size_t neighbors_off =
      40 + (g.num_vertices() + 1) * 8;  // offsets array then neighbors
  const auto nbrs = g.neighbors(0);

  const auto load = [](const std::string& corrupt) {
    std::stringstream in(std::ios::in | std::ios::out | std::ios::binary);
    in << corrupt;
    (void)read_binary(in);
  };
  {
    std::string corrupt = bytes;
    const VertexId swapped[2] = {nbrs[1], nbrs[0]};
    corrupt.replace(neighbors_off, 8,
                    reinterpret_cast<const char*>(swapped), 8);
    const std::string msg = io_error_message([&] { load(corrupt); });
    EXPECT_NE(msg.find("unsorted adjacency"), std::string::npos) << msg;
  }
  {
    std::string corrupt = bytes;
    const VertexId duplicate[2] = {nbrs[0], nbrs[0]};
    corrupt.replace(neighbors_off, 8,
                    reinterpret_cast<const char*>(duplicate), 8);
    const std::string msg = io_error_message([&] { load(corrupt); });
    EXPECT_NE(msg.find("unsorted adjacency"), std::string::npos) << msg;
  }
  load(bytes);  // the uncorrupted snapshot still loads
}

TEST(BinaryErrors, UnsupportedVersionThrows) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  const std::uint64_t magic = 0x46524f4e54474230ULL;
  const std::uint32_t version = 3;
  ss.write(reinterpret_cast<const char*>(&magic), 8);
  ss.write(reinterpret_cast<const char*>(&version), 4);
  const std::string msg = io_error_message([&] { (void)read_binary(ss); });
  EXPECT_NE(msg.find("unsupported version"), std::string::npos) << msg;
}

TEST(BinaryErrors, EmptyGraphRoundTripsThroughV2) {
  const Graph empty = GraphBuilder(0).build();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(empty, ss);
  const Graph loaded = read_binary(ss);
  EXPECT_EQ(loaded.num_vertices(), 0u);
  EXPECT_EQ(loaded.num_directed_edges(), 0u);

  const std::string path = ::testing::TempDir() + "empty_v2.bin";
  write_binary_file(empty, path);
  const Graph mapped = read_binary_file(path);
  EXPECT_EQ(mapped.num_vertices(), 0u);
  std::filesystem::remove(path);
}

TEST(WriteErrors, UnwritablePathThrows) {
  const Graph g = GraphBuilder(0).build();
  EXPECT_THROW(write_edge_list_file(g, "/nonexistent/dir/graph.txt"),
               IoError);
  EXPECT_THROW(write_binary_file(g, "/nonexistent/dir/graph.bin"), IoError);
}

TEST(WriteErrors, FullDiskSurfacesAsIoError) {
  // /dev/full accepts opens and writes but fails on flush — exactly the
  // silent-tail-loss scenario the flush check guards against.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  Rng rng(7);
  const Graph g = barabasi_albert(200, 2, rng);
  EXPECT_THROW(write_edge_list_file(g, "/dev/full"), IoError);
  EXPECT_THROW(write_binary_file(g, "/dev/full"), IoError);
}

}  // namespace
}  // namespace frontier
