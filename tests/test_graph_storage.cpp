// GraphStorage backends: owned-vs-mmap equivalence, the refusal of v1
// snapshot files, storage sharing across Graph copies, and the parallel
// ingestion helpers.
#include "graph/storage.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace frontier {
namespace {

/// Full structural equality: counts, degrees, adjacency, and direction
/// flags — stronger than the degree-only check in test_io.
void expect_identical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_directed_edges(), b.num_directed_edges());
  ASSERT_EQ(a.num_symmetric_edges(), b.num_symmetric_edges());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.out_degree(v), b.out_degree(v)) << "vertex " << v;
    ASSERT_EQ(a.in_degree(v), b.in_degree(v)) << "vertex " << v;
    const auto an = a.neighbors(v);
    const auto bn = b.neighbors(v);
    ASSERT_TRUE(std::equal(an.begin(), an.end(), bn.begin(), bn.end()))
        << "neighbors of " << v;
    const auto ad = a.directions(v);
    const auto bd = b.directions(v);
    ASSERT_TRUE(std::equal(ad.begin(), ad.end(), bd.begin(), bd.end()))
        << "directions of " << v;
  }
}

Graph make_test_graph(std::uint64_t seed) {
  Rng rng(seed);
  return directed_preferential(400, 3, 0.4, rng);
}

TEST(GraphStorage, OwnedVsMmapEquivalence) {
  const Graph owned = make_test_graph(11);
  EXPECT_FALSE(owned.is_memory_mapped());

  const std::string path = ::testing::TempDir() + "storage_v2.bin";
  write_binary_file(owned, path);
  const Graph mapped = read_binary_file(path);
#if FRONTIER_HAS_MMAP
  EXPECT_TRUE(mapped.is_memory_mapped());
#endif
  expect_identical(owned, mapped);

  // Derived queries must agree too.
  EXPECT_EQ(owned.max_degree(), mapped.max_degree());
  EXPECT_DOUBLE_EQ(owned.average_degree(), mapped.average_degree());
  for (EdgeIndex j = 0; j < std::min<EdgeIndex>(owned.volume(), 64); ++j) {
    EXPECT_EQ(owned.edge_at(j), mapped.edge_at(j)) << "slot " << j;
  }
  std::filesystem::remove(path);
}

TEST(GraphStorage, StreamReadOfV2IsOwnedAndEquivalent) {
  const Graph g = make_test_graph(12);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(g, ss);
  const Graph loaded = read_binary(ss);
  EXPECT_FALSE(loaded.is_memory_mapped());
  expect_identical(g, loaded);
}

TEST(GraphStorage, V1FileIsRefusedWithConvertHint) {
  // A format-v1 file (magic, version 1, n, m, then u,v pairs) is not read
  // any more: read_binary_file refuses it and names the command that
  // re-creates the snapshot from its edge list.
  const std::string path = ::testing::TempDir() + "refused_v1.bin";
  {
    std::ofstream f(path, std::ios::binary);
    const std::uint64_t magic = 0x46524f4e54474230ULL;
    const std::uint32_t version = 1;
    const std::uint64_t n = 2;
    const std::uint64_t m = 1;
    const std::uint32_t edge[2] = {0, 1};
    f.write(reinterpret_cast<const char*>(&magic), 8);
    f.write(reinterpret_cast<const char*>(&version), 4);
    f.write(reinterpret_cast<const char*>(&n), 8);
    f.write(reinterpret_cast<const char*>(&m), 8);
    f.write(reinterpret_cast<const char*>(edge), 8);
  }
  try {
    (void)read_binary_file(path);
    ADD_FAILURE() << "expected IoError";
  } catch (const IoError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("frontier_cli convert"), std::string::npos) << msg;
  }
  std::filesystem::remove(path);
}

TEST(GraphStorage, CopiesShareStorageAndOutliveTheOriginal) {
  const std::string path = ::testing::TempDir() + "storage_share.bin";
  const Graph original = make_test_graph(14);
  write_binary_file(original, path);

  Graph copy;
  {
    const Graph mapped = read_binary_file(path);
    copy = mapped;  // shares the mapping
  }
  // The mapping must stay alive through the copy after `mapped` died.
  expect_identical(original, copy);
  std::filesystem::remove(path);
}

TEST(ParallelIngestion, ThreadCountDoesNotChangeTheParsedGraph) {
  const Graph g = make_test_graph(15);
  std::stringstream ss;
  write_edge_list(g, ss);
  const std::string text = ss.str();

  Graph first;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{7}}) {
    std::stringstream in(text);
    const Graph parsed = read_edge_list(in, threads);
    expect_identical(g, parsed);
    if (threads == 1) {
      first = parsed;
    } else {
      expect_identical(first, parsed);
    }
  }
}

TEST(ParallelIngestion, ParallelSortMatchesStdSort) {
  std::mt19937_64 prng(99);
  std::vector<std::uint64_t> values(300000);
  for (auto& v : values) v = prng();
  std::vector<std::uint64_t> expected = values;
  std::sort(expected.begin(), expected.end());
  parallel_sort(values.begin(), values.end(), std::less<>{}, 4);
  EXPECT_EQ(values, expected);
}

TEST(ParallelIngestion, LargeBuilderSortRoundTrips) {
  // Enough edges (> 64k entries) to engage the parallel block sort inside
  // GraphBuilder::build(); the result must still round-trip exactly.
  Rng rng(16);
  const Graph g = barabasi_albert(40000, 2, rng);
  std::stringstream ss;
  write_edge_list(g, ss);
  const Graph reparsed = read_edge_list(ss, 4);
  expect_identical(g, reparsed);

  // CSR invariants: offsets monotone, per-vertex neighbor lists sorted.
  const auto offsets = g.offsets();
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    ASSERT_LE(offsets[i], offsets[i + 1]);
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    ASSERT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end())) << "vertex " << v;
  }
}

}  // namespace
}  // namespace frontier
