// StreamEventBlock's memoised codegree column: it must equal
// shared_neighbors on every edge row however the block was filled, be
// recomputed after clear() or for another graph, be extended after
// appends, and give every sink that reads it the same values — so a
// sink's state does not depend on which sinks read the column before it.
#include "stream/block.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "random/rng.hpp"
#include "stream/motif_sinks.hpp"

namespace frontier {
namespace {

constexpr std::size_t kBlockSizes[] = {1, 7, 64, 4096};

Graph test_graph(std::uint64_t seed) {
  Rng rng(seed);
  return barabasi_albert(400, 4, rng);
}

// Row i of a seeded mixed stream over g: mostly edge slots (u, v) with v a
// uniform neighbor of u, plus vertex-only, edge+vertex and empty rows.
void push_row(StreamEventBlock& block, const Graph& g, Rng& rng,
              std::size_t i) {
  if (i % 17 == 11) {
    block.push_empty();
    return;
  }
  const auto u = static_cast<VertexId>(uniform_index(rng, g.num_vertices()));
  if (i % 13 == 5) {
    block.push_vertex(u);
    return;
  }
  const auto nbrs = g.neighbors(u);
  const VertexId v = nbrs[uniform_index(rng, nbrs.size())];
  if (i % 7 == 3) {
    block.push_edge_vertex(u, v, g.degree(v), v);
  } else {
    block.push_edge(u, v, g.degree(v));
  }
}

void fill(StreamEventBlock& block, const Graph& g, Rng& rng,
          std::size_t rows) {
  for (std::size_t i = 0; i < rows; ++i) push_row(block, g, rng, i);
}

// Every edge row of the column equals a fresh merge in g.
void expect_codegree_matches(const StreamEventBlock& block, const Graph& g) {
  const auto f = block.codegree(g);
  ASSERT_EQ(f.size(), block.size());
  std::size_t edge_rows = 0;
  for (std::size_t i = 0; i < block.size(); ++i) {
    if (!(block.flags()[i] & StreamEventBlock::kHasEdge)) continue;
    ++edge_rows;
    EXPECT_EQ(f[i], shared_neighbors(g, block.u()[i], block.v()[i]))
        << "row " << i;
  }
  EXPECT_GT(edge_rows, 0u);
}

TEST(StreamBlockCodegree, EqualsSharedNeighborsOnEveryEdgeRow) {
  const Graph g = test_graph(1);
  for (const std::size_t k : kBlockSizes) {
    StreamEventBlock block(k);
    Rng rng(k);
    fill(block, g, rng, k);
    expect_codegree_matches(block, g);
    expect_codegree_matches(block, g);  // the memoised second read
  }
}

TEST(StreamBlockCodegree, EmptyBlockGivesEmptyColumn) {
  const Graph g = test_graph(1);
  const StreamEventBlock block(16);
  EXPECT_TRUE(block.codegree(g).empty());
}

TEST(StreamBlockCodegree, RecomputedAfterClearAndRefill) {
  const Graph g = test_graph(2);
  StreamEventBlock block(512);
  Rng rng(3);
  fill(block, g, rng, 256);
  expect_codegree_matches(block, g);
  // Same row count, different rows: a memo keyed on size alone would
  // return the first fill's values.
  block.clear();
  fill(block, g, rng, 256);
  expect_codegree_matches(block, g);
  // A shorter refill, then a longer one past the first high-water mark.
  block.clear();
  fill(block, g, rng, 40);
  expect_codegree_matches(block, g);
  block.clear();
  fill(block, g, rng, 512);
  expect_codegree_matches(block, g);
}

TEST(StreamBlockCodegree, ExtendedAfterAppendsWithoutClear) {
  const Graph g = test_graph(4);
  StreamEventBlock block(300);
  Rng rng(5);
  fill(block, g, rng, 10);
  expect_codegree_matches(block, g);
  fill(block, g, rng, 90);
  expect_codegree_matches(block, g);
  fill(block, g, rng, 200);
  ASSERT_EQ(block.size(), 300u);
  expect_codegree_matches(block, g);
}

TEST(StreamBlockCodegree, AnotherGraphGetsItsOwnColumn) {
  // Same vertex count, different edges: every row's ids are valid in
  // both graphs, but the codegrees differ.
  const Graph g1 = test_graph(6);
  const Graph g2 = test_graph(7);
  StreamEventBlock block(512);
  Rng rng(8);
  fill(block, g1, rng, 512);
  expect_codegree_matches(block, g1);
  expect_codegree_matches(block, g2);
  expect_codegree_matches(block, g1);
}

std::string state_of(const EstimatorSink& sink) {
  std::ostringstream os;
  sink.save_state(os);
  return os.str();
}

// Feeds the same seeded rows in blocks of capacity k to `sinks` in order,
// the way StreamEngine does: one fill, every sink reads it.
void feed(const Graph& g, std::size_t k, std::size_t rows,
          const std::vector<EstimatorSink*>& sinks) {
  StreamEventBlock block(k);
  Rng rng(99);
  for (std::size_t i = 0; i < rows; ++i) {
    if (block.room() == 0) {
      for (EstimatorSink* s : sinks) s->ingest_block(block);
      block.clear();
    }
    push_row(block, g, rng, i);
  }
  for (EstimatorSink* s : sinks) s->ingest_block(block);
}

TEST(StreamBlockCodegree, SinkStateIndependentOfReadOrder) {
  const Graph g = test_graph(9);
  constexpr std::size_t kRows = 5000;
  ClusteringSink reference(g);
  feed(g, 1, kRows, {&reference});
  const std::string expected = state_of(reference);
  for (const std::size_t k : kBlockSizes) {
    ClusteringSink alone(g);
    feed(g, k, kRows, {&alone});
    EXPECT_EQ(state_of(alone), expected) << "alone, K=" << k;

    TriangleSink triangles(g);
    ClusteringSink after(g);
    feed(g, k, kRows, {&triangles, &after});
    EXPECT_EQ(state_of(after), expected) << "after triangles, K=" << k;

    TriangleSink triangles_alone(g);
    feed(g, k, kRows, {&triangles_alone});
    EXPECT_EQ(state_of(triangles), state_of(triangles_alone)) << "K=" << k;
  }
}

}  // namespace
}  // namespace frontier
