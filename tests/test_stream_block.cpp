// StreamEventBlock's derived columns. The memoised codegree column must
// equal shared_neighbors on every edge row however the block was filled,
// be recomputed after clear() or for another graph, be extended after
// appends, and give every sink that reads it the same values — so a
// sink's state does not depend on which sinks read the column before it.
// The pick column must name v's index in N(u) on every edge row every
// cursor writes, and AssortativitySink must fold the same bytes whether
// it reads the cursor's picks, locates them (ingest_sample, hand-pushed
// rows) or re-derives them for another graph.
#include "stream/block.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "random/rng.hpp"
#include "stream/motif_sinks.hpp"
#include "stream/sampler_cursors.hpp"
#include "stream/sinks.hpp"

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

// Every edge row of the column equals a fresh intersection in g.
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

// ------------------------------------------------------------ pick column

struct NamedCursor {
  const char* name;
  std::function<std::unique_ptr<SamplerCursor>(const Graph&)> make;
};

// The five walk cursors, configured so every push path runs: FS, a lazy
// SingleRW with burn-in and a plain one, MultipleRW, RWJ with jumps and
// Metropolis with rejections.
std::vector<NamedCursor> walk_cursors() {
  return {
      {"fs",
       [](const Graph& g) {
         return std::make_unique<FrontierCursor>(
             g, FrontierCursor::Config{.dimension = 8, .steps = 3000},
             Rng(1));
       }},
      {"srw",
       [](const Graph& g) {
         return std::make_unique<SingleRwCursor>(
             g, SingleRwCursor::Config{.steps = 3000}, Rng(2));
       }},
      {"srw-lazy",
       [](const Graph& g) {
         return std::make_unique<SingleRwCursor>(
             g,
             SingleRwCursor::Config{
                 .steps = 3000, .burn_in = 40, .laziness = 0.3},
             Rng(3));
       }},
      {"mrw",
       [](const Graph& g) {
         return std::make_unique<MultipleRwCursor>(
             g,
             MultipleRwCursor::Config{.num_walkers = 6,
                                      .steps_per_walker = 500},
             Rng(4));
       }},
      {"rwj",
       [](const Graph& g) {
         return std::make_unique<RwjCursor>(
             g, RwjCursor::Config{.budget = 3000, .jump_probability = 0.1},
             Rng(5));
       }},
      {"mh",
       [](const Graph& g) {
         return std::make_unique<MetropolisCursor>(
             g, MetropolisCursor::Config{.steps = 3000}, Rng(6));
       }},
  };
}

// A BA graph whose edges are made one-way, the other way, or two-way by
// their endpoints, so about a third of the symmetric edge slots carry no
// label and the sink must skip them.
Graph directed_graph() {
  Rng rng(11);
  const Graph ba = barabasi_albert(500, 3, rng);
  GraphBuilder builder(ba.num_vertices());
  for (VertexId u = 0; u < ba.num_vertices(); ++u) {
    for (const VertexId v : ba.neighbors(u)) {
      if (v < u) continue;
      switch ((u + v) % 3) {
        case 0: builder.add_edge(u, v); break;
        case 1: builder.add_edge(v, u); break;
        default: builder.add_undirected_edge(u, v);
      }
    }
  }
  return builder.build();
}

// Drains `cursor` in blocks of capacity k: every block is checked (each
// edge row's pick names v in N(u)), fed to `sink`, and its edge rows are
// appended to `edges`.
void drain_checking_picks(SamplerCursor& cursor, const Graph& g,
                          std::size_t k, EstimatorSink& sink,
                          std::vector<Edge>& edges) {
  StreamEventBlock block(k);
  while (cursor.next_batch(block) > 0) {
    const auto picks = block.pick(g);
    ASSERT_EQ(picks.size(), block.size());
    for (std::size_t i = 0; i < block.size(); ++i) {
      if (!(block.flags()[i] & StreamEventBlock::kHasEdge)) continue;
      const VertexId u = block.u()[i];
      const VertexId v = block.v()[i];
      ASSERT_LT(picks[i], g.degree(u)) << "row " << i;
      EXPECT_EQ(g.neighbors(u)[picks[i]], v) << "row " << i;
      edges.push_back(Edge{u, v});
    }
    sink.ingest_block(block);
  }
}

TEST(StreamBlockPick, EveryCursorWritesTheNeighbourIndex) {
  const Graph g = directed_graph();
  for (const NamedCursor& c : walk_cursors()) {
    for (const std::size_t k : {std::size_t{1}, default_block_capacity()}) {
      SCOPED_TRACE(std::string(c.name) + " K=" + std::to_string(k));
      AssortativitySink sink(g);
      std::vector<Edge> edges;
      drain_checking_picks(*c.make(g), g, k, sink, edges);
      EXPECT_GT(edges.size(), 1000u);
    }
  }
}

TEST(StreamBlockPick, AssortativityBitEqualAcrossFills) {
  const Graph g = directed_graph();
  const Graph copy = g;  // same arrays, another address: picks re-derived
  ASSERT_NE(&copy, &g);
  for (const NamedCursor& c : walk_cursors()) {
    for (const std::size_t k : {std::size_t{1}, default_block_capacity()}) {
      SCOPED_TRACE(std::string(c.name) + " K=" + std::to_string(k));
      // 1. The cursor's own picks.
      AssortativitySink from_cursor(g);
      std::vector<Edge> edges;
      drain_checking_picks(*c.make(g), g, k, from_cursor, edges);
      ASSERT_GT(from_cursor.labeled_count(), 0u);
      ASSERT_LT(from_cursor.labeled_count(), edges.size());
      const std::string expected = state_of(from_cursor);

      // 2. The same rows through ingest_sample: every pick searched.
      AssortativitySink searched(g);
      ingest_sample(searched, g, edges);
      EXPECT_EQ(state_of(searched), expected);

      // 3. A sink over the copy reads the cursor's blocks: the picks were
      // written for g, so they are re-derived for the copy.
      AssortativitySink foreign(copy);
      {
        const auto cursor = c.make(g);
        StreamEventBlock block(k);
        while (cursor->next_batch(block) > 0) foreign.ingest_block(block);
      }
      EXPECT_EQ(state_of(foreign), expected);

      // 4. Hand-pushed rows with a non-edge and out-of-range ids between
      // them, each of which the sink must skip.
      AssortativitySink by_hand(g);
      StreamEventBlock block(k);
      const auto flush = [&] {
        if (block.room() != 0) return;
        by_hand.ingest_block(block);
        block.clear();
      };
      const auto n = static_cast<VertexId>(g.num_vertices());
      for (std::size_t i = 0; i < edges.size(); ++i) {
        if (i % 97 == 0) {
          // 0 and n - 1 are not adjacent in this graph.
          ASSERT_FALSE(g.has_edge(0, n - 1));
          block.push_edge(0, n - 1, g.degree(n - 1));
          flush();
          block.push_edge(n, 0, 1);
          flush();
        }
        block.push_edge(edges[i].u, edges[i].v, g.degree(edges[i].v));
        flush();
      }
      if (!block.empty()) by_hand.ingest_block(block);
      EXPECT_EQ(state_of(by_hand), expected);
    }
  }
}

TEST(StreamBlockPick, ThreadsFoldIndependently) {
  // One cursor per thread, each filling its own block and folding it,
  // then the same rows through ingest_sample's per-thread block: every
  // thread's sink bytes equal a serial run's.
  const Graph g = directed_graph();
  const std::vector<NamedCursor> cursors = walk_cursors();
  const auto fold = [&](const NamedCursor& c) {
    AssortativitySink from_cursor(g);
    std::vector<Edge> edges;
    const auto cursor = c.make(g);
    StreamEventBlock block(default_block_capacity());
    while (cursor->next_batch(block) > 0) {
      from_cursor.ingest_block(block);
      for (std::size_t i = 0; i < block.size(); ++i) {
        if (block.flags()[i] & StreamEventBlock::kHasEdge) {
          edges.push_back(Edge{block.u()[i], block.v()[i]});
        }
      }
    }
    AssortativitySink searched(g);
    ingest_sample(searched, g, edges);
    return state_of(from_cursor) + state_of(searched);
  };
  std::vector<std::string> want;
  for (const NamedCursor& c : cursors) want.push_back(fold(c));
  std::vector<std::string> got(cursors.size());
  parallel_for_ranges(cursors.size(), 4,
                      [&](std::size_t, std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          got[i] = fold(cursors[i]);
                        }
                      });
  EXPECT_EQ(got, want);
}

TEST(StreamBlockPick, SmallerForeignGraphReadsNothingOutOfRange) {
  // Picks written on a 500-vertex graph, read for a 60-vertex one: rows
  // whose ids fall outside it, or whose pick would overrun a shorter
  // adjacency list, must be re-derived, not read through. Under ASan
  // this case also checks that no load leaves the small graph's arrays.
  const Graph big = directed_graph();
  Rng rng(12);
  const Graph small = barabasi_albert(60, 2, rng);
  for (const NamedCursor& c : walk_cursors()) {
    SCOPED_TRACE(c.name);
    AssortativitySink foreign(small);
    std::vector<Edge> edges;
    const auto cursor = c.make(big);
    StreamEventBlock block(default_block_capacity());
    while (cursor->next_batch(block) > 0) {
      const auto picks = block.pick(small);
      for (std::size_t i = 0; i < block.size(); ++i) {
        if (!(block.flags()[i] & StreamEventBlock::kHasEdge)) continue;
        const VertexId u = block.u()[i];
        const VertexId v = block.v()[i];
        EXPECT_EQ(picks[i], small.neighbor_index(u, v));
        // ingest_sample needs ids inside its graph; a row outside it
        // folds nothing in the foreign sink either.
        if (u < small.num_vertices() && v < small.num_vertices()) {
          edges.push_back(Edge{u, v});
        }
      }
      foreign.ingest_block(block);
    }
    AssortativitySink searched(small);
    ingest_sample(searched, small, edges);
    EXPECT_GT(foreign.labeled_count(), 0u);
    EXPECT_EQ(state_of(foreign), state_of(searched));
  }
}

TEST(StreamBlockPick, RederivedAfterAForeignReadAndOnAppends) {
  // A read for another graph overwrites the pushed picks, so later reads
  // for the cursor's graph must search again rather than trust them; rows
  // appended after a read are derived on the next one.
  const Graph g = directed_graph();
  Rng rng(13);
  const Graph other = barabasi_albert(500, 3, rng);
  const auto cursor = walk_cursors().front().make(g);
  StreamEventBlock block(260);
  ASSERT_EQ(cursor->next_batch(block, 256), 256u);
  const auto expect_all = [&](const Graph& h) {
    const auto picks = block.pick(h);
    ASSERT_EQ(picks.size(), block.size());
    for (std::size_t i = 0; i < block.size(); ++i) {
      EXPECT_EQ(picks[i], h.neighbor_index(block.u()[i], block.v()[i]))
          << "row " << i;
    }
  };
  expect_all(g);
  expect_all(other);
  expect_all(g);
  // Appends without a clear: a row with g's pick, then one without.
  const VertexId u = block.u()[0];
  const VertexId w = g.neighbors(u).back();
  block.push_edge(u, w, g.degree(w), g.degree(u) - 1);
  expect_all(other);
  block.push_edge(w, u, g.degree(u));
  expect_all(g);
  expect_all(other);
}

}  // namespace
}  // namespace frontier
