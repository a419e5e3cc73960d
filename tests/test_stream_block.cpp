// StreamEventBlock's derived columns. The memoised codegree column must
// equal shared_neighbors on every edge row however the block was filled,
// be recomputed after clear() or for another graph, be extended after
// appends, keep those values when a large fill splits its rows across
// the worker pool or is chased by pool workers while the cursor writes
// it (also when the cursor runs dry mid-block, the block is cleared or
// destroyed mid-chase, or the pool is already owned), and give every sink
// that reads it the same values — so a sink's state does not depend on
// which sinks read the column before it.
// The pick column must name v's index in N(u) on every edge row every
// cursor writes, and AssortativitySink must fold the same bytes whether
// it reads the cursor's picks, locates them (ingest_sample, hand-pushed
// rows) or re-derives them for another graph.
#include "stream/block.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "random/rng.hpp"
#include "stream/motif_sinks.hpp"
#include "stream/sampler_cursors.hpp"
#include "stream/sinks.hpp"
#include "stream/spec.hpp"

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

TEST(StreamBlockCodegree, SplitFillEqualsSharedNeighbors) {
  // A fill of r rows runs on min(FS_THREADS, r / kMinRowsPerWorker)
  // workers (ctest pins FS_THREADS=4): one row short of and at the first
  // two cuts, and an uneven four-way split.
  ASSERT_EQ(kMinRowsPerWorker, 1024u);
  const Graph g = test_graph(7);
  for (const std::size_t rows : {1023, 1024, 2047, 2048, 4103}) {
    SCOPED_TRACE(rows);
    StreamEventBlock block(rows);
    Rng rng(rows);
    fill(block, g, rng, rows);
    expect_codegree_matches(block, g);
  }
}

TEST(StreamBlockCodegree, SplitFillExtendsTheMemoAfterAppends) {
  // Only the appended rows are split: 1000 inline, then 2048 new rows on
  // two workers, then 1055 more inline.
  const Graph g = test_graph(8);
  StreamEventBlock block(4103);
  Rng rng(9);
  fill(block, g, rng, 1000);
  expect_codegree_matches(block, g);
  fill(block, g, rng, 2048);
  expect_codegree_matches(block, g);
  fill(block, g, rng, 1055);
  ASSERT_EQ(block.size(), 4103u);
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

// ---------------------------------------------------------- codegree chase

Graph chase_graph() {
  Rng rng(21);
  return barabasi_albert(20000, 3, rng);
}

std::unique_ptr<FrontierCursor> chase_cursor(const Graph& g,
                                             std::uint64_t steps) {
  return std::make_unique<FrontierCursor>(
      g, FrontierCursor::Config{.dimension = 100, .steps = steps}, Rng(22));
}

// Whether a cursor fill of `rows` rows, on a block already read for the
// cursor graph's codegree, is chased here (ctest pins FS_THREADS=4).
bool chases(std::size_t rows) {
  return rows >= 2 * kMinRowsPerWorker && default_thread_count() >= 2;
}

TEST(StreamBlockChase, ChasedBlockEqualsSharedNeighbors) {
  ASSERT_EQ(kCodegreeChunkRows, 64u);
  const Graph g = chase_graph();
  const auto cursor = chase_cursor(g, 5 * 4096);
  StreamEventBlock block(4096);
  // Nothing has read the block yet, so its first fill is not chased; the
  // read asks for every later one.
  ASSERT_EQ(cursor->next_batch(block), 4096u);
  EXPECT_FALSE(block.chasing());
  expect_codegree_matches(block, g);
  for (int b = 0; b < 4; ++b) {
    SCOPED_TRACE(b);
    ASSERT_EQ(cursor->next_batch(block), 4096u);
    EXPECT_EQ(block.chasing(), chases(4096));
    expect_codegree_matches(block, g);
    EXPECT_FALSE(block.chasing());
  }
}

TEST(StreamBlockChase, CursorOutOfBudgetMidBlockSealsEarly) {
  const Graph g = chase_graph();
  const auto cursor = chase_cursor(g, 4096 + 3001);
  StreamEventBlock block(4096);
  ASSERT_EQ(cursor->next_batch(block), 4096u);
  expect_codegree_matches(block, g);
  // Chased for up to 4096 rows, sealed at 3001, inside a chunk.
  ASSERT_EQ(cursor->next_batch(block), 3001u);
  EXPECT_EQ(block.chasing(), chases(4096));
  expect_codegree_matches(block, g);
  // Exhausted: sealed at no rows.
  EXPECT_EQ(cursor->next_batch(block), 0u);
  EXPECT_TRUE(block.codegree(g).empty());
  EXPECT_FALSE(block.chasing());
}

TEST(StreamBlockChase, ClearOrDestroyWithAChaseInFlightJoins) {
  const Graph g = chase_graph();
  const auto cursor = chase_cursor(g, 10 * 4096);
  {
    StreamEventBlock block(4096);
    ASSERT_EQ(cursor->next_batch(block), 4096u);
    expect_codegree_matches(block, g);
    ASSERT_EQ(cursor->next_batch(block), 4096u);
    EXPECT_EQ(block.chasing(), chases(4096));
    block.clear();
    EXPECT_FALSE(block.chasing());
    // A refill after the clear is chased again, and its column is whole.
    ASSERT_EQ(cursor->next_batch(block), 4096u);
    EXPECT_EQ(block.chasing(), chases(4096));
    expect_codegree_matches(block, g);
    ASSERT_EQ(cursor->next_batch(block), 4096u);
    EXPECT_EQ(block.chasing(), chases(4096));
  }
  // The destroyed block released the pool: another block's fill chases.
  StreamEventBlock block(4096);
  ASSERT_EQ(cursor->next_batch(block), 4096u);
  expect_codegree_matches(block, g);
  ASSERT_EQ(cursor->next_batch(block), 4096u);
  EXPECT_EQ(block.chasing(), chases(4096));
  expect_codegree_matches(block, g);
}

TEST(StreamBlockChase, FillInsideAPoolCallStartsNoChase) {
  // Both slots of a running call own the pool's claim, so neither block
  // chases; each still gets every row.
  const Graph g = chase_graph();
  std::vector<int> chased(2, -1);
  std::vector<std::size_t> wrong(2, 0);
  parallel_for_ranges(2, 2, [&](std::size_t w, std::size_t, std::size_t) {
    const auto cursor = chase_cursor(g, 2 * 4096);
    StreamEventBlock block(4096);
    cursor->next_batch(block);
    (void)block.codegree(g);
    cursor->next_batch(block);
    chased[w] = block.chasing() ? 1 : 0;
    const auto f = block.codegree(g);
    for (std::size_t i = 0; i < block.size(); ++i) {
      if (f[i] != shared_neighbors(g, block.u()[i], block.v()[i])) ++wrong[w];
    }
  });
  EXPECT_EQ(chased, (std::vector<int>{0, 0}));
  EXPECT_EQ(wrong, (std::vector<std::size_t>{0, 0}));
}

TEST(StreamBlockChase, SmallFillsStartNoChase) {
  const Graph g = chase_graph();
  const auto cursor = chase_cursor(g, 10 * 4096);
  StreamEventBlock small(512);
  ASSERT_EQ(cursor->next_batch(small), 512u);
  expect_codegree_matches(small, g);
  ASSERT_EQ(cursor->next_batch(small), 512u);
  EXPECT_FALSE(small.chasing());
  expect_codegree_matches(small, g);
  // On either side of the threshold in a block that could chase.
  StreamEventBlock block(4096);
  ASSERT_EQ(cursor->next_batch(block), 4096u);
  expect_codegree_matches(block, g);
  ASSERT_EQ(cursor->next_batch(block, 2047), 2047u);
  EXPECT_FALSE(block.chasing());
  expect_codegree_matches(block, g);
  ASSERT_EQ(cursor->next_batch(block, 2048), 2048u);
  EXPECT_EQ(block.chasing(), chases(2048));
  expect_codegree_matches(block, g);
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


// -------------------------------------------------------------- followers

// The crawl roster with the motif census: the six default sinks and
// MotifSink, in CrawlSpec order.
SinkSet roster(const Graph& g) {
  CrawlSpec spec;
  spec.motifs = true;
  return spec.make_sinks(g);
}

std::string states(const SinkSet& sinks) {
  std::string out;
  for (const auto& s : sinks) out += state_of(*s);
  return out;
}

void ingest_all(const SinkSet& sinks, const StreamEventBlock& block) {
  for (const auto& s : sinks) s->ingest_block(block);
}

// The block's rows pushed by hand into `to`: a hand fill, which every
// sink folds on the caller, so it is the serial reference for the rows.
void copy_rows(const StreamEventBlock& from, StreamEventBlock& to) {
  to.clear();
  for (std::size_t i = 0; i < from.size(); ++i) {
    const std::uint8_t f = from.flags()[i];
    const bool edge = (f & StreamEventBlock::kHasEdge) != 0;
    const bool vertex = (f & StreamEventBlock::kHasVertex) != 0;
    if (edge && vertex) {
      to.push_edge_vertex(from.u()[i], from.v()[i], from.deg_v()[i],
                          from.vertex()[i]);
    } else if (edge) {
      to.push_edge(from.u()[i], from.v()[i], from.deg_v()[i]);
    } else if (vertex) {
      to.push_vertex(from.vertex()[i]);
    } else {
      to.push_empty();
    }
  }
}

struct Crawl {
  std::string states;
  std::size_t fills = 0;
  std::size_t chased = 0;
};

// Steps `spec`'s cursor through a block of capacity k and its roster, in
// StreamEngine::pump's order, until the cursor runs dry; a dry fill owes
// nothing, so a second one must not throw.
Crawl crawl(const CrawlSpec& spec, const Graph& g, std::size_t k) {
  const auto cursor = spec.make_cursor(g);
  const SinkSet sinks = roster(g);
  StreamEventBlock block(k);
  Crawl out;
  while (cursor->next_batch(block) > 0) {
    ++out.fills;
    out.chased += block.chasing() ? 1 : 0;
    ingest_all(sinks, block);
  }
  EXPECT_EQ(cursor->next_batch(block), 0u);
  out.states = states(sinks);
  return out;
}

CrawlSpec follow_spec(const char* method) {
  CrawlSpec spec;
  spec.method = method;
  spec.budget = 5 * 4096 + 777;
  spec.seed = 23;
  return spec.normalized();
}

TEST(StreamBlockFollow, ChasedFoldsEqualCallerFolds) {
  // ctest runs this binary at FS_THREADS 1 to 4: no worker, one worker
  // that both fills codegree and folds, then one folder beside one or two
  // fillers. Every fill after the first that asks for at least 2048 rows
  // is chased; 2047 rows never is, nor is a one-row block, the reference.
  const Graph g = chase_graph();
  for (const char* method : {"fs", "mh"}) {
    const CrawlSpec spec = follow_spec(method);
    const Crawl reference = crawl(spec, g, 1);
    EXPECT_EQ(reference.chased, 0u);
    for (const std::size_t k : {2047, 2048, 4096}) {
      SCOPED_TRACE(std::string(method) + " K=" + std::to_string(k));
      const Crawl run = crawl(spec, g, k);
      EXPECT_EQ(run.states, reference.states);
      EXPECT_EQ(run.chased, chases(k) ? run.fills - 1 : 0);
    }
  }
}

TEST(StreamBlockFollow, FillThatLosesThePoolFoldsOnTheCaller) {
  // Another thread's running call owns the pool, so the fills started
  // meanwhile cannot claim it: they are not chased, and their followers
  // fold them on the caller. Once the pool is free, fills chase again.
  const Graph g = chase_graph();
  const CrawlSpec spec = follow_spec("fs");
  const Crawl reference = crawl(spec, g, 1);
  const auto cursor = spec.make_cursor(g);
  const SinkSet sinks = roster(g);
  StreamEventBlock block(4096);
  ASSERT_EQ(cursor->next_batch(block), 4096u);
  ingest_all(sinks, block);  // registers the followers

  std::atomic<bool> inside{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    parallel_for_ranges(2, 2, [&](std::size_t w, std::size_t, std::size_t) {
      if (w != 0) return;
      inside = true;
      while (!release) std::this_thread::yield();
    });
  });
  while (!inside) std::this_thread::yield();
  for (int b = 0; b < 2; ++b) {
    ASSERT_EQ(cursor->next_batch(block), 4096u);
    EXPECT_FALSE(block.chasing());
    ingest_all(sinks, block);
  }
  release = true;
  holder.join();
  std::size_t fills = 0;
  std::size_t chased = 0;
  while (cursor->next_batch(block) > 0) {
    ++fills;
    chased += block.chasing() ? 1 : 0;
    ingest_all(sinks, block);
  }
  ASSERT_GT(fills, 0u);
  EXPECT_EQ(chased, chases(4096) ? fills : 0);
  EXPECT_EQ(states(sinks), reference.states);
}

// A test-only sink that counts the rows it folds and throws on row
// `throw_at`.
class CountingSink final : public EstimatorSink {
 public:
  explicit CountingSink(
      std::uint64_t throw_at = std::numeric_limits<std::uint64_t>::max())
      : throw_at_(throw_at) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "counting";
  }
  void save_state(std::ostream& os) const override { os << rows_; }
  void load_state(std::istream& is) override { is >> rows_; }
  [[nodiscard]] std::uint64_t rows() const noexcept { return rows_; }

 private:
  void fold_rows(const BlockRows& /*rows*/, std::size_t begin,
                 std::size_t end) override {
    for (std::size_t i = begin; i < end; ++i) {
      if (rows_ == throw_at_) throw std::runtime_error("fold failed");
      ++rows_;
    }
  }

  std::uint64_t throw_at_;
  std::uint64_t rows_ = 0;
};

TEST(StreamBlockFollow, FoldThatThrowsSurfacesFromItsIngest) {
  const Graph g = chase_graph();
  const auto cursor = chase_cursor(g, 4 * 4096);
  const SinkSet sinks = roster(g);
  const SinkSet mirror = roster(g);
  CountingSink thrower(4096 + 1000);  // inside the second fill
  StreamEventBlock block(4096);
  StreamEventBlock copy(4096);
  ASSERT_EQ(cursor->next_batch(block), 4096u);
  thrower.ingest_block(block);
  ingest_all(sinks, block);
  copy_rows(block, copy);
  ingest_all(mirror, copy);
  // Chased where there are workers: the fold worker folds into every
  // follower, and the thrower's fold stops at its throw.
  ASSERT_EQ(cursor->next_batch(block), 4096u);
  EXPECT_EQ(block.chasing(), chases(4096));
  EXPECT_THROW(thrower.ingest_block(block), std::runtime_error);
  EXPECT_FALSE(block.chasing());
  EXPECT_EQ(thrower.rows(), 4096u + 1000u);
  // The other followers' folds are whole.
  ingest_all(sinks, block);
  copy_rows(block, copy);
  ingest_all(mirror, copy);
  EXPECT_EQ(states(sinks), states(mirror));
  // Reusable after clear(): its fills chase again (the triangle sinks
  // read its codegree), and the sinks follow it again.
  block.clear();
  for (int b = 0; b < 2; ++b) {
    ASSERT_EQ(cursor->next_batch(block), 4096u);
    EXPECT_EQ(block.chasing(), chases(4096));
    ingest_all(sinks, block);
    copy_rows(block, copy);
    ingest_all(mirror, copy);
  }
  EXPECT_EQ(states(sinks), states(mirror));
}

TEST(StreamBlockFollow, ClearOrDestroyMidChaseReturns) {
  // The fill is stopped with folds in flight, the fold worker waiting on
  // codegree chunks (the roster's triangle sinks read them). Each
  // follower keeps a prefix of the fill in whole chunks.
  const Graph g = chase_graph();
  const auto cursor = chase_cursor(g, 10 * 4096);
  const SinkSet sinks = roster(g);
  CountingSink counter;
  {
    StreamEventBlock block(4096);
    for (int round = 0; round < 2; ++round) {
      ASSERT_EQ(cursor->next_batch(block), 4096u);
      counter.ingest_block(block);
      ingest_all(sinks, block);
      const std::uint64_t before = counter.rows();
      ASSERT_EQ(cursor->next_batch(block), 4096u);
      EXPECT_EQ(block.chasing(), chases(4096));
      block.clear();
      EXPECT_FALSE(block.chasing());
      const std::uint64_t kept = counter.rows() - before;
      EXPECT_LE(kept, 4096u);
      EXPECT_EQ(kept % kCodegreeChunkRows, 0u);
      if (!chases(4096)) EXPECT_EQ(kept, 0u);
    }
    ASSERT_EQ(cursor->next_batch(block), 4096u);
    counter.ingest_block(block);
    ingest_all(sinks, block);
    ASSERT_EQ(cursor->next_batch(block), 4096u);
    EXPECT_EQ(block.chasing(), chases(4096));
  }  // destroyed mid-chase
  // The followers outlive the block and follow the next one.
  StreamEventBlock next(4096);
  for (int b = 0; b < 2; ++b) {
    ASSERT_EQ(cursor->next_batch(next), 4096u);
    EXPECT_EQ(next.chasing(), b == 1 && chases(4096));
    counter.ingest_block(next);
    ingest_all(sinks, next);
  }
}

// A cursor that pushes uniform edge rows, with their picks, and throws at
// step `fail_at`.
class FailingCursor final : public SamplerCursor {
 public:
  FailingCursor(const Graph& g, std::uint64_t fail_at)
      : SamplerCursor(g, Rng(31)), fail_at_(fail_at) {}

  bool next(StreamEvent& /*ev*/) override { return false; }
  [[nodiscard]] bool done() const noexcept override { return false; }
  [[nodiscard]] double cost() const noexcept override {
    return static_cast<double>(steps_);
  }
  [[nodiscard]] CursorKind kind() const noexcept override {
    return CursorKind::kFrontier;
  }
  void save_state(std::ostream& /*os*/) const override {}
  void load_state(std::istream& /*is*/) override {}

 protected:
  std::size_t append_batch(StreamEventBlock& block,
                           std::size_t max_steps) override {
    const Graph& g = *graph_;
    const std::size_t n = std::min(max_steps, block.room());
    for (std::size_t i = 0; i < n; ++i) {
      if (steps_ == fail_at_) throw std::runtime_error("cursor failed");
      ++steps_;
      const auto u = static_cast<VertexId>(uniform_index(rng_, g.num_vertices()));
      const auto k = static_cast<std::uint32_t>(uniform_index(rng_, g.degree(u)));
      const VertexId v = g.neighbors(u)[k];
      block.push_edge(u, v, g.degree(v), k);
    }
    return n;
  }

 private:
  std::uint64_t fail_at_;
  std::uint64_t steps_ = 0;
};

TEST(StreamBlockFollow, CursorThatThrowsMidFillLeavesTheRestToIngest) {
  // The fill is abandoned 3000 rows in; the followers hold a prefix of it
  // and still owe it, so the next fill is refused until each ingests the
  // rows, which folds the rest on the caller.
  const Graph g = chase_graph();
  FailingCursor cursor(g, 4096 + 3000);
  const SinkSet sinks = roster(g);
  const SinkSet mirror = roster(g);
  StreamEventBlock block(4096);
  StreamEventBlock copy(4096);
  ASSERT_EQ(cursor.next_batch(block), 4096u);
  ingest_all(sinks, block);
  copy_rows(block, copy);
  ingest_all(mirror, copy);
  EXPECT_THROW(cursor.next_batch(block), std::runtime_error);
  EXPECT_FALSE(block.chasing());
  ASSERT_EQ(block.size(), 3000u);
  if (chases(4096)) {
    EXPECT_THROW(cursor.next_batch(block), std::logic_error);
    ASSERT_EQ(block.size(), 3000u);  // refused before any step
  }
  ingest_all(sinks, block);
  copy_rows(block, copy);
  ingest_all(mirror, copy);
  EXPECT_EQ(states(sinks), states(mirror));
}

TEST(StreamBlockFollow, FollowerThatSkipsAChasedFillIsRefused) {
  const Graph g = chase_graph();
  const CrawlSpec spec = follow_spec("fs");
  const Crawl reference = crawl(spec, g, 1);
  const auto cursor = spec.make_cursor(g);
  const SinkSet sinks = roster(g);
  EstimatorSink& last = *sinks.back();
  StreamEventBlock block(4096);
  ASSERT_EQ(cursor->next_batch(block), 4096u);
  ingest_all(sinks, block);
  ASSERT_EQ(cursor->next_batch(block), 4096u);
  for (std::size_t i = 0; i + 1 < sinks.size(); ++i) {
    sinks[i]->ingest_block(block);
  }
  if (chases(4096)) {
    // `last` owes the fill: no next fill, and no other block, until it
    // ingests it.
    const double cost = cursor->cost();
    EXPECT_THROW(cursor->next_batch(block), std::logic_error);
    EXPECT_EQ(cursor->cost(), cost);
    const auto other_cursor = chase_cursor(g, 4096);
    StreamEventBlock other(4096);
    ASSERT_EQ(other_cursor->next_batch(other), 4096u);
    EXPECT_THROW(last.ingest_block(other), std::logic_error);
  }
  last.ingest_block(block);
  while (cursor->next_batch(block) > 0) ingest_all(sinks, block);
  EXPECT_EQ(states(sinks), reference.states);
}

TEST(StreamBlockFollow, RowsAppendedAfterAChasedFillFoldOnTheCaller) {
  const Graph g = chase_graph();
  const auto cursor = chase_cursor(g, 3 * 4096);
  const SinkSet sinks = roster(g);
  const SinkSet mirror = roster(g);
  StreamEventBlock block(4096 + 100);
  StreamEventBlock copy(4096 + 100);
  for (int b = 0; b < 2; ++b) {
    ASSERT_EQ(cursor->next_batch(block, 4096), 4096u);
    Rng rng(b);
    fill(block, g, rng, 100);
    ingest_all(sinks, block);
    copy_rows(block, copy);
    ingest_all(mirror, copy);
  }
  EXPECT_EQ(states(sinks), states(mirror));
}

}  // namespace
}  // namespace frontier
