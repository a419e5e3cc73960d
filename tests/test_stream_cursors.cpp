// Streaming/batch equivalence: for every refactored sampler, driving the
// cursor and the batch run() from the same seed must produce identical
// edge sequences, vertex sequences, starts, costs, and final RNG states.
#include "stream/sampler_cursors.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "sampling/frontier_sampler.hpp"
#include "sampling/metropolis.hpp"
#include "sampling/multiple_rw.hpp"
#include "sampling/random_walk_with_jumps.hpp"
#include "sampling/single_rw.hpp"
#include "stream/cursor.hpp"

namespace frontier {
namespace {

// Manually drains a cursor event by event (without drain_cursor) so the
// test exercises the public next() contract directly.
SampleRecord collect(SamplerCursor& cursor) {
  SampleRecord rec;
  StreamEvent ev;
  while (cursor.next(ev)) {
    if (ev.has_edge) rec.edges.push_back(ev.edge);
    if (ev.has_vertex) rec.vertices.push_back(ev.vertex);
  }
  EXPECT_TRUE(cursor.done());
  // A finished cursor keeps returning false without disturbing anything.
  EXPECT_FALSE(cursor.next(ev));
  rec.starts = cursor.starts();
  rec.cost = cursor.cost();
  return rec;
}

void expect_identical(const SampleRecord& a, const SampleRecord& b) {
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    ASSERT_EQ(a.edges[i], b.edges[i]) << "edge " << i;
  }
  ASSERT_EQ(a.vertices, b.vertices);
  ASSERT_EQ(a.starts, b.starts);
  EXPECT_EQ(a.cost, b.cost);  // bitwise, not just approximately
}

Graph test_graph(std::uint64_t seed = 42) {
  Rng rng(seed);
  return barabasi_albert(200, 3, rng);
}

TEST(StreamCursors, FrontierMatchesBatch) {
  const Graph g = test_graph();
  const FrontierSampler fs(g, {.dimension = 8, .steps = 5000});
  Rng batch_rng(7);
  Rng stream_rng(7);
  const SampleRecord batch = fs.run(batch_rng);
  FrontierCursor cursor(g, fs.config(), stream_rng);
  const SampleRecord streamed = collect(cursor);
  expect_identical(batch, streamed);
  EXPECT_EQ(batch.edges.size(), 5000u);
  EXPECT_TRUE(batch_rng == cursor.rng());
}

TEST(StreamCursors, FrontierExplicitFrontierDrainMatchesNext) {
  const Graph g = test_graph();
  const FrontierSampler::Config cfg{.dimension = 4, .steps = 1000};
  const std::vector<VertexId> starts{1, 5, 9, 13};
  FrontierCursor drained(g, cfg, starts, Rng(9));
  FrontierCursor stepped(g, cfg, starts, Rng(9));
  const SampleRecord batch = drain_cursor(drained, cfg.steps);
  const SampleRecord streamed = collect(stepped);
  expect_identical(batch, streamed);
  EXPECT_EQ(streamed.starts, starts);
  EXPECT_TRUE(drained.rng() == stepped.rng());
}

TEST(StreamCursors, FrontierCursorValidates) {
  const Graph g = test_graph();
  Rng rng(1);
  EXPECT_THROW(FrontierCursor(g, {.dimension = 0}, rng),
               std::invalid_argument);
  EXPECT_THROW(
      FrontierCursor(g, {.dimension = 3}, std::vector<VertexId>{0, 1}, rng),
      std::invalid_argument);
}

TEST(StreamCursors, SingleRwMatchesBatch) {
  const Graph g = test_graph();
  const SingleRandomWalk srw(g, {.steps = 4000});
  Rng batch_rng(10);
  Rng stream_rng(10);
  const SampleRecord batch = srw.run(batch_rng);
  SingleRwCursor cursor(g, srw.config(), stream_rng);
  const SampleRecord streamed = collect(cursor);
  expect_identical(batch, streamed);
  EXPECT_TRUE(batch_rng == cursor.rng());
}

TEST(StreamCursors, SingleRwMatchesBatchWithBurnInAndLaziness) {
  const Graph g = test_graph();
  const SingleRandomWalk srw(
      g, {.steps = 2000, .burn_in = 500, .laziness = 0.3});
  Rng batch_rng(11);
  Rng stream_rng(11);
  const SampleRecord batch = srw.run(batch_rng);
  SingleRwCursor cursor(g, srw.config(), stream_rng);
  const SampleRecord streamed = collect(cursor);
  expect_identical(batch, streamed);
  // Lazy stays consume budget without recording an edge.
  EXPECT_LT(streamed.edges.size(), 2000u);
  EXPECT_DOUBLE_EQ(streamed.cost, 2501.0);
  EXPECT_TRUE(batch_rng == cursor.rng());
}

TEST(StreamCursors, SingleRwMatchesBatchWithFixedStart) {
  const Graph g = test_graph();
  const SingleRandomWalk srw(g, {.steps = 1000, .fixed_start = 17});
  Rng batch_rng(12);
  Rng stream_rng(12);
  const SampleRecord batch = srw.run(batch_rng);
  SingleRwCursor cursor(g, srw.config(), stream_rng);
  const SampleRecord streamed = collect(cursor);
  expect_identical(batch, streamed);
  EXPECT_EQ(streamed.starts, std::vector<VertexId>{17});
}

TEST(StreamCursors, MultipleRwMatchesBatch) {
  const Graph g = test_graph();
  const MultipleRandomWalks mrw(
      g, {.num_walkers = 7, .steps_per_walker = 600});
  Rng batch_rng(13);
  Rng stream_rng(13);
  const SampleRecord batch = mrw.run(batch_rng);
  MultipleRwCursor cursor(g, mrw.config(), stream_rng);
  const SampleRecord streamed = collect(cursor);
  expect_identical(batch, streamed);
  EXPECT_EQ(streamed.edges.size(), 7u * 600u);
  EXPECT_EQ(streamed.starts.size(), 7u);
  EXPECT_TRUE(batch_rng == cursor.rng());
}

TEST(StreamCursors, MultipleRwZeroStepsStillDrawsStarts) {
  const Graph g = test_graph();
  const MultipleRandomWalks mrw(g, {.num_walkers = 5, .steps_per_walker = 0});
  Rng batch_rng(14);
  Rng stream_rng(14);
  const SampleRecord batch = mrw.run(batch_rng);
  MultipleRwCursor cursor(g, mrw.config(), stream_rng);
  const SampleRecord streamed = collect(cursor);
  expect_identical(batch, streamed);
  EXPECT_TRUE(streamed.edges.empty());
  EXPECT_EQ(streamed.starts.size(), 5u);
  EXPECT_TRUE(batch_rng == cursor.rng());
}

TEST(StreamCursors, RandomWalkWithJumpsMatchesBatch) {
  const Graph g = test_graph();
  const RandomWalkWithJumps rwj(
      g, {.budget = 3000.0,
          .jump_probability = 0.15,
          .cost = {.jump_cost = 2.0, .hit_ratio = 0.5}});
  Rng batch_rng(15);
  Rng stream_rng(15);
  const SampleRecord batch = rwj.run(batch_rng);
  RwjCursor cursor(g, rwj.config(), stream_rng);
  const SampleRecord streamed = collect(cursor);
  expect_identical(batch, streamed);
  EXPECT_LE(streamed.cost, 3000.0);
  EXPECT_TRUE(batch_rng == cursor.rng());
}

TEST(StreamCursors, RandomWalkWithJumpsTinyBudget) {
  // Budget too small for even the initial jump: no samples, full cost.
  const Graph g = test_graph();
  const RandomWalkWithJumps rwj(
      g, {.budget = 0.5, .jump_probability = 0.2, .cost = {.jump_cost = 1.0}});
  Rng batch_rng(16);
  Rng stream_rng(16);
  const SampleRecord batch = rwj.run(batch_rng);
  RwjCursor cursor(g, rwj.config(), stream_rng);
  const SampleRecord streamed = collect(cursor);
  expect_identical(batch, streamed);
  EXPECT_TRUE(streamed.edges.empty());
  EXPECT_TRUE(streamed.vertices.empty());
  EXPECT_DOUBLE_EQ(streamed.cost, 0.5);
}

TEST(StreamCursors, MetropolisMatchesBatch) {
  const Graph g = test_graph();
  const MetropolisHastingsWalk mh(g, {.steps = 4000});
  Rng batch_rng(17);
  Rng stream_rng(17);
  const SampleRecord batch = mh.run(batch_rng);
  MetropolisCursor cursor(g, mh.config(), stream_rng);
  const SampleRecord streamed = collect(cursor);
  expect_identical(batch, streamed);
  EXPECT_EQ(streamed.vertices.size(), 4001u);  // steps + start
  EXPECT_TRUE(batch_rng == cursor.rng());
}

TEST(StreamCursors, DrainCursorMatchesManualCollection) {
  const Graph g = test_graph();
  const FrontierSampler fs(g, {.dimension = 5, .steps = 800});
  FrontierCursor a(g, fs.config(), Rng(21));
  FrontierCursor b(g, fs.config(), Rng(21));
  const SampleRecord manual = collect(a);
  const SampleRecord drained = drain_cursor(b, fs.config().steps);
  expect_identical(manual, drained);
}

TEST(StreamCursors, CostIsMonotoneDuringIteration) {
  const Graph g = test_graph();
  const FrontierSampler fs(g, {.dimension = 3, .steps = 50});
  FrontierCursor cursor(g, fs.config(), Rng(22));
  StreamEvent ev;
  double prev = cursor.cost();
  EXPECT_DOUBLE_EQ(prev, 3.0);  // m starts already paid
  while (cursor.next(ev)) {
    EXPECT_GT(cursor.cost(), prev);
    prev = cursor.cost();
  }
  EXPECT_DOUBLE_EQ(prev, 53.0);
}

}  // namespace
}  // namespace frontier
