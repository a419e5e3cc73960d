// RandomWalkWithJumps and ParallelFrontierSampler.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "sampling/distributed_fs.hpp"
#include "sampling/parallel_fs.hpp"
#include "sampling/random_walk_with_jumps.hpp"
#include "stream/sampler_cursors.hpp"

namespace frontier {
namespace {

TEST(RandomWalkWithJumps, ValidatesConfig) {
  Rng rng(1);
  const Graph g = cycle_graph(4);
  EXPECT_THROW(RandomWalkWithJumps(g, {.budget = 10, .jump_probability = 1.5}),
               std::invalid_argument);
  EXPECT_THROW(RandomWalkWithJumps(
                   g, {.budget = 10, .cost = {.hit_ratio = 0.0}}),
               std::invalid_argument);
}

TEST(RandomWalkWithJumps, RejectsConfigsThatNeverTerminate) {
  // A jump that costs nothing never drains the budget, and a non-finite
  // budget is never drained: a run would grow its record until memory
  // runs out. The sampler and the cursor run the same check.
  const Graph g = cycle_graph(4);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<RandomWalkWithJumps::Config> bad = {
      {.budget = 10, .cost = {.jump_cost = 0.0}},
      {.budget = 10, .cost = {.jump_cost = -1.0}},
      {.budget = 10, .cost = {.jump_cost = nan}},
      {.budget = nan},
      {.budget = inf},
      {.budget = -inf},
  };
  for (const auto& config : bad) {
    EXPECT_THROW(RandomWalkWithJumps(g, config), std::invalid_argument)
        << "budget " << config.budget << ", c " << config.cost.jump_cost;
    EXPECT_THROW(RwjCursor(g, config, Rng(1)), std::invalid_argument)
        << "budget " << config.budget << ", c " << config.cost.jump_cost;
  }
  // A negative finite budget stays legal: the run is empty.
  Rng rng(2);
  const RandomWalkWithJumps empty(g, {.budget = -1.0});
  EXPECT_TRUE(empty.run(rng).vertices.empty());
}

TEST(RandomWalkWithJumps, ZeroJumpProbabilityIsPlainWalk) {
  Rng rng(2);
  const Graph g = barabasi_albert(100, 2, rng);
  const RandomWalkWithJumps rwj(g, {.budget = 200.0, .jump_probability = 0.0});
  const SampleRecord rec = rwj.run(rng);
  EXPECT_EQ(rec.edges.size(), 199u);  // 1 initial jump + 199 steps
  for (std::size_t i = 1; i < rec.edges.size(); ++i) {
    EXPECT_EQ(rec.edges[i].u, rec.edges[i - 1].v);  // unbroken chain
  }
}

TEST(RandomWalkWithJumps, NeverExceedsBudget) {
  Rng rng(3);
  const Graph g = barabasi_albert(100, 2, rng);
  for (double hit : {1.0, 0.2}) {
    const RandomWalkWithJumps rwj(
        g, {.budget = 500.0,
            .jump_probability = 0.2,
            .cost = {.jump_cost = 1.0, .hit_ratio = hit}});
    for (int r = 0; r < 20; ++r) {
      EXPECT_LE(rwj.run(rng).cost, 500.0 + 1e-9);
    }
  }
}

TEST(RandomWalkWithJumps, JumpsCrossComponents) {
  // Two disconnected triangles: only a jumping walker sees both.
  GraphBuilder b(6);
  b.add_undirected_edge(0, 1);
  b.add_undirected_edge(1, 2);
  b.add_undirected_edge(2, 0);
  b.add_undirected_edge(3, 4);
  b.add_undirected_edge(4, 5);
  b.add_undirected_edge(5, 3);
  const Graph g = b.build();
  Rng rng(4);
  const RandomWalkWithJumps rwj(g, {.budget = 400.0, .jump_probability = 0.2});
  const SampleRecord rec = rwj.run(rng);
  bool saw_a = false;
  bool saw_b = false;
  for (VertexId v : rec.vertices) {
    (v < 3 ? saw_a : saw_b) = true;
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

TEST(RandomWalkWithJumps, LowHitRatioShrinksYield) {
  Rng rng(5);
  const Graph g = barabasi_albert(200, 2, rng);
  const RandomWalkWithJumps cheap(
      g, {.budget = 2000.0, .jump_probability = 0.3});
  const RandomWalkWithJumps pricey(
      g, {.budget = 2000.0,
          .jump_probability = 0.3,
          .cost = {.jump_cost = 1.0, .hit_ratio = 0.05}});
  double cheap_edges = 0.0, pricey_edges = 0.0;
  for (int r = 0; r < 20; ++r) {
    cheap_edges += static_cast<double>(cheap.run(rng).edges.size());
    pricey_edges += static_cast<double>(pricey.run(rng).edges.size());
  }
  EXPECT_LT(pricey_edges, 0.5 * cheap_edges);
}

TEST(ParallelFs, ValidatesConfig) {
  Rng rng(6);
  const Graph g = cycle_graph(4);
  EXPECT_THROW(ParallelFrontierSampler(g, {.dimension = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      ParallelFrontierSampler(g, {.dimension = 2, .time_horizon = 0.0}),
      std::invalid_argument);
}

TEST(ParallelFs, DeterministicAcrossThreadCounts) {
  Rng setup(7);
  const Graph g = barabasi_albert(300, 2, setup);
  const ParallelFrontierSampler one(
      g, {.dimension = 32, .time_horizon = 5.0, .threads = 1});
  const ParallelFrontierSampler many(
      g, {.dimension = 32, .time_horizon = 5.0, .threads = 8});
  const SampleRecord a = one.run(42);
  const SampleRecord b = many.run(42);
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i], b.edges[i]) << "edge " << i;
  }
}

TEST(ParallelFs, EdgesAreValidAndStartsRecorded) {
  Rng setup(8);
  const Graph g = barabasi_albert(200, 2, setup);
  const ParallelFrontierSampler pfs(
      g, {.dimension = 16, .time_horizon = 20.0});
  const SampleRecord rec = pfs.run(7);
  EXPECT_EQ(rec.starts.size(), 16u);
  EXPECT_GT(rec.edges.size(), 100u);
  for (const Edge& e : rec.edges) EXPECT_TRUE(g.has_edge(e.u, e.v));
}

TEST(ParallelFs, MatchesDistributedFsLaw) {
  // Same vertex-visit law as the (serial) exponential-clock sampler.
  Rng setup(9);
  const Graph g = barabasi_albert(40, 2, setup);
  const double horizon =
      300000.0 / static_cast<double>(g.volume());  // ~300k jumps

  const ParallelFrontierSampler pfs(
      g, {.dimension = 8, .time_horizon = horizon});
  std::vector<double> freq_p(g.num_vertices(), 0.0);
  const SampleRecord rp = pfs.run(11);
  for (const Edge& e : rp.edges) freq_p[e.v] += 1.0;

  const DistributedFrontierSampler dfs(
      g, {.dimension = 8, .stop = {.max_steps = rp.edges.size()}});
  Rng rng_d(12);
  std::vector<double> freq_d(g.num_vertices(), 0.0);
  const SampleRecord rd = dfs.run(rng_d);
  for (const Edge& e : rd.edges) freq_d[e.v] += 1.0;

  const double np = static_cast<double>(rp.edges.size());
  const double nd = static_cast<double>(rd.edges.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(freq_p[v] / np, freq_d[v] / nd,
                0.2 * freq_p[v] / np + 0.003)
        << "vertex " << v;
  }
}

TEST(ParallelFs, HorizonScalesEventCount) {
  Rng setup(10);
  const Graph g = barabasi_albert(500, 3, setup);
  const ParallelFrontierSampler short_run(
      g, {.dimension = 32, .time_horizon = 2.0});
  const ParallelFrontierSampler long_run(
      g, {.dimension = 32, .time_horizon = 4.0});
  double s = 0.0, l = 0.0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    s += static_cast<double>(short_run.run(seed).edges.size());
    l += static_cast<double>(long_run.run(seed).edges.size());
  }
  EXPECT_NEAR(l / s, 2.0, 0.2);
}

}  // namespace
}  // namespace frontier
