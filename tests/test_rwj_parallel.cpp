// RandomWalkWithJumps.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
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

}  // namespace
}  // namespace frontier
