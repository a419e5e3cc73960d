#include "sampling/metropolis.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "stream/sampler_cursors.hpp"

namespace frontier {
namespace {

TEST(MetropolisHastings, VisitCountIncludesStart) {
  Rng rng(1);
  const Graph g = cycle_graph(6);
  const MetropolisHastingsWalk mh(g, {.steps = 100});
  const SampleRecord rec = mh.run(rng);
  EXPECT_EQ(rec.vertices.size(), 101u);
  EXPECT_EQ(rec.vertices.front(), rec.starts.front());
}

TEST(MetropolisHastings, RejectionsKeepPosition) {
  Rng rng(2);
  const Graph g = star_graph(8);  // heavy rejection from leaves? no — from center
  const MetropolisHastingsWalk mh(g, {.steps = 2000});
  const SampleRecord rec = mh.run(rng);
  // Visits must form a lazy chain: consecutive visits equal or adjacent.
  for (std::size_t i = 1; i < rec.vertices.size(); ++i) {
    const VertexId a = rec.vertices[i - 1];
    const VertexId b = rec.vertices[i];
    EXPECT_TRUE(a == b || g.has_edge(a, b));
  }
  // Accepted transitions are a subset of steps.
  EXPECT_LE(rec.edges.size(), 2000u);
}

TEST(MetropolisHastings, VisitsAreAsymptoticallyUniform) {
  // MH-RW targets the uniform law over V even on a skewed-degree graph.
  Rng rng(3);
  const Graph g = star_graph(6);  // center deg 5, leaves deg 1
  const MetropolisHastingsWalk mh(g, {.steps = 600000});
  const SampleRecord rec = mh.run(rng);
  std::vector<double> freq(g.num_vertices(), 0.0);
  for (VertexId v : rec.vertices) freq[v] += 1.0;
  const double n = static_cast<double>(rec.vertices.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(freq[v] / n, 1.0 / 6.0, 0.02) << "vertex " << v;
  }
}

TEST(MetropolisHastings, UniformOnHeterogeneousRandomGraph) {
  Rng rng(4);
  const Graph g = barabasi_albert(25, 2, rng);
  const MetropolisHastingsWalk mh(g, {.steps = 500000});
  const SampleRecord rec = mh.run(rng);
  std::vector<double> freq(g.num_vertices(), 0.0);
  for (VertexId v : rec.vertices) freq[v] += 1.0;
  const double n = static_cast<double>(rec.vertices.size());
  const double expect = 1.0 / static_cast<double>(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(freq[v] / n, expect, 0.25 * expect) << "vertex " << v;
  }
}

TEST(MetropolisHastings, FixedStart) {
  Rng rng(5);
  const Graph g = cycle_graph(5);
  const MetropolisHastingsWalk mh(g,
                                  {.steps = 10, .fixed_start = VertexId{2}});
  const SampleRecord rec = mh.run(rng);
  EXPECT_EQ(rec.starts.front(), 2u);
}

TEST(MetropolisHastings, FixedStartValidation) {
  // A walk pinned to an isolated vertex has no neighbor to propose; both
  // the sampler and the cursor must refuse it instead of stepping.
  GraphBuilder b(3);
  b.add_undirected_edge(0, 1);  // vertex 2 isolated
  const Graph g = b.build();
  const MetropolisHastingsWalk::Config isolated{.steps = 5,
                                                .fixed_start = VertexId{2}};
  const MetropolisHastingsWalk::Config outside{.steps = 5,
                                               .fixed_start = VertexId{9}};
  EXPECT_THROW(MetropolisHastingsWalk(g, isolated), std::invalid_argument);
  EXPECT_THROW(MetropolisCursor(g, isolated, Rng(1)), std::invalid_argument);
  EXPECT_THROW(MetropolisHastingsWalk(g, outside), std::out_of_range);
  EXPECT_THROW(MetropolisCursor(g, outside, Rng(1)), std::out_of_range);
}

}  // namespace
}  // namespace frontier
