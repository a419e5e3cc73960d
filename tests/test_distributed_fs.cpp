// Distributed Frontier Sampling (Section 5.3, Theorem 5.5) through
// ParallelFrontierSampler: m independent walkers with Exp(deg(v)) holding
// times, run on threads and merged by global time, form a centralized FS
// process.
#include "sampling/parallel_fs.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "sampling/frontier_sampler.hpp"

namespace frontier {
namespace {

TEST(ParallelFs, ValidatesConfig) {
  const Graph g = cycle_graph(4);
  EXPECT_THROW(ParallelFrontierSampler(g, {.dimension = 0}),
               std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double horizon : {0.0, -1.0, inf, -inf, nan}) {
    EXPECT_THROW(
        ParallelFrontierSampler(g, {.dimension = 2, .time_horizon = horizon}),
        std::invalid_argument)
        << "horizon " << horizon;
  }
}

TEST(ParallelFs, DeterministicAcrossThreadCounts) {
  Rng setup(7);
  const Graph g = barabasi_albert(300, 2, setup);
  const ParallelFrontierSampler one(
      g, {.dimension = 32, .time_horizon = 5.0, .threads = 1});
  const SampleRecord a = one.run(42);
  // 3 does not divide 32, so the shards are uneven.
  for (const std::size_t threads : {std::size_t{3}, std::size_t{8}}) {
    const ParallelFrontierSampler many(
        g, {.dimension = 32, .time_horizon = 5.0, .threads = threads});
    const SampleRecord b = many.run(42);
    EXPECT_EQ(a.starts, b.starts) << threads << " threads";
    EXPECT_EQ(a.cost, b.cost) << threads << " threads";
    ASSERT_EQ(a.edges.size(), b.edges.size()) << threads << " threads";
    for (std::size_t i = 0; i < a.edges.size(); ++i) {
      EXPECT_EQ(a.edges[i], b.edges[i]) << "edge " << i;
    }
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
  // One unit per sampled edge plus one initial jump per walker.
  EXPECT_EQ(rec.cost, static_cast<double>(rec.edges.size() + 16));
}

TEST(ParallelFs, HorizonScalesEventCount) {
  // The jump rate is the frontier degree sum; doubling the horizon
  // roughly doubles the sampled edges.
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

TEST(ParallelFs, MatchesCentralizedFsVisitLaw) {
  // Theorem 5.5: the time-ordered jumps of m independent exponential-clock
  // walkers are a centralized FS process. Compare long-run per-vertex
  // visit frequencies against FrontierSampler on the same graph.
  Rng setup(5);
  const Graph g = barabasi_albert(40, 2, setup);
  const std::size_t m = 6;
  const ParallelFrontierSampler pfs(
      g, {.dimension = m,
          .time_horizon = time_horizon_for_jumps(g, m, 300000.0),
          .threads = 2});
  const SampleRecord rp = pfs.run(11);
  ASSERT_GT(rp.edges.size(), 200000u);

  const FrontierSampler fs(g, {.dimension = m, .steps = rp.edges.size()});
  Rng rng_fs(10);
  const SampleRecord rf = fs.run(rng_fs);

  std::vector<double> freq_p(g.num_vertices(), 0.0);
  std::vector<double> freq_f(g.num_vertices(), 0.0);
  for (const Edge& e : rp.edges) freq_p[e.v] += 1.0;
  for (const Edge& e : rf.edges) freq_f[e.v] += 1.0;
  const double n = static_cast<double>(rp.edges.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const double a = freq_f[v] / n;
    EXPECT_NEAR(freq_p[v] / n, a, 0.2 * a + 0.002) << "vertex " << v;
  }
}

TEST(ParallelFs, UniformEdgeSamplingInLongRun) {
  const Graph g = complete_graph(7);  // vol 42
  const std::size_t m = 3;
  const ParallelFrontierSampler pfs(
      g, {.dimension = m,
          .time_horizon = time_horizon_for_jumps(g, m, 200000.0),
          .threads = 2});
  const SampleRecord rec = pfs.run(6);
  std::map<std::pair<VertexId, VertexId>, double> freq;
  for (const Edge& e : rec.edges) freq[{e.u, e.v}] += 1.0;
  const double expect = 1.0 / 42.0;
  EXPECT_EQ(freq.size(), 42u);
  for (const auto& [edge, count] : freq) {
    EXPECT_NEAR(count / static_cast<double>(rec.edges.size()), expect,
                0.15 * expect);
  }
}

}  // namespace
}  // namespace frontier
