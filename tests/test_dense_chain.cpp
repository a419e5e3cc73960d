#include "analysis/dense_chain.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace frontier {
namespace {

TEST(DenseChain, SetGetAndBounds) {
  DenseChain chain(3);
  chain.set(0, 1, 0.5);
  EXPECT_DOUBLE_EQ(chain.get(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(chain.get(1, 0), 0.0);
  EXPECT_THROW(chain.set(3, 0, 0.1), std::out_of_range);
  EXPECT_THROW((void)chain.get(0, 3), std::out_of_range);
}

TEST(DenseChain, StochasticityCheck) {
  DenseChain chain(2);
  chain.set(0, 1, 1.0);
  chain.set(1, 0, 0.5);
  EXPECT_FALSE(chain.is_stochastic());
  chain.set(1, 1, 0.5);
  EXPECT_TRUE(chain.is_stochastic());
}

TEST(DenseChain, StepEvolvesDistribution) {
  DenseChain chain(2);
  chain.set(0, 1, 1.0);
  chain.set(1, 0, 1.0);
  const std::vector<double> dist{1.0, 0.0};
  const auto next = chain.step(dist);
  EXPECT_DOUBLE_EQ(next[0], 0.0);
  EXPECT_DOUBLE_EQ(next[1], 1.0);
  const auto back = chain.evolve(dist, 2);
  EXPECT_DOUBLE_EQ(back[0], 1.0);
}

TEST(DenseChain, StationaryOfPeriodicChainFails) {
  DenseChain chain(2);  // pure 2-cycle: periodic, power iteration oscillates
  chain.set(0, 1, 1.0);
  chain.set(1, 0, 1.0);
  // Uniform start is actually the fixed point here, so convergence is
  // instant — perturb with a lazy chain instead to test the generic path.
  const auto pi = chain.stationary();
  EXPECT_NEAR(pi[0], 0.5, 1e-9);
}

TEST(RandomWalkChain, IsStochasticAndDegreeStationary) {
  Rng rng(1);
  const Graph g = barabasi_albert(60, 2, rng);
  const DenseChain chain = random_walk_chain(g);
  EXPECT_TRUE(chain.is_stochastic());
  const auto pi = chain.stationary();
  const auto expect = rw_stationary_distribution(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(pi[v], expect[v], 1e-7) << "vertex " << v;
  }
}

TEST(RandomWalkChain, IsolatedVertexIsAbsorbing) {
  GraphBuilder b(3);
  b.add_undirected_edge(0, 1);
  const Graph g = b.build();
  const DenseChain chain = random_walk_chain(g);
  EXPECT_TRUE(chain.is_stochastic());
  EXPECT_DOUBLE_EQ(chain.get(2, 2), 1.0);
}

TEST(TotalVariation, BasicProperties) {
  const std::vector<double> a{0.5, 0.5};
  const std::vector<double> b{1.0, 0.0};
  EXPECT_DOUBLE_EQ(total_variation(a, a), 0.0);
  EXPECT_DOUBLE_EQ(total_variation(a, b), 0.5);
  const std::vector<double> c{1.0, 0.0, 0.0};
  EXPECT_THROW((void)total_variation(a, c), std::invalid_argument);
}

TEST(RwStationary, SumsToOneAndMatchesDegrees) {
  Rng rng(2);
  const Graph g = barabasi_albert(100, 2, rng);
  const auto pi = rw_stationary_distribution(g);
  double total = 0.0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(pi[v], static_cast<double>(g.degree(v)) /
                                static_cast<double>(g.volume()));
    total += pi[v];
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(DenseChain, EvolveConvergesToStationaryMonotonically) {
  Rng rng(3);
  const Graph g = barabasi_albert(40, 2, rng);
  const DenseChain chain = random_walk_chain(g);
  const auto pi = rw_stationary_distribution(g);
  std::vector<double> dist(g.num_vertices(),
                           1.0 / static_cast<double>(g.num_vertices()));
  double prev = total_variation(dist, pi);
  for (int t = 0; t < 30; ++t) {
    dist = chain.step(dist);
    const double cur = total_variation(dist, pi);
    EXPECT_LE(cur, prev + 1e-12) << "step " << t;
    prev = cur;
  }
  EXPECT_LT(prev, 0.01);
}

}  // namespace
}  // namespace frontier
