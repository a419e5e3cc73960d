#include "sampling/frontier_sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "stats/bench_report.hpp"
#include "stream/block.hpp"
#include "stream/cursor.hpp"
#include "stream/sampler_cursors.hpp"

namespace frontier {
namespace {

// Validates that the edge sequence is a legal FS trajectory: replaying it
// against the start multiset, every sampled edge must leave a vertex
// currently occupied by some walker.
void expect_valid_fs_trajectory(const Graph& g, const SampleRecord& rec) {
  std::multiset<VertexId> occupancy(rec.starts.begin(), rec.starts.end());
  for (std::size_t i = 0; i < rec.edges.size(); ++i) {
    const Edge& e = rec.edges[i];
    ASSERT_TRUE(g.has_edge(e.u, e.v)) << "step " << i;
    const auto it = occupancy.find(e.u);
    ASSERT_NE(it, occupancy.end()) << "step " << i << ": no walker at " << e.u;
    occupancy.erase(it);
    occupancy.insert(e.v);
  }
}

TEST(FrontierSampler, RejectsZeroDimension) {
  Rng rng(1);
  const Graph g = cycle_graph(4);
  EXPECT_THROW(FrontierSampler(g, {.dimension = 0}), std::invalid_argument);
}

TEST(FrontierSampler, ProducesRequestedSteps) {
  Rng rng(2);
  const Graph g = barabasi_albert(100, 2, rng);
  const FrontierSampler fs(g, {.dimension = 5, .steps = 300});
  const SampleRecord rec = fs.run(rng);
  EXPECT_EQ(rec.edges.size(), 300u);
  EXPECT_EQ(rec.starts.size(), 5u);
  EXPECT_DOUBLE_EQ(rec.cost, 305.0);
}

TEST(FrontierSampler, TrajectoryIsValid) {
  Rng rng(3);
  const Graph g = barabasi_albert(80, 2, rng);
  const FrontierSampler fs(g, {.dimension = 7, .steps = 500});
  expect_valid_fs_trajectory(g, fs.run(rng));
}

TEST(FrontierSampler, DimensionOneEqualsSingleWalkLaw) {
  // With m = 1 FS degenerates to a plain random walk: stationary visit
  // frequencies are degree proportional.
  Rng rng(5);
  const Graph g = barabasi_albert(40, 2, rng);
  const FrontierSampler fs(g, {.dimension = 1, .steps = 300000});
  const SampleRecord rec = fs.run(rng);
  std::vector<double> freq(g.num_vertices(), 0.0);
  for (const Edge& e : rec.edges) freq[e.v] += 1.0;
  const double vol = static_cast<double>(g.volume());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const double expect = static_cast<double>(g.degree(v)) / vol;
    EXPECT_NEAR(freq[v] / static_cast<double>(rec.edges.size()), expect,
                0.25 * expect + 0.001);
  }
}

TEST(FrontierSampler, SamplesEdgesUniformlyInLongRun) {
  // Theorem 5.2 (I): in steady state FS samples edges of G uniformly; by
  // ergodicity the long-run empirical edge frequencies converge to 1/|E|.
  Rng rng(6);
  const Graph g = barabasi_albert(30, 2, rng);
  const FrontierSampler fs(g, {.dimension = 4, .steps = 600000});
  const SampleRecord rec = fs.run(rng);
  std::map<std::pair<VertexId, VertexId>, double> freq;
  for (const Edge& e : rec.edges) freq[{e.u, e.v}] += 1.0;
  const double expect = 1.0 / static_cast<double>(g.volume());
  EXPECT_EQ(freq.size(), g.volume());  // every ordered edge visited
  for (const auto& [edge, count] : freq) {
    EXPECT_NEAR(count / static_cast<double>(rec.edges.size()), expect,
                0.25 * expect)
        << edge.first << "->" << edge.second;
  }
}

TEST(FrontierSampler, ExplicitFrontierValidatesStarts) {
  Rng rng(8);
  GraphBuilder b(4);
  b.add_undirected_edge(0, 1);
  b.add_undirected_edge(1, 2);  // vertex 3 isolated
  const Graph g = b.build();
  const FrontierSampler::Config cfg{.dimension = 2, .steps = 10};
  const std::vector<VertexId> wrong_size{0};
  EXPECT_THROW(FrontierCursor(g, cfg, wrong_size, rng), std::invalid_argument);
  const std::vector<VertexId> isolated{0, 3};
  EXPECT_THROW(FrontierCursor(g, cfg, isolated, rng), std::invalid_argument);
  const std::vector<VertexId> ok{0, 2};
  FrontierCursor fs(g, cfg, ok, rng);
  const SampleRecord rec = drain_cursor(fs);
  EXPECT_EQ(rec.starts, ok);
  EXPECT_EQ(rec.edges.size(), 10u);
}

TEST(FrontierSampler, ReproducibleWithSameSeed) {
  Rng setup(9);
  const Graph g = barabasi_albert(60, 2, setup);
  const FrontierSampler fs(g, {.dimension = 3, .steps = 100});
  Rng a(77);
  Rng b(77);
  const SampleRecord ra = fs.run(a);
  const SampleRecord rb = fs.run(b);
  ASSERT_EQ(ra.edges.size(), rb.edges.size());
  for (std::size_t i = 0; i < ra.edges.size(); ++i) {
    EXPECT_EQ(ra.edges[i], rb.edges[i]);
  }
}

TEST(FrontierSampler, WalkersStayInTheirComponents) {
  // FS walkers also cannot jump components — the robustness comes from the
  // budget re-allocation, not teleportation.
  GraphBuilder b(6);
  b.add_undirected_edge(0, 1);
  b.add_undirected_edge(1, 2);
  b.add_undirected_edge(2, 0);
  b.add_undirected_edge(3, 4);
  b.add_undirected_edge(4, 5);
  b.add_undirected_edge(5, 3);
  const Graph g = b.build();
  Rng rng(10);
  const FrontierSampler fs(g, {.dimension = 4, .steps = 200});
  const SampleRecord rec = fs.run(rng);
  expect_valid_fs_trajectory(g, rec);
  for (const Edge& e : rec.edges) {
    EXPECT_EQ(e.u < 3, e.v < 3);  // edges never cross components
  }
}

TEST(FrontierSampler, AllocatesStepsByComponentVolume) {
  // Two disconnected cliques, one dense (K10) one sparse (path of 10):
  // in steady state FS spends budget proportional to component volume.
  std::vector<Graph> parts;
  parts.push_back(complete_graph(10));  // vol 90
  parts.push_back(path_graph(10));      // vol 18
  const Graph g = disjoint_union(parts);
  Rng rng(11);
  const FrontierSampler fs(g, {.dimension = 200, .steps = 200000});
  const SampleRecord rec = fs.run(rng);
  double dense_steps = 0.0;
  for (const Edge& e : rec.edges) {
    if (e.u < 10) dense_steps += 1.0;
  }
  const double frac = dense_steps / static_cast<double>(rec.edges.size());
  // Walker placement is uniform (10 vertices each side -> half the
  // walkers in each clique), but FS advances walkers ∝ degree, so the
  // dense side gets ~90/(90+18) of the steps as m grows.
  EXPECT_NEAR(frac, 90.0 / 108.0, 0.04);
}

class FrontierDimensionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FrontierDimensionSweep, UniformEdgeSamplingHoldsForAllM) {
  const std::size_t m = GetParam();
  Rng rng(12);
  const Graph g = complete_graph(8);  // vol 56, symmetric, fast mixing
  const FrontierSampler fs(g, {.dimension = m, .steps = 150000});
  const SampleRecord rec = fs.run(rng);
  std::map<std::pair<VertexId, VertexId>, double> freq;
  for (const Edge& e : rec.edges) freq[{e.u, e.v}] += 1.0;
  const double expect = 1.0 / 56.0;
  for (const auto& [edge, count] : freq) {
    EXPECT_NEAR(count / static_cast<double>(rec.edges.size()), expect,
                0.15 * expect);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, FrontierDimensionSweep,
                         ::testing::Values(1, 2, 3, 8, 32, 128));

// Pins FS output to constants, so a change to walker selection (or to any
// other part of the step) that picks a different walker for the same draw
// fails here even though every same-commit identity gate (threads, block
// size, telemetry) still agrees with itself. The constants are FNV-1a
// hashes of the edges, starts, cost and final RNG state of one run per m.
// They may only change together with a documented change of the FS law.
std::uint64_t hash_record(const SampleRecord& rec, const Rng& rng) {
  std::uint64_t h = kFnv1aOffsetBasis;
  h = fnv1a_bytes(h, rec.edges.data(), rec.edges.size() * sizeof(Edge));
  h = fnv1a_bytes(h, rec.vertices.data(),
                  rec.vertices.size() * sizeof(VertexId));
  h = fnv1a_bytes(h, rec.starts.data(),
                  rec.starts.size() * sizeof(VertexId));
  h = fnv1a_bytes(h, &rec.cost, sizeof(rec.cost));
  const std::array<std::uint64_t, 4> state = rng.state();
  return fnv1a_bytes(h, state.data(), sizeof(state));
}

const Graph& pin_graph() {
  static const Graph g = [] {
    Rng rng(2718);
    return barabasi_albert(20000, 3, rng);
  }();
  return g;
}

constexpr std::array<std::size_t, 6> kPinDimensions{1, 2, 10, 100, 1000,
                                                    5000};

TEST(FrontierPin, RunMatchesPinnedHashes) {
  constexpr std::array<std::uint64_t, 6> kExpected{
      0xcbeea75e97ca051fULL, 0xdf121c3deacf43f8ULL, 0xe382d2fb100db834ULL,
      0x9a1654d6d2cbcc22ULL, 0xe32d046abd7b433aULL, 0xe6f18a8ad1a176b9ULL};
  const Graph& g = pin_graph();
  for (std::size_t k = 0; k < kPinDimensions.size(); ++k) {
    const std::size_t m = kPinDimensions[k];
    const FrontierSampler fs(g, {.dimension = m, .steps = 30000});
    Rng rng(100 + m);
    const SampleRecord rec = fs.run(rng);
    EXPECT_EQ(hash_record(rec, rng), kExpected[k]) << "m " << m;
  }
}

TEST(FrontierPin, CheckpointAndResumeMatchPinnedHashes) {
  // {checkpoint bytes, resumed run} per m; the checkpoint is taken after
  // one block of 7919 steps, mid-way through a 20000-step run.
  constexpr std::array<std::array<std::uint64_t, 2>, 6> kExpected{{
      {0x1046b37c957a4f57ULL, 0x61065a270e9a6105ULL},
      {0x309b97c287714392ULL, 0x84cfdb6531d2bd23ULL},
      {0xdd70ad98e426748cULL, 0x383b9141c781ceadULL},
      {0x0b8fb416555c3fa1ULL, 0x7159be8d579a0085ULL},
      {0x5d5de2655aeda6dfULL, 0x9d7aa343b7fe708bULL},
      {0x0e94d9b413a1108aULL, 0xf741410fa184ed2fULL},
  }};
  const Graph& g = pin_graph();
  for (std::size_t k = 0; k < kPinDimensions.size(); ++k) {
    const std::size_t m = kPinDimensions[k];
    const FrontierCursor::Config cfg{.dimension = m, .steps = 20000};
    FrontierCursor cursor(g, cfg, Rng(200 + m));
    StreamEventBlock block(7919);
    ASSERT_EQ(cursor.next_batch(block, block.capacity()), 7919u);
    std::ostringstream os;
    cursor.save_state(os);
    const std::string bytes = os.str();
    EXPECT_EQ(fnv1a_bytes(kFnv1aOffsetBasis, bytes.data(), bytes.size()),
              kExpected[k][0])
        << "m " << m;

    FrontierCursor resumed(g, cfg, Rng(1));
    std::istringstream is(bytes);
    resumed.load_state(is);
    const SampleRecord rec = drain_cursor(resumed);
    EXPECT_EQ(rec.edges.size(), 20000u - 7919u);
    EXPECT_EQ(hash_record(rec, resumed.rng()), kExpected[k][1]) << "m " << m;
  }
}

// The other four walk cursors, pinned the FrontierPin way: {batch run of
// WalkSampler<Cursor>, checkpoint bytes after one block of 7919 events,
// the resumed run}. A change that moves them changes that method's law.
template <typename Cursor>
std::array<std::uint64_t, 3> cursor_pins(const typename Cursor::Config& cfg,
                                         std::uint64_t seed) {
  const Graph& g = pin_graph();
  Rng rng(seed);
  const SampleRecord batch = WalkSampler<Cursor>(g, cfg).run(rng);

  Cursor cursor(g, cfg, Rng(seed + 1));
  StreamEventBlock block(7919);
  EXPECT_EQ(cursor.next_batch(block, block.capacity()), 7919u);
  std::ostringstream os;
  cursor.save_state(os);
  const std::string bytes = os.str();

  Cursor resumed(g, cfg, Rng(1));
  std::istringstream is(bytes);
  resumed.load_state(is);
  const SampleRecord rest = drain_cursor(resumed);
  return {hash_record(batch, rng),
          fnv1a_bytes(kFnv1aOffsetBasis, bytes.data(), bytes.size()),
          hash_record(rest, resumed.rng())};
}

using Pins = std::array<std::uint64_t, 3>;

TEST(WalkCursorPin, SingleRwMatchesPinnedHashes) {
  EXPECT_EQ(cursor_pins<SingleRwCursor>({.steps = 20000, .burn_in = 50}, 300),
            (Pins{0xecaf8816e5912edeULL, 0xcd912f88c0e82016ULL,
                  0xb093d3022a7151cfULL}));
  EXPECT_EQ(cursor_pins<SingleRwCursor>(
                {.steps = 20000, .burn_in = 50, .laziness = 0.3}, 310),
            (Pins{0x06db1e35741c8be4ULL, 0x2137b77d99ee1178ULL,
                  0xdaaef7ed04238dfaULL}));
}

TEST(WalkCursorPin, MultipleRwMatchesPinnedHashes) {
  EXPECT_EQ(cursor_pins<MultipleRwCursor>(
                {.num_walkers = 10, .steps_per_walker = 2000}, 320),
            (Pins{0x92e2230b73cd50e4ULL, 0xb4b6f960a669ca35ULL,
                  0x07d48a4a559b02ddULL}));
}

TEST(WalkCursorPin, MetropolisMatchesPinnedHashes) {
  EXPECT_EQ(cursor_pins<MetropolisCursor>({.steps = 20000}, 330),
            (Pins{0x2a6b4a8b970778b9ULL, 0xd11567cea6a06dcfULL,
                  0x56bbb49a5d86bc7bULL}));
}

TEST(WalkCursorPin, RwjMatchesPinnedHashes) {
  EXPECT_EQ(cursor_pins<RwjCursor>(
                {.budget = 20000.0,
                 .jump_probability = 0.1,
                 .cost = {.jump_cost = 1.0, .hit_ratio = 0.5}},
                340),
            (Pins{0x00be2af35cf7f4faULL, 0xb765dd1b5b6d2befULL,
                  0xdace76b588272b38ULL}));
}

}  // namespace
}  // namespace frontier
