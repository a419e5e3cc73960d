// Checkpoint/resume: pausing a streaming crawl mid-run and resuming it in
// a freshly constructed engine must land in a bitwise-identical final
// state (same remaining event stream, same sink sums, same RNG position)
// as the uninterrupted run.
#include "stream/checkpoint.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "stream/engine.hpp"
#include "stream/motif_sinks.hpp"
#include "stream/sampler_cursors.hpp"
#include "stream/sinks.hpp"
#include "stream/spec.hpp"

namespace frontier {
namespace {

Graph test_graph() {
  Rng rng(77);
  return barabasi_albert(150, 3, rng);
}

SinkSet make_sinks(const Graph& g) {
  return CrawlSpec{.motifs = true}.make_sinks(g);
}

struct FinalState {
  std::vector<double> distribution;
  double assortativity = 0.0;
  double average_degree = 0.0;
  double uniform_degree = 0.0;
  double transitivity = 0.0;
  double clustering = 0.0;
  MotifEstimate motifs{};
  double cost = 0.0;
  std::uint64_t events = 0;
  std::array<std::uint64_t, 4> rng_state{};
};

FinalState capture(const StreamEngine& engine) {
  FinalState s;
  const CrawlSpec::Roster sinks = CrawlSpec::roster(engine.sinks());
  s.distribution = sinks.degree_distribution->distribution();
  s.assortativity = sinks.assortativity->value();
  s.average_degree = sinks.moments->average_degree();
  s.uniform_degree = sinks.uniform_degree->value();
  s.transitivity = sinks.triangles->transitivity();
  s.clustering = sinks.clustering->global_clustering();
  s.motifs = sinks.motifs->estimate(1000.0);
  s.cost = engine.cursor().cost();
  s.events = engine.events();
  s.rng_state = engine.cursor().rng().state();
  return s;
}

void expect_identical(const FinalState& a, const FinalState& b) {
  EXPECT_EQ(a.distribution, b.distribution);
  EXPECT_EQ(a.assortativity, b.assortativity);
  EXPECT_EQ(a.average_degree, b.average_degree);
  EXPECT_EQ(a.uniform_degree, b.uniform_degree);
  EXPECT_EQ(a.transitivity, b.transitivity);
  EXPECT_EQ(a.clustering, b.clustering);
  EXPECT_EQ(a.motifs.triangle, b.motifs.triangle);
  EXPECT_EQ(a.motifs.wedge, b.motifs.wedge);
  EXPECT_EQ(a.motifs.cycle4, b.motifs.cycle4);
  EXPECT_EQ(a.motifs.clique4, b.motifs.clique4);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.rng_state, b.rng_state);
}

// Runs the pause/resume round trip for one cursor type: `make_cursor` must
// return a fresh cursor for the given seed.
template <typename MakeCursor>
void check_roundtrip(const Graph& g, MakeCursor make_cursor,
                     std::uint64_t pause_after) {
  // Reference: uninterrupted run.
  StreamEngine reference(make_cursor(1), make_sinks(g));
  reference.run_to_completion();
  const FinalState expected = capture(reference);

  // Interrupted: pump part way, checkpoint, keep running to completion.
  StreamEngine first(make_cursor(1), make_sinks(g));
  ASSERT_EQ(first.pump(pause_after), pause_after);
  std::stringstream ckpt;
  first.save_checkpoint(ckpt);
  first.run_to_completion();
  expect_identical(expected, capture(first));

  // Resumed: a fresh engine (different seed, so the restore must overwrite
  // every bit of dynamic state) loads the checkpoint and finishes.
  StreamEngine resumed(make_cursor(999), make_sinks(g));
  resumed.load_checkpoint(ckpt);
  EXPECT_EQ(resumed.events(), pause_after);
  resumed.run_to_completion();
  expect_identical(expected, capture(resumed));
}

TEST(StreamCheckpoint, FrontierRoundtrip) {
  const Graph g = test_graph();
  const FrontierCursor::Config cfg{.dimension = 6, .steps = 5000};
  check_roundtrip(
      g,
      [&](std::uint64_t seed) {
        return std::make_unique<FrontierCursor>(g, cfg, Rng(seed));
      },
      1234);
}

TEST(StreamCheckpoint, FrontierRetiredSlotsMustBeZero) {
  // The walker-selection byte and the double after the starts are
  // retired: FrontierCursor always writes them as zero and refuses any
  // other value as a corrupt checkpoint.
  const Graph g = test_graph();
  const FrontierCursor::Config cfg{.dimension = 4, .steps = 100};
  const FrontierCursor cursor(g, cfg, Rng(3));
  std::ostringstream os;
  cursor.save_state(os);
  const std::string bytes = os.str();
  // After dimension, steps, jump cost (8 bytes each) and the start mode.
  const std::size_t selection = 3 * 8 + 1;
  // Just before the trailing RNG state.
  const std::size_t retired = bytes.size() - 4 * 8 - 8;
  EXPECT_EQ(bytes[selection], '\0');
  EXPECT_EQ(bytes.substr(retired, 8), std::string(8, '\0'));

  std::istringstream good(bytes);
  FrontierCursor resumed(g, cfg, Rng(9));
  resumed.load_state(good);
  EXPECT_TRUE(resumed.rng() == cursor.rng());
  for (const std::size_t at : {selection, retired}) {
    std::string bad = bytes;
    bad[at] = 1;
    std::istringstream is(bad);
    FrontierCursor fresh(g, cfg, Rng(9));
    EXPECT_THROW(fresh.load_state(is), IoError) << "byte " << at;
  }
}

TEST(StreamCheckpoint, SingleRwRoundtrip) {
  const Graph g = test_graph();
  const SingleRwCursor::Config cfg{
      .steps = 4000, .burn_in = 300, .laziness = 0.2};
  check_roundtrip(
      g,
      [&](std::uint64_t seed) {
        return std::make_unique<SingleRwCursor>(g, cfg, Rng(seed));
      },
      150);  // pause inside the burn-in phase
}

TEST(StreamCheckpoint, MultipleRwRoundtrip) {
  const Graph g = test_graph();
  const MultipleRwCursor::Config cfg{.num_walkers = 5,
                                        .steps_per_walker = 800};
  check_roundtrip(
      g,
      [&](std::uint64_t seed) {
        return std::make_unique<MultipleRwCursor>(g, cfg, Rng(seed));
      },
      2100);  // pause mid-walker
}

TEST(StreamCheckpoint, RandomWalkWithJumpsRoundtrip) {
  const Graph g = test_graph();
  const RwjCursor::Config cfg{
      .budget = 4000.0,
      .jump_probability = 0.1,
      .cost = {.jump_cost = 1.5, .hit_ratio = 0.8}};
  check_roundtrip(
      g,
      [&](std::uint64_t seed) {
        return std::make_unique<RwjCursor>(g, cfg, Rng(seed));
      },
      900);
}

TEST(StreamCheckpoint, MetropolisRoundtrip) {
  const Graph g = test_graph();
  const MetropolisCursor::Config cfg{.steps = 4000};
  check_roundtrip(
      g,
      [&](std::uint64_t seed) {
        return std::make_unique<MetropolisCursor>(g, cfg, Rng(seed));
      },
      1);  // pause right after the pending start-vertex emission
}

TEST(StreamCheckpoint, FileRoundtrip) {
  const Graph g = test_graph();
  const FrontierCursor::Config cfg{.dimension = 3, .steps = 1000};
  StreamEngine first(std::make_unique<FrontierCursor>(g, cfg, Rng(3)),
                     make_sinks(g));
  first.pump(400);
  const std::string path = ::testing::TempDir() + "stream_ckpt.bin";
  first.save_checkpoint_file(path);
  first.run_to_completion();

  StreamEngine resumed(std::make_unique<FrontierCursor>(g, cfg, Rng(4)),
                       make_sinks(g));
  resumed.load_checkpoint_file(path);
  resumed.run_to_completion();
  expect_identical(capture(first), capture(resumed));
  std::remove(path.c_str());
}

TEST(StreamCheckpoint, RejectsWrongCursorKind) {
  const Graph g = test_graph();
  StreamEngine fs(std::make_unique<FrontierCursor>(
                      g, FrontierCursor::Config{.dimension = 2, .steps = 100},
                      Rng(5)),
                  make_sinks(g));
  fs.pump(10);
  std::stringstream ckpt;
  fs.save_checkpoint(ckpt);

  StreamEngine mh(std::make_unique<MetropolisCursor>(
                      g, MetropolisCursor::Config{.steps = 100}, Rng(5)),
                  make_sinks(g));
  EXPECT_THROW(mh.load_checkpoint(ckpt), IoError);
}

TEST(StreamCheckpoint, RejectsDifferentGraph) {
  const Graph g = test_graph();
  const FrontierCursor::Config cfg{.dimension = 4, .steps = 100};
  StreamEngine a(std::make_unique<FrontierCursor>(g, cfg, Rng(6)),
                 make_sinks(g));
  a.pump(10);
  std::stringstream ckpt;
  a.save_checkpoint(ckpt);

  Rng other_rng(123);
  const Graph other = barabasi_albert(80, 2, other_rng);
  StreamEngine b(std::make_unique<FrontierCursor>(other, cfg, Rng(6)),
                 make_sinks(other));
  EXPECT_THROW(b.load_checkpoint(ckpt), IoError);
}

TEST(StreamCheckpoint, RejectsConfigMismatch) {
  const Graph g = test_graph();
  const FrontierCursor::Config cfg{.dimension = 4, .steps = 100};
  StreamEngine a(std::make_unique<FrontierCursor>(g, cfg, Rng(6)),
                 make_sinks(g));
  a.pump(10);
  std::stringstream ckpt;
  a.save_checkpoint(ckpt);

  const FrontierCursor::Config other{.dimension = 8, .steps = 100};
  StreamEngine b(std::make_unique<FrontierCursor>(g, other, Rng(6)),
                 make_sinks(g));
  EXPECT_THROW(b.load_checkpoint(ckpt), IoError);
}

TEST(StreamCheckpoint, RejectsSinkMismatch) {
  const Graph g = test_graph();
  const FrontierCursor::Config cfg{.dimension = 2, .steps = 100};
  StreamEngine a(std::make_unique<FrontierCursor>(g, cfg, Rng(7)),
                 make_sinks(g));
  a.pump(10);
  std::stringstream ckpt;
  a.save_checkpoint(ckpt);

  SinkSet fewer;
  fewer.push_back(std::make_unique<GraphMomentsSink>(g));
  StreamEngine b(std::make_unique<FrontierCursor>(g, cfg, Rng(7)),
                 std::move(fewer));
  EXPECT_THROW(b.load_checkpoint(ckpt), IoError);
}

TEST(StreamCheckpoint, RejectsTruncatedStream) {
  const Graph g = test_graph();
  const FrontierCursor::Config cfg{.dimension = 2, .steps = 100};
  StreamEngine a(std::make_unique<FrontierCursor>(g, cfg, Rng(8)),
                 make_sinks(g));
  a.pump(10);
  std::stringstream ckpt;
  a.save_checkpoint(ckpt);
  const std::string full = ckpt.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));

  StreamEngine b(std::make_unique<FrontierCursor>(g, cfg, Rng(8)),
                 make_sinks(g));
  EXPECT_THROW(b.load_checkpoint(truncated), IoError);
}

}  // namespace
}  // namespace frontier
