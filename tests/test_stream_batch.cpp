// Batched stepping equivalence: for every cursor, next_batch() must be a
// pure speedup — the emitted event sequence, the degree column, the final
// RNG state, the cost, and every sink's serialized state are bit-identical
// for any batch size K (including K=1), and a checkpoint taken mid-block
// resumes into the same final state as an uninterrupted serial run.
#include "stream/block.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "sampling/frontier_sampler.hpp"
#include "sampling/metropolis.hpp"
#include "sampling/multiple_rw.hpp"
#include "sampling/random_walk_with_jumps.hpp"
#include "sampling/single_rw.hpp"
#include "stream/cursor.hpp"
#include "stream/engine.hpp"
#include "stream/motif_sinks.hpp"
#include "stream/sampler_cursors.hpp"
#include "stream/sinks.hpp"

namespace frontier {
namespace {

constexpr std::size_t kBatchSizes[] = {1, 7, 64, 4096};

Graph test_graph() {
  Rng rng(42);
  return barabasi_albert(300, 3, rng);
}

/// One observed step, flattened for comparison.
struct EventRec {
  bool has_edge = false;
  bool has_vertex = false;
  Edge edge{};
  VertexId vertex = kInvalidVertex;

  friend bool operator==(const EventRec&, const EventRec&) = default;
};

std::vector<EventRec> collect_serial(SamplerCursor& cursor) {
  std::vector<EventRec> out;
  StreamEvent ev;
  while (cursor.next(ev)) {
    // Copy only the flagged fields: StreamEvent::clear() resets the
    // flags but leaves the payload stale, and only flagged payload is
    // part of the contract.
    EventRec rec;
    rec.has_edge = ev.has_edge;
    rec.has_vertex = ev.has_vertex;
    if (ev.has_edge) rec.edge = ev.edge;
    if (ev.has_vertex) rec.vertex = ev.vertex;
    out.push_back(rec);
  }
  return out;
}

/// Drains via next_batch with block capacity K, also asserting the degree
/// column invariant on every edge row.
std::vector<EventRec> collect_batched(SamplerCursor& cursor, std::size_t k) {
  std::vector<EventRec> out;
  StreamEventBlock block(k);
  while (cursor.next_batch(block) > 0) {
    EXPECT_LE(block.size(), k);
    for (std::size_t i = 0; i < block.size(); ++i) {
      EventRec rec;
      rec.has_edge = (block.flags()[i] & StreamEventBlock::kHasEdge) != 0;
      rec.has_vertex = (block.flags()[i] & StreamEventBlock::kHasVertex) != 0;
      if (rec.has_edge) {
        rec.edge = Edge{block.u()[i], block.v()[i]};
        EXPECT_EQ(block.deg_v()[i], cursor.graph().degree(block.v()[i]))
            << "degree column row " << i;
      }
      if (rec.has_vertex) rec.vertex = block.vertex()[i];
      out.push_back(rec);
    }
  }
  // An exhausted cursor keeps returning empty batches.
  EXPECT_EQ(cursor.next_batch(block), 0u);
  EXPECT_TRUE(cursor.done());
  return out;
}

/// Asserts serial next() and next_batch(K) agree for every K, in events,
/// starts, cost and final RNG position. Only a config whose budget buys
/// no step at all may pass `expect_events = false`.
template <typename MakeCursor>
void check_batch_equivalence(MakeCursor make_cursor,
                             bool expect_events = true) {
  auto serial = make_cursor();
  const std::vector<EventRec> expected = collect_serial(*serial);
  ASSERT_EQ(!expected.empty(), expect_events);
  for (const std::size_t k : kBatchSizes) {
    auto batched = make_cursor();
    const std::vector<EventRec> got = collect_batched(*batched, k);
    ASSERT_EQ(got.size(), expected.size()) << "K=" << k;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], expected[i]) << "K=" << k << " event " << i;
    }
    EXPECT_EQ(batched->starts(), serial->starts()) << "K=" << k;
    EXPECT_EQ(batched->cost(), serial->cost()) << "K=" << k;  // bitwise
    EXPECT_TRUE(batched->rng() == serial->rng()) << "K=" << k;
  }
}

TEST(StreamBatch, FrontierAllBatchSizes) {
  const Graph g = test_graph();
  check_batch_equivalence([&] {
    return std::make_unique<FrontierCursor>(
        g, FrontierSampler::Config{.dimension = 8, .steps = 3000}, Rng(7));
  });
}

TEST(StreamBatch, SingleRwWithBurnInAndLazinessAllBatchSizes) {
  const Graph g = test_graph();
  check_batch_equivalence([&] {
    return std::make_unique<SingleRwCursor>(
        g,
        SingleRandomWalk::Config{
            .steps = 2500, .burn_in = 137, .laziness = 0.3},
        Rng(9));
  });
}

TEST(StreamBatch, SingleRwPlainAllBatchSizes) {
  const Graph g = test_graph();
  check_batch_equivalence([&] {
    return std::make_unique<SingleRwCursor>(
        g, SingleRandomWalk::Config{.steps = 2500}, Rng(10));
  });
}

TEST(StreamBatch, MultipleRwAllBatchSizes) {
  const Graph g = test_graph();
  check_batch_equivalence([&] {
    return std::make_unique<MultipleRwCursor>(
        g,
        MultipleRandomWalks::Config{.num_walkers = 9,
                                    .steps_per_walker = 123},
        Rng(11));
  });
}

TEST(StreamBatch, RwjAllBatchSizes) {
  const Graph g = test_graph();
  check_batch_equivalence([&] {
    return std::make_unique<RwjCursor>(
        g,
        RandomWalkWithJumps::Config{
            .budget = 2000.0,
            .jump_probability = 0.2,
            .cost = {.jump_cost = 2.0, .hit_ratio = 0.5}},
        Rng(12));
  });
}

TEST(StreamBatch, MetropolisAllBatchSizes) {
  const Graph g = test_graph();
  check_batch_equivalence([&] {
    return std::make_unique<MetropolisCursor>(
        g, MetropolisHastingsWalk::Config{.steps = 3000}, Rng(13));
  });
}

// ------------------------------------------------------ boundary configs
//
// Configs that reach the rarely-taken branches of next_batch: a walker
// with no steps, a budget that cannot pay the first jump, a walk made of
// jumps only, a pinned start, and a burn-in with nothing after it.

TEST(StreamBatch, BoundaryConfigsAllBatchSizes) {
  const Graph g = test_graph();
  check_batch_equivalence([&] {
    return std::make_unique<MultipleRwCursor>(
        g,
        MultipleRandomWalks::Config{.num_walkers = 5, .steps_per_walker = 0},
        Rng(14));
  });
  check_batch_equivalence(
      [&] {
        return std::make_unique<RwjCursor>(
            g,
            RandomWalkWithJumps::Config{.budget = 1.5,
                                        .cost = {.jump_cost = 2.0}},
            Rng(15));
      },
      /*expect_events=*/false);
  check_batch_equivalence([&] {
    return std::make_unique<RwjCursor>(
        g,
        RandomWalkWithJumps::Config{
            .budget = 500.0,
            .jump_probability = 1.0,
            .cost = {.jump_cost = 1.0, .hit_ratio = 0.7}},
        Rng(16));
  });
  check_batch_equivalence([&] {
    return std::make_unique<MetropolisCursor>(
        g,
        MetropolisHastingsWalk::Config{.steps = 1000,
                                       .fixed_start = VertexId{17}},
        Rng(17));
  });
  check_batch_equivalence([&] {
    return std::make_unique<SingleRwCursor>(
        g, SingleRandomWalk::Config{.steps = 0, .burn_in = 300}, Rng(18));
  });
}

// ------------------------------------------------------------------ sinks

/// Serializes every sink; the byte string is the complete numeric state.
std::string sink_state(const SinkSet& sinks) {
  std::ostringstream os;
  for (const auto& sink : sinks) sink->save_state(os);
  return os.str();
}

SinkSet make_sinks(const Graph& g) {
  SinkSet sinks;
  sinks.push_back(
      std::make_unique<DegreeDistributionSink>(g, DegreeKind::kSymmetric));
  sinks.push_back(std::make_unique<DegreeDistributionSink>(g, DegreeKind::kIn));
  sinks.push_back(std::make_unique<VertexDensitySink>(
      g, [](VertexId v) { return v % 3 == 0; }));
  sinks.push_back(std::make_unique<EdgeDensitySink>(
      [](const Edge&) { return true; },
      [](const Edge& e) { return e.u < e.v; }));
  sinks.push_back(std::make_unique<AssortativitySink>(g));
  sinks.push_back(std::make_unique<GraphMomentsSink>(g));
  sinks.push_back(std::make_unique<UniformDegreeSink>(g));
  sinks.push_back(std::make_unique<TriangleSink>(g));
  sinks.push_back(std::make_unique<ClusteringSink>(g));
  sinks.push_back(std::make_unique<MotifSink>(g));
  return sinks;
}

/// Every sink type's state is bit-identical for every block capacity K
/// (K=1 is the row-at-a-time reference), on blocks containing edge,
/// vertex, mixed and empty rows (the MH + RWJ cursors produce all four).
TEST(StreamBatch, SinkStateIndependentOfBlockCapacity) {
  const Graph g = test_graph();
  const auto drive = [&](std::size_t k, auto make_cursor) {
    SinkSet sinks = make_sinks(g);
    auto owner = make_cursor();
    SamplerCursor& cursor = *owner;
    StreamEventBlock block(k);
    while (cursor.next_batch(block) > 0) {
      for (const auto& sink : sinks) sink->ingest_block(block);
    }
    return sink_state(sinks);
  };
  const auto mh = [&] {
    return std::make_unique<MetropolisCursor>(
        g, MetropolisHastingsWalk::Config{.steps = 4000}, Rng(21));
  };
  const auto rwj = [&] {
    return std::make_unique<RwjCursor>(
        g,
        RandomWalkWithJumps::Config{.budget = 3000.0,
                                    .jump_probability = 0.15},
        Rng(22));
  };
  const auto fs = [&] {
    return std::make_unique<FrontierCursor>(
        g, FrontierSampler::Config{.dimension = 16, .steps = 4000}, Rng(23));
  };
  const std::string mh_state = drive(1, mh);
  const std::string rwj_state = drive(1, rwj);
  const std::string fs_state = drive(1, fs);
  for (const std::size_t k : kBatchSizes) {
    EXPECT_EQ(drive(k, mh), mh_state) << "MH K=" << k;
    EXPECT_EQ(drive(k, rwj), rwj_state) << "RWJ K=" << k;
    EXPECT_EQ(drive(k, fs), fs_state) << "FS K=" << k;
  }
}

// ------------------------------------------------- checkpoint mid-block

/// Pausing at an event count that is not a multiple of the engine's block
/// capacity (i.e. the last refill was truncated mid-block) must resume
/// into the same final state as an uninterrupted K=1 engine.
template <typename MakeCursor>
void check_midblock_roundtrip(const Graph& g, MakeCursor make_cursor,
                              std::uint64_t pause_after) {
  // Reference: serial engine (block capacity 1 — the pre-batching path).
  StreamEngine reference(make_cursor(), make_sinks(g), 1);
  reference.run_to_completion();

  // Batched engine, paused mid-block and checkpointed.
  StreamEngine first(make_cursor(), make_sinks(g), 64);
  ASSERT_EQ(first.pump(pause_after), pause_after);
  std::stringstream snapshot;
  first.save_checkpoint(snapshot);

  // Fresh engine, restored, driven to completion.
  StreamEngine resumed(make_cursor(), make_sinks(g), 64);
  resumed.load_checkpoint(snapshot);
  EXPECT_EQ(resumed.events(), pause_after);
  resumed.run_to_completion();

  EXPECT_EQ(resumed.events(), reference.events());
  EXPECT_EQ(resumed.cursor().cost(), reference.cursor().cost());
  EXPECT_TRUE(resumed.cursor().rng() == reference.cursor().rng());
  std::ostringstream a;
  std::ostringstream b;
  for (const auto& sink : resumed.sinks()) sink->save_state(a);
  for (const auto& sink : reference.sinks()) sink->save_state(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(StreamBatch, CheckpointMidBlockAllCursors) {
  const Graph g = test_graph();
  check_midblock_roundtrip(
      g,
      [&] {
        return std::make_unique<FrontierCursor>(
            g, FrontierSampler::Config{.dimension = 8, .steps = 2000},
            Rng(31));
      },
      777);  // 777 = 12 full 64-blocks + 9: pause lands mid-block
  check_midblock_roundtrip(
      g,
      [&] {
        return std::make_unique<SingleRwCursor>(
            g,
            SingleRandomWalk::Config{
                .steps = 2000, .burn_in = 100, .laziness = 0.2},
            Rng(32));
      },
      333);
  check_midblock_roundtrip(
      g,
      [&] {
        return std::make_unique<MultipleRwCursor>(
            g,
            MultipleRandomWalks::Config{.num_walkers = 7,
                                        .steps_per_walker = 200},
            Rng(33));
      },
      555);
  check_midblock_roundtrip(
      g,
      [&] {
        return std::make_unique<RwjCursor>(
            g,
            RandomWalkWithJumps::Config{.budget = 1500.0,
                                        .jump_probability = 0.25},
            Rng(34));
      },
      421);
  check_midblock_roundtrip(
      g,
      [&] {
        return std::make_unique<MetropolisCursor>(
            g, MetropolisHastingsWalk::Config{.steps = 2000}, Rng(35));
      },
      999);
}

// --------------------------------------------------------------- drains

/// drain_cursor_into through arenas of every block capacity produces the
/// same SampleRecord, and reuses the arena's storage across runs — for
/// every walk sampler's run_into.
template <class Sampler>
void check_arena_reuse(const Sampler& sampler, std::uint64_t seed) {
  Rng reference_rng(seed);
  const SampleRecord expected = sampler.run(reference_rng);
  for (const std::size_t k : kBatchSizes) {
    SampleArena arena{SampleRecord{}, StreamEventBlock(k)};
    Rng rng(seed);
    const SampleRecord& rec = sampler.run_into(arena, rng);
    EXPECT_EQ(rec.edges, expected.edges) << "K=" << k;
    EXPECT_EQ(rec.vertices, expected.vertices) << "K=" << k;
    EXPECT_EQ(rec.starts, expected.starts) << "K=" << k;
    EXPECT_EQ(rec.cost, expected.cost) << "K=" << k;
    EXPECT_TRUE(rng == reference_rng) << "K=" << k;

    // Second run through the same arena: same result, no capacity growth.
    const Edge* edges_before = rec.edges.data();
    const std::size_t edge_cap = rec.edges.capacity();
    const VertexId* vertices_before = rec.vertices.data();
    const std::size_t vertex_cap = rec.vertices.capacity();
    Rng rng2(seed);
    const SampleRecord& rec2 = sampler.run_into(arena, rng2);
    EXPECT_EQ(rec2.edges, expected.edges) << "K=" << k;
    EXPECT_EQ(rec2.vertices, expected.vertices) << "K=" << k;
    EXPECT_EQ(rec2.edges.capacity(), edge_cap) << "K=" << k;
    EXPECT_EQ(rec2.edges.data(), edges_before) << "K=" << k;
    EXPECT_EQ(rec2.vertices.capacity(), vertex_cap) << "K=" << k;
    EXPECT_EQ(rec2.vertices.data(), vertices_before) << "K=" << k;
  }
}

TEST(StreamBatch, DrainArenaReuseAndCapacityIndependence) {
  const Graph g = test_graph();
  check_arena_reuse(FrontierSampler(g, {.dimension = 8, .steps = 1000}), 41);
  check_arena_reuse(
      SingleRandomWalk(g, {.steps = 1000, .burn_in = 50, .laziness = 0.25}),
      42);
  check_arena_reuse(
      MultipleRandomWalks(g, {.num_walkers = 7, .steps_per_walker = 150}),
      43);
  check_arena_reuse(
      RandomWalkWithJumps(g, {.budget = 1500.0,
                              .jump_probability = 0.2,
                              .cost = {.jump_cost = 2.0, .hit_ratio = 0.5}}),
      44);
  check_arena_reuse(MetropolisHastingsWalk(g, {.steps = 1000}), 45);
}

TEST(StreamBatch, BlockCapacityValidation) {
  EXPECT_THROW(StreamEventBlock(0), std::invalid_argument);
  StreamEventBlock block(4);
  EXPECT_EQ(block.capacity(), 4u);
  EXPECT_TRUE(block.empty());
  block.push_edge(1, 2, 3);
  EXPECT_EQ(block.size(), 1u);
  EXPECT_EQ(block.room(), 3u);
  block.clear();
  EXPECT_TRUE(block.empty());
}

}  // namespace
}  // namespace frontier
