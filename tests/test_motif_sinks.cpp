// Streaming motif sinks vs exact enumeration: fed every ordered edge
// slot of the symmetric graph once (a "full enumeration", scale factor
// vol/B = 1), interleaved with vertex-only and empty rows, the
// integer-accumulator sinks must reproduce the exact analysis/motifs.hpp
// counts *exactly* at every block capacity, and their serialized state
// must not depend on the capacity.
#include "stream/motif_sinks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/motifs.hpp"
#include "core/io_error.hpp"
#include "estimators/clustering.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "random/rng.hpp"
#include "stream/block.hpp"
#include "stream/serialize.hpp"

namespace frontier {
namespace {

constexpr std::size_t kBatchSizes[] = {1, 7, 64, 4096};

// The ~20 randomized graphs of the property test: BA, ER and
// small-world, cycling parameters with the seed.
std::vector<Graph> property_graphs() {
  std::vector<Graph> graphs;
  for (std::uint64_t seed = 1; seed <= 7; ++seed) {
    Rng rng(seed);
    graphs.push_back(barabasi_albert(100 + 10 * seed, 2 + seed % 3, rng));
  }
  for (std::uint64_t seed = 8; seed <= 14; ++seed) {
    Rng rng(seed);
    graphs.push_back(
        erdos_renyi_gnp(90 + 8 * seed, 0.04 + 0.01 * (seed % 4), rng));
  }
  for (std::uint64_t seed = 15; seed <= 20; ++seed) {
    Rng rng(seed);
    graphs.push_back(
        watts_strogatz(80 + 12 * seed, 2 + seed % 2, 0.1 + 0.03 * (seed % 3),
                       rng));
  }
  return graphs;
}

// All vol(G) ordered edge slots (u, v), v ∈ N(u), as a batch edge list.
std::vector<Edge> all_slots(const Graph& g) {
  std::vector<Edge> slots;
  slots.reserve(g.volume());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) slots.push_back(Edge{u, v});
  }
  return slots;
}

// Feeds every slot of g to the sink in blocks of capacity k, with a
// vertex-only row before every 13th slot and an empty row before every
// 17th: rows without an edge must leave every motif sink untouched.
void feed_all_slots(const Graph& g, EstimatorSink& sink, std::size_t k) {
  StreamEventBlock block(k);
  const auto room = [&] {
    if (block.room() != 0) return;
    sink.ingest_block(block);
    block.clear();
  };
  const std::vector<Edge> slots = all_slots(g);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (i % 13 == 5) {
      room();
      block.push_vertex(slots[i].u);
    }
    if (i % 17 == 11) {
      room();
      block.push_empty();
    }
    room();
    block.push_edge(slots[i].u, slots[i].v, g.degree(slots[i].v));
  }
  sink.ingest_block(block);
}

TEST(MotifSinks, TriangleSinkFullEnumerationIsExact) {
  for (const Graph& g : property_graphs()) {
    for (const std::size_t k : kBatchSizes) {
      TriangleSink sink(g);
      feed_all_slots(g, sink, k);
      const double vol = static_cast<double>(g.volume());
      EXPECT_EQ(sink.edges_consumed(), g.volume()) << "K=" << k;
      EXPECT_DOUBLE_EQ(sink.triangle_count(vol),
                       static_cast<double>(exact_triangle_count(g)))
          << "K=" << k;
      EXPECT_DOUBLE_EQ(sink.transitivity(), exact_transitivity(g))
          << "K=" << k;
    }
  }
}

TEST(MotifSinks, ClusteringSinkFullEnumerationIsExact) {
  for (const Graph& g : property_graphs()) {
    const std::vector<Edge> slots = all_slots(g);
    const double batch = estimate_global_clustering(g, slots);
    const std::vector<double> want = exact_local_clustering_by_degree(g);
    for (const std::size_t k : kBatchSizes) {
      ClusteringSink sink(g);
      feed_all_slots(g, sink, k);
      // Bitwise-identical to the batch estimator over the same edge order.
      EXPECT_EQ(sink.global_clustering(), batch) << "K=" << k;
      // And numerically the exact mean local clustering coefficient.
      EXPECT_NEAR(sink.global_clustering(), exact_global_clustering(g), 1e-9);
      // The per-degree curve divides the same exact integers as the
      // analysis/ baseline, so it is bit-identical to it.
      const std::vector<double> got = sink.local_clustering();
      const std::size_t len = std::max(got.size(), want.size());
      for (std::size_t d = 0; d < len; ++d) {
        const double x = d < got.size() ? got[d] : 0.0;
        const double y = d < want.size() ? want[d] : 0.0;
        EXPECT_EQ(x, y) << "K=" << k << " degree class " << d;
      }
    }
  }
}

TEST(MotifSinks, MotifSinkFullEnumerationIsExact) {
  for (const Graph& g : property_graphs()) {
    const MotifCounts want = exact_motif_counts(g);
    for (const std::size_t k : kBatchSizes) {
      SCOPED_TRACE("K=" + std::to_string(k));
      MotifSink sink(g);
      feed_all_slots(g, sink, k);
      const MotifEstimate got =
          sink.estimate(static_cast<double>(g.volume()));
      EXPECT_DOUBLE_EQ(got.wedge, static_cast<double>(want.wedge));
      EXPECT_DOUBLE_EQ(got.triangle, static_cast<double>(want.triangle));
      EXPECT_DOUBLE_EQ(got.path4, static_cast<double>(want.path4));
      EXPECT_DOUBLE_EQ(got.claw, static_cast<double>(want.claw));
      EXPECT_DOUBLE_EQ(got.cycle4, static_cast<double>(want.cycle4));
      EXPECT_DOUBLE_EQ(got.paw, static_cast<double>(want.paw));
      EXPECT_DOUBLE_EQ(got.diamond, static_cast<double>(want.diamond));
      EXPECT_DOUBLE_EQ(got.clique4, static_cast<double>(want.clique4));
    }
  }
}

std::string state_of(const EstimatorSink& sink) {
  std::ostringstream os;
  sink.save_state(os);
  return os.str();
}

// The serialized state after a full mixed-row enumeration is the same
// bytes for every block capacity (K=1 is the row-at-a-time reference).
TEST(MotifSinks, BlockIngestStateIndependentOfCapacity) {
  Rng rng(4242);
  const Graph g = barabasi_albert(200, 3, rng);
  const auto state_at = [&](auto make_sink, std::size_t k) {
    auto sink = make_sink();
    feed_all_slots(g, *sink, k);
    return state_of(*sink);
  };
  const auto check = [&](auto make_sink, const char* label) {
    const std::string expected = state_at(make_sink, 1);
    for (const std::size_t k : kBatchSizes) {
      EXPECT_EQ(state_at(make_sink, k), expected) << label << " K=" << k;
    }
  };
  check([&] { return std::make_unique<TriangleSink>(g); }, "triangles");
  check([&] { return std::make_unique<ClusteringSink>(g); }, "clustering");
  check([&] { return std::make_unique<MotifSink>(g); }, "motif_census");
}

TEST(MotifSinks, StateRoundtripRestoresAccumulators) {
  Rng rng(7);
  const Graph g = erdos_renyi_gnp(120, 0.06, rng);
  MotifSink sink(g);
  TriangleSink tri(g);
  ClusteringSink clus(g);
  feed_all_slots(g, sink, 64);
  feed_all_slots(g, tri, 64);
  feed_all_slots(g, clus, 64);

  std::stringstream s1, s2, s3;
  sink.save_state(s1);
  tri.save_state(s2);
  clus.save_state(s3);

  MotifSink sink2(g);
  TriangleSink tri2(g);
  ClusteringSink clus2(g);
  sink2.load_state(s1);
  tri2.load_state(s2);
  clus2.load_state(s3);
  EXPECT_EQ(state_of(sink2), state_of(sink));
  EXPECT_EQ(state_of(tri2), state_of(tri));
  EXPECT_EQ(state_of(clus2), state_of(clus));
  const double vol = static_cast<double>(g.volume());
  EXPECT_EQ(sink2.estimate(vol).triangle, sink.estimate(vol).triangle);
  EXPECT_EQ(tri2.transitivity(), tri.transitivity());
  EXPECT_EQ(clus2.global_clustering(), clus.global_clustering());
}

// ingest_block grows the per-degree count and Σf columns together, so a
// checkpoint whose two columns differ in length (a valid CRC proves
// nothing about that) is corrupt and must not load.
TEST(MotifSinks, ClusteringLoadRejectsMismatchedColumns) {
  const Graph g = complete_graph(4);
  ClusteringSink clus(g);
  std::stringstream ss;
  streamio::write_pod<double>(ss, 0.5);
  streamio::write_pod<double>(ss, 0.25);
  streamio::write_pod<std::uint64_t>(ss, 3);
  streamio::write_vector(ss, std::vector<std::uint64_t>(8, 1));
  streamio::write_vector(ss, std::vector<std::uint64_t>(2, 1));
  EXPECT_THROW(clus.load_state(ss), IoError);
}

TEST(MotifSinks, EmptySinksReportZero) {
  const Graph g = complete_graph(4);
  TriangleSink tri(g);
  ClusteringSink clus(g);
  MotifSink sink(g);
  EXPECT_EQ(tri.triangle_count(12.0), 0.0);
  EXPECT_EQ(tri.transitivity(), 0.0);
  EXPECT_EQ(clus.global_clustering(), 0.0);
  EXPECT_TRUE(clus.local_clustering().empty());
  const MotifEstimate est = sink.estimate(12.0);
  EXPECT_EQ(est.triangle, 0.0);
  EXPECT_EQ(est.clique4, 0.0);
}

}  // namespace
}  // namespace frontier
