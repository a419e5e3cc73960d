// Online sinks vs batch estimators: fed the same edge/vertex sequence in
// StreamEventBlocks of any capacity, every sink must produce bit-identical
// output to its batch counterpart. The batch estimators fold through
// ingest_sample, so this pins its row construction (every row, in order,
// deg(v) in the degree column) and its block cutting; ctest also runs this
// file at FS_BLOCK=1, where ingest_sample cuts one-row blocks.
#include "stream/sinks.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "estimators/assortativity.hpp"
#include "estimators/clustering.hpp"
#include "estimators/degree_distribution.hpp"
#include "estimators/density.hpp"
#include "estimators/graph_moments.hpp"
#include "graph/generators.hpp"
#include "sampling/frontier_sampler.hpp"
#include "sampling/metropolis.hpp"
#include "sampling/single_rw.hpp"
#include "stream/block.hpp"
#include "stream/engine.hpp"
#include "stream/sampler_cursors.hpp"

namespace frontier {
namespace {

Graph test_graph() {
  Rng rng(99);
  return barabasi_albert(300, 3, rng);
}

constexpr std::size_t kBlockSizes[] = {1, 7, 64, 4096};

// Packs `count` rows, written by push(block, i), into blocks of capacity
// k and ingests each full block, then the partial tail.
template <typename Push>
void feed_rows(EstimatorSink& sink, std::size_t k, std::size_t count,
               Push push) {
  StreamEventBlock block(k);
  for (std::size_t i = 0; i < count; ++i) {
    if (block.room() == 0) {
      sink.ingest_block(block);
      block.clear();
    }
    push(block, i);
  }
  sink.ingest_block(block);
}

// Streams the batch record's edges into a sink, with the degree column a
// cursor over g would fill, so sink output can be compared against the
// batch estimator over the identical sequence.
void feed_edges(EstimatorSink& sink, const Graph& g, const SampleRecord& rec,
                std::size_t k) {
  feed_rows(sink, k, rec.edges.size(),
            [&](StreamEventBlock& block, std::size_t i) {
              const Edge& e = rec.edges[i];
              block.push_edge(e.u, e.v, g.degree(e.v));
            });
}

void feed_vertices(EstimatorSink& sink, const SampleRecord& rec,
                   std::size_t k) {
  feed_rows(sink, k, rec.vertices.size(),
            [&](StreamEventBlock& block, std::size_t i) {
              block.push_vertex(rec.vertices[i]);
            });
}

SampleRecord fs_record(const Graph& g, std::uint64_t seed,
                       std::uint64_t steps) {
  const FrontierSampler fs(g, {.dimension = 10, .steps = steps});
  Rng rng(seed);
  return fs.run(rng);
}

TEST(StreamSinks, DegreeDistributionMatchesBatch) {
  const Graph g = test_graph();
  const SampleRecord rec = fs_record(g, 5, 20000);
  const auto batch = estimate_degree_distribution(g, rec.edges,
                                                  DegreeKind::kSymmetric);
  const auto batch_ccdf = estimate_degree_ccdf(g, rec.edges,
                                               DegreeKind::kSymmetric);
  for (const std::size_t k : kBlockSizes) {
    DegreeDistributionSink sink(g, DegreeKind::kSymmetric);
    feed_edges(sink, g, rec, k);
    const auto streamed = sink.distribution();
    ASSERT_EQ(batch.size(), streamed.size()) << "K=" << k;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i], streamed[i]) << "K=" << k << " bucket " << i;
    }
    EXPECT_EQ(batch_ccdf, sink.ccdf()) << "K=" << k;
    EXPECT_EQ(sink.edges_consumed(), rec.edges.size()) << "K=" << k;
  }
}

TEST(StreamSinks, DegreeDistributionInDegreeKind) {
  const Graph g = test_graph();
  const SampleRecord rec = fs_record(g, 6, 10000);
  const auto batch =
      estimate_degree_distribution(g, rec.edges, DegreeKind::kIn);
  for (const std::size_t k : kBlockSizes) {
    DegreeDistributionSink sink(g, DegreeKind::kIn);
    feed_edges(sink, g, rec, k);
    EXPECT_EQ(batch, sink.distribution()) << "K=" << k;
  }
}

TEST(StreamSinks, VertexDensityMatchesBatch) {
  const Graph g = test_graph();
  const SampleRecord rec = fs_record(g, 7, 15000);
  const auto pred = [&g](VertexId v) { return g.degree(v) > 5; };
  const double batch = estimate_vertex_label_density(g, rec.edges, pred);
  for (const std::size_t k : kBlockSizes) {
    VertexDensitySink sink(g, pred);
    feed_edges(sink, g, rec, k);
    EXPECT_EQ(batch, sink.value()) << "K=" << k;
  }
}

TEST(StreamSinks, EdgeDensityMatchesBatch) {
  const Graph g = test_graph();
  const SampleRecord rec = fs_record(g, 8, 15000);
  const auto labeled = [](const Edge& e) { return e.u % 2 == 0; };
  const auto has_label = [](const Edge& e) { return e.v % 3 == 0; };
  const double batch =
      estimate_edge_label_density(g, rec.edges, labeled, has_label);
  for (const std::size_t k : kBlockSizes) {
    EdgeDensitySink sink(labeled, has_label);
    feed_edges(sink, g, rec, k);
    EXPECT_EQ(batch, sink.value()) << "K=" << k;
  }
}

TEST(StreamSinks, AssortativityMatchesBatch) {
  const Graph g = test_graph();
  const SampleRecord rec = fs_record(g, 9, 15000);
  const double batch = estimate_assortativity(g, rec.edges);
  for (const std::size_t k : kBlockSizes) {
    AssortativitySink sink(g);
    feed_edges(sink, g, rec, k);
    EXPECT_EQ(batch, sink.value()) << "K=" << k;
  }
}

TEST(StreamSinks, GraphMomentsMatchBatch) {
  const Graph g = test_graph();
  const SampleRecord rec = fs_record(g, 10, 15000);
  for (const std::size_t k : kBlockSizes) {
    GraphMomentsSink sink(g, 3);
    feed_edges(sink, g, rec, k);
    EXPECT_EQ(estimate_average_degree(g, rec.edges), sink.average_degree())
        << "K=" << k;
    for (unsigned m = 1; m <= 3; ++m) {
      EXPECT_EQ(estimate_degree_moment(g, rec.edges, m),
                sink.degree_moment(m))
          << "K=" << k << " moment " << m;
    }
    EXPECT_EQ(estimate_volume(g, rec.edges, 300.0), sink.volume(300.0))
        << "K=" << k;
    EXPECT_THROW((void)sink.degree_moment(4), std::out_of_range);
    EXPECT_EQ(sink.observed_degrees().count(), rec.edges.size());
  }
}

TEST(StreamSinks, UniformDegreeMatchesBatchOnMhVisits) {
  const Graph g = test_graph();
  const MetropolisHastingsWalk mh(g, {.steps = 10000});
  Rng rng(11);
  const SampleRecord rec = mh.run(rng);
  const double batch = estimate_average_degree_uniform(g, rec.vertices);
  for (const std::size_t k : kBlockSizes) {
    UniformDegreeSink sink(g);
    feed_vertices(sink, rec, k);
    EXPECT_EQ(batch, sink.value()) << "K=" << k;
    EXPECT_EQ(sink.vertices_consumed(), rec.vertices.size()) << "K=" << k;
  }
}

TEST(StreamSinks, EmptyStreamsGiveZeroEstimates) {
  const Graph g = test_graph();
  DegreeDistributionSink dd(g, DegreeKind::kSymmetric);
  EXPECT_TRUE(dd.distribution().empty());
  VertexDensitySink vd(g, [](VertexId) { return true; });
  EXPECT_EQ(vd.value(), 0.0);
  GraphMomentsSink gm(g);
  EXPECT_EQ(gm.average_degree(), 0.0);
  UniformDegreeSink ud(g);
  EXPECT_EQ(ud.value(), 0.0);
}

TEST(StreamSinks, SinksIgnoreRowsWithoutTheirObservation) {
  // Edge sinks skip vertex-only and empty rows; the vertex sink skips
  // edge-only and empty rows.
  const Graph g = test_graph();
  StreamEventBlock block(4);
  block.push_vertex(0);
  block.push_empty();
  GraphMomentsSink moments(g);
  moments.ingest_block(block);
  EXPECT_EQ(moments.edges_consumed(), 0u);
  DegreeDistributionSink dd(g, DegreeKind::kSymmetric);
  dd.ingest_block(block);
  EXPECT_EQ(dd.edges_consumed(), 0u);

  block.clear();
  const VertexId v = g.neighbors(0)[0];
  block.push_edge(0, v, g.degree(v));
  block.push_empty();
  UniformDegreeSink uniform(g);
  uniform.ingest_block(block);
  EXPECT_EQ(uniform.vertices_consumed(), 0u);
}

TEST(StreamSinks, EngineFeedsAllSinksAndCountsEvents) {
  // End-to-end: a streaming engine over an FS cursor reproduces the batch
  // estimates of the same seed without materializing the record.
  const Graph g = test_graph();
  const FrontierSampler fs(g, {.dimension = 10, .steps = 20000});
  Rng batch_rng(5);
  const SampleRecord rec = fs.run(batch_rng);

  SinkSet sinks;
  sinks.push_back(
      std::make_unique<DegreeDistributionSink>(g, DegreeKind::kSymmetric));
  sinks.push_back(std::make_unique<GraphMomentsSink>(g));
  StreamEngine engine(
      std::make_unique<FrontierCursor>(g, fs.config(), Rng(5)),
      std::move(sinks));
  const std::uint64_t events = engine.run_to_completion();
  EXPECT_EQ(events, 20000u);
  EXPECT_EQ(engine.events(), 20000u);
  EXPECT_TRUE(engine.finished());

  const auto& dd =
      dynamic_cast<const DegreeDistributionSink&>(*engine.sinks()[0]);
  const auto& gm = dynamic_cast<const GraphMomentsSink&>(*engine.sinks()[1]);
  EXPECT_EQ(estimate_degree_distribution(g, rec.edges, DegreeKind::kSymmetric),
            dd.distribution());
  EXPECT_EQ(estimate_average_degree(g, rec.edges), gm.average_degree());
  EXPECT_EQ(engine.cursor().cost(), rec.cost);
}

TEST(StreamSinks, IngestSampleReusedBlockMatchesFreshThread) {
  // ingest_sample keeps one block per thread. A, then B, then A again on
  // one thread must equal a fresh thread's results bit for bit. The graph
  // sits in one slot, so A and B share an address: the block's codegree
  // memo cannot tell them apart by pointer, only clear() resets it. The
  // samples span several blocks, the last one partial.
  Rng rng_b(17);
  const Graph a = test_graph();
  const Graph b = barabasi_albert(300, 4, rng_b);
  const SampleRecord rec_a = fs_record(a, 8, 10000);
  const SampleRecord rec_b = fs_record(b, 9, 9000);

  struct Result {
    double clustering = 0.0;
    std::vector<double> degrees;
  };
  const auto estimate = [](const Graph& g, const SampleRecord& rec) {
    return Result{estimate_global_clustering(g, rec.edges),
                  estimate_degree_distribution(g, rec.edges,
                                               DegreeKind::kSymmetric)};
  };
  const auto on_fresh_thread = [&](const Graph& g, const SampleRecord& rec) {
    Result result;
    std::thread([&] { result = estimate(g, rec); }).join();
    return result;
  };
  const Result fresh_a = on_fresh_thread(a, rec_a);
  const Result fresh_b = on_fresh_thread(b, rec_b);

  std::vector<Result> reused;
  std::thread([&] {
    std::optional<Graph> slot(a);
    reused.push_back(estimate(*slot, rec_a));
    slot.emplace(b);
    reused.push_back(estimate(*slot, rec_b));
    slot.emplace(a);
    reused.push_back(estimate(*slot, rec_a));
  }).join();

  ASSERT_EQ(reused.size(), 3u);
  const Result* expected[] = {&fresh_a, &fresh_b, &fresh_a};
  for (std::size_t i = 0; i < reused.size(); ++i) {
    EXPECT_EQ(reused[i].clustering, expected[i]->clustering) << "call " << i;
    EXPECT_EQ(reused[i].degrees, expected[i]->degrees) << "call " << i;
  }
}

TEST(StreamSinks, IngestSampleRejectsIdsOutsideTheGraph) {
  // A sample taken on a 500-vertex graph, folded over a 60-vertex one:
  // ingest_sample must throw before it reads a degree past the CSR.
  Rng rng_small(3);
  Rng rng_big(4);
  const Graph small = barabasi_albert(60, 2, rng_small);
  const Graph big = barabasi_albert(500, 2, rng_big);
  std::vector<Edge> edges;
  for (VertexId u = 0; u < big.num_vertices(); ++u) {
    for (const VertexId v : big.neighbors(u)) edges.push_back(Edge{u, v});
  }
  EXPECT_THROW((void)estimate_assortativity(small, edges), std::out_of_range);
  EXPECT_THROW((void)estimate_global_clustering(small, edges),
               std::out_of_range);
  // Each endpoint is checked on its own.
  const std::vector<Edge> u_outside = {Edge{499, 0}};
  const std::vector<Edge> v_outside = {Edge{0, 499}};
  EXPECT_THROW((void)estimate_assortativity(small, u_outside),
               std::out_of_range);
  EXPECT_THROW((void)estimate_global_clustering(small, v_outside),
               std::out_of_range);
  const std::vector<VertexId> vertices = {0, 1, 499};
  EXPECT_THROW((void)estimate_average_degree_uniform(small, vertices),
               std::out_of_range);
}

}  // namespace
}  // namespace frontier
