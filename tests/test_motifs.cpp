// Exact motif enumeration (analysis/motifs.hpp) against analytically
// known fixtures — K4, C5, the Petersen graph, complete bipartite — plus
// a brute-force cross-check of the 3-/4-vertex census on small random
// graphs and rejection of non-simple CSR input.
#include "analysis/motifs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "graph/storage.hpp"
#include "random/rng.hpp"

namespace frontier {
namespace {

Graph petersen() {
  GraphBuilder b(10);
  for (VertexId i = 0; i < 5; ++i) {
    b.add_undirected_edge(i, (i + 1) % 5);            // outer pentagon
    b.add_undirected_edge(5 + i, 5 + (i + 2) % 5);    // inner pentagram
    b.add_undirected_edge(i, 5 + i);                  // spokes
  }
  return b.build();
}

TEST(ExactMotifs, CompleteGraphK4) {
  const Graph g = complete_graph(4);
  EXPECT_EQ(exact_triangle_count(g), 4u);
  EXPECT_EQ(exact_wedge_count(g), 12u);
  EXPECT_DOUBLE_EQ(exact_transitivity(g), 1.0);
  EXPECT_EQ(triangles_per_vertex(g),
            (std::vector<std::uint64_t>{3, 3, 3, 3}));

  const MotifCounts m = exact_motif_counts(g);
  EXPECT_EQ(m.wedge, 0u);
  EXPECT_EQ(m.triangle, 4u);
  EXPECT_EQ(m.path4, 0u);
  EXPECT_EQ(m.claw, 0u);
  EXPECT_EQ(m.cycle4, 0u);
  EXPECT_EQ(m.paw, 0u);
  EXPECT_EQ(m.diamond, 0u);
  EXPECT_EQ(m.clique4, 1u);

  const std::vector<double> curve = exact_local_clustering_by_degree(g);
  ASSERT_EQ(curve.size(), 4u);
  EXPECT_DOUBLE_EQ(curve[3], 1.0);
}

TEST(ExactMotifs, CompleteGraphK5) {
  const Graph g = complete_graph(5);
  const MotifCounts m = exact_motif_counts(g);
  EXPECT_EQ(m.triangle, 10u);
  EXPECT_EQ(m.clique4, 5u);  // C(5, 4)
  EXPECT_EQ(m.wedge + m.path4 + m.claw + m.cycle4 + m.paw + m.diamond, 0u);
}

TEST(ExactMotifs, CycleC5) {
  const Graph g = cycle_graph(5);
  EXPECT_EQ(exact_triangle_count(g), 0u);
  EXPECT_EQ(exact_wedge_count(g), 5u);
  EXPECT_DOUBLE_EQ(exact_transitivity(g), 0.0);

  const MotifCounts m = exact_motif_counts(g);
  EXPECT_EQ(m.wedge, 5u);
  EXPECT_EQ(m.triangle, 0u);
  EXPECT_EQ(m.path4, 5u);  // one induced P4 per omitted vertex
  EXPECT_EQ(m.claw, 0u);
  EXPECT_EQ(m.cycle4, 0u);
  EXPECT_EQ(m.paw, 0u);
  EXPECT_EQ(m.diamond, 0u);
  EXPECT_EQ(m.clique4, 0u);
}

TEST(ExactMotifs, PetersenGraph) {
  const Graph g = petersen();
  ASSERT_EQ(g.num_undirected_edges(), 15u);
  EXPECT_EQ(exact_triangle_count(g), 0u);   // girth 5
  EXPECT_EQ(exact_wedge_count(g), 30u);     // 10 · C(3,2)

  const MotifCounts m = exact_motif_counts(g);
  EXPECT_EQ(m.wedge, 30u);
  EXPECT_EQ(m.triangle, 0u);
  EXPECT_EQ(m.claw, 10u);   // one per vertex, 3-regular and triangle-free
  EXPECT_EQ(m.path4, 60u);  // 15 edges · (2·2 other-endpoint choices)
  EXPECT_EQ(m.cycle4, 0u);  // girth 5
  EXPECT_EQ(m.paw, 0u);
  EXPECT_EQ(m.diamond, 0u);
  EXPECT_EQ(m.clique4, 0u);
}

TEST(ExactMotifs, CompleteBipartiteK34) {
  const Graph g = complete_bipartite(3, 4);
  EXPECT_EQ(exact_triangle_count(g), 0u);
  EXPECT_EQ(exact_wedge_count(g), 30u);  // 3·C(4,2) + 4·C(3,2)

  const MotifCounts m = exact_motif_counts(g);
  EXPECT_EQ(m.wedge, 30u);
  EXPECT_EQ(m.triangle, 0u);
  EXPECT_EQ(m.cycle4, 18u);  // C(3,2) · C(4,2)
  EXPECT_EQ(m.claw, 16u);    // 3·C(4,3) + 4·C(3,3)
  EXPECT_EQ(m.path4, 0u);    // path endpoints sit on opposite sides: chord
  EXPECT_EQ(m.paw, 0u);
  EXPECT_EQ(m.diamond, 0u);
  EXPECT_EQ(m.clique4, 0u);
}

TEST(ExactMotifs, StarIsTriangleFree) {
  const Graph g = star_graph(4);  // center 0 with 3 leaves
  EXPECT_EQ(exact_triangle_count(g), 0u);
  EXPECT_DOUBLE_EQ(exact_transitivity(g), 0.0);
  const MotifCounts m = exact_motif_counts(g);
  EXPECT_EQ(m.claw, 1u);
  EXPECT_EQ(m.wedge, 3u);
  EXPECT_EQ(m.triangle + m.path4 + m.cycle4 + m.paw + m.diamond + m.clique4,
            0u);
}

// Brute force: classify every 3- and 4-subset by its induced subgraph.
// Any connected 4-vertex graph with 4 edges is a C4 (max degree 2) or a
// paw (max degree 3); with 3 edges it is a path or a claw, disconnected
// exactly when some subset vertex has induced degree 0.
MotifCounts brute_force_census(const Graph& g) {
  MotifCounts m;
  const std::uint32_t n = static_cast<std::uint32_t>(g.num_vertices());
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      for (std::uint32_t c = b + 1; c < n; ++c) {
        const int e = g.has_edge(a, b) + g.has_edge(a, c) + g.has_edge(b, c);
        if (e == 3) ++m.triangle;
        if (e == 2) ++m.wedge;  // two edges on 3 vertices always share one
      }
    }
  }
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      for (std::uint32_t c = b + 1; c < n; ++c) {
        for (std::uint32_t d = c + 1; d < n; ++d) {
          const std::array<VertexId, 4> s{a, b, c, d};
          std::array<int, 4> deg{};
          int edges = 0;
          for (int i = 0; i < 4; ++i) {
            for (int j = i + 1; j < 4; ++j) {
              if (g.has_edge(s[i], s[j])) {
                ++edges;
                ++deg[i];
                ++deg[j];
              }
            }
          }
          const int max_deg = *std::max_element(deg.begin(), deg.end());
          const int min_deg = *std::min_element(deg.begin(), deg.end());
          switch (edges) {
            case 6: ++m.clique4; break;
            case 5: ++m.diamond; break;
            case 4: (max_deg == 3 ? ++m.paw : ++m.cycle4); break;
            case 3:
              if (min_deg == 0) break;  // triangle + isolated vertex
              (max_deg == 3 ? ++m.claw : ++m.path4);
              break;
            default: break;
          }
        }
      }
    }
  }
  return m;
}

TEST(ExactMotifs, MatchesBruteForceOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const std::size_t n = 6 + seed % 7;  // 6..12 vertices
    const double p = 0.25 + 0.05 * static_cast<double>(seed % 6);
    const Graph g = erdos_renyi_gnp(n, p, rng);
    const MotifCounts got = exact_motif_counts(g);
    const MotifCounts want = brute_force_census(g);
    EXPECT_EQ(got.wedge, want.wedge) << "seed " << seed;
    EXPECT_EQ(got.triangle, want.triangle) << "seed " << seed;
    EXPECT_EQ(got.path4, want.path4) << "seed " << seed;
    EXPECT_EQ(got.claw, want.claw) << "seed " << seed;
    EXPECT_EQ(got.cycle4, want.cycle4) << "seed " << seed;
    EXPECT_EQ(got.paw, want.paw) << "seed " << seed;
    EXPECT_EQ(got.diamond, want.diamond) << "seed " << seed;
    EXPECT_EQ(got.clique4, want.clique4) << "seed " << seed;
  }
}

TEST(ExactMotifs, LocalClusteringCurveMatchesDefinition) {
  Rng rng(99);
  const Graph g = barabasi_albert(200, 3, rng);
  const std::vector<std::uint64_t> tri = triangles_per_vertex(g);
  const std::vector<double> curve = exact_local_clustering_by_degree(g);
  // Recompute each class mean directly from ∆(v) / C(k, 2).
  std::vector<double> sum(curve.size(), 0.0);
  std::vector<std::uint64_t> cnt(curve.size(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::uint32_t k = g.degree(v);
    if (k < 2) continue;
    const double pairs = static_cast<double>(k) * (k - 1.0) / 2.0;
    sum[k] += static_cast<double>(tri[v]) / pairs;
    cnt[k] += 1;
  }
  for (std::size_t k = 2; k < curve.size(); ++k) {
    if (cnt[k] == 0) {
      EXPECT_EQ(curve[k], 0.0) << "k=" << k;
    } else {
      EXPECT_NEAR(curve[k], sum[k] / static_cast<double>(cnt[k]), 1e-12)
          << "k=" << k;
    }
  }
}

// Non-simple CSR smuggled in through GraphStorage::from_arrays must be
// rejected by every exact entry point (GraphBuilder can't produce it).
Graph graph_with_self_loop() {
  GraphStorage::Arrays a;
  // Two vertices: 0 ~ 1 plus a self-loop at 0.
  a.offsets = {0, 3, 4};
  a.neighbors = {0, 0, 1, 0};
  a.directions.assign(4, EdgeDir::kBoth);
  a.out_degree = {2, 1};
  a.in_degree = {2, 1};
  a.num_directed_edges = 3;
  return Graph(GraphStorage::from_arrays(std::move(a)));
}

Graph graph_with_parallel_edge() {
  GraphStorage::Arrays a;
  // 0 ~ 1 duplicated in both adjacency lists.
  a.offsets = {0, 2, 4};
  a.neighbors = {1, 1, 0, 0};
  a.directions.assign(4, EdgeDir::kBoth);
  a.out_degree = {2, 2};
  a.in_degree = {2, 2};
  a.num_directed_edges = 4;
  return Graph(GraphStorage::from_arrays(std::move(a)));
}

TEST(ExactMotifs, RejectsSelfLoops) {
  const Graph g = graph_with_self_loop();
  EXPECT_THROW((void)exact_triangle_count(g), std::invalid_argument);
  EXPECT_THROW((void)exact_motif_counts(g), std::invalid_argument);
  EXPECT_THROW((void)exact_local_clustering_by_degree(g), std::invalid_argument);
}

TEST(ExactMotifs, RejectsParallelEdges) {
  const Graph g = graph_with_parallel_edge();
  EXPECT_THROW((void)exact_triangle_count(g), std::invalid_argument);
  EXPECT_THROW((void)exact_motif_counts(g), std::invalid_argument);
  EXPECT_THROW((void)exact_wedge_count(g), std::invalid_argument);
  EXPECT_THROW((void)exact_transitivity(g), std::invalid_argument);
}

TEST(ExactMotifs, EmptyAndTinyGraphs) {
  const Graph empty = complete_graph(0);
  EXPECT_EQ(exact_triangle_count(empty), 0u);
  EXPECT_EQ(exact_motif_counts(empty).wedge, 0u);

  const Graph one_edge = path_graph(2);
  EXPECT_EQ(exact_triangle_count(one_edge), 0u);
  EXPECT_DOUBLE_EQ(exact_transitivity(one_edge), 0.0);
}

}  // namespace
}  // namespace frontier
