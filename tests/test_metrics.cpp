#include "graph/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <numeric>
#include <vector>

#include "analysis/motifs.hpp"
#include "core/parallel.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/intersect.hpp"

namespace frontier {
namespace {

TEST(DegreeDistribution, StarGraph) {
  const Graph g = star_graph(5);  // center deg 4, four leaves deg 1
  const auto theta = degree_distribution(g, DegreeKind::kSymmetric);
  ASSERT_EQ(theta.size(), 5u);
  EXPECT_DOUBLE_EQ(theta[1], 0.8);
  EXPECT_DOUBLE_EQ(theta[4], 0.2);
  EXPECT_DOUBLE_EQ(theta[0] + theta[2] + theta[3], 0.0);
}

TEST(DegreeDistribution, SumsToOne) {
  Rng rng(1);
  const Graph g = barabasi_albert(1000, 2, rng);
  for (auto kind :
       {DegreeKind::kSymmetric, DegreeKind::kIn, DegreeKind::kOut}) {
    const auto theta = degree_distribution(g, kind);
    const double total =
        std::accumulate(theta.begin(), theta.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(DegreeDistribution, DirectedInVsOut) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(2, 1);  // vertex 1: in-degree 2, out-degree 0
  const Graph g = b.build();
  const auto in = degree_distribution(g, DegreeKind::kIn);
  const auto out = degree_distribution(g, DegreeKind::kOut);
  EXPECT_DOUBLE_EQ(in[2], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(out[0], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0 / 3.0);
}

TEST(CcdfFromPdf, MatchesDefinition) {
  const std::vector<double> theta{0.1, 0.2, 0.3, 0.4};
  const auto gamma = ccdf_from_pdf(theta);
  ASSERT_EQ(gamma.size(), 4u);
  EXPECT_NEAR(gamma[0], 0.9, 1e-12);   // sum of theta[1..3]
  EXPECT_NEAR(gamma[1], 0.7, 1e-12);
  EXPECT_NEAR(gamma[2], 0.4, 1e-12);
  EXPECT_NEAR(gamma[3], 0.0, 1e-12);
}

TEST(CcdfFromPdf, MonotoneNonIncreasing) {
  Rng rng(2);
  const Graph g = barabasi_albert(2000, 2, rng);
  const auto gamma =
      ccdf_from_pdf(degree_distribution(g, DegreeKind::kSymmetric));
  for (std::size_t i = 1; i < gamma.size(); ++i) {
    EXPECT_LE(gamma[i], gamma[i - 1] + 1e-12);
  }
}

TEST(ExactLabelDensity, CountsPredicate) {
  const Graph g = path_graph(10);
  const double frac = exact_label_density(
      g, [](VertexId v) { return v % 2 == 0; });
  EXPECT_DOUBLE_EQ(frac, 0.5);
}

TEST(SharedNeighbors, TriangleAndSquare) {
  const Graph tri = complete_graph(3);
  EXPECT_EQ(shared_neighbors(tri, 0, 1), 1u);
  const Graph sq = cycle_graph(4);
  EXPECT_EQ(shared_neighbors(sq, 0, 1), 0u);
  EXPECT_EQ(shared_neighbors(sq, 0, 2), 2u);  // diagonal
}

// A graph whose vertex 0 has adjacency `a` and vertex 1 adjacency `b`
// (ids >= 2, strictly increasing), so shared_neighbors(g, 0, 1) is
// |a ∩ b| on exactly these lists.
Graph two_lists(const std::vector<VertexId>& a,
                const std::vector<VertexId>& b) {
  VertexId top = 1;
  for (const VertexId x : a) top = std::max(top, x);
  for (const VertexId x : b) top = std::max(top, x);
  GraphBuilder builder(top + 1);
  for (const VertexId x : a) builder.add_undirected_edge(0, x);
  for (const VertexId x : b) builder.add_undirected_edge(1, x);
  return builder.build();
}

// shared_neighbors and common_neighbors agree with std::set_intersection
// on the adjacency of u and v, in both argument orders.
void expect_matches_set_intersection(const Graph& g, VertexId u, VertexId v) {
  const auto a = g.neighbors(u);
  const auto b = g.neighbors(v);
  std::vector<VertexId> want;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(want));
  EXPECT_EQ(shared_neighbors(g, u, v), want.size()) << u << "," << v;
  EXPECT_EQ(shared_neighbors(g, v, u), want.size()) << v << "," << u;
  std::vector<VertexId> got;
  common_neighbors(g, u, v, got);
  EXPECT_EQ(got, want) << u << "," << v;
  common_neighbors(g, v, u, got);
  EXPECT_EQ(got, want) << v << "," << u;
}

void expect_lists_intersect(const std::vector<VertexId>& a,
                            const std::vector<VertexId>& b) {
  expect_matches_set_intersection(two_lists(a, b), 0, 1);
}

std::vector<VertexId> iota_list(VertexId first, std::size_t n,
                                VertexId stride = 1) {
  std::vector<VertexId> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = first + static_cast<VertexId>(i) * stride;
  }
  return out;
}

TEST(SharedNeighbors, EmptyDisjointAndIdenticalLists) {
  expect_lists_intersect({}, {});
  expect_lists_intersect({}, {2, 3, 4});
  expect_lists_intersect({2, 4, 6, 8}, {3, 5, 7, 9});
  expect_lists_intersect(iota_list(2, 40), iota_list(2, 40));
}

TEST(SharedNeighbors, MatchesAtFirstAndLastElement) {
  expect_lists_intersect({2, 10, 20, 30}, {2, 5, 7, 30});
  // Skewed: the short list hits the long list's first and last entries.
  expect_lists_intersect({2, 201}, iota_list(2, 200));
  expect_lists_intersect({2}, iota_list(2, 100));
  expect_lists_intersect({101}, iota_list(2, 100));
}

TEST(SharedNeighbors, ShortListWhollyPastTheLongListsEnd) {
  expect_lists_intersect(iota_list(500, 3), iota_list(2, 100));
  expect_lists_intersect(iota_list(500, 10), iota_list(2, 100));
  expect_lists_intersect({102}, iota_list(2, 100));
}

TEST(SharedNeighbors, LengthRatiosAroundTheGallopSwitch) {
  // A short list of 4 against long lists of kGallopRatio - 1, kGallopRatio
  // and kGallopRatio + 1 times its length (15x, 16x, 17x): the kernel
  // marks and probes up to the ratio and gallops past it; both paths must
  // give the same count, with matches at both ends and in between.
  constexpr std::size_t kShort = 4;
  for (const std::size_t ratio :
       {kGallopRatio - 1, kGallopRatio, kGallopRatio + 1}) {
    const auto longer = iota_list(2, kShort * ratio, 3);
    const VertexId last = longer.back();
    expect_lists_intersect({2, 7, 3 * 10 + 2, last}, longer);
    expect_lists_intersect({3, 4, last - 1, last + 1}, longer);
    expect_lists_intersect({2, 5, 8, 11}, longer);
  }
}

// A graph of n vertices in which vertex `owner_a` has adjacency `a` and
// `owner_b` adjacency `b` (ids other than the two owners, < n).
Graph lists_in(std::size_t n, VertexId owner_a, VertexId owner_b,
               const std::vector<VertexId>& a,
               const std::vector<VertexId>& b) {
  GraphBuilder builder(n);
  for (const VertexId x : a) builder.add_undirected_edge(owner_a, x);
  for (const VertexId x : b) builder.add_undirected_edge(owner_b, x);
  return builder.build();
}

TEST(SharedNeighbors, IdsZeroAndLastAndEmptyLists) {
  constexpr std::size_t n = 50;
  constexpr VertexId last = n - 1;
  // Both ends of the id range in both lists, then in only one of them.
  expect_matches_set_intersection(
      lists_in(n, 10, 20, {0, 3, 7, last}, {0, 5, 7, 30, last}), 10, 20);
  expect_matches_set_intersection(
      lists_in(n, 10, 20, {0, 4}, {1, 4, 8, last}), 10, 20);
  expect_matches_set_intersection(
      lists_in(n, 10, 20, {last}, {0, last}), 10, 20);
  // An isolated vertex against a list holding 0 and n - 1.
  expect_matches_set_intersection(lists_in(n, 10, 20, {}, {0, last}), 10,
                                  20);
  expect_matches_set_intersection(lists_in(n, 10, 20, {}, {}), 10, 20);
}

TEST(SharedNeighbors, MarksGrowAcrossGraphsOfDifferentSize) {
  // One thread, a small graph, then one far larger than any other in this
  // binary (its ids force the per-thread marks to grow), then the small
  // graph again: all three right.
  const Graph small = lists_in(40, 0, 1, {2, 5, 9, 39}, {5, 6, 9, 39});
  constexpr std::size_t big_n = 400000;
  constexpr VertexId big_last = big_n - 1;
  const Graph big = lists_in(big_n, 0, 1, {2, 5, 300000, big_last},
                             {5, 7, 300000, 300001, big_last});
  expect_matches_set_intersection(small, 0, 1);
  expect_matches_set_intersection(big, 0, 1);
  expect_matches_set_intersection(small, 0, 1);
  EXPECT_EQ(shared_neighbors(big, 0, 1), 3u);
  EXPECT_EQ(shared_neighbors(small, 0, 1), 3u);
}

TEST(SharedNeighbors, ThrowingCallbackLeavesNoMarks) {
  // Lengths within kGallopRatio of each other, so both calls mark and
  // probe. The first call's on_match throws at its first match, with all
  // of `a` marked; a mark left behind would add 2, 5 or 8 to the second
  // call's result.
  constexpr std::size_t n = 64;
  const std::vector<VertexId> a{2, 5, 8};
  const std::vector<VertexId> b{2, 3, 4, 5, 6, 7, 8, 9};
  struct Stop {};
  int calls = 0;
  EXPECT_THROW(intersect_sorted(n, a, b,
                                [&calls](VertexId) {
                                  ++calls;
                                  throw Stop{};
                                }),
               Stop);
  EXPECT_EQ(calls, 1);
  const std::vector<VertexId> c{3, 4};
  std::vector<VertexId> got;
  intersect_sorted(n, c, b, [&got](VertexId x) { got.push_back(x); });
  EXPECT_EQ(got, (std::vector<VertexId>{3, 4}));
  // And through the library entry points, on a graph holding the lists.
  expect_lists_intersect(c, b);
  expect_lists_intersect(a, {3, 4, 6, 7, 9});
}

TEST(SharedNeighbors, ThreadsKeepTheirOwnMarks) {
  // Four threads intersect at once, each over every edge of its own graph
  // size, so each grows its own marks. Marks shared across threads would
  // race (the TSan job runs this binary) and leak one thread's bytes into
  // another's counts.
  Rng rng(77);
  std::vector<Graph> graphs;
  for (const std::size_t n : {500, 4000, 1500, 9000}) {
    graphs.push_back(barabasi_albert(n, 4, rng));
  }
  const auto edge_counts = [](const Graph& g, auto codegree) {
    std::vector<std::uint32_t> out;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (const VertexId v : g.neighbors(u)) out.push_back(codegree(g, u, v));
    }
    return out;
  };
  std::vector<std::vector<std::uint32_t>> want;
  for (const Graph& g : graphs) {
    want.push_back(edge_counts(g, [](const Graph& h, VertexId u, VertexId v) {
      const auto a = h.neighbors(u);
      const auto b = h.neighbors(v);
      std::vector<VertexId> both;
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                            std::back_inserter(both));
      return static_cast<std::uint32_t>(both.size());
    }));
  }
  std::vector<std::vector<std::uint32_t>> got(graphs.size());
  parallel_for_ranges(graphs.size(), graphs.size(),
                      [&](std::size_t, std::size_t begin, std::size_t end) {
                        for (std::size_t w = begin; w < end; ++w) {
                          got[w] = edge_counts(graphs[w], shared_neighbors);
                        }
                      });
  for (std::size_t w = 0; w < graphs.size(); ++w) {
    EXPECT_EQ(got[w], want[w]) << "graph " << w;
  }
}

TEST(SharedNeighbors, MatchesSetIntersectionOnBarabasiAlbertPairs) {
  Rng rng(2024);
  const Graph g = barabasi_albert(3000, 4, rng);
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  for (int t = 0; t < 3000; ++t) {
    // Half the pairs are edges (the streamed case), half arbitrary.
    const auto u = static_cast<VertexId>(uniform_index(rng, n));
    const auto nbrs = g.neighbors(u);
    const VertexId v = t % 2 == 0
                           ? nbrs[uniform_index(rng, nbrs.size())]
                           : static_cast<VertexId>(uniform_index(rng, n));
    expect_matches_set_intersection(g, u, v);
  }
  // Every hub-leaf pair of the highest-degree vertex exercises the gallop.
  VertexId hub = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  }
  for (const VertexId v : g.neighbors(hub)) {
    expect_matches_set_intersection(g, hub, v);
  }
}

TEST(TrianglesPerVertex, CompleteGraph) {
  const Graph g = complete_graph(5);
  const auto tri = triangles_per_vertex(g);
  for (auto t : tri) EXPECT_EQ(t, 6u);  // C(4,2)
}

TEST(TrianglesPerVertex, TriangleFree) {
  const Graph g = complete_bipartite(3, 3);
  for (auto t : triangles_per_vertex(g)) EXPECT_EQ(t, 0u);
}

TEST(GlobalClustering, CompleteGraphIsOne) {
  EXPECT_DOUBLE_EQ(exact_global_clustering(complete_graph(6)), 1.0);
}

TEST(GlobalClustering, BipartiteIsZero) {
  EXPECT_DOUBLE_EQ(exact_global_clustering(complete_bipartite(3, 4)), 0.0);
}

TEST(GlobalClustering, StarIsZero) {
  // Only the center has degree >= 2 and it closes no triangles.
  EXPECT_DOUBLE_EQ(exact_global_clustering(star_graph(6)), 0.0);
}

TEST(GlobalClustering, TriangleWithPendant) {
  // Triangle {0,1,2} plus pendant 3 attached to 0.
  GraphBuilder b(4);
  b.add_undirected_edge(0, 1);
  b.add_undirected_edge(1, 2);
  b.add_undirected_edge(2, 0);
  b.add_undirected_edge(0, 3);
  const Graph g = b.build();
  // c(0) = 1/C(3,2) = 1/3, c(1) = c(2) = 1, vertex 3 excluded (deg 1).
  EXPECT_NEAR(exact_global_clustering(g), (1.0 / 3.0 + 1.0 + 1.0) / 3.0,
              1e-12);
}

TEST(Assortativity, ZeroOnDegreeRegularGraph) {
  // All out/in degrees equal -> zero variance -> r = 0 by convention.
  EXPECT_DOUBLE_EQ(exact_assortativity(cycle_graph(7)), 0.0);
}

TEST(Assortativity, StarIsStronglyDisassortative) {
  // Undirected star: every directed edge connects deg-n-1 with deg-1.
  const double r = exact_assortativity(star_graph(10));
  EXPECT_NEAR(r, -1.0, 1e-9);
}

TEST(Assortativity, InRange) {
  Rng rng(3);
  const Graph g = barabasi_albert(2000, 2, rng);
  const double r = exact_assortativity(g);
  EXPECT_GE(r, -1.0);
  EXPECT_LE(r, 1.0);
}

TEST(Assortativity, PositiveOnAssortativeConstruction) {
  // Two cliques of different sizes joined by one edge: high-degree vertices
  // mostly link to high-degree vertices.
  const Graph joined =
      join_by_single_edge(complete_graph(8), complete_graph(3));
  EXPECT_GT(exact_assortativity(joined), 0.5);
}

TEST(Summarize, Table1Columns) {
  GraphBuilder b(5);
  b.add_undirected_edge(0, 1);
  b.add_undirected_edge(1, 2);
  b.add_undirected_edge(3, 4);
  const Graph g = b.build();
  const GraphSummary s = summarize(g, "toy");
  EXPECT_EQ(s.name, "toy");
  EXPECT_EQ(s.num_vertices, 5u);
  EXPECT_EQ(s.lcc_size, 3u);
  EXPECT_EQ(s.num_directed_edges, 6u);
  EXPECT_DOUBLE_EQ(s.average_degree, 6.0 / 5.0);
  EXPECT_DOUBLE_EQ(s.wmax, 2.0 / (6.0 / 5.0));
}

TEST(DegreeOf, DispatchesKinds) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(degree_of(g, 0, DegreeKind::kOut), 1u);
  EXPECT_EQ(degree_of(g, 0, DegreeKind::kIn), 0u);
  EXPECT_EQ(degree_of(g, 0, DegreeKind::kSymmetric), 1u);
}

}  // namespace
}  // namespace frontier
