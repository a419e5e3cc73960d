// FS_THREADS bounds every fan-out in the process. ctest runs this binary
// alone at FS_THREADS=1, so a graph load and a graph build large enough
// to fan out on any multi-core host must still start no pool thread.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <sstream>
#include <string>

#include "core/env.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "random/rng.hpp"

namespace frontier {
namespace {

std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(FsThreadsBound, TextLoadAndBuildStartNoPoolThread) {
#ifndef __linux__
  GTEST_SKIP() << "counts threads through /proc/self/task";
#endif
  ASSERT_EQ(env_threads(), 1u) << "run with FS_THREADS=1";
  const std::size_t before = thread_count();

  // 300k edges, about 4 MiB of text: auto mode would give the parse two
  // or more workers and the sorts several, one per 64k elements.
  constexpr std::size_t kVertices = 100000;
  constexpr std::size_t kEdges = 300000;
  Rng rng(5);
  std::string text;
  for (std::size_t i = 0; i < kEdges; ++i) {
    const std::size_t u = uniform_index(rng, kVertices);
    const std::size_t v = uniform_index(rng, kVertices);
    text += std::to_string(u) + ' ' + std::to_string(v) + '\n';
  }
  ASSERT_GT(text.size(), std::size_t{2} << 20);
  std::istringstream is(text);
  const Graph loaded = read_edge_list(is);
  EXPECT_GT(loaded.num_undirected_edges(), kEdges / 2);
  EXPECT_EQ(thread_count(), before) << "text load";

  GraphBuilder builder(kVertices);
  for (std::size_t i = 0; i < kEdges; ++i) {
    const auto u = static_cast<VertexId>(uniform_index(rng, kVertices));
    const auto v = static_cast<VertexId>(uniform_index(rng, kVertices));
    builder.add_undirected_edge(u, v);
  }
  const Graph built = builder.build();
  EXPECT_GT(built.num_undirected_edges(), kEdges / 2);
  EXPECT_EQ(thread_count(), before) << "build";
}

}  // namespace
}  // namespace frontier
