#include "stream/cursor.hpp"

namespace frontier {

SampleRecord& drain_cursor_into(SamplerCursor& cursor, SampleArena& arena,
                                std::uint64_t reserve_edges,
                                std::uint64_t reserve_vertices) {
  arena.reset();
  SampleRecord& rec = arena.record;
  rec.edges.reserve(reserve_edges);
  rec.vertices.reserve(reserve_vertices);
  StreamEventBlock& block = arena.block;
  while (cursor.next_batch(block) > 0) {
    const std::size_t n = block.size();
    const std::uint8_t* flags = block.flags().data();
    const VertexId* u = block.u().data();
    const VertexId* v = block.v().data();
    const VertexId* vertex = block.vertex().data();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t f = flags[i];
      if (f & StreamEventBlock::kHasEdge) {
        rec.edges.push_back(Edge{u[i], v[i]});
      }
      if (f & StreamEventBlock::kHasVertex) {
        rec.vertices.push_back(vertex[i]);
      }
    }
  }
  rec.starts = cursor.starts();
  rec.cost = cursor.cost();
  return rec;
}

SampleRecord drain_cursor(SamplerCursor& cursor, std::uint64_t reserve_edges,
                          std::uint64_t reserve_vertices) {
  SampleArena arena;
  return std::move(
      drain_cursor_into(cursor, arena, reserve_edges, reserve_vertices));
}

}  // namespace frontier
