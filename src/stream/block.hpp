// StreamEventBlock — the structure-of-arrays unit of the streaming path.
//
// Every production step goes through a block: the cursor advances up to
// capacity() steps in one SamplerCursor::next_batch() call, writing each
// step's observation into parallel columns (edge endpoints u/v, the
// symmetric degree of the edge target, the observed vertex, and a per-row
// flag byte). Sinks then ingest whole columns (EstimatorSink::ingest_block)
// and drain_cursor bulk-appends them into a SampleRecord, so virtual
// dispatch is paid once per block, not once per sampled edge. The
// per-event SamplerCursor::next(StreamEvent&) survives only as the test
// reference for next_batch().
//
// Blocks are caller-owned and reusable: StreamEngine, drain_cursor, the
// replication arenas (one per worker slot) and ingest_sample (one per
// thread) each keep one block alive across refills, so the steady state
// of the pipeline allocates nothing. The columns are allocated once at
// construction and rows are written by index — push_* never reallocates.
//
// The degree column carries deg(v) *in the cursor's graph*. Every
// reweighting sink needs that value anyway (the 1/deg importance weight
// of eq. 7), and the cursor usually has it at hand (FS updates its
// walker selector with it), so the block computes it once for all sinks.
//
// The pick column carries, on each edge row a cursor wrote, the index k
// with v = neighbors(u)[k]: every walk step draws k to pick v, so storing
// it costs one 4-byte write, and it turns the direction lookup of a
// sampled edge (directed assortativity, Table 2) into one load of
// direction_array()[offsets[u] + k] instead of a binary search.
//
// Two columns are derived, under one memo rule: the codegree f(u,v) =
// |N(u) ∩ N(v)|, which no cursor writes (the first sink that reads it
// after a fill runs the intersection kernel, graph/intersect.hpp, for
// every edge row, split by row ranges across the worker pool when the
// fill is large; see kMinRowsPerWorker), and the pick, which a cursor
// writes but a reader may have to locate. Every later reader of the same
// fill gets the same span.
// Each memo is keyed on the graph and on the number of rows already
// derived: clear() resets it (so push_* pays nothing for it), a read
// after appends derives only the new rows, and a read with another graph
// derives them all again. Picks are trusted only for the graph the cursor
// names in clear(g); rows pushed without a pick (ingest_sample,
// hand-filled blocks) are located by Graph::neighbor_index on first read,
// and a non-edge reads Graph::kNotAdjacent.
//
// The columns are allocated uninitialised: readers see only size() rows
// and gate on flags(), so nothing needs zeroing, and a block that is
// never filled to capacity never touches its tail pages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace frontier {

/// Process-wide default block capacity: the FS_BLOCK environment knob
/// (strictly parsed, like the FS_* knobs in experiments/config.hpp),
/// clamped to >= 1; 4096 when unset. Read once per process. The batched
/// pipeline is bit-identical for every capacity — the knob exists so CI
/// can prove that (K=1 vs K=4096 result fingerprints must match), not to
/// tune results. Values above kMaxBlockCapacity are rejected with
/// std::invalid_argument, like malformed ones.
[[nodiscard]] std::size_t default_block_capacity();

/// Ceiling on FS_BLOCK: 2^20 rows (~17 MiB of columns). Past a few
/// thousand rows a larger block buys nothing, and an unbounded knob turns
/// a typo into an allocation failure.
inline constexpr std::uint64_t kMaxBlockCapacity = std::uint64_t{1} << 20;

/// Fewest codegree rows a fill hands to one worker: a fill of r new rows
/// runs on min(default_thread_count(), r / kMinRowsPerWorker) workers of
/// the pool (core/parallel.hpp), so fills under 2 * kMinRowsPerWorker
/// rows stay on the calling thread. A fixed property of the fill, not a
/// tuning knob: a 1024-row share is ≈ 75 µs of intersections on a
/// 200k-vertex BA graph, about ten times a pool dispatch (≈ 8 µs, see
/// docs/BENCHMARKS.md "Worker pool").
inline constexpr std::size_t kMinRowsPerWorker = 1024;

class Graph;

class StreamEventBlock {
 public:
  /// Row flag bits, mirroring StreamEvent::has_edge / has_vertex. A row
  /// with no bit set is an empty step (burn-in, lazy stay, walker start
  /// jump): budget was spent but nothing was observed.
  static constexpr std::uint8_t kHasEdge = 1;
  static constexpr std::uint8_t kHasVertex = 2;
  /// Set on an edge row pushed with its pick. A bit of the pick memo, not
  /// of the event: test the two bits above by mask.
  static constexpr std::uint8_t kPicked = 4;

  explicit StreamEventBlock(std::size_t capacity = default_block_capacity());

  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t room() const noexcept { return cap_ - size_; }
  /// Empties the block; picks pushed after it are located on first read.
  void clear() noexcept { clear_for(nullptr); }
  /// Empties the block for a cursor on g: picks pushed after it are
  /// trusted by pick(g).
  void clear(const Graph& g) noexcept { clear_for(&g); }

  // Writer API (cursors). Precondition: size() < capacity(). Rows not
  // carrying an edge (resp. vertex) leave those columns stale; readers
  // must gate on flags(). `pick` is v's index in neighbors(u); the
  // overloads without it leave the row to be located.
  void push_empty() noexcept { flags_[size_++] = 0; }
  void push_edge(VertexId u, VertexId v, std::uint32_t deg_v) noexcept {
    u_[size_] = u;
    v_[size_] = v;
    deg_v_[size_] = deg_v;
    flags_[size_++] = kHasEdge;
  }
  void push_edge(VertexId u, VertexId v, std::uint32_t deg_v,
                 std::uint32_t pick) noexcept {
    u_[size_] = u;
    v_[size_] = v;
    deg_v_[size_] = deg_v;
    pick_[size_] = pick;
    flags_[size_++] = kHasEdge | kPicked;
  }
  void push_vertex(VertexId x) noexcept {
    vertex_[size_] = x;
    flags_[size_++] = kHasVertex;
  }
  void push_edge_vertex(VertexId u, VertexId v, std::uint32_t deg_v,
                        VertexId x) noexcept {
    u_[size_] = u;
    v_[size_] = v;
    deg_v_[size_] = deg_v;
    vertex_[size_] = x;
    flags_[size_++] = kHasEdge | kHasVertex;
  }
  void push_edge_vertex(VertexId u, VertexId v, std::uint32_t deg_v,
                        VertexId x, std::uint32_t pick) noexcept {
    u_[size_] = u;
    v_[size_] = v;
    deg_v_[size_] = deg_v;
    pick_[size_] = pick;
    vertex_[size_] = x;
    flags_[size_++] = kHasEdge | kHasVertex | kPicked;
  }

  // Reader API (sinks, drain). Spans cover the size() filled rows.
  [[nodiscard]] std::span<const VertexId> u() const noexcept {
    return {u_.get(), size_};
  }
  [[nodiscard]] std::span<const VertexId> v() const noexcept {
    return {v_.get(), size_};
  }
  /// Symmetric degree of v() in the cursor's graph, valid on edge rows.
  [[nodiscard]] std::span<const std::uint32_t> deg_v() const noexcept {
    return {deg_v_.get(), size_};
  }
  [[nodiscard]] std::span<const VertexId> vertex() const noexcept {
    return {vertex_.get(), size_};
  }
  [[nodiscard]] std::span<const std::uint8_t> flags() const noexcept {
    return {flags_.get(), size_};
  }
  /// Codegree |N(u) ∩ N(v)| in g, valid on edge rows; memoised as the
  /// file comment says. The memo makes this const call a write, so one
  /// thread at a time may read a block. A fill of at least
  /// 2 * kMinRowsPerWorker new rows splits them across the pool.
  [[nodiscard]] std::span<const std::uint32_t> codegree(const Graph& g) const;
  /// Index of v in g.neighbors(u), or Graph::kNotAdjacent, valid on edge
  /// rows; derived under the same memo rule as codegree().
  [[nodiscard]] std::span<const std::uint32_t> pick(const Graph& g) const;

 private:
  /// Computes codegree_[i] for the edge rows i in [begin, end).
  void fill_codegree(const Graph& g, std::size_t begin,
                     std::size_t end) const;

  void clear_for(const Graph* g) noexcept {
    size_ = 0;
    codegree_rows_ = 0;
    pick_source_ = g;
    pick_graph_ = g;
    pick_rows_ = 0;
  }

  std::unique_ptr<VertexId[]> u_;
  std::unique_ptr<VertexId[]> v_;
  std::unique_ptr<std::uint32_t[]> deg_v_;
  std::unique_ptr<VertexId[]> vertex_;
  std::unique_ptr<std::uint8_t[]> flags_;
  // Written by the cursor; pick() also writes the rows it derives.
  std::unique_ptr<std::uint32_t[]> pick_;
  std::size_t size_ = 0;
  std::size_t cap_;
  // Memoised codegree column; grows to the most rows ever filled.
  mutable std::vector<std::uint32_t> codegree_;
  mutable const Graph* codegree_graph_ = nullptr;
  mutable std::size_t codegree_rows_ = 0;
  // Pushed picks (rows flagged kPicked) hold for pick_source_, the graph
  // named in clear(g), and the picks of rows [0, pick_rows_) for
  // pick_graph_. A read for another graph overwrites pushed picks, so it
  // resets pick_source_ too.
  mutable const Graph* pick_source_ = nullptr;
  mutable const Graph* pick_graph_ = nullptr;
  mutable std::size_t pick_rows_ = 0;
};

}  // namespace frontier
