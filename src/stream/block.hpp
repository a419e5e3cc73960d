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
// |N(u) ∩ N(v)|, which no cursor writes (the intersection kernel,
// graph/intersect.hpp, computes it for every edge row), and the pick,
// which a cursor writes but a reader may have to locate. Every later
// reader of the same fill gets the same span.
//
// The codegree rows are filled in kCodegreeChunkRows-row chunks, claimed
// one at a time through an atomic counter, so a row's value never depends
// on who filled it. A fill that is not chased (below) is sealed at the
// first codegree() read, and its chunks split across the pool when it has
// at least 2 * kMinRowsPerWorker new rows, or are all filled on the
// caller.
//
// Followers. A sink (stream/sinks.hpp) that ingests a cursor fill becomes
// a follower of the block: EstimatorSink::ingest_block registers it, so
// every caller of ingest_block (StreamEngine, or a driver that steps
// next_batch and the sinks itself) gets the same overlap. A follower that
// reads a derived column registers only when it reads it for the
// cursor's graph, and is folded on a worker only on fills of that graph
// (and, for the codegree, only when the fill's codegree is chased too).
// From then on every cursor fill of at least
// 2 * kMinRowsPerWorker rows on a block whose codegree was read for the
// cursor's graph, or that has followers, is chased:
// SamplerCursor::next_batch starts pool workers (core/parallel.hpp), the
// cursor publishes its rows a chunk at a time, and the workers follow it
// while it is still writing. Their roles:
//   - With followers, worker 1 folds: chunk by chunk, in row order, it
//     runs every follower's row fold (after that chunk's codegree for the
//     followers that read it, filling the chunk itself if no worker has
//     claimed it), so with one worker (FS_THREADS=2) it both fills and
//     folds.
//   - Every other worker fills codegree chunks; all of them do when there
//     is no follower, and only worker 1 starts when the codegree is not
//     chased.
// A follower's next ingest_block then waits for the tail: it fills any
// unclaimed codegree chunks on the caller, joins the workers and folds on
// the caller only the rows the worker did not (rows appended after the
// fill, say). A codegree() or pick() read joins them too. A fold that
// throws on the worker stops that follower's fold only, and its
// ingest_block rethrows it.
// A fill that is not chased (FS_THREADS=1, a pool owned by a running call
// or another block's chase, fewer rows, rows pushed by hand) is folded on
// the caller by each ingest_block, through the same row fold.
// A follower that does not ingest a chased fill it was folded into is
// refused: the next fill throws std::logic_error, until clear(). clear()
// drops every follower; a sink leaves the block it follows when it is
// destroyed or follows another.
// An abandoned fill (clear(), the destructor, a follower's destruction,
// or a cursor that throws mid-fill, while workers run) stops them at the
// next chunk: each follower then holds a prefix of the fill in whole
// chunks, possibly none. Where the rows survive (a cursor that threw,
// another follower destroyed) it still owes the fill, and its
// ingest_block folds the rest on the caller, ending where a serial fold
// would; after clear() or the destructor the rows are gone and it keeps
// the prefix.
//
// Hot-line rule: the cursor writes size() on every step, so a worker
// never reads the block object per row. It takes the column pointers
// once (BlockRows) and reads only those; the atomics it polls sit on
// cache lines of their own.
//
// Each memo is keyed on the graph and on the number of rows already
// derived: clear() resets it (so push_* pays nothing for it), a read
// after appends derives only the new rows, and a read with another graph
// derives them all again. Picks are trusted only for the graph of the
// cursor fill; rows pushed without a pick (ingest_sample, hand-filled
// blocks) are located by Graph::neighbor_index on first read, and a
// non-edge reads Graph::kNotAdjacent.
//
// The columns are allocated uninitialised: readers see only size() rows
// and gate on flags(), so nothing needs zeroing, and a block that is
// never filled to capacity never touches its tail pages.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
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

/// Fewest codegree rows a fill hands to one worker: a sealed fill of r
/// new rows runs on min(default_thread_count(), r / kMinRowsPerWorker)
/// workers of the pool (core/parallel.hpp), and only cursor fills of at
/// least 2 * kMinRowsPerWorker rows are chased, so smaller fills, their
/// codegree and their folds, stay on the calling thread. A fixed property
/// of the fill, not a tuning knob: a 1024-row share is ≈ 75 µs of
/// intersections on a 200k-vertex BA graph, about ten times a pool
/// dispatch (≈ 8 µs, see docs/BENCHMARKS.md "Worker pool").
inline constexpr std::size_t kMinRowsPerWorker = 1024;

/// Rows in one claim of a codegree fill, in one step of a chased fold,
/// and the stride in which a chased cursor publishes its rows: large
/// enough that a claim (one atomic add) and a publish (one store) vanish
/// next to 64 intersections and 64 walk steps, small enough that the
/// workers trail the cursor closely.
inline constexpr std::size_t kCodegreeChunkRows = 64;

class EstimatorSink;
class Graph;
class SamplerCursor;

/// A block's columns as raw pointers: what a row fold reads
/// (EstimatorSink::fold_rows). Taken once per fold, so a loop over rows
/// never reads the block object, whose size() the cursor writes on every
/// step. The derived columns are null unless the reader asked for them.
struct BlockRows {
  const std::uint8_t* flags = nullptr;
  const VertexId* u = nullptr;
  const VertexId* v = nullptr;
  const std::uint32_t* deg_v = nullptr;
  const VertexId* vertex = nullptr;
  const std::uint32_t* pick = nullptr;
  const std::uint32_t* codegree = nullptr;
};

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
  /// Stops a chase in flight and drops every follower.
  ~StreamEventBlock();
  // Pool workers and followers hold the block's address.
  StreamEventBlock(const StreamEventBlock&) = delete;
  StreamEventBlock& operator=(const StreamEventBlock&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t room() const noexcept { return cap_ - size_; }
  /// Empties the block, stopping a chase in flight, and drops every
  /// follower; rows pushed after it are a hand fill, not a cursor fill.
  void clear() noexcept;

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
  /// The columns as raw pointers, derived columns null.
  [[nodiscard]] BlockRows rows() const noexcept {
    return {flags_.get(), u_.get(), v_.get(), deg_v_.get(), vertex_.get(),
            nullptr, nullptr};
  }
  /// Codegree |N(u) ∩ N(v)| in g, valid on edge rows; memoised as the
  /// file comment says, and from now on cursor fills on g are chased.
  /// The memo makes this const call a write, so one thread at a time may
  /// read a block.
  [[nodiscard]] std::span<const std::uint32_t> codegree(const Graph& g) const;
  /// True while pool workers follow this block's fill, from a chased
  /// next_batch() to the read, ingest_block or clear() that joins them.
  [[nodiscard]] bool chasing() const noexcept { return chasing_; }
  /// Index of v in g.neighbors(u), or Graph::kNotAdjacent, valid on edge
  /// rows; derived under the same memo rule as codegree().
  [[nodiscard]] std::span<const std::uint32_t> pick(const Graph& g) const;

 private:
  friend class EstimatorSink;
  friend class SamplerCursor;

  /// A sink that follows the block's cursor fills (see the file comment).
  struct Follower {
    EstimatorSink* sink;
    bool codegree;  // its fold reads the codegree column
    bool pick;      // its fold reads the pick column
    bool folded;    // the fold worker folds the current fill into it
    std::size_t rows;          // the fill's rows the fold worker folded
    std::exception_ptr error;  // what its fold threw there
  };

  /// A chase's pool workers, as start_background() wants them: worker 1
  /// folds when the fill has followers, every other one fills codegree.
  struct ChaseWorkers {
    const StreamEventBlock* block;
    void operator()(std::size_t w) const {
      if (w == 1 && block->folding_) {
        block->fold_chunks();
      } else {
        block->fill_chunks();
      }
    }
  };

  /// Writes out[i], the codegree of the edge rows i in [begin, end) of
  /// `rows`; rows up to `limit` may be prefetched.
  void fill_codegree(const BlockRows& rows, std::uint32_t* out,
                     std::size_t begin, std::size_t end,
                     std::size_t limit) const noexcept;
  /// Waits until the rows up to begin + kCodegreeChunkRows are published
  /// or the fill is sealed; returns the rows published then.
  std::size_t await_rows(std::size_t begin) const noexcept;
  /// Claims the next codegree chunk of the open fill and fills it; false
  /// once a claim starts at or past its sealed end.
  bool fill_next_chunk(const BlockRows& rows,
                       std::uint32_t* out) const noexcept;
  /// Fills claimed chunks until fill_next_chunk() is false. Run by the
  /// fill's codegree workers and by the caller that seals the fill.
  void fill_chunks() const noexcept;
  /// The fold worker: folds the fill into its followers chunk by chunk.
  void fold_chunks() const noexcept;
  /// Waits until chunk c's codegree is filled, filling unclaimed chunks
  /// itself; false once the chase is stopped.
  bool await_codegree(std::size_t c, const BlockRows& rows,
                      std::uint32_t* out) const noexcept;
  /// Opens a fill from row `first`, with room for rows up to `last`,
  /// sealed at size() when `sealed`, and starts `workers` pool workers on
  /// it; returns whether they started. The caller sets folding_ and
  /// codegree_fill_ first.
  bool open_fill(std::size_t first, std::size_t last, bool sealed,
                 std::size_t workers) const;
  /// Fills the unclaimed codegree chunks of the sealed fill, joins its
  /// workers and extends the codegree memo to the fill's end.
  void finish_fill() const;
  /// Stops a chase in flight at the workers' next chunk and joins them.
  void stop_chase() const noexcept;

  // EstimatorSink::ingest_block's side. follow() registers `sink` when
  // this is a cursor fill it may follow, or throws std::logic_error when
  // the block it follows is owed a fill; take_fold() returns how many of
  // the fill's first rows the fold worker folded into `sink` (0 when it
  // did not), after joining it and rethrowing what the fold threw;
  // owed_by() is whether `sink` owes the fill (folded into it, not yet
  // taken, not empty); unfollow() drops it.
  [[nodiscard]] std::size_t take_fold(const EstimatorSink& sink) const;
  [[nodiscard]] bool owed_by(const EstimatorSink& sink) const;
  void follow(EstimatorSink& sink) const;
  void unfollow(const EstimatorSink& sink) const noexcept;
  [[nodiscard]] Follower* find_follower(const EstimatorSink& sink) const;

  // SamplerCursor::next_batch's side of a fill. begin_fill() empties the
  // block for a cursor on g (picks pushed after it are trusted by
  // pick(g)), or throws std::logic_error when a follower owes the last
  // chased fill, a non-empty one it did not ingest; chase() starts a
  // chase for a fill of at most `rows` rows
  // when the file comment says so, publish() hands the rows written so
  // far to the workers, and seal() ends the fill at size().
  void begin_fill(const Graph& g);
  [[nodiscard]] bool chase(std::size_t rows) {
    return rows >= 2 * kMinRowsPerWorker &&
           (chase_graph_ == fill_graph_ || !followers_.empty()) &&
           start_chase(rows);
  }
  bool start_chase(std::size_t rows);
  void publish() noexcept {
    published_.store(size_, std::memory_order_release);
  }
  void seal() const noexcept {
    fill_end_ = size_;
    published_.store(size_, std::memory_order_release);
    sealed_.store(true, std::memory_order_release);
  }

  void reset_rows(const Graph* g) noexcept {
    size_ = 0;
    codegree_rows_ = 0;
    fill_graph_ = g;
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
  // The cursor's graph while the rows are a cursor fill, else null.
  const Graph* fill_graph_ = nullptr;
  // Pushed picks (rows flagged kPicked) hold for pick_source_, the
  // cursor's graph, and the picks of rows [0, pick_rows_) for
  // pick_graph_. A read for another graph overwrites pushed picks, so it
  // resets pick_source_ too.
  mutable const Graph* pick_source_ = nullptr;
  mutable const Graph* pick_graph_ = nullptr;
  mutable std::size_t pick_rows_ = 0;
  // Registered followers, in registration order; only the owner changes
  // the list, and never while workers run.
  mutable std::vector<Follower> followers_;
  // The open fill. The owner's fields: the graph whose fills are chased
  // (the last one codegree() was read for), whether workers are in
  // flight, and the fill's first row and sealed end. The workers read
  // fill_base_, fill_seq_, folding_, codegree_fill_, codegree_graph_ and
  // followers_, all written before they start.
  mutable const Graph* chase_graph_ = nullptr;
  mutable bool chasing_ = false;
  mutable bool folding_ = false;        // worker 1 folds the followers
  mutable bool codegree_fill_ = false;  // the fill derives codegree
  mutable std::size_t fill_base_ = 0;
  mutable std::size_t fill_end_ = 0;
  // Numbers the fills; chunk_done_[c] holds it once chunk c's codegree
  // is filled (allocated by the first chase that folds codegree readers).
  mutable std::uint64_t fill_seq_ = 0;
  mutable std::unique_ptr<std::atomic<std::uint64_t>[]> chunk_done_;
  ChaseWorkers workers_{this};
  // Shared with the workers, each on a cache line of its own so that
  // their claims and polls never contend with the cursor's row writes.
  // Rows below published_ are written; once sealed_ is set, published_ is
  // the fill's end; stopped_ abandons the fill.
  alignas(64) mutable std::atomic<std::size_t> published_{0};
  mutable std::atomic<bool> sealed_{false};
  mutable std::atomic<bool> stopped_{false};
  alignas(64) mutable std::atomic<std::size_t> next_chunk_{0};
};

}  // namespace frontier
