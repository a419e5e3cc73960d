// SamplerCursor — budgeted sampling as a pull iterator.
//
// Batch samplers (sampling/) materialize their whole SampleRecord before
// any estimator runs, so memory grows linearly with the budget B. A cursor
// instead exposes the same process one budgeted query of the crawled
// graph at a time, reporting what each query observed (an edge, a vertex,
// or nothing — e.g. a lazy stay or a failed jump). This mirrors how the
// paper's crawlers actually operate (Section 2: samples arrive one API
// query at a time) and is the substrate for online estimator sinks
// (stream/sinks.hpp) and checkpoint/resume (stream/checkpoint.hpp).
//
// next_batch() is the production path: StreamEngine, drain_cursor_into
// and hence every batch run()/run_into() in sampling/*.cpp step through
// it, so draining a cursor *is* the batch run — identical RNG draw
// sequence, edge and vertex sequences, starts and cost. next() is an
// independent one-step-at-a-time implementation of the same process,
// kept as the reference that tests/test_stream_batch.cpp compares
// next_batch() against at every block size.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <vector>

#include "core/types.hpp"
#include "random/rng.hpp"
#include "sampling/walk.hpp"
#include "stream/block.hpp"

namespace frontier {

/// What one budgeted step observed. A step may record an edge (walk
/// transition), a vertex (visit/jump landing), both (RWJ walk steps,
/// accepted MH moves), or neither (burn-in, lazy stays).
struct StreamEvent {
  Edge edge{};
  VertexId vertex = kInvalidVertex;
  bool has_edge = false;
  bool has_vertex = false;

  void clear() noexcept {
    has_edge = false;
    has_vertex = false;
  }
};

/// Identifies the concrete cursor type inside a checkpoint header.
enum class CursorKind : std::uint32_t {
  kFrontier = 1,
  kSingleRw = 2,
  kMultipleRw = 3,
  kRandomWalkWithJumps = 4,
  kMetropolis = 5,
};

/// Abstract one-step sampler. Concrete cursors live in
/// stream/sampler_cursors.hpp; each owns its RNG by value so that
/// (cursor state, sink states) is a complete, serializable description of
/// an in-flight crawl.
class SamplerCursor {
 public:
  virtual ~SamplerCursor() = default;

  /// Reference step: advances one budgeted step. Returns false once the
  /// budget is exhausted (ev is left cleared); otherwise fills ev with
  /// whatever the step observed (possibly nothing). Tests compare
  /// next_batch() against it; production code does not call it.
  virtual bool next(StreamEvent& ev) = 0;

  /// Clears `block`, advances up to min(max_steps, block.capacity())
  /// budgeted steps, appending one row per step, and returns the number
  /// of steps taken (0 iff exhausted or max_steps == 0). The cursor
  /// state, RNG stream, emitted events and cost after next_batch are
  /// byte-identical to the same number of next() calls — batching
  /// amortizes dispatch, it never reorders draws.
  virtual std::size_t next_batch(
      StreamEventBlock& block,
      std::size_t max_steps = std::numeric_limits<std::size_t>::max()) = 0;

  /// True once next() has returned (or would return) false.
  [[nodiscard]] virtual bool done() const noexcept = 0;

  /// Budget consumed so far; after exhaustion this equals the batch
  /// run()'s SampleRecord::cost exactly.
  [[nodiscard]] virtual double cost() const noexcept = 0;

  /// Initial vertex of each walker, in the order they were drawn.
  [[nodiscard]] virtual const std::vector<VertexId>& starts() const noexcept = 0;

  /// The cursor's RNG. Batch run() wrappers copy this back into the
  /// caller's generator after draining, so the caller's stream advances
  /// by exactly the draws the run made.
  [[nodiscard]] virtual const Rng& rng() const noexcept = 0;

  [[nodiscard]] virtual CursorKind kind() const noexcept = 0;

  /// Number of concurrently maintained walkers: the live frontier size for
  /// FS, the number of not-yet-exhausted walkers for MultipleRW, 1 for the
  /// single-walker cursors. Telemetry-only — reading it never advances the
  /// crawl or touches the RNG.
  [[nodiscard]] virtual std::size_t active_walkers() const noexcept {
    return 1;
  }

  /// The graph being crawled. Checkpoints fingerprint it (|V| and volume)
  /// so a resume against a different graph fails loudly.
  [[nodiscard]] virtual const Graph& graph() const noexcept = 0;

  /// Serializes / restores the dynamic state (positions, counters, RNG).
  /// The static configuration (graph, Config) is NOT stored: the caller
  /// reconstructs the cursor from the same config and then load_state()s
  /// into it. A configuration fingerprint is checked on load and a
  /// mismatch throws IoError.
  virtual void save_state(std::ostream& os) const = 0;
  virtual void load_state(std::istream& is) = 0;
};

/// Runs a cursor to exhaustion through arena.block and assembles the
/// batch-equivalent SampleRecord in arena.record (cleared first, capacity
/// kept). `reserve_edges`/`reserve_vertices` pre-size the record's
/// vectors up front so the drain never regrows them. Returns arena.record.
SampleRecord& drain_cursor_into(SamplerCursor& cursor, SampleArena& arena,
                                std::uint64_t reserve_edges = 0,
                                std::uint64_t reserve_vertices = 0);

/// Convenience wrapper over drain_cursor_into with a throwaway arena.
[[nodiscard]] SampleRecord drain_cursor(SamplerCursor& cursor,
                                        std::uint64_t reserve_edges = 0,
                                        std::uint64_t reserve_vertices = 0);

}  // namespace frontier
