// SamplerCursor — budgeted sampling as a pull iterator.
//
// A cursor exposes a sampling process one budgeted query of the crawled
// graph at a time, reporting what each query observed (an edge, a vertex,
// or nothing — e.g. a lazy stay or a failed jump). This mirrors how the
// paper's crawlers actually operate (Section 2: samples arrive one API
// query at a time) and is the substrate for online estimator sinks
// (stream/sinks.hpp) and checkpoint/resume (stream/checkpoint.hpp).
//
// Each walk method is one cursor type (stream/sampler_cursors.hpp). Its
// batch form, WalkSampler<Cursor> below, materializes a whole SampleRecord
// by draining a cursor, so memory grows linearly with the budget B; the
// sampling/ names (FrontierSampler, SingleRandomWalk, ...) are aliases of
// it.
//
// next_batch() is the production path: StreamEngine, drain_cursor_into
// and hence every WalkSampler run()/run_into() step through it, so
// draining a cursor *is* the batch run — identical RNG draw sequence,
// edge and vertex sequences, starts and cost. next() is an independent
// one-step-at-a-time implementation of the same process, kept as the
// reference that tests/test_stream_batch.cpp compares next_batch()
// against at every block size.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "graph/graph.hpp"
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
/// stream/sampler_cursors.hpp. The state every cursor shares — the graph,
/// the walker starts and the RNG, owned by value so that (cursor state,
/// sink states) is a complete, serializable description of an in-flight
/// crawl — lives here.
class SamplerCursor {
 public:
  virtual ~SamplerCursor() = default;

  /// Reference step: advances one budgeted step. Returns false once the
  /// budget is exhausted (ev is left cleared); otherwise fills ev with
  /// whatever the step observed (possibly nothing). Tests compare
  /// next_batch() against it; production code does not call it.
  virtual bool next(StreamEvent& ev) = 0;

  /// Empties `block`, advances up to min(max_steps, block.capacity())
  /// budgeted steps, appending one row per step, and returns the number
  /// of steps taken (0 iff exhausted or max_steps == 0). The cursor
  /// state, RNG stream, emitted events and cost after next_batch are
  /// byte-identical to the same number of next() calls — batching
  /// amortizes dispatch, it never reorders draws.
  ///
  /// When the block chases the fill (stream/block.hpp: its codegree
  /// column, its followers' folds), the steps are taken
  /// kCodegreeChunkRows at a time, each stride published to the pool
  /// workers following it; the rows are the same as one append_batch
  /// call's, because the steps never depend on how a fill is cut. Throws
  /// std::logic_error, taking no step, when a follower of the block did
  /// not ingest its last chased fill.
  std::size_t next_batch(
      StreamEventBlock& block,
      std::size_t max_steps = std::numeric_limits<std::size_t>::max());

  /// True once next() has returned (or would return) false.
  [[nodiscard]] virtual bool done() const noexcept = 0;

  /// Budget consumed so far; after exhaustion this equals the batch
  /// run()'s SampleRecord::cost exactly.
  [[nodiscard]] virtual double cost() const noexcept = 0;

  /// Initial vertex of each walker, in the order they were drawn.
  [[nodiscard]] const std::vector<VertexId>& starts() const noexcept {
    return starts_;
  }

  /// The cursor's RNG. WalkSampler copies this back into the caller's
  /// generator after draining, so the caller's stream advances by exactly
  /// the draws the run made.
  [[nodiscard]] const Rng& rng() const noexcept { return rng_; }

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
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

  /// Serializes / restores the dynamic state (positions, counters, RNG).
  /// The static configuration (graph, Config) is NOT stored: the caller
  /// reconstructs the cursor from the same config and then load_state()s
  /// into it. A configuration fingerprint is checked on load and a
  /// mismatch throws IoError.
  virtual void save_state(std::ostream& os) const = 0;
  virtual void load_state(std::istream& is) = 0;

 protected:
  SamplerCursor(const Graph& g, Rng rng) : graph_(&g), rng_(rng) {}

  /// Advances up to min(max_steps, block.room()) budgeted steps,
  /// appending one row per step after the block's current rows, and
  /// returns the number taken (0 iff exhausted or no room). Each cursor's
  /// one step loop; next_batch() is its only caller.
  virtual std::size_t append_batch(StreamEventBlock& block,
                                   std::size_t max_steps) = 0;

  const Graph* graph_;
  std::vector<VertexId> starts_;
  Rng rng_;
};

/// Upper bounds on what one drained run records, used to pre-size the
/// SampleRecord so the drain never regrows it.
struct RecordBounds {
  std::uint64_t edges = 0;
  std::uint64_t vertices = 0;
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

/// The batch form of one walk method: each run() constructs a fresh
/// Cursor, drains it and copies its RNG back into the caller's generator.
/// `Cursor` supplies the method through static members: its `Config`, the
/// one check of it (`validate`), the start distribution (`start_mode`) and
/// the record pre-size (`record_bounds`).
template <class Cursor>
class WalkSampler {
 public:
  using Config = typename Cursor::Config;

  /// Builds the start sampler once for all runs and validates `config`
  /// here, so a bad config fails at construction, not on the first run.
  WalkSampler(const Graph& g, Config config)
      : graph_(&g),
        config_(config),
        start_sampler_(g, Cursor::start_mode(config)) {
    Cursor::validate(g, config_);
  }

  /// One independent run.
  [[nodiscard]] SampleRecord run(Rng& rng) const {
    SampleArena arena;
    run_into(arena, rng);
    return std::move(arena.record);
  }

  /// Like run(), but drains into the caller's reusable arena and returns
  /// arena.record — the replication hot path, allocation-free once the
  /// arena has warmed up. Identical output and RNG stream to run().
  const SampleRecord& run_into(SampleArena& arena, Rng& rng) const {
    Cursor cursor(*graph_, config_, rng, start_sampler_);
    const RecordBounds bounds = Cursor::record_bounds(config_);
    drain_cursor_into(cursor, arena, bounds.edges, bounds.vertices);
    rng = cursor.rng();
    return arena.record;
  }

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  const Graph* graph_;
  Config config_;
  StartSampler start_sampler_;
};

}  // namespace frontier
