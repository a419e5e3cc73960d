// StreamEngine — wires a SamplerCursor to a set of EstimatorSinks.
//
// The engine pulls events from the cursor and pushes them into the sinks
// block-wise: the cursor fills the engine's reusable StreamEventBlock via
// next_batch() and each sink ingests whole columns (ingest_block), so the
// per-step cost is amortized over the block instead of paying virtual
// dispatch per edge. pump(max_events) still honors exact event counts
// (the last refill is truncated), so periodic checkpointing, progress
// reporting and cooperative cancellation work at any granularity —
// checkpoints taken mid-block are byte-identical to the event-by-event
// engine. Memory is O(cursor state + sink buckets + one block),
// independent of the budget — the whole point of the streaming subsystem.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>

#include "stream/checkpoint.hpp"
#include "stream/cursor.hpp"
#include "stream/sinks.hpp"

namespace frontier {

class CrawlInstrumentation;

class StreamEngine {
 public:
  /// `block_capacity` sets the refill granularity of the internal event
  /// block (default: default_block_capacity(), i.e. the FS_BLOCK knob).
  /// Results are bit-identical for every capacity.
  StreamEngine(std::unique_ptr<SamplerCursor> cursor, SinkSet sinks,
               std::size_t block_capacity = default_block_capacity());

  /// Pumps at most `max_events` cursor steps through the sinks. Returns
  /// the number of steps actually taken (< max_events iff the cursor ran
  /// out of budget).
  std::uint64_t pump(std::uint64_t max_events);

  /// Pumps until the cursor is exhausted; returns steps taken.
  std::uint64_t run_to_completion();

  [[nodiscard]] bool finished() const noexcept { return cursor_->done(); }
  /// Total cursor steps processed (resumes restore this from checkpoints).
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

  [[nodiscard]] const SamplerCursor& cursor() const noexcept {
    return *cursor_;
  }
  [[nodiscard]] std::span<const std::unique_ptr<EstimatorSink>> sinks()
      const noexcept {
    return sinks_;
  }

  void save_checkpoint(std::ostream& os) const;
  void load_checkpoint(std::istream& is);
  void save_checkpoint_file(const std::string& path) const;
  void load_checkpoint_file(const std::string& path);

  /// Attaches (or detaches, with nullptr) telemetry. The instrumentation
  /// is an outside observer: with it attached, pump() issues the same
  /// next_batch / ingest_block calls in the same order with the same
  /// arguments, so the crawl is bit-identical to an uninstrumented one —
  /// only wall-clock reads and metric stores are added around the calls.
  /// The caller keeps `instr` alive for the engine's lifetime.
  void set_instrumentation(CrawlInstrumentation* instr) noexcept {
    instr_ = instr;
  }
  [[nodiscard]] CrawlInstrumentation* instrumentation() const noexcept {
    return instr_;
  }

 private:
  std::unique_ptr<SamplerCursor> cursor_;
  SinkSet sinks_;
  StreamEventBlock block_;
  std::uint64_t events_ = 0;
  CrawlInstrumentation* instr_ = nullptr;
};

}  // namespace frontier
