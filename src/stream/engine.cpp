#include "stream/engine.hpp"

#include <chrono>
#include <limits>
#include <stdexcept>

#include "obs/crawl_metrics.hpp"
#include "obs/metrics.hpp"

namespace frontier {
namespace {

using Clock = std::chrono::steady_clock;

/// The clock, read only while instrumentation is attached.
[[nodiscard]] Clock::time_point now_if(
    const CrawlInstrumentation* instr) noexcept {
  return instr != nullptr ? Clock::now() : Clock::time_point{};
}

}  // namespace

StreamEngine::StreamEngine(std::unique_ptr<SamplerCursor> cursor,
                           SinkSet sinks, std::size_t block_capacity)
    : cursor_(std::move(cursor)),
      sinks_(std::move(sinks)),
      block_(block_capacity) {
  if (!cursor_) {
    throw std::invalid_argument("StreamEngine: cursor required");
  }
}

// With instrumentation attached, the same calls in the same order with
// the same arguments — plus clock reads and metric stores between them.
// Telemetry observes; it never participates.
std::uint64_t StreamEngine::pump(std::uint64_t max_events) {
  CrawlInstrumentation* const instr = instr_;
  const auto pump_start = now_if(instr);
  std::uint64_t taken = 0;
  while (taken < max_events) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(max_events - taken, block_.capacity()));
    const auto batch_start = now_if(instr);
    const std::size_t got = cursor_->next_batch(block_, want);
    if (got == 0) break;
    if (instr != nullptr) {
      instr->on_block(block_, *cursor_, elapsed_ns(batch_start));
    }
    for (std::size_t i = 0; i < sinks_.size(); ++i) {
      const auto ingest_start = now_if(instr);
      sinks_[i]->ingest_block(block_);
      if (instr != nullptr) {
        instr->on_sink_ingest(i, elapsed_ns(ingest_start));
      }
    }
    taken += got;
  }
  events_ += taken;
  if (instr != nullptr) instr->on_pump(elapsed_ns(pump_start));
  return taken;
}

std::uint64_t StreamEngine::run_to_completion() {
  std::uint64_t total = 0;
  while (!finished()) {
    total += pump(std::numeric_limits<std::uint64_t>::max());
  }
  return total;
}

void StreamEngine::save_checkpoint(std::ostream& os) const {
  const auto start = now_if(instr_);
  const std::uint64_t bytes =
      StreamCheckpoint::save(os, *cursor_, sinks_, events_);
  if (instr_ != nullptr) instr_->on_checkpoint_save(elapsed_ns(start), bytes);
}

void StreamEngine::load_checkpoint(std::istream& is) {
  const auto start = now_if(instr_);
  const auto loaded = StreamCheckpoint::load(is, *cursor_, sinks_);
  events_ = loaded.events;
  if (instr_ != nullptr) {
    instr_->on_checkpoint_load(elapsed_ns(start), loaded.bytes);
  }
}

void StreamEngine::save_checkpoint_file(const std::string& path) const {
  const auto start = now_if(instr_);
  const std::uint64_t bytes =
      StreamCheckpoint::save_file(path, *cursor_, sinks_, events_);
  if (instr_ != nullptr) instr_->on_checkpoint_save(elapsed_ns(start), bytes);
}

void StreamEngine::load_checkpoint_file(const std::string& path) {
  const auto start = now_if(instr_);
  const auto loaded = StreamCheckpoint::load_file(path, *cursor_, sinks_);
  events_ = loaded.events;
  if (instr_ != nullptr) {
    instr_->on_checkpoint_load(elapsed_ns(start), loaded.bytes);
  }
}

}  // namespace frontier
