#include "stream/engine.hpp"

#include <chrono>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "obs/crawl_metrics.hpp"

namespace frontier {
namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::uint64_t ns_between(Clock::time_point a,
                                       Clock::time_point b) noexcept {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return d < 0 ? 0 : static_cast<std::uint64_t>(d);
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
  const auto now = [instr] {
    return instr != nullptr ? Clock::now() : Clock::time_point{};
  };
  const auto pump_start = now();
  std::uint64_t taken = 0;
  while (taken < max_events) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(max_events - taken, block_.capacity()));
    const auto batch_start = now();
    const std::size_t got = cursor_->next_batch(block_, want);
    if (got == 0) break;
    if (instr != nullptr) {
      instr->on_block(block_, *cursor_, ns_between(batch_start, now()));
    }
    for (std::size_t i = 0; i < sinks_.size(); ++i) {
      const auto ingest_start = now();
      sinks_[i]->ingest_block(block_);
      if (instr != nullptr) {
        instr->on_sink_ingest(i, ns_between(ingest_start, now()));
      }
    }
    taken += got;
  }
  events_ += taken;
  if (instr != nullptr) instr->on_pump(ns_between(pump_start, now()));
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
  if (instr_ == nullptr) {
    StreamCheckpoint::save(os, *cursor_, sinks_, events_);
    return;
  }
  const auto begin = os.tellp();
  const auto start = Clock::now();
  StreamCheckpoint::save(os, *cursor_, sinks_, events_);
  const auto end = os.tellp();
  const std::uint64_t bytes =
      (begin < 0 || end < begin) ? 0
                                 : static_cast<std::uint64_t>(end - begin);
  instr_->on_checkpoint_save(ns_between(start, Clock::now()), bytes);
}

void StreamEngine::load_checkpoint(std::istream& is) {
  if (instr_ == nullptr) {
    events_ = StreamCheckpoint::load(is, *cursor_, sinks_);
    return;
  }
  const auto begin = is.tellg();
  const auto start = Clock::now();
  events_ = StreamCheckpoint::load(is, *cursor_, sinks_);
  const auto end = is.tellg();
  const std::uint64_t bytes =
      (begin < 0 || end < begin) ? 0
                                 : static_cast<std::uint64_t>(end - begin);
  instr_->on_checkpoint_load(ns_between(start, Clock::now()), bytes);
}

void StreamEngine::save_checkpoint_file(const std::string& path) const {
  if (instr_ == nullptr) {
    StreamCheckpoint::save_file(path, *cursor_, sinks_, events_);
    return;
  }
  const auto start = Clock::now();
  StreamCheckpoint::save_file(path, *cursor_, sinks_, events_);
  const std::uint64_t ns = ns_between(start, Clock::now());
  std::uint64_t bytes = 0;
  if (std::ifstream probe{path, std::ios::binary | std::ios::ate}) {
    const auto size = probe.tellg();
    if (size > 0) bytes = static_cast<std::uint64_t>(size);
  }
  instr_->on_checkpoint_save(ns, bytes);
}

void StreamEngine::load_checkpoint_file(const std::string& path) {
  if (instr_ == nullptr) {
    events_ = StreamCheckpoint::load_file(path, *cursor_, sinks_);
    return;
  }
  std::uint64_t bytes = 0;
  if (std::ifstream probe{path, std::ios::binary | std::ios::ate}) {
    const auto size = probe.tellg();
    if (size > 0) bytes = static_cast<std::uint64_t>(size);
  }
  const auto start = Clock::now();
  events_ = StreamCheckpoint::load_file(path, *cursor_, sinks_);
  instr_->on_checkpoint_load(ns_between(start, Clock::now()), bytes);
}

}  // namespace frontier
