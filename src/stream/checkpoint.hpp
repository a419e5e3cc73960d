// StreamCheckpoint — versioned binary pause/resume for in-flight crawls.
//
// Layout (little-endian, mirroring the graph/io.hpp snapshot format):
//   u64 magic "FRONTSC0" | u32 version | u32 cursor kind |
//   cursor state blob | u64 events | u32 sink count |
//   per sink: length-prefixed name + sink state blob
//
// Only *dynamic* state is stored. The caller reconstructs the cursor and
// sinks from the same graph and configuration, then load() restores their
// progress; every cursor/sink verifies a configuration fingerprint and
// throws IoError on mismatch, so resuming against the wrong config fails
// loudly rather than silently corrupting the crawl.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>

#include "stream/cursor.hpp"
#include "stream/sinks.hpp"

namespace frontier {

struct StreamCheckpoint {
  /// What load() restored: the saved event counter, and the size of the
  /// image read.
  struct Loaded {
    std::uint64_t events = 0;
    std::uint64_t bytes = 0;
  };

  /// Serializes cursor + sinks + the engine's event counter and returns
  /// the size of the image written.
  static std::uint64_t save(
      std::ostream& os, const SamplerCursor& cursor,
      std::span<const std::unique_ptr<EstimatorSink>> sinks,
      std::uint64_t events);

  /// Restores into pre-constructed cursor/sinks of matching kind/names.
  /// Reads `is` to its end. Throws IoError on any mismatch.
  [[nodiscard]] static Loaded load(
      std::istream& is, SamplerCursor& cursor,
      std::span<const std::unique_ptr<EstimatorSink>> sinks);

  static std::uint64_t save_file(
      const std::string& path, const SamplerCursor& cursor,
      std::span<const std::unique_ptr<EstimatorSink>> sinks,
      std::uint64_t events);

  [[nodiscard]] static Loaded load_file(
      const std::string& path, SamplerCursor& cursor,
      std::span<const std::unique_ptr<EstimatorSink>> sinks);
};

}  // namespace frontier
