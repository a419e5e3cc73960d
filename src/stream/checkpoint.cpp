#include "stream/checkpoint.hpp"

#include <fstream>
#include <sstream>

#include "core/checksum.hpp"
#include "core/durable.hpp"
#include "core/failpoint.hpp"
#include "stream/serialize.hpp"

namespace frontier {

namespace {

constexpr std::uint64_t kMagic = 0x46524f4e54534330ULL;  // "FRONTSC0"
// v2 = v1 body + checksummed trailer. Bumped so a v2 reader rejects
// trailer-less v1 files by magic/version instead of misparsing.
constexpr std::uint32_t kVersion = 2;

// Trailer (last 24 bytes): body length, CRC-64 of the body, magic.
// Magic last so the final 8 bytes of any complete checkpoint identify
// it; a torn tail therefore can't present a valid trailer.
constexpr std::uint64_t kTrailerMagic = 0x46524f4e54545231ULL;  // "FRONTTR1"
constexpr std::size_t kTrailerSize = 3 * sizeof(std::uint64_t);

using streamio::read_pod;
using streamio::read_string;
using streamio::write_pod;
using streamio::write_string;

void save_body(std::ostream& os, const SamplerCursor& cursor,
               std::span<const std::unique_ptr<EstimatorSink>> sinks,
               std::uint64_t events) {
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::uint32_t>(cursor.kind()));
  // Graph fingerprint: restored walker positions index this graph's CSR
  // arrays, so resuming against a different graph must fail loudly.
  write_pod<std::uint64_t>(os, cursor.graph().num_vertices());
  write_pod<std::uint64_t>(os, cursor.graph().volume());
  cursor.save_state(os);
  write_pod<std::uint64_t>(os, events);
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(sinks.size()));
  for (const auto& sink : sinks) {
    write_string(os, std::string(sink->name()));
    sink->save_state(os);
  }
}

std::uint64_t load_body(std::istream& is, SamplerCursor& cursor,
                        std::span<const std::unique_ptr<EstimatorSink>> sinks) {
  if (read_pod<std::uint64_t>(is) != kMagic) {
    throw IoError("StreamCheckpoint::load: bad magic");
  }
  if (read_pod<std::uint32_t>(is) != kVersion) {
    throw IoError("StreamCheckpoint::load: unsupported version");
  }
  const auto kind = read_pod<std::uint32_t>(is);
  if (kind != static_cast<std::uint32_t>(cursor.kind())) {
    throw IoError(
        "StreamCheckpoint::load: checkpoint was taken with a different "
        "sampler kind");
  }
  const auto num_vertices = read_pod<std::uint64_t>(is);
  const auto volume = read_pod<std::uint64_t>(is);
  if (num_vertices != cursor.graph().num_vertices() ||
      volume != cursor.graph().volume()) {
    throw IoError(
        "StreamCheckpoint::load: checkpoint was taken on a different graph");
  }
  cursor.load_state(is);
  const auto events = read_pod<std::uint64_t>(is);
  const auto count = read_pod<std::uint32_t>(is);
  if (count != sinks.size()) {
    throw IoError("StreamCheckpoint::load: sink count mismatch");
  }
  for (const auto& sink : sinks) {
    const std::string name = read_string(is);
    if (name != sink->name()) {
      throw IoError("StreamCheckpoint::load: sink order mismatch: expected " +
                    std::string(sink->name()) + ", found " + name);
    }
    sink->load_state(is);
  }
  return events;
}

// Serializes body + trailer into one buffer. Checkpoints are small (KBs
// per session), so buffering the body to checksum it is cheap.
std::string serialize(const SamplerCursor& cursor,
                      std::span<const std::unique_ptr<EstimatorSink>> sinks,
                      std::uint64_t events) {
  std::ostringstream body_os(std::ios_base::out | std::ios_base::binary);
  save_body(body_os, cursor, sinks, events);
  if (!body_os) throw IoError("StreamCheckpoint::save: stream failure");
  std::string blob = std::move(body_os).str();
  const std::uint64_t body_len = blob.size();
  const std::uint64_t crc = crc64(blob.data(), blob.size());
  std::ostringstream trailer_os(std::ios_base::out | std::ios_base::binary);
  write_pod(trailer_os, body_len);
  write_pod(trailer_os, crc);
  write_pod(trailer_os, kTrailerMagic);
  blob += std::move(trailer_os).str();
  return blob;
}

// Validates the trailer of a complete checkpoint image and returns the
// body, throwing a structured IoError for truncated, overlong, or
// bit-flipped files. Nothing of the body is parsed until the checksum
// has vouched for every byte.
std::string check_trailer(std::string&& blob) {
  if (blob.size() < kTrailerSize) {
    throw IoError(
        "StreamCheckpoint::load: truncated checkpoint (smaller than the "
        "trailer)");
  }
  std::istringstream trailer_is(blob.substr(blob.size() - kTrailerSize),
                                std::ios_base::in | std::ios_base::binary);
  const auto body_len = read_pod<std::uint64_t>(trailer_is);
  const auto crc = read_pod<std::uint64_t>(trailer_is);
  const auto magic = read_pod<std::uint64_t>(trailer_is);
  if (magic != kTrailerMagic) {
    throw IoError(
        "StreamCheckpoint::load: missing or corrupt checkpoint trailer "
        "(torn write, or not a v2 checkpoint)");
  }
  if (body_len != blob.size() - kTrailerSize) {
    throw IoError(
        "StreamCheckpoint::load: checkpoint length mismatch (trailer says " +
        std::to_string(body_len) + " body bytes, file has " +
        std::to_string(blob.size() - kTrailerSize) + ")");
  }
  blob.resize(blob.size() - kTrailerSize);
  if (crc64(blob.data(), blob.size()) != crc) {
    throw IoError(
        "StreamCheckpoint::load: checkpoint checksum mismatch (bit-flipped "
        "or corrupt file)");
  }
  return std::move(blob);
}

}  // namespace

std::uint64_t StreamCheckpoint::save(
    std::ostream& os, const SamplerCursor& cursor,
    std::span<const std::unique_ptr<EstimatorSink>> sinks,
    std::uint64_t events) {
  const std::string blob = serialize(cursor, sinks, events);
  os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  if (!os) throw IoError("StreamCheckpoint::save: stream failure");
  return blob.size();
}

StreamCheckpoint::Loaded StreamCheckpoint::load(
    std::istream& is, SamplerCursor& cursor,
    std::span<const std::unique_ptr<EstimatorSink>> sinks) {
  // Drain the stream through its buffer (no seeking, so pipes and other
  // non-seekable streams load too); the drained size is the image size.
  std::ostringstream oss(std::ios_base::out | std::ios_base::binary);
  oss << is.rdbuf();
  std::string image = std::move(oss).str();
  const std::uint64_t bytes = image.size();
  std::istringstream body_is(check_trailer(std::move(image)),
                             std::ios_base::in | std::ios_base::binary);
  return {load_body(body_is, cursor, sinks), bytes};
}

std::uint64_t StreamCheckpoint::save_file(
    const std::string& path, const SamplerCursor& cursor,
    std::span<const std::unique_ptr<EstimatorSink>> sinks,
    std::uint64_t events) {
  FRONTIER_FAILPOINT("checkpoint.save");
  // Durable replace (tmp + fsync + rename + parent fsync): a crash at
  // any moment leaves either the previous good checkpoint or the new
  // one — surviving crashes is the whole point of the file.
  const std::string blob = serialize(cursor, sinks, events);
  durable_write_file(path, blob);
  return blob.size();
}

StreamCheckpoint::Loaded StreamCheckpoint::load_file(
    const std::string& path, SamplerCursor& cursor,
    std::span<const std::unique_ptr<EstimatorSink>> sinks) {
  FRONTIER_FAILPOINT("checkpoint.load");
  std::ifstream f(path, std::ios_base::in | std::ios_base::binary);
  if (!f) throw IoError("cannot open for reading: " + path);
  return load(f, cursor, sinks);
}

}  // namespace frontier
