// Checkpoint corruption corpus: a valid v2 checkpoint is mutated every
// way a real crash or disk fault can mutate it — truncated at every
// length, and bit-flipped at every byte — and every mutant must be
// rejected with a structured IoError. Never a crash, and never a silent
// resume from corrupt state: the trailer (length + CRC-64 + magic) is
// validated before a single byte of cursor or sink state is restored.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/io_error.hpp"
#include "graph/generators.hpp"
#include "stream/engine.hpp"
#include "stream/sampler_cursors.hpp"
#include "stream/sinks.hpp"

namespace frontier {
namespace {

Graph test_graph() {
  Rng rng(77);
  return barabasi_albert(80, 3, rng);
}

SinkSet make_sinks(const Graph& g) {
  SinkSet sinks;
  sinks.push_back(
      std::make_unique<DegreeDistributionSink>(g, DegreeKind::kSymmetric));
  sinks.push_back(std::make_unique<GraphMomentsSink>(g));
  return sinks;
}

StreamEngine make_engine(const Graph& g, std::uint64_t seed) {
  const FrontierCursor::Config cfg{.dimension = 3, .steps = 1000};
  return StreamEngine(std::make_unique<FrontierCursor>(g, cfg, Rng(seed)),
                      make_sinks(g));
}

// A pristine mid-crawl checkpoint blob, the corpus seed.
std::string pristine_blob(const Graph& g) {
  StreamEngine engine = make_engine(g, 3);
  EXPECT_EQ(engine.pump(400), 400u);
  std::ostringstream os(std::ios::binary);
  engine.save_checkpoint(os);
  return os.str();
}

// Loading `blob` into a fresh engine must throw IoError and leave the
// engine untouched (still at zero events, still able to run).
void expect_rejected(const Graph& g, const std::string& blob,
                     const std::string& label) {
  StreamEngine victim = make_engine(g, 999);
  std::istringstream is(blob, std::ios::binary);
  try {
    victim.load_checkpoint(is);
    ADD_FAILURE() << label << ": corrupt checkpoint loaded silently";
  } catch (const IoError&) {
    // Expected: structured rejection.
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": wrong exception type: " << e.what();
  }
  EXPECT_EQ(victim.events(), 0u) << label << ": failed load mutated state";
}

TEST(CheckpointCorruption, PristineBlobLoadsAndEveryTruncationIsRejected) {
  const Graph g = test_graph();
  const std::string blob = pristine_blob(g);
  ASSERT_GT(blob.size(), 24u);  // bigger than the trailer alone

  // Control: the unmutated blob restores the paused crawl.
  StreamEngine resumed = make_engine(g, 999);
  std::istringstream is(blob, std::ios::binary);
  resumed.load_checkpoint(is);
  EXPECT_EQ(resumed.events(), 400u);

  // A torn write can stop at any byte; every prefix must be rejected.
  for (std::size_t len = 0; len < blob.size(); ++len) {
    expect_rejected(g, blob.substr(0, len),
                    "truncated to " + std::to_string(len));
  }
}

TEST(CheckpointCorruption, EveryByteFlipIsRejected) {
  const Graph g = test_graph();
  const std::string blob = pristine_blob(g);
  // One flipped bit per byte position covers the magic, version, cursor
  // state, sink blobs, and all three trailer fields (length, CRC, magic).
  for (std::size_t i = 0; i < blob.size(); ++i) {
    std::string mutant = blob;
    mutant[i] = static_cast<char>(
        static_cast<unsigned char>(mutant[i]) ^ (1u << (i % 8)));
    expect_rejected(g, mutant, "bit flip at byte " + std::to_string(i));
  }
}

TEST(CheckpointCorruption, GarbageAndAppendedTailAreRejected) {
  const Graph g = test_graph();
  const std::string blob = pristine_blob(g);
  expect_rejected(g, std::string(blob.size(), '\x5a'), "uniform garbage");
  expect_rejected(g, blob + std::string(16, '\0'), "appended tail");
  // A file that is nothing but a valid-looking trailer magic has no body.
  expect_rejected(g, std::string("FRONTTR1FRONTTR1FRONTTR1"),
                  "trailer with no body");
}

TEST(CheckpointCorruption, TornFileOnDiskIsRejectedByLoadFile) {
  const Graph g = test_graph();
  const std::string blob = pristine_blob(g);
  const std::string path = ::testing::TempDir() + "torn_ckpt.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(),
              static_cast<std::streamsize>(blob.size() - 10));
  }
  StreamEngine victim = make_engine(g, 999);
  EXPECT_THROW(victim.load_checkpoint_file(path), IoError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace frontier
