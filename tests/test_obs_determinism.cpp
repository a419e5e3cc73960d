// Telemetry must observe, never participate: a crawl with
// CrawlInstrumentation (and a live exporter) attached must produce
// bit-identical sink state, RNG position, and checkpoint bytes to the
// same crawl with telemetry off — for every cursor kind.
#include "obs/crawl_metrics.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>

#include "graph/generators.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "stream/engine.hpp"
#include "stream/motif_sinks.hpp"
#include "stream/sampler_cursors.hpp"
#include "stream/sinks.hpp"

namespace frontier {
namespace {

Graph test_graph() {
  Rng rng(77);
  return barabasi_albert(150, 3, rng);
}

SinkSet make_sinks(const Graph& g) {
  SinkSet sinks;
  sinks.push_back(
      std::make_unique<DegreeDistributionSink>(g, DegreeKind::kSymmetric));
  sinks.push_back(std::make_unique<AssortativitySink>(g));
  sinks.push_back(std::make_unique<GraphMomentsSink>(g));
  sinks.push_back(std::make_unique<UniformDegreeSink>(g));
  sinks.push_back(std::make_unique<TriangleSink>(g));
  sinks.push_back(std::make_unique<ClusteringSink>(g));
  sinks.push_back(std::make_unique<MotifSink>(g));
  return sinks;
}

// Byte-exact serialization of everything downstream of the event stream:
// cursor state, RNG position, and every sink's accumulators.
std::string checkpoint_bytes(const StreamEngine& engine) {
  std::ostringstream out;
  engine.save_checkpoint(out);
  return out.str();
}

// Runs the same crawl twice — bare, and with instrumentation plus a live
// JSONL exporter pulsing after every pump — pausing mid-crawl to compare
// checkpoint bytes, then again at completion.
template <typename MakeCursor>
void check_bit_identical(const Graph& g, MakeCursor make_cursor,
                         std::uint64_t pause_after) {
  StreamEngine bare(make_cursor(), make_sinks(g));
  StreamEngine instrumented(make_cursor(), make_sinks(g));

  MetricsRegistry registry;  // local: isolated from other tests
  CrawlInstrumentation instr(registry, instrumented.cursor(),
                             instrumented.sinks());
  instrumented.set_instrumentation(&instr);
  const std::string jsonl = ::testing::TempDir() + "obs_determinism.jsonl";
  MetricsExporter exporter(registry, jsonl, /*interval_seconds=*/0.0);

  // Pump in deliberately ragged chunks so block boundaries differ from the
  // engine's internal block size.
  const std::uint64_t chunks[] = {1, pause_after, 97,
                                  std::uint64_t{1} << 62};
  std::uint64_t after_pause_bare = 0;
  std::uint64_t after_pause_instr = 0;
  for (const std::uint64_t chunk : chunks) {
    after_pause_bare = bare.pump(chunk);
    after_pause_instr = instrumented.pump(chunk);
    exporter.maybe_export();
    ASSERT_EQ(after_pause_bare, after_pause_instr);
    EXPECT_EQ(checkpoint_bytes(bare), checkpoint_bytes(instrumented));
  }
  ASSERT_TRUE(bare.finished());
  ASSERT_TRUE(instrumented.finished());
  EXPECT_EQ(bare.events(), instrumented.events());
  EXPECT_EQ(bare.cursor().rng().state(), instrumented.cursor().rng().state());
  EXPECT_EQ(checkpoint_bytes(bare), checkpoint_bytes(instrumented));

  // The telemetry side must have seen the whole crawl...
  EXPECT_EQ(instr.events(), instrumented.events());
  EXPECT_GT(instr.unique_vertices(), 0u);
  const MetricsSnapshot snap = registry.snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name == "stream.events_total") {
      EXPECT_EQ(value, instrumented.events());
    }
  }
  // ...and the exporter must have written one valid line per pump.
  exporter.export_now();
  const auto lines = read_metrics_jsonl(jsonl);
  EXPECT_EQ(lines.size(), 5u);  // one per pump + the final flush
  std::remove(jsonl.c_str());
}

TEST(ObsDeterminism, FrontierCursor) {
  const Graph g = test_graph();
  const FrontierCursor::Config cfg{.dimension = 6, .steps = 5000};
  check_bit_identical(
      g, [&] { return std::make_unique<FrontierCursor>(g, cfg, Rng(11)); },
      1234);
}

TEST(ObsDeterminism, SingleRwCursor) {
  const Graph g = test_graph();
  const SingleRwCursor::Config cfg{
      .steps = 4000, .burn_in = 300, .laziness = 0.2};
  check_bit_identical(
      g, [&] { return std::make_unique<SingleRwCursor>(g, cfg, Rng(12)); },
      150);
}

TEST(ObsDeterminism, MultipleRwCursor) {
  const Graph g = test_graph();
  const MultipleRwCursor::Config cfg{.num_walkers = 5,
                                        .steps_per_walker = 800};
  check_bit_identical(
      g, [&] { return std::make_unique<MultipleRwCursor>(g, cfg, Rng(13)); },
      2100);
}

TEST(ObsDeterminism, RwjCursor) {
  const Graph g = test_graph();
  const RwjCursor::Config cfg{
      .budget = 4000.0,
      .jump_probability = 0.1,
      .cost = {.jump_cost = 1.5, .hit_ratio = 0.8}};
  check_bit_identical(
      g, [&] { return std::make_unique<RwjCursor>(g, cfg, Rng(14)); }, 900);
}

TEST(ObsDeterminism, MetropolisCursor) {
  const Graph g = test_graph();
  const MetropolisCursor::Config cfg{.steps = 4000};
  check_bit_identical(
      g, [&] { return std::make_unique<MetropolisCursor>(g, cfg, Rng(15)); },
      1);
}

// Checkpoint byte accounting: the engine records the size of the image
// StreamCheckpoint wrote or read, one observation per call, whether the
// stream can seek or not.

/// A pipe-like buffer: writes append, reads consume what feed() gave it,
/// and seeking fails (std::streambuf's default seekoff/seekpos return
/// -1), so tellp()/tellg() through it read -1.
class UnseekableBuf : public std::streambuf {
 public:
  [[nodiscard]] const std::string& written() const noexcept { return out_; }
  void feed(std::string bytes) {
    in_ = std::move(bytes);
    setg(in_.data(), in_.data(), in_.data() + in_.size());
  }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      out_.push_back(traits_type::to_char_type(c));
    }
    return traits_type::not_eof(c);
  }

 private:
  std::string out_;
  std::string in_;
};

/// One save and one load, each by an instrumented engine on `registry`.
struct RoundTrip {
  HistogramSnapshot save_bytes;
  HistogramSnapshot load_bytes;
  std::string saved;     // the image the first engine wrote
  std::string restored;  // the second engine's checkpoint after loading
};

HistogramSnapshot histogram(const MetricsSnapshot& snap,
                            std::string_view name) {
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) return h;
  }
  ADD_FAILURE() << "histogram not registered: " << name;
  return {};
}

template <typename Save, typename Load>
RoundTrip checkpoint_round_trip(const Save& save, const Load& load) {
  const Graph g = test_graph();
  const FrontierCursor::Config cfg{.dimension = 4, .steps = 3000};
  const auto engine = [&] {
    return StreamEngine(std::make_unique<FrontierCursor>(g, cfg, Rng(21)),
                        make_sinks(g));
  };
  StreamEngine saver = engine();
  StreamEngine loader = engine();
  MetricsRegistry registry;
  CrawlInstrumentation save_instr(registry, saver.cursor(), saver.sinks());
  CrawlInstrumentation load_instr(registry, loader.cursor(), loader.sinks());
  saver.pump(1234);
  saver.set_instrumentation(&save_instr);
  loader.set_instrumentation(&load_instr);

  RoundTrip trip;
  trip.saved = save(saver);
  load(loader, trip.saved);
  const MetricsSnapshot snap = registry.snapshot();
  trip.save_bytes = histogram(snap, "stream.checkpoint_save_bytes");
  trip.load_bytes = histogram(snap, "stream.checkpoint_load_bytes");
  loader.set_instrumentation(nullptr);
  trip.restored = checkpoint_bytes(loader);
  return trip;
}

void expect_one_observation_of(const HistogramSnapshot& h,
                               std::size_t bytes) {
  EXPECT_EQ(h.count, 1u);
  EXPECT_EQ(h.sum, bytes);
}

TEST(ObsDeterminism, CheckpointBytesOnUnseekableStreams) {
  const RoundTrip trip = checkpoint_round_trip(
      [](const StreamEngine& e) {
        UnseekableBuf buf;
        std::ostream os(&buf);
        e.save_checkpoint(os);
        return buf.written();
      },
      [](StreamEngine& e, const std::string& image) {
        UnseekableBuf buf;
        buf.feed(image);
        std::istream is(&buf);
        e.load_checkpoint(is);
      });
  ASSERT_FALSE(trip.saved.empty());
  EXPECT_EQ(trip.restored, trip.saved);
  expect_one_observation_of(trip.save_bytes, trip.saved.size());
  expect_one_observation_of(trip.load_bytes, trip.saved.size());
}

TEST(ObsDeterminism, CheckpointBytesThroughFiles) {
  const std::string path = ::testing::TempDir() + "obs_bytes.ckpt";
  std::uintmax_t file_bytes = 0;
  const RoundTrip trip = checkpoint_round_trip(
      [&](const StreamEngine& e) {
        e.save_checkpoint_file(path);
        file_bytes = std::filesystem::file_size(path);
        std::ifstream in(path, std::ios::binary);
        std::ostringstream image;
        image << in.rdbuf();
        return image.str();
      },
      [&](StreamEngine& e, const std::string&) {
        e.load_checkpoint_file(path);
      });
  std::filesystem::remove(path);
  ASSERT_GT(file_bytes, 0u);
  EXPECT_EQ(trip.saved.size(), file_bytes);
  EXPECT_EQ(trip.restored, trip.saved);
  expect_one_observation_of(trip.save_bytes, file_bytes);
  expect_one_observation_of(trip.load_bytes, file_bytes);
}

// Attaching and detaching instrumentation mid-crawl must also leave the
// event stream untouched — the engine only ever adds observation around
// the identical cursor/sink calls.
TEST(ObsDeterminism, AttachDetachMidCrawl) {
  const Graph g = test_graph();
  const FrontierCursor::Config cfg{.dimension = 4, .steps = 3000};
  const auto cursor = [&] {
    return std::make_unique<FrontierCursor>(g, cfg, Rng(21));
  };

  StreamEngine bare(cursor(), make_sinks(g));
  bare.run_to_completion();

  StreamEngine toggled(cursor(), make_sinks(g));
  MetricsRegistry registry;
  CrawlInstrumentation instr(registry, toggled.cursor(), toggled.sinks());
  toggled.pump(500);                        // off
  toggled.set_instrumentation(&instr);      // on
  toggled.pump(500);
  toggled.set_instrumentation(nullptr);     // off again
  toggled.run_to_completion();
  EXPECT_EQ(checkpoint_bytes(bare), checkpoint_bytes(toggled));
  EXPECT_EQ(instr.events(), 500u);  // saw exactly the instrumented window
}

}  // namespace
}  // namespace frontier
