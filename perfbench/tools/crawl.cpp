// crawl: one offline Frontier Sampling crawl (m = 100, the default
// six-sink roster, one thread) over the seed's Barabási–Albert graph,
// loaded from its text edge list — what `frontier_cli stream` does.
//
// The timed run drives the engine as `frontier_cli stream --checkpoint
// --checkpoint-every` does: block pumps in the CLI's chunks, and a
// checkpoint file every kCheckpointEvery events.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "cli/load.hpp"
#include "obs/crawl_metrics.hpp"
#include "obs/metrics.hpp"
#include "stream/spec.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace frontier;

constexpr std::size_t kSetupReps = 5;
/// Layer sweep: engine blocks per slice.
constexpr std::size_t kBlocksPerSlice = 32;
/// frontier_cli stream's pump chunk, in events.
constexpr std::uint64_t kCliChunk = std::uint64_t{1} << 16;
constexpr std::uint64_t kWarmEvents = std::uint64_t{1} << 18;
/// On crawl's traced run, the per-layer self times must sum to the
/// untraced ns/event within this share of it.
constexpr double kAdditivityTolerance = 0.15;

[[nodiscard]] CrawlSpec crawl_spec(std::uint64_t seed) {
  CrawlSpec spec;
  spec.method = "fs";
  spec.budget = 1e15;  // never exhausted inside a run
  spec.dimension = 100;
  spec.seed = seed;
  return spec.normalized();
}

/// The crawl driven call by call: make_cursor + make_sinks (the two
/// halves of make_engine), stepped with next_batch and each sink's
/// ingest_block in pump()'s order, with a span around every call.
class TracedCrawl {
 public:
  TracedCrawl(const CrawlSpec& spec, const Graph& g, SpanLog& log,
              std::size_t block_capacity)
      : spec_(spec),
        graph_(g),
        cursor_(spec.make_cursor(g)),
        sinks_(spec.make_sinks(g)),
        block_(block_capacity),
        log_(log),
        pump_id_(log.name_id("stream.pump")),
        cursor_id_(log.name_id("stream.cursor.fs.next_batch")) {
    for (const auto& sink : sinks_) {
      sink_ids_.push_back(log.name_id("stream.sink." +
                                      std::string(sink->name()) +
                                      ".ingest_block"));
    }
  }

  /// One block of at most `want` events; returns the events taken.
  std::size_t step(std::size_t want) {
    log_.open(pump_id_);
    log_.open(cursor_id_);
    const std::size_t got = cursor_->next_batch(block_, want);
    log_.close();
    for (std::size_t i = 0; got > 0 && i < sinks_.size(); ++i) {
      log_.open(sink_ids_[i]);
      sinks_[i]->ingest_block(block_);
      log_.close();
    }
    log_.close();
    for (const std::uint8_t f : block_.flags()) {
      edge_rows_ += (f & StreamEventBlock::kHasEdge) != 0 ? 1 : 0;
    }
    events_ += got;
    counted_ += got;
    return got;
  }

  void advance_to(std::uint64_t events) {
    while (events_ < events) {
      const auto want =
          static_cast<std::size_t>(std::min<std::uint64_t>(
              events - events_, block_.capacity()));
      if (step(want) == 0) break;
    }
  }

  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  /// Events and edge-carrying rows since the last reset_counts().
  [[nodiscard]] std::uint64_t counted_events() const noexcept {
    return counted_;
  }
  [[nodiscard]] std::uint64_t edge_rows() const noexcept { return edge_rows_; }
  void reset_counts() noexcept {
    counted_ = 0;
    edge_rows_ = 0;
  }

  /// The estimates an engine built by make_engine renders after loading
  /// this crawl's checkpoint.
  [[nodiscard]] std::string estimates() const {
    std::stringstream ss;
    StreamCheckpoint::save(ss, *cursor_, sinks_, events_);
    const auto engine = spec_.make_engine(graph_);
    engine->load_checkpoint(ss);
    return estimates_fields(spec_, *engine);
  }

  [[nodiscard]] const SinkSet& sinks() const noexcept { return sinks_; }

 private:
  CrawlSpec spec_;
  const Graph& graph_;
  std::unique_ptr<SamplerCursor> cursor_;
  SinkSet sinks_;
  StreamEventBlock block_;
  SpanLog& log_;
  std::uint32_t pump_id_;
  std::uint32_t cursor_id_;
  std::vector<std::uint32_t> sink_ids_;
  std::uint64_t events_ = 0;
  std::uint64_t counted_ = 0;
  std::uint64_t edge_rows_ = 0;
};

/// Pumps `blocks` engine blocks; returns the wall nanoseconds taken.
std::uint64_t pump_blocks(StreamEngine& engine, std::size_t blocks) {
  const std::uint64_t t0 = now_ns();
  for (std::size_t b = 0; b < blocks; ++b) {
    engine.pump(default_block_capacity());
  }
  return now_ns() - t0;
}

}  // namespace

Report crawl_end_to_end(const Options& opt, const Inputs& in) {
  Report rep;
  const CrawlSpec spec = crawl_spec(opt.seed);

  std::optional<Graph> g;
  std::unique_ptr<StreamEngine> engine;
  std::vector<double> setup;
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    engine.reset();
    g.reset();
    const std::uint64_t t0 = now_ns();
    g.emplace(cli::load_graph(in.ba_txt, false));
    engine = spec.make_engine(*g);
    setup.push_back(seconds_since(t0));
  }

  // frontier_cli stream's loop: chunks of kCliChunk events and a checkpoint
  // file at every multiple of kCheckpointEvery. Each chunk is pumped one
  // engine block at a time (the same next_batch / ingest_block calls as
  // one pump of the chunk) so that every block's latency is a step sample.
  // A slice is one checkpoint interval: its chunks and its checkpoint.
  const std::string ckpt_path = opt.run_dir + "/crawl.ckpt";
  const std::uint64_t block = default_block_capacity();
  // Windows of 500: a 10 s window holds ~2500 block samples, so windows
  // of 1000 would leave each figure a mean of two windows, which one burst
  // of interference moves; five windows of 500 take a median.
  LatencyLog step_us(500);
  const auto run_interval = [&](bool timed) {
    const std::uint64_t target = engine->events() + kCheckpointEvery;
    while (engine->events() < target) {
      const std::uint64_t chunk_end =
          std::min(engine->events() + kCliChunk, target);
      while (engine->events() < chunk_end) {
        const std::uint64_t want =
            std::min(block, chunk_end - engine->events());
        const std::uint64_t t0 = now_ns();
        const std::uint64_t got = engine->pump(want);
        if (timed) step_us.add(static_cast<double>(now_ns() - t0) * 1e-3);
        rep.attempted();
        rep.check(got == want, "crawl: engine ran out of budget");
        if (got != want) return;
      }
    }
    engine->save_checkpoint_file(ckpt_path);
    rep.attempted();
  };

  run_interval(false);  // warm-up: caches, the first blocks, the file
  std::vector<double> rates;
  std::string fields_at_check;
  std::uint64_t check_events = 0;
  std::uint64_t last_ckpt_events = 0;
  const std::uint64_t start = now_ns();
  while (seconds_since(start) < opt.seconds ||
         step_us.count() < kMinLatencySamples) {
    const std::uint64_t slice_start = now_ns();
    run_interval(true);
    rates.push_back(static_cast<double>(kCheckpointEvery) /
                    seconds_since(slice_start));
    last_ckpt_events = engine->events();
    if (fields_at_check.empty()) {  // untimed: after the slice's clock
      check_events = engine->events();
      fields_at_check = estimates_fields(spec, *engine);
    }
  }
  const double rss = peak_rss_mib();
  std::cout << "crawl: timed window: " << step_us.count() << " blocks of "
            << block << " events, " << rates.size() << " checkpoints\n";

  // The last checkpoint file resumes the crawl: an engine restored from
  // it reaches the timed engine's events and estimates.
  const auto restored = spec.make_engine(*g);
  restored->load_checkpoint_file(ckpt_path);
  rep.check(restored->events() == last_ckpt_events,
            "crawl: checkpoint file holds the wrong event count");
  rep.check(estimates_fields(spec, *restored) ==
                estimates_fields(spec, *engine),
            "crawl: a resumed crawl's estimates differ from the timed run");

  // The traced call-by-call replay (another block size) reaches the same
  // estimates as the timed engine.
  SpanLog log(0);
  TracedCrawl replay(spec, *g, log, 1000);
  replay.advance_to(check_events);
  rep.check(replay.estimates() == fields_at_check,
            "crawl: traced replay estimates differ from the timed run");

  rep.metric("setup_s", median(setup), "s");
  rep.metric("events_per_s", median(rates), "1/s");
  rep.metric("peak_rss_mib", rss, "MiB");
  rep.metric("step_p50_us", step_us.p50(), "us");
  rep.metric("step_p90_us", step_us.p90(), "us");
  return rep;
}

Report crawl_layers(const Options& opt, const Inputs& in, double seconds,
                    bool main) {
  Report rep;
  const CrawlSpec spec = crawl_spec(opt.seed);

  std::optional<Graph> g;
  std::vector<double> load_s;
  for (std::size_t k = 0; k < (main ? 3u : 1u); ++k) {
    g.reset();
    const std::uint64_t t0 = now_ns();
    g.emplace(cli::load_graph(in.ba_txt, false));
    load_s.push_back(seconds_since(t0));
  }

  const auto engine = spec.make_engine(*g);
  MetricsRegistry registry;
  CrawlInstrumentation instr(registry, engine->cursor(), engine->sinks());
  SpanLog log(0);
  TracedCrawl traced(spec, *g, log, default_block_capacity());
  engine->pump(kWarmEvents);
  traced.advance_to(kWarmEvents);
  log.clear();
  traced.reset_counts();

  // Rounds interleave three slices so drift hits all of them alike:
  // untraced (A), CrawlInstrumentation attached (C), traced replica (B).
  // A and C each pump half a slice, so the engine and the replica stay at
  // equal event counts after every round.
  const std::size_t half = kBlocksPerSlice / 2;
  const double per_half =
      static_cast<double>(half * default_block_capacity());
  std::uint64_t off_ns = 0;
  std::uint64_t off_events = 0;
  std::vector<double> off_rates;
  std::vector<double> on_rates;
  std::vector<double> traced_rates;
  const std::uint64_t start = now_ns();
  while (seconds_since(start) < seconds) {
    const std::uint64_t a = pump_blocks(*engine, half);
    off_ns += a;
    off_events += half * default_block_capacity();
    off_rates.push_back(per_half * 1e9 / static_cast<double>(a));

    engine->set_instrumentation(&instr);
    const std::uint64_t c = pump_blocks(*engine, half);
    engine->set_instrumentation(nullptr);
    on_rates.push_back(per_half * 1e9 / static_cast<double>(c));

    const std::uint64_t t0 = now_ns();
    for (std::size_t b = 0; b < kBlocksPerSlice; ++b) {
      traced.step(default_block_capacity());
    }
    traced_rates.push_back(2.0 * per_half * 1e9 /
                           static_cast<double>(now_ns() - t0));
    rep.attempted(2 * kBlocksPerSlice);
  }

  const auto events = static_cast<double>(traced.counted_events());
  const auto per_event = [&](std::string_view name) {
    return static_cast<double>(log.total(name).self_ns()) / events;
  };
  const double untraced_ns =
      static_cast<double>(off_ns) / static_cast<double>(off_events);
  double attributed = per_event("stream.cursor.fs.next_batch");
  rep.metric("stream.cursor.fs.ns_per_event", attributed, "ns");
  rep.metric("stream.cursor.edges_per_event",
             static_cast<double>(traced.edge_rows()) / events, "ratio");
  for (const auto& sink : traced.sinks()) {
    const std::string name(sink->name());
    const double ns = per_event("stream.sink." + name + ".ingest_block");
    attributed += ns;
    rep.metric("stream.sink." + name + ".ns_per_event", ns, "ns");
  }
  rep.metric("stream.unattributed_ns_per_event", untraced_ns - attributed,
             "ns");
  // Checked on the crawl's own traced run only: the 1.5 s side sweep of
  // the other workloads' traced runs is too short to hold the tolerance.
  rep.check(!main || std::abs(attributed - untraced_ns) <=
                         kAdditivityTolerance * untraced_ns,
            "crawl: layer self times (" + std::to_string(attributed) +
                " ns/event) do not add up to the untraced " +
                std::to_string(untraced_ns) + " ns/event within " +
                std::to_string(kAdditivityTolerance));
  rep.metric("graph.edge_list_load_s", median(load_s), "s");
  rep.metric("obs.instrumentation_overhead_pct",
             (median(off_rates) / median(on_rates) - 1.0) * 100.0, "%");
  if (main) {
    rep.metric("trace.overhead_pct",
               (median(off_rates) / median(traced_rates) - 1.0) * 100.0,
               "%");
  }

  rep.check(engine->events() == traced.events() &&
                estimates_fields(spec, *engine) == traced.estimates(),
            "crawl: traced estimates differ from the untraced engine");
  write_spans(opt.run_dir + "/spans-crawl.jsonl", {&log});
  return rep;
}

}  // namespace perfbench
