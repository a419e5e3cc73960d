// frontier_cli — command-line front end to libfrontier.
//
//   frontier_cli summarize <edges.txt>
//       Exact characteristics: Table-1 columns, components, clustering,
//       assortativity.
//   frontier_cli sample <edges.txt> [--method fs|srw|mrw|mh|rwj]
//                [--budget N] [--dimension M] [--seed S]
//       Crawl the graph with the chosen sampler (the CrawlSpec cursor that
//       `stream` runs, drained into a materialized sample) and print
//       estimated characteristics next to the exact values.
//   frontier_cli generate --model ba|er|ws|gab [--n N] [--param P]
//                [--seed S] --out <edges.txt>
//       Write a synthetic graph as an edge list.
//   frontier_cli convert <in> <out>
//       Convert between text (.txt) and binary (.bin) formats by extension.
//       Binary output is the format-v2 snapshot (raw CSR arrays), which
//       later loads go on to memory-map zero-copy.
//   frontier_cli spectral <edges.txt>
//       Spectral gap / relaxation time of the RW kernel (graphs up to a few
//       thousand vertices).
//   frontier_cli bench-report <report.json>...
//       Validate machine-readable bench reports (stats/bench_report.hpp,
//       schema v1) and print a one-line summary per file. Any schema
//       violation exits nonzero naming the offending file and key — CI's
//       perf-smoke job gates on this.
//   frontier_cli stream <edges.txt> [--method fs|srw|mrw|mh|rwj]
//                [--budget N] [--dimension M] [--seed S] [--motifs]
//                [--checkpoint out.ckpt] [--resume in.ckpt]
//                [--checkpoint-every N] [--stop-after N]
//                [--estimates-json out.json]
//                [--metrics out.jsonl] [--metrics-every SEC] [--progress]
//       Crawl with the streaming engine (O(1)-in-budget memory): online
//       estimator sinks instead of a materialized sample, with optional
//       periodic checkpoints and pause/resume. The crawl itself is built
//       from a CrawlSpec (stream/spec.hpp) — the same construction path
//       the frontier_serve daemon uses, so a served session with the same
//       (method, budget, dimension, seed, motifs) tuple is bit-identical
//       to an offline run. --stop-after N pauses after the crawl's first
//       N events (writing --checkpoint if given); --estimates-json writes
//       the machine-readable estimates the serve `estimates` op returns.
//       --motifs adds the full 3-/4-vertex motif census sink (and its
//       exact baseline columns). --metrics streams schema-v1 telemetry
//       snapshots (obs/snapshot.hpp) to a JSONL file ("-" = stderr) every
//       --metrics-every seconds (default 1; 0 = every poll); --progress
//       traces live events/s, frontier size, revisit rate and estimate
//       drift to stderr. Telemetry observes from outside the sampling
//       loop: estimates, RNG stream and checkpoint bytes are bit-identical
//       with and without it (CI compares the checkpoints byte for byte).
//   frontier_cli metrics-summary <metrics.jsonl>...
//       Validate metrics JSONL files (every line must round-trip the
//       schema; truncated or garbage lines are rejected with their line
//       number) and print per-file aggregates from the last snapshot.
//
//   Every subcommand that loads a graph accepts --mmap: the input must be
//   a v2 .bin snapshot, which is served zero-copy from the page cache
//   (O(1) load time); loading fails instead of silently rebuilding.
//
//   Option parsing is declarative (cli/options.hpp): each subcommand owns
//   a CommandSpec, unknown flags and malformed or out-of-range values are
//   rejected with the flag's name and the generated usage block.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/frontier.hpp"

namespace {

using namespace frontier;

using cli::CommandSpec;
using cli::OptionSpec;
using cli::OptionType;
using cli::ParsedArgs;

// Shared option rows, spliced into each subcommand's table.
OptionSpec opt_mmap() {
  return {.name = "mmap",
          .type = OptionType::kFlag,
          .help = "require a zero-copy mmap load (.bin v2 snapshot)"};
}
OptionSpec opt_method(const char* values) {
  return {.name = "method",
          .type = OptionType::kString,
          .value_name = "M",
          .help = std::string("sampler: ") + values + " (default fs)"};
}
OptionSpec opt_budget() {
  return {.name = "budget",
          .type = OptionType::kDouble,
          .value_name = "B",
          .help = "total budgeted queries (default |V|/100)",
          .min_double = 0.0,
          .has_min_double = true,
          .exclusive_min = true};
}
OptionSpec opt_dimension() {
  return {.name = "dimension",
          .type = OptionType::kU64,
          .value_name = "M",
          .help = "walkers for fs/mrw (default 100)",
          .min_u64 = 1};
}
OptionSpec opt_seed() {
  return {.name = "seed",
          .type = OptionType::kU64,
          .value_name = "S",
          .help = "RNG seed (default 1)"};
}

/// Builds the crawl description shared by sample/stream: budget defaults
/// to |V|/100, the dimension clamp keeps the old CLI behavior (and its
/// stderr note). The returned spec is normalized() — ready for
/// make_cursor/make_engine.
CrawlSpec crawl_spec(const ParsedArgs& args, const Graph& g) {
  CrawlSpec spec;
  spec.method = args.get_string("method", "fs");
  spec.budget = args.get_double(
      "budget", static_cast<double>(g.num_vertices()) / 100.0);
  spec.dimension = static_cast<std::size_t>(args.get_u64("dimension", 100));
  spec.seed = args.get_u64("seed", 1);
  bool clamped = false;
  CrawlSpec out = spec.normalized(&clamped);
  if (clamped) {
    std::cerr << "note: dimension clamped to " << out.dimension
              << " so walkers keep at least half the budget for steps\n";
  }
  return out;
}

int cmd_summarize(const ParsedArgs& args) {
  const std::string& path = args.positional()[0];
  const Graph g = cli::load_graph(path, args.get_flag("mmap"));
  const GraphSummary s = summarize(g, path);
  const ComponentInfo comps = connected_components(g);

  TextTable table({"characteristic", "value"});
  table.add_row({"vertices", std::to_string(s.num_vertices)});
  table.add_row({"directed edges", std::to_string(s.num_directed_edges)});
  table.add_row({"avg symmetric degree", format_number(s.average_degree)});
  table.add_row({"max/avg degree (wmax)", format_number(s.wmax)});
  table.add_row({"components", std::to_string(comps.num_components())});
  table.add_row({"LCC size", std::to_string(s.lcc_size)});
  table.add_row({"bipartite", is_bipartite(g) ? "yes" : "no"});
  table.add_row({"assortativity", format_number(exact_assortativity(g))});
  table.add_row(
      {"global clustering", format_number(exact_global_clustering(g))});
  table.print(std::cout);
  return 0;
}

int cmd_sample(const ParsedArgs& args) {
  const Graph g =
      cli::load_graph(args.positional()[0], args.get_flag("mmap"));
  const CrawlSpec spec = crawl_spec(args, g);
  const SampleRecord rec = drain_cursor(*spec.make_cursor(g));

  std::cout << "method=" << spec.method << " budget=" << spec.budget
            << " sampled_edges=" << rec.edges.size() << "\n\n";
  TextTable table({"characteristic", "estimate", "exact"});
  if (spec.method == "mh") {
    table.add_row({"avg degree",
                   format_number(estimate_average_degree_uniform(
                       g, rec.vertices)),
                   format_number(g.average_degree())});
  } else {
    table.add_row({"avg degree",
                   format_number(estimate_average_degree(g, rec.edges)),
                   format_number(g.average_degree())});
    table.add_row({"assortativity",
                   format_number(estimate_assortativity(g, rec.edges)),
                   format_number(exact_assortativity(g))});
    table.add_row({"global clustering",
                   format_number(estimate_global_clustering(g, rec.edges)),
                   format_number(exact_global_clustering(g))});
  }
  table.print(std::cout);
  return 0;
}

int cmd_stream(const ParsedArgs& args) {
  const std::string metrics_path = args.get_path("metrics");
  const double metrics_every = args.get_double("metrics-every", 1.0);
  const bool want_progress = args.get_flag("progress");
  // Enable the library seams (graph-load telemetry) before the graph loads.
  if (!metrics_path.empty()) set_metrics_enabled(true);
  const Graph g =
      cli::load_graph(args.positional()[0], args.get_flag("mmap"));
  CrawlSpec spec = crawl_spec(args, g);
  spec.motifs = args.get_flag("motifs");

  const std::unique_ptr<StreamEngine> engine_ptr = spec.make_engine(g);
  StreamEngine& engine = *engine_ptr;
  const CrawlSpec::Roster sinks = CrawlSpec::roster(engine.sinks());

  // Telemetry rides outside the sampling loop (see obs/crawl_metrics.hpp):
  // attaching it never touches the RNG stream or the sink accumulators.
  std::unique_ptr<CrawlInstrumentation> instr;
  std::unique_ptr<MetricsExporter> exporter;
  if (!metrics_path.empty() || want_progress) {
    instr = std::make_unique<CrawlInstrumentation>(
        MetricsRegistry::global(), engine.cursor(), engine.sinks());
    engine.set_instrumentation(instr.get());
  }
  if (!metrics_path.empty()) {
    exporter = std::make_unique<MetricsExporter>(MetricsRegistry::global(),
                                                 metrics_path, metrics_every);
  }

  const std::string resume = args.get_path("resume");
  if (!resume.empty()) {
    engine.load_checkpoint_file(resume);
    std::cout << "resumed from " << resume << " at event " << engine.events()
              << "\n";
  }

  const std::string checkpoint = args.get_path("checkpoint");
  const std::uint64_t checkpoint_every = args.get_u64("checkpoint-every", 0);
  const std::uint64_t stop_after = args.get_u64("stop-after", 0);
  constexpr std::uint64_t kChunk = 1 << 16;
  std::uint64_t next_checkpoint =
      checkpoint_every == 0
          ? 0
          : (engine.events() / checkpoint_every + 1) * checkpoint_every;

  const std::uint64_t resumed_events = engine.events();
  const auto t0 = std::chrono::steady_clock::now();
  auto last_progress = t0;
  const double exact_deg = g.average_degree();
  while (!engine.finished() &&
         (stop_after == 0 || engine.events() < stop_after)) {
    std::uint64_t chunk = kChunk;
    if (next_checkpoint != 0 && !checkpoint.empty()) {
      chunk = std::min(chunk, next_checkpoint - engine.events());
    }
    if (stop_after != 0) {
      chunk = std::min(chunk, stop_after - engine.events());
    }
    engine.pump(chunk);
    if (next_checkpoint != 0 && !checkpoint.empty() &&
        engine.events() >= next_checkpoint) {
      engine.save_checkpoint_file(checkpoint);
      next_checkpoint += checkpoint_every;
    }
    if (exporter) exporter->maybe_export();
    if (want_progress) {
      const auto now = std::chrono::steady_clock::now();
      if (std::chrono::duration<double>(now - last_progress).count() >= 1.0) {
        last_progress = now;
        const double run_seconds =
            std::chrono::duration<double>(now - t0).count();
        const double rate =
            static_cast<double>(engine.events() - resumed_events) /
            std::max(run_seconds, 1e-9);
        const double est_deg = spec.method == "mh"
                                   ? sinks.uniform_degree->value()
                                   : sinks.moments->average_degree();
        const double drift =
            exact_deg > 0.0 ? (est_deg - exact_deg) / exact_deg : 0.0;
        std::cerr << "progress: events=" << engine.events() << " ("
                  << format_number(rate) << " events/s) walkers="
                  << engine.cursor().active_walkers() << " revisit_rate="
                  << format_number(instr->revisit_rate())
                  << " avg_deg_drift=" << format_number(100.0 * drift)
                  << "%\n";
      }
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  if (stop_after != 0 && !engine.finished()) {
    std::cout << "stopped after " << engine.events() << " events\n";
  }
  if (!checkpoint.empty()) {
    engine.save_checkpoint_file(checkpoint);
    std::cout << "checkpoint written to " << checkpoint << "\n";
  }
  if (exporter) {
    exporter->export_now();
    if (metrics_path != "-") {
      std::cout << "metrics written to " << metrics_path << " ("
                << exporter->lines_written() << " snapshots)\n";
    }
  }
  // The same renderer the serve `estimates` op uses — byte-identical for
  // bit-identical engine states, which is what CI's serve-smoke cmp's.
  const std::string estimates_json = args.get_path("estimates-json");
  if (!estimates_json.empty()) {
    // Durable replace: the crash harness cmp's this file against served
    // runs, so it must never be observable half-written.
    std::string body = "{";
    body += estimates_fields(spec, engine);
    body += "}\n";
    durable_write_file(estimates_json, body);
    std::cout << "estimates written to " << estimates_json << "\n";
  }

  std::cout << "method=" << spec.method << " budget=" << spec.budget
            << " events=" << engine.events()
            << " cost=" << engine.cursor().cost() << " ("
            << format_number(
                   static_cast<double>(engine.events() - resumed_events) /
                   std::max(elapsed.count(), 1e-9))
            << " events/s this run)\n\n";
  TextTable table({"characteristic", "estimate", "exact"});
  if (spec.method == "mh") {
    table.add_row({"avg degree",
                   format_number(sinks.uniform_degree->value()),
                   format_number(g.average_degree())});
  } else {
    table.add_row({"avg degree",
                   format_number(sinks.moments->average_degree()),
                   format_number(g.average_degree())});
    table.add_row(
        {"volume",
         format_number(
             sinks.moments->volume(static_cast<double>(g.num_vertices()))),
         format_number(static_cast<double>(g.volume()))});
    table.add_row({"assortativity",
                   format_number(sinks.assortativity->value()),
                   format_number(exact_assortativity(g))});
    const double vol = static_cast<double>(g.volume());
    table.add_row(
        {"triangles", format_number(sinks.triangles->triangle_count(vol)),
         format_number(static_cast<double>(exact_triangle_count(g)))});
    table.add_row({"transitivity",
                   format_number(sinks.triangles->transitivity()),
                   format_number(exact_transitivity(g))});
    table.add_row({"clustering",
                   format_number(sinks.clustering->global_clustering()),
                   format_number(exact_global_clustering(g))});
    if (sinks.motifs != nullptr) {
      const MotifEstimate est = sinks.motifs->estimate(vol);
      const MotifCounts want = exact_motif_counts(g);
      const auto row = [&](const char* label, double e, std::uint64_t w) {
        table.add_row({label, format_number(e),
                       format_number(static_cast<double>(w))});
      };
      row("wedge", est.wedge, want.wedge);
      row("path4", est.path4, want.path4);
      row("claw", est.claw, want.claw);
      row("cycle4", est.cycle4, want.cycle4);
      row("paw", est.paw, want.paw);
      row("diamond", est.diamond, want.diamond);
      row("clique4", est.clique4, want.clique4);
    }
  }
  table.print(std::cout);
  return 0;
}

int cmd_generate(const ParsedArgs& args) {
  const std::string model = args.get_string("model", "ba");
  const auto n = static_cast<std::size_t>(args.get_u64("n", 10000));
  const double param = args.get_double("param", 3);
  const std::string out = args.get_path("out");
  if (out.empty()) {
    std::cerr << "generate: --out <path> is required\n";
    return 2;
  }
  const std::uint64_t seed = args.get_u64("seed", 1);
  Rng rng(seed);
  Graph g;
  if (model == "ba") {
    g = barabasi_albert(n, static_cast<std::size_t>(param), rng);
  } else if (model == "er") {
    g = erdos_renyi_gnp(n, param / static_cast<double>(n), rng);
  } else if (model == "ws") {
    g = watts_strogatz(n, static_cast<std::size_t>(param), 0.1, rng);
  } else if (model == "gab") {
    g = make_gab(n / 2, seed).graph;
  } else {
    std::cerr << "unknown model: " << model << "\n";
    return 2;
  }
  cli::save_graph(g, out);
  std::cout << "wrote " << g.summary() << " to " << out << "\n";
  return 0;
}

int cmd_convert(const ParsedArgs& args) {
  const Graph g =
      cli::load_graph(args.positional()[0], args.get_flag("mmap"));
  cli::save_graph(g, args.positional()[1]);
  std::cout << "converted " << g.summary() << "\n";
  return 0;
}

int cmd_spectral(const ParsedArgs& args) {
  Graph g = cli::load_graph(args.positional()[0], args.get_flag("mmap"));
  if (!is_connected(g)) {
    std::cout << "graph is disconnected; analyzing the LCC\n";
    g = largest_connected_component(g).graph;
  }
  if (g.num_vertices() > 20000) {
    std::cerr << "spectral: graph too large (> 20000 vertices in LCC)\n";
    return 2;
  }
  const SpectralInfo s = spectral_gap(g);
  TextTable table({"quantity", "value"});
  table.add_row({"lambda2", format_number(s.lambda2)});
  table.add_row({"spectral gap", format_number(s.spectral_gap)});
  table.add_row({"relaxation time", format_number(s.relaxation_time)});
  table.add_row(
      {"mixing time bound (eps=1/4)",
       format_number(mixing_time_bound(g, s))});
  table.print(std::cout);
  return 0;
}

int cmd_bench_report(const ParsedArgs& args) {
  TextTable table({"file", "bench", "version", "wall s", "metrics",
                   "fingerprint"});
  for (const std::string& path : args.positional()) {
    BenchReport report;
    try {
      report = BenchReport::read_file(path);
    } catch (const BenchReportError& e) {
      std::cerr << path << ": " << e.what() << "\n";
      return 1;
    }
    char fp[32];
    std::snprintf(fp, sizeof(fp), "0x%016llx",
                  static_cast<unsigned long long>(
                      report.config_fingerprint()));
    table.add_row({path, report.name, report.library_version,
                   format_number(report.wall_time_seconds),
                   std::to_string(report.metrics.size()), fp});
  }
  table.print(std::cout);
  std::cout << args.positional().size() << " valid bench report"
            << (args.positional().size() == 1 ? "" : "s") << "\n";
  return 0;
}

int cmd_metrics_summary(const ParsedArgs& args) {
  for (const std::string& path : args.positional()) {
    std::vector<MetricsSnapshot> snapshots;
    try {
      snapshots = read_metrics_jsonl(path);
    } catch (const MetricsError& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }
    std::cout << path << ": " << snapshots.size() << " snapshot"
              << (snapshots.size() == 1 ? "" : "s");
    if (snapshots.empty()) {
      std::cout << "\n";
      continue;
    }
    // Counters and histograms are cumulative, so the last snapshot is the
    // whole run; earlier lines only add the time axis.
    const MetricsSnapshot& last = snapshots.back();
    std::cout << " over " << format_number(last.elapsed_seconds)
              << " s, peak_rss="
              << format_number(static_cast<double>(last.peak_rss_bytes) /
                               (1024.0 * 1024.0))
              << " MiB, page_faults=" << last.minor_page_faults << "/"
              << last.major_page_faults << " (minor/major)\n";
    TextTable table({"metric", "kind", "value", "count", "min", "max"});
    for (const auto& [name, value] : last.counters) {
      table.add_row({name, "counter", std::to_string(value), "", "", ""});
    }
    for (const auto& [name, value] : last.gauges) {
      table.add_row({name, "gauge", format_number(value), "", "", ""});
    }
    for (const auto& [name, h] : last.histograms) {
      const double mean =
          h.count == 0 ? 0.0
                       : static_cast<double>(h.sum) /
                             static_cast<double>(h.count);
      table.add_row({name, "histogram", format_number(mean),
                     std::to_string(h.count),
                     h.count == 0 ? "" : std::to_string(h.min),
                     h.count == 0 ? "" : std::to_string(h.max)});
    }
    table.print(std::cout);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Subcommand registry: the declared spec is both the parser and the docs.

struct Subcommand {
  CommandSpec spec;
  int (*run)(const ParsedArgs&) = nullptr;
};

std::vector<Subcommand> subcommands() {
  std::vector<Subcommand> cmds;
  cmds.push_back(
      {{.program = "frontier_cli",
        .command = "summarize",
        .summary = "exact graph characteristics",
        .positionals = {{.name = "edges.txt"}},
        .options = {opt_mmap()}},
       &cmd_summarize});
  cmds.push_back(
      {{.program = "frontier_cli",
        .command = "sample",
        .summary = "crawl and print estimate-vs-exact characteristics",
        .positionals = {{.name = "edges.txt"}},
        .options = {opt_method("fs|srw|mrw|mh|rwj"), opt_budget(),
                    opt_dimension(), opt_seed(), opt_mmap()}},
       &cmd_sample});
  cmds.push_back(
      {{.program = "frontier_cli",
        .command = "stream",
        .summary = "streaming crawl with online sinks, checkpoint/resume",
        .positionals = {{.name = "edges.txt"}},
        .options =
            {opt_method("fs|srw|mrw|mh|rwj"), opt_budget(), opt_dimension(),
             opt_seed(),
             {.name = "motifs",
              .type = OptionType::kFlag,
              .help = "add the 3-/4-vertex motif census sink"},
             {.name = "checkpoint",
              .type = OptionType::kPath,
              .value_name = "FILE",
              .help = "write a checkpoint at the end (and periodically)"},
             {.name = "resume",
              .type = OptionType::kPath,
              .value_name = "FILE",
              .help = "resume from a checkpoint before crawling"},
             {.name = "checkpoint-every",
              .type = OptionType::kU64,
              .value_name = "N",
              .help = "checkpoint every N events (requires --checkpoint)",
              .min_u64 = 1},
             {.name = "stop-after",
              .type = OptionType::kU64,
              .value_name = "N",
              .help = "pause once the crawl reaches N total events",
              .min_u64 = 1},
             {.name = "estimates-json",
              .type = OptionType::kPath,
              .value_name = "FILE",
              .help = "write machine-readable estimates (serve schema)"},
             {.name = "metrics",
              .type = OptionType::kPath,
              .value_name = "FILE",
              .help = "stream telemetry snapshots to a JSONL file, - = stderr"},
             {.name = "metrics-every",
              .type = OptionType::kDouble,
              .value_name = "SEC",
              .help = "seconds between snapshots (default 1, 0 = every poll)",
              .min_double = 0.0,
              .has_min_double = true},
             {.name = "progress",
              .type = OptionType::kFlag,
              .help = "trace live crawl progress to stderr"},
             opt_mmap()}},
       &cmd_stream});
  cmds.push_back(
      {{.program = "frontier_cli",
        .command = "generate",
        .summary = "write a synthetic graph",
        .options = {{.name = "model",
                     .type = OptionType::kString,
                     .value_name = "M",
                     .help = "ba|er|ws|gab (default ba)"},
                    {.name = "n",
                     .type = OptionType::kU64,
                     .value_name = "N",
                     .help = "vertices (default 10000)",
                     .min_u64 = 1},
                    {.name = "param",
                     .type = OptionType::kDouble,
                     .value_name = "P",
                     .help = "model parameter (default 3)"},
                    opt_seed(),
                    {.name = "out",
                     .type = OptionType::kPath,
                     .value_name = "FILE",
                     .help = "output path (required)"}}},
       &cmd_generate});
  cmds.push_back({{.program = "frontier_cli",
                   .command = "convert",
                   .summary = "convert between .txt and .bin by extension",
                   .positionals = {{.name = "in"}, {.name = "out"}},
                   .options = {opt_mmap()}},
                  &cmd_convert});
  cmds.push_back({{.program = "frontier_cli",
                   .command = "spectral",
                   .summary = "spectral gap of the RW kernel",
                   .positionals = {{.name = "edges.txt"}},
                   .options = {opt_mmap()}},
                  &cmd_spectral});
  cmds.push_back({{.program = "frontier_cli",
                   .command = "bench-report",
                   .summary = "validate bench reports (schema v1)",
                   .positionals = {{.name = "report.json"}},
                   .variadic_positionals = true},
                  &cmd_bench_report});
  cmds.push_back({{.program = "frontier_cli",
                   .command = "metrics-summary",
                   .summary = "validate and summarize metrics JSONL files",
                   .positionals = {{.name = "metrics.jsonl"}},
                   .variadic_positionals = true},
                  &cmd_metrics_summary});
  return cmds;
}

void usage() {
  std::cerr << "frontier_cli "
               "<summarize|sample|stream|generate|convert|spectral|"
               "bench-report|metrics-summary> "
               "[args]\n(see the header comment of tools/frontier_cli.cpp "
               "or README.md)\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    for (const Subcommand& sub : subcommands()) {
      if (sub.spec.command == cmd) {
        return sub.run(sub.spec.parse(argc, argv, 2));
      }
    }
  } catch (const IoError& e) {
    // Missing/corrupt input files and broken checkpoints: report and exit
    // nonzero instead of aborting with an uncaught exception.
    std::cerr << "io error: " << e.what() << "\n";
    return 1;
  } catch (const std::invalid_argument& e) {
    std::cerr << "bad argument: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  usage();
  return 2;
}
