// replicate: the paper's §6 / Fig. 10 Monte-Carlo on G_AB — FS (m = 100),
// SingleRW and MultipleRW (m = 100) at budget |V|/10, each run drained
// through run_into and folded by the batch degree estimator into an
// MseAccumulator, fanned over ReplicationRunner's workers (at most nproc).
//
// One batch replicates every method kRunsPerMethod times from the same
// seed, so every batch yields the same result fingerprint. The "step" is
// one run.
#include <algorithm>
#include <functional>
#include <iostream>
#include <map>
#include <optional>

#include "cli/load.hpp"
#include "estimators/degree_distribution.hpp"
#include "experiments/replication_runner.hpp"
#include "graph/metrics.hpp"
#include "sampling/budget.hpp"
#include "sampling/frontier_sampler.hpp"
#include "sampling/multiple_rw.hpp"
#include "sampling/single_rw.hpp"
#include "stats/accumulators.hpp"
#include "stats/error_metrics.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace frontier;

constexpr std::size_t kSetupReps = 41;
constexpr std::size_t kRunsPerMethod = 1024;
constexpr std::size_t kDimension = 100;

/// The loaded graph, its exact CCDF and the three samplers.
struct Experiment {
  explicit Experiment(const std::string& path)
      : graph(cli::load_graph(path, false)),
        truth(ccdf_from_pdf(
            degree_distribution(graph, DegreeKind::kSymmetric))),
        budget(static_cast<double>(graph.num_vertices()) / 10.0),
        fs(graph, {.dimension = kDimension,
                   .steps = frontier_steps(budget, kDimension, 1.0)}),
        srw(graph, {.steps = static_cast<std::uint64_t>(budget) - 1}),
        mrw(graph, {.num_walkers = kDimension,
                    .steps_per_walker = multiple_rw_steps_per_walker(
                        budget, kDimension, 1.0)}),
        display(log_spaced_degrees(
            static_cast<std::uint32_t>(truth.size() - 1))) {}

  Graph graph;
  std::vector<double> truth;
  double budget;
  FrontierSampler fs;
  SingleRandomWalk srw;
  MultipleRandomWalks mrw;
  std::vector<std::uint32_t> display;
};

struct Method {
  std::string name;  ///< span/metric key: fs | srw | mrw
  std::function<const SampleRecord&(SampleArena&, Rng&)> run;
};

std::vector<Method> methods(const Experiment& x) {
  return {
      {"fs", [&x](SampleArena& a, Rng& r) -> const SampleRecord& {
         return x.fs.run_into(a, r);
       }},
      {"srw", [&x](SampleArena& a, Rng& r) -> const SampleRecord& {
         return x.srw.run_into(a, r);
       }},
      {"mrw", [&x](SampleArena& a, Rng& r) -> const SampleRecord& {
         return x.mrw.run_into(a, r);
       }},
  };
}

/// Per-run timestamps, recorded by the body into its run's own slot.
struct RunTiming {
  std::uint64_t start = 0;
  std::uint64_t sampled = 0;  ///< run_into returned
  std::uint64_t end = 0;
  std::uint64_t edges = 0;
};

/// What one batch measured.
struct Batch {
  std::uint64_t events = 0;
  std::uint64_t wall_ns = 0;  ///< inside map_reduce, all methods
  std::vector<double> run_us;
  std::vector<double> mean_nmse;  ///< per method
  std::uint64_t fingerprint = 0;
};

/// The traced view of batches: one span log per worker lane, rebuilt
/// from the run slots, plus the fold spans of the calling thread. Runs are
/// assigned to lanes by start time (a run joins the first lane that is
/// free), so each lane's spans nest like one worker thread's.
struct Trace {
  SpanLog fold_log{0};
  std::vector<std::unique_ptr<SpanLog>> lanes;
  std::vector<std::uint64_t> lane_free_at;
  std::uint64_t body_ns = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t runs = 0;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
      sample_ns_edges;  // method -> (run_into ns, edges)
  std::uint64_t estimator_ns = 0;
  std::uint64_t estimator_edges = 0;

  SpanLog& lane_for(const RunTiming& t) {
    std::size_t i = 0;
    while (i < lanes.size() && lane_free_at[i] > t.start) ++i;
    if (i == lanes.size()) {
      lanes.push_back(
          std::make_unique<SpanLog>(static_cast<std::uint32_t>(i + 1)));
      lane_free_at.push_back(0);
    }
    lane_free_at[i] = t.end;
    return *lanes[i];
  }
};

Batch run_batch(const Experiment& x, const ReplicationRunner& runner,
                Trace* trace) {
  Batch b;
  std::vector<RunTiming> slots(kRunsPerMethod);
  std::vector<double> curves;
  const std::uint32_t fold_id =
      trace != nullptr ? trace->fold_log.name_id("stats.fold") : 0;
  for (const Method& m : methods(x)) {
    const std::uint64_t t0 = now_ns();
    MseAccumulator acc = runner.map_reduce(
        MseAccumulator(x.truth),
        [&](std::size_t r, Rng& rng, SampleArena& arena) {
          RunTiming& t = slots[r];
          t.start = now_ns();
          const SampleRecord& rec = m.run(arena, rng);
          t.sampled = now_ns();
          std::vector<double> est = ccdf_from_pdf(estimate_degree_distribution(
              x.graph, rec.edges, DegreeKind::kSymmetric));
          t.end = now_ns();
          t.edges = rec.edges.size();
          return est;
        },
        [&](MseAccumulator& dst, std::vector<double>&& est) {
          if (trace != nullptr) trace->fold_log.open(fold_id);
          dst.add_run(est);
          if (trace != nullptr) trace->fold_log.close();
        });
    const std::uint64_t wall = now_ns() - t0;
    b.wall_ns += wall;

    for (const RunTiming& t : slots) {
      b.events += t.edges;
      b.run_us.push_back(static_cast<double>(t.end - t.start) * 1e-3);
    }
    if (trace != nullptr) {
      trace->wall_ns += wall;
      std::vector<const RunTiming*> order;
      for (const RunTiming& t : slots) order.push_back(&t);
      std::sort(order.begin(), order.end(),
                [](const RunTiming* a, const RunTiming* c) {
                  return a->start < c->start;
                });
      auto& [sample_ns, sample_edges] = trace->sample_ns_edges[m.name];
      for (const RunTiming* t : order) {
        SpanLog& log = trace->lane_for(*t);
        log.open_at(log.name_id("experiments.run"), t->start);
        log.open_at(log.name_id("sampling." + m.name + ".run_into"),
                    t->start);
        log.close_at(t->sampled);
        log.open_at(log.name_id("estimators.degree"), t->sampled);
        log.close_at(t->end);
        log.close_at(t->end);
        trace->body_ns += t->end - t->start;
        trace->runs += 1;
        sample_ns += t->sampled - t->start;
        sample_edges += t->edges;
        trace->estimator_ns += t->end - t->sampled;
        trace->estimator_edges += t->edges;
      }
    }

    // The NMSE curve and its summary off the accumulator.
    const std::vector<double> curve = acc.normalized_rmse();
    std::vector<double> at_display;
    for (std::uint32_t d : x.display) {
      if (d < curve.size()) at_display.push_back(curve[d]);
    }
    b.mean_nmse.push_back(geometric_mean_positive(at_display));
    curves.insert(curves.end(), curve.begin(), curve.end());
  }
  b.fingerprint = fingerprint(curves);
  return b;
}

double batch_rate(const Batch& b) {
  return static_cast<double>(b.events) * 1e9 / static_cast<double>(b.wall_ns);
}

}  // namespace

Report replicate_end_to_end(const Options& opt, const Inputs& in) {
  Report rep;
  std::optional<Experiment> x;
  std::vector<double> setup;
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    x.reset();
    const std::uint64_t t0 = now_ns();
    x.emplace(in.gab_txt);
    setup.push_back(seconds_since(t0));
  }
  const ReplicationRunner runner(kRunsPerMethod, opt.seed, opt.threads);

  (void)run_batch(*x, runner, nullptr);  // warm-up
  std::vector<double> rates;
  LatencyLog run_us(1000);
  std::optional<Batch> first;
  const std::uint64_t start = now_ns();
  while (seconds_since(start) < opt.seconds || rates.size() < 2) {
    Batch b = run_batch(*x, runner, nullptr);
    rep.attempted(3 * kRunsPerMethod + 3);
    rates.push_back(batch_rate(b));
    for (const double us : b.run_us) run_us.add(us);
    if (!first) {
      first = std::move(b);
    } else {
      rep.check(b.fingerprint == first->fingerprint,
                "replicate: batch fingerprint changed between batches");
    }
  }
  const double rss = peak_rss_mib();

  Trace trace;
  const Batch traced = run_batch(*x, runner, &trace);
  rep.check(traced.fingerprint == first->fingerprint,
            "replicate: traced fingerprint differs from the timed run");
  // Fig. 10 ordering: FS below SingleRW on G_AB.
  std::cout << "replicate: mean NMSE of the degree CCDF over " << kRunsPerMethod
            << " runs: FS " << first->mean_nmse[0] << ", SingleRW "
            << first->mean_nmse[1] << ", MultipleRW " << first->mean_nmse[2]
            << " (fingerprint " << first->fingerprint << ")\n";

  rep.metric("setup_s", median(setup), "s");
  rep.metric("events_per_s", median(rates), "1/s");
  rep.metric("peak_rss_mib", rss, "MiB");
  rep.metric("step_p50_us", run_us.p50(), "us");
  rep.metric("step_p90_us", run_us.p90(), "us");
  return rep;
}

Report replicate_layers(const Options& opt, const Inputs& in, double seconds,
                        bool main) {
  Report rep;
  const Experiment x(in.gab_txt);
  const ReplicationRunner runner(kRunsPerMethod, opt.seed, opt.threads);

  const Batch reference = run_batch(x, runner, nullptr);
  Trace trace;
  std::vector<double> rate_off;
  std::vector<double> rate_on;
  const std::uint64_t start = now_ns();
  while (seconds_since(start) < seconds || rate_on.size() < 2) {
    rate_off.push_back(
        batch_rate(run_batch(x, runner, nullptr)));
    const Batch b = run_batch(x, runner, &trace);
    rate_on.push_back(batch_rate(b));
    rep.attempted(2 * (3 * kRunsPerMethod + 3));
    rep.check(b.fingerprint == reference.fingerprint,
              "replicate: traced fingerprint differs from the untraced run");
  }

  for (const auto& [name, ns_edges] : trace.sample_ns_edges) {
    rep.metric("sampling." + name + ".ns_per_step",
               static_cast<double>(ns_edges.first) /
                   static_cast<double>(ns_edges.second),
               "ns");
  }
  rep.metric("estimators.degree.ns_per_edge",
             static_cast<double>(trace.estimator_ns) /
                 static_cast<double>(trace.estimator_edges),
             "ns");
  rep.metric("stats.fold_ns_per_run",
             static_cast<double>(trace.fold_log.total("stats.fold").total_ns) /
                 static_cast<double>(trace.runs),
             "ns");
  rep.metric("experiments.runner.busy_share",
             static_cast<double>(trace.body_ns) /
                 (static_cast<double>(trace.wall_ns) *
                  static_cast<double>(runner.workers())),
             "ratio");
  if (main) {
    rep.metric("trace.overhead_pct",
               (median(rate_off) / median(rate_on) - 1.0) * 100.0, "%");
  }

  std::vector<const SpanLog*> logs{&trace.fold_log};
  for (const auto& lane : trace.lanes) logs.push_back(lane.get());
  write_spans(opt.run_dir + "/spans-replicate.jsonl", logs);
  return rep;
}

}  // namespace perfbench
