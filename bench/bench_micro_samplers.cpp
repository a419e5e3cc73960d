// Microbenchmarks (google-benchmark): sampler step throughput, FS across
// frontier sizes m, and distributed FS (Section 5.3). How to run the
// benches and read their reports: docs/BENCHMARKS.md.
#include <benchmark/benchmark.h>

#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace frontier;

const Graph& bench_graph() {
  static const Graph g = [] {
    Rng rng(42);
    return barabasi_albert(50000, 5, rng);
  }();
  return g;
}

void BM_SingleRandomWalk(benchmark::State& state) {
  const Graph& g = bench_graph();
  const auto steps = static_cast<std::uint64_t>(state.range(0));
  const SingleRandomWalk walker(g, {.steps = steps});
  Rng rng(1);
  SampleArena arena;
  for (auto _ : state) {
    benchmark::DoNotOptimize(walker.run_into(arena, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_SingleRandomWalk)->Arg(1000)->Arg(10000);

void BM_MetropolisHastings(benchmark::State& state) {
  const Graph& g = bench_graph();
  const auto steps = static_cast<std::uint64_t>(state.range(0));
  const MetropolisHastingsWalk walker(g, {.steps = steps});
  Rng rng(2);
  SampleArena arena;
  for (auto _ : state) {
    benchmark::DoNotOptimize(walker.run_into(arena, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_MetropolisHastings)->Arg(10000);

void BM_MultipleRw(benchmark::State& state) {
  const Graph& g = bench_graph();
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::uint64_t steps = 10000;
  const MultipleRandomWalks mrw(
      g, {.num_walkers = m, .steps_per_walker = steps / m});
  Rng rng(9);
  SampleArena arena;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mrw.run_into(arena, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_MultipleRw)->Arg(10)->Arg(100);

void BM_FrontierTree(benchmark::State& state) {
  const Graph& g = bench_graph();
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::uint64_t steps = 10000;
  const FrontierSampler fs(g, {.dimension = m, .steps = steps});
  Rng rng(3);
  SampleArena arena;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs.run_into(arena, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_FrontierTree)->Arg(4)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ParallelFs(benchmark::State& state) {
  const Graph& g = bench_graph();
  const auto m = static_cast<std::size_t>(state.range(0));
  const ParallelFrontierSampler pfs(
      g, {.dimension = m,
          .time_horizon = time_horizon_for_jumps(g, m, 10000.0),
          .threads = 1});
  std::uint64_t seed = 5;
  std::int64_t edges = 0;
  for (auto _ : state) {
    const SampleRecord rec = pfs.run(seed++);
    edges += static_cast<std::int64_t>(rec.edges.size());
    benchmark::DoNotOptimize(rec);
  }
  state.SetItemsProcessed(edges);
}
BENCHMARK(BM_ParallelFs)->Arg(64)->Arg(1024);

void BM_RandomEdgeSampler(benchmark::State& state) {
  const Graph& g = bench_graph();
  const RandomEdgeSampler re(g, {.budget = 20000.0});
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(re.run(rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_RandomEdgeSampler);

void BM_DegreeDistributionEstimator(benchmark::State& state) {
  const Graph& g = bench_graph();
  const SingleRandomWalk walker(g, {.steps = 100000});
  Rng rng(7);
  const SampleRecord rec = walker.run(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimate_degree_distribution(g, rec.edges, DegreeKind::kSymmetric));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100000);
}
BENCHMARK(BM_DegreeDistributionEstimator);

void BM_GraphBuild(benchmark::State& state) {
  Rng rng(8);
  for (auto _ : state) {
    Rng local = rng.split_stream(static_cast<std::uint64_t>(state.iterations()));
    benchmark::DoNotOptimize(barabasi_albert(10000, 3, local));
  }
}
BENCHMARK(BM_GraphBuild);

/// Deterministic result fingerprint. Timings vary run to run, so the
/// fingerprint hashes fixed-seed sampler *outputs* instead — one short
/// run per sampler family benchmarked above, folding every sampled edge,
/// start vertex and the final cost. It must be invariant across
/// FS_THREADS and FS_BLOCK (the samplers' drain path goes through
/// StreamEventBlock), which is exactly what CI's perf-smoke gate checks.
double deterministic_fingerprint() {
  const Graph& g = bench_graph();
  std::uint64_t h = kFnv1aOffsetBasis;
  const auto absorb = [&h](const SampleRecord& rec) {
    for (const Edge& e : rec.edges) {
      h = fnv1a_u64(h, e.u);
      h = fnv1a_u64(h, e.v);
    }
    for (const VertexId s : rec.starts) h = fnv1a_u64(h, s);
    h = fnv1a_u64(h, std::bit_cast<std::uint64_t>(rec.cost));
  };
  {
    Rng rng(1);
    absorb(SingleRandomWalk(g, {.steps = 2000}).run(rng));
  }
  {
    Rng rng(2);
    absorb(MetropolisHastingsWalk(g, {.steps = 2000}).run(rng));
  }
  {
    Rng rng(9);
    absorb(MultipleRandomWalks(g, {.num_walkers = 10, .steps_per_walker = 200})
               .run(rng));
  }
  for (const std::uint64_t seed : {3, 4}) {
    Rng rng(seed);
    absorb(FrontierSampler(g, {.dimension = 64, .steps = 2000}).run(rng));
  }
  {
    Rng rng(6);
    absorb(RandomWalkWithJumps(g, {.budget = 2000.0}).run(rng));
  }
  return static_cast<double>(h & ((std::uint64_t{1} << 52) - 1));
}

/// Mirrors every completed google-benchmark run into the shared
/// BenchReport, so bench_micro_samplers speaks the same --json schema as
/// the figure/table benches despite its different driver.
class SessionReporter : public benchmark::ConsoleReporter {
 public:
  explicit SessionReporter(frontier::bench::BenchSession& session)
      : session_(session) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      session_.metric(run.benchmark_name() + "/real_time",
                      run.GetAdjustedRealTime(),
                      benchmark::GetTimeUnitString(run.time_unit));
      // Walker benches SetItemsProcessed(steps), so this is steps/s —
      // the number the perf-smoke job prints and the BENCH trajectory
      // tracks.
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        session_.metric(run.benchmark_name() + "/items_per_second",
                        it->second, "items/s");
      }
    }
  }

 private:
  frontier::bench::BenchSession& session_;
};

}  // namespace

// Hand-rolled BENCHMARK_MAIN(): the shared --json flag must be stripped
// before benchmark::Initialize (which rejects flags it does not know).
int main(int argc, char** argv) {
  frontier::bench::BenchSession session(argc, argv, "bench_micro_samplers");
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") {
      if (i + 1 < argc) ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  SessionReporter reporter(session);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  session.metric("result_fingerprint", deterministic_fingerprint(), "fnv52");
  return 0;
}
