// The three perfbench workloads. Each has an end-to-end run (untraced,
// reports the BENCHMARK.json end_to_end metrics) and a layer sweep (the
// traced run; reports per-layer metrics and writes its span file).
//
// A traced run of workload W calls W's sweep for the full window and the
// other two sweeps for a short one, so every traced run reports every
// per-layer metric; only W's sweep reports trace.overhead_pct.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// Checkpoint cadence of every crawl, offline and served, in events (as
/// `frontier_cli stream --checkpoint-every 1048576`): about one second of
/// the single-threaded crawl workload, so a crash loses at most about a
/// second of its work. No measured usage of the tools backs this figure;
/// it is an assumption, counted in events because work lost is.
inline constexpr std::uint64_t kCheckpointEvery = std::uint64_t{1} << 20;

/// The serve client's model, per session; also an assumption, not
/// measured traffic. Each request goes to one of the connection's sessions
/// at random. A session that has stepped kCheckpointEvery events since its
/// last checkpoint checkpoints; every kResumeEveryCheckpoints-th time it
/// also closes and reopens with resume:true, as a client that reconnects.
/// Otherwise the request reads estimates with probability kEstimatesShare
/// and is a step of kMinStep..kMaxStep events (tens to hundreds, so each
/// request carries little crawl work) else. Sessions start at random
/// points of their cadence, as sessions opened at different times would.
inline constexpr std::uint64_t kMinStep = 16;
inline constexpr std::uint64_t kMaxStep = 512;
inline constexpr double kEstimatesShare = 0.125;
inline constexpr std::uint64_t kResumeEveryCheckpoints = 2;

/// Writes the seed's input files (inputs_in(dir)).
void prepare_inputs(std::uint64_t seed, const std::string& dir);

[[nodiscard]] Report crawl_end_to_end(const Options& opt, const Inputs& in);
[[nodiscard]] Report serve_end_to_end(const Options& opt, const Inputs& in);
[[nodiscard]] Report replicate_end_to_end(const Options& opt,
                                          const Inputs& in);

/// `main` marks the traced run's own workload (full window, K-fold load
/// timing, trace overhead); the others run `seconds` of a short sweep.
[[nodiscard]] Report crawl_layers(const Options& opt, const Inputs& in,
                                  double seconds, bool main);
[[nodiscard]] Report serve_layers(const Options& opt, const Inputs& in,
                                  double seconds, bool main);
[[nodiscard]] Report replicate_layers(const Options& opt, const Inputs& in,
                                      double seconds, bool main);

}  // namespace perfbench
