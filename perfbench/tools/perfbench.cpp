// perfbench — the repository's end-to-end and per-layer benchmark driver.
//
//   perfbench prep --seed N --out DIR
//       Writes the seed's inputs: a Barabási–Albert graph (200k vertices,
//       ~2M directed edges) as a text edge list and as a v2 snapshot, and
//       the paper's G_AB (2 x 5000 vertices) as a text edge list.
//
//   perfbench WORKLOAD --inputs DIR --run-dir DIR --serve-bin PATH
//             --seed N --seconds S --trace 0|1 --threads T
//       Runs one workload (crawl | serve | replicate) on prepared inputs.
//       The last line of standard output is the result object; with
//       --trace 0 it holds the end-to-end metrics, with --trace 1 the
//       per-layer metrics (and the span files land in the run dir).
//
// perfbench/run.py builds this binary, prepares the inputs and calls it;
// see perfbench/README.md.
#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/durable.hpp"
#include "experiments/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "random/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

void prepare_inputs(std::uint64_t seed, const std::string& dir) {
  std::filesystem::create_directories(dir);
  const Inputs in = inputs_in(dir);
  frontier::Rng rng(seed);
  const frontier::Graph ba = frontier::barabasi_albert(200000, 5, rng);
  frontier::write_edge_list_file(ba, in.ba_txt);
  frontier::write_binary_file(ba, in.ba_bin);
  const frontier::Dataset gab = frontier::make_gab(5000, seed);
  frontier::write_edge_list_file(gab.graph, in.gab_txt);
}

namespace {

constexpr double kSideSweepSeconds = 1.5;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench prep --seed N --out DIR\n"
               "       perfbench crawl|serve|replicate --inputs DIR "
               "--run-dir DIR --serve-bin PATH --seed N --seconds S "
               "--trace 0|1 --threads T\n";
  std::exit(2);
}

Report run(const Options& opt, const Inputs& in) {
  if (!opt.trace) {
    if (opt.workload == "crawl") return crawl_end_to_end(opt, in);
    if (opt.workload == "serve") return serve_end_to_end(opt, in);
    return replicate_end_to_end(opt, in);
  }
  const auto secs = [&](const char* w) {
    return opt.workload == w ? opt.seconds : kSideSweepSeconds;
  };
  Report rep = crawl_layers(opt, in, secs("crawl"), opt.workload == "crawl");
  rep.merge(serve_layers(opt, in, secs("serve"), opt.workload == "serve"));
  rep.merge(replicate_layers(opt, in, secs("replicate"),
                             opt.workload == "replicate"));
  return rep;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) usage("missing command");
  const std::string command = argv[1];
  Options opt;
  std::string out_dir;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(key + " needs a value");
    const std::string value = argv[i + 1];
    try {
      if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = value == "1";
      } else if (key == "--threads") {
        opt.threads = static_cast<unsigned>(std::stoul(value));
      } else if (key == "--inputs") {
        opt.inputs = value;
      } else if (key == "--run-dir") {
        opt.run_dir = value;
      } else if (key == "--serve-bin") {
        opt.serve_bin = value;
      } else if (key == "--out") {
        out_dir = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }

  try {
    if (command == "prep") {
      if (out_dir.empty()) usage("prep needs --out");
      prepare_inputs(opt.seed, out_dir);
      return 0;
    }
    if (command != "crawl" && command != "serve" && command != "replicate") {
      usage("unknown workload " + command);
    }
    if (opt.inputs.empty() || opt.run_dir.empty() || opt.serve_bin.empty() ||
        opt.seconds <= 0.0 || opt.threads == 0) {
      usage("missing or invalid options");
    }
    opt.workload = command;
    namespace fs = std::filesystem;
    opt.inputs = fs::absolute(opt.inputs).string();
    opt.serve_bin = fs::absolute(opt.serve_bin).string();
    fs::create_directories(opt.run_dir);
    opt.run_dir = fs::absolute(opt.run_dir).string();
    // Sockets and spools use short paths relative to the run dir.
    fs::current_path(opt.run_dir);

    const Report rep = run(opt, inputs_in(opt.inputs));
    std::cout << rep.result_line() << std::endl;
    return rep.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
