// frontier_lint — project-specific source rules clang-tidy cannot express.
//
// The rule set (see rules() for the live list):
//   determinism-no-wall-clock  src/ must not read wall clocks or OS
//                              entropy: RNG flows through core Rng,
//                              timing through steady_clock only —
//                              anything else breaks replayability and the
//                              bit-identity guarantees the tests pin.
//   no-stdout-in-library       src/ must not write to stdout (std::cout,
//                              printf family) outside the designated
//                              printer module (src/experiments/printers.*).
//                              Library output goes through ostream
//                              parameters or the obs exporter.
//   pragma-once                every .hpp under src/tests/bench/tools/
//                              examples carries #pragma once.
//   bench-session              every bench/bench_*.cpp routes through
//                              bench_common::BenchSession (the --json /
//                              result_fingerprint discipline CI gates on).
//   single-thread-pool         src/ starts threads only through
//                              core/parallel.hpp (parallel_for_ranges):
//                              no other std::thread, std::jthread or
//                              std::async. std::thread::id, this_thread
//                              and hardware_concurrency stay allowed.
//   durable-file-replacement   src/ and tools/ must not hand-roll file
//                              replacement (raw std::ofstream or
//                              std::rename): the durable-write helper
//                              (core/durable.hpp) owns the tmp + fsync +
//                              rename + dir-fsync protocol. Create-only
//                              and append streams are waived per line.
//
// Suppression: a finding is waived per line with
//     // lint:allow(rule-name): why this specific use is sound
// and the rationale is mandatory — an allow without one is itself a
// finding (suppression-rationale), so waivers stay reviewable.
//
// Matching runs on a comment- and string-scrubbed copy of the source, so
// prose and log messages never trip the token rules. The scrubber
// understands //, /* */, string/char literals with escapes, and digit
// separators; raw string literals are not special-cased (none in tree —
// the scrubber treats them as ordinary strings, which can only widen,
// never narrow, what gets scrubbed on the lines between the quotes).
//
// This header is the library surface; tools/frontier_lint.cpp is the
// thin CLI, and tests/test_frontier_lint.cpp exercises both on fixture
// trees under tests/lint_fixtures/ (which lint_tree() skips by name).
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace frontier::lint {

struct Diagnostic {
  std::string file;  ///< repo-relative path, '/'-separated
  std::size_t line;  ///< 1-based; the line the finding anchors to
  std::string rule;
  std::string message;
};

struct RuleInfo {
  std::string_view name;
  std::string_view summary;
};

struct LintResult {
  std::vector<Diagnostic> diagnostics;
  std::size_t files_checked = 0;
  /// Files that could not be read (permission/encoding); nonempty means
  /// the run is unsound and callers should exit 2, not 1.
  std::vector<std::string> unreadable;
};

/// The live rule table, for --list-rules and the docs.
[[nodiscard]] std::vector<RuleInfo> rules();

/// Applies every rule whose path predicate matches `rel_path` to
/// `content`. `rel_path` is '/'-separated and repo-relative
/// (e.g. "src/graph/io.cpp").
[[nodiscard]] std::vector<Diagnostic> check_file(std::string_view rel_path,
                                                std::string_view content);

/// Walks src/, tests/, bench/, tools/ and examples/ under `root` (missing
/// subtrees are skipped), checking every .hpp/.cpp except fixture trees
/// (any path containing a "lint_fixtures" component). Deterministic
/// file order.
[[nodiscard]] LintResult lint_tree(const std::filesystem::path& root);

/// "file:line: [rule] message" — the grep/editor-clickable form.
[[nodiscard]] std::string format(const Diagnostic& d);

/// Comment/string scrubber used by the token rules; exposed for tests.
/// Returns a same-length string with comment bodies and literal contents
/// blanked to spaces (newlines preserved, so line numbers survive).
[[nodiscard]] std::string scrub(std::string_view source);

}  // namespace frontier::lint
