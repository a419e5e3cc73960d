#include "lint_rules.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace frontier::lint {
namespace {

constexpr std::string_view kAllowMarker = "lint:allow(";
constexpr std::string_view kSuppressionRule = "suppression-rationale";

[[nodiscard]] bool ident_char(char c) noexcept {
  return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
}

/// What must follow a word-bounded token for it to count: anything
/// (kName), '(' after optional spaces (kCall — so `time(0)` matches but
/// `time_point` and `wall_time_seconds` never do), or anything but '::'
/// (kType — so `std::thread` matches but `std::thread::id` does not).
enum class Match : unsigned char { kName, kCall, kType };

[[nodiscard]] bool contains_token(std::string_view line, std::string_view token,
                                  Match match) noexcept {
  std::size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !ident_char(line[pos - 1]);
    std::size_t after = pos + token.size();
    const bool right_ident = after < line.size() && ident_char(line[after]);
    if (left_ok && !right_ident) {
      if (match == Match::kName) return true;
      if (match == Match::kType && line.substr(after, 2) != "::") return true;
      while (after < line.size() && (line[after] == ' ' || line[after] == '\t'))
        ++after;
      if (match == Match::kCall && after < line.size() && line[after] == '(')
        return true;
    }
    pos += 1;
  }
  return false;
}

struct ForbiddenToken {
  std::string_view token;
  Match match;
  std::string_view hint;  // appended to the diagnostic
};

// --- determinism-no-wall-clock -------------------------------------------
// Wall clocks, OS entropy, and libc RNG are banned in src/: every random
// draw must flow through core Rng (seeded, splittable, replayable) and
// every duration through std::chrono::steady_clock (monotonic). A crawl
// replayed from a checkpoint must take the identical path.
constexpr ForbiddenToken kWallClockTokens[] = {
    {"rand", Match::kCall, "use core Rng (seeded, replayable)"},
    {"srand", Match::kCall, "use core Rng (seeded, replayable)"},
    {"rand_r", Match::kCall, "use core Rng (seeded, replayable)"},
    {"random_device", Match::kName, "use core Rng (seeded, replayable)"},
    {"time", Match::kCall, "use steady_clock for durations; no wall time in src/"},
    {"gettimeofday", Match::kCall, "use steady_clock; no wall time in src/"},
    {"clock_gettime", Match::kCall, "use steady_clock; no wall time in src/"},
    {"system_clock", Match::kName, "use steady_clock; no wall time in src/"},
    {"high_resolution_clock", Match::kName,
     "alias of system_clock on some platforms; use steady_clock"},
    {"localtime", Match::kCall, "no calendar time in src/"},
    {"gmtime", Match::kCall, "no calendar time in src/"},
    {"mt19937", Match::kName, "use core Rng, not ad-hoc engines"},
    {"default_random_engine", Match::kName, "use core Rng, not ad-hoc engines"},
};

// --- no-stdout-in-library -------------------------------------------------
// stdout belongs to the binaries (CLI, benches, examples). Library code
// reports through return values, exceptions, ostream parameters, or the
// obs exporter (whose stderr sink is the explicit `--metrics -` contract).
constexpr ForbiddenToken kStdoutTokens[] = {
    {"std::cout", Match::kName, "library code takes an ostream& or stays silent"},
    {"printf", Match::kCall, "library code takes an ostream& or stays silent"},
    {"fprintf", Match::kCall, "library code takes an ostream& or stays silent"},
    {"puts", Match::kCall, "library code takes an ostream& or stays silent"},
    {"fputs", Match::kCall, "library code takes an ostream& or stays silent"},
    {"putchar", Match::kCall, "library code takes an ostream& or stays silent"},
};

// --- single-thread-pool --------------------------------------------------
// core/parallel.hpp's parallel_for_ranges is the library's one worker
// pool: it runs inline for one worker and rethrows the lowest worker's
// exception. Any other std::thread/jthread/async in src/ is a second pool
// to keep correct. Nested names (std::thread::id, hardware_concurrency)
// and std::this_thread start no thread and pass.
constexpr ForbiddenToken kThreadTokens[] = {
    {"std::thread", Match::kType,
     "start workers through parallel_for_ranges (core/parallel.hpp)"},
    {"std::jthread", Match::kType,
     "start workers through parallel_for_ranges (core/parallel.hpp)"},
    {"std::async", Match::kName,
     "start workers through parallel_for_ranges (core/parallel.hpp)"},
};

// --- durable-file-replacement --------------------------------------------
// Files the system reads back (checkpoints, spool, estimates, reports)
// must be replaced through core/durable.hpp's durable_write_file — tmp
// file + fsync + atomic rename + parent-dir fsync — or a crash can leave
// a torn file that deserializes as garbage. A raw ofstream or rename()
// in src/ or tools/ is a finding; create-only streams (no reader depends
// on their atomicity) are waived per line with a rationale.
constexpr ForbiddenToken kDurableTokens[] = {
    {"std::rename", Match::kCall,
     "replace files via durable_write_file (core/durable.hpp) so the swap "
     "is fsync'd and atomic"},
    {"std::ofstream", Match::kName,
     "file replacement goes through durable_write_file (core/durable.hpp); "
     "waive genuinely create-only/append streams with a rationale"},
};

[[nodiscard]] bool starts_with(std::string_view s, std::string_view p) {
  return s.substr(0, p.size()) == p;
}
[[nodiscard]] bool ends_with(std::string_view s, std::string_view p) {
  return s.size() >= p.size() && s.substr(s.size() - p.size()) == p;
}

[[nodiscard]] bool in_src(std::string_view p) { return starts_with(p, "src/"); }
[[nodiscard]] bool in_tools(std::string_view p) {
  return starts_with(p, "tools/");
}
[[nodiscard]] bool is_durable_helper(std::string_view p) {
  return starts_with(p, "src/core/durable.");
}
[[nodiscard]] bool is_thread_pool(std::string_view p) {
  return p == "src/core/parallel.hpp";
}
[[nodiscard]] bool is_designated_printer(std::string_view p) {
  return starts_with(p, "src/experiments/printers.");
}
[[nodiscard]] bool is_header(std::string_view p) {
  return ends_with(p, ".hpp");
}
[[nodiscard]] bool is_bench_binary(std::string_view p) {
  return starts_with(p, "bench/bench_") && ends_with(p, ".cpp");
}

/// Splits into lines, preserving 1-based numbering (no trailing-newline
/// special cases: a final unterminated line still counts).
[[nodiscard]] std::vector<std::string_view> split_lines(std::string_view s) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t nl = s.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.push_back(s.substr(start));
      break;
    }
    lines.push_back(s.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

struct Suppression {
  bool present = false;     // lint:allow(...) seen on the line
  bool has_rationale = false;
  std::string rule;
};

/// Parses `// lint:allow(rule): rationale` out of a *raw* (unscrubbed)
/// line. The rationale is whatever non-space text follows the ')', minus
/// leading punctuation.
[[nodiscard]] Suppression parse_suppression(std::string_view raw_line) {
  Suppression s;
  const std::size_t at = raw_line.find(kAllowMarker);
  if (at == std::string_view::npos) return s;
  const std::size_t open = at + kAllowMarker.size();
  const std::size_t close = raw_line.find(')', open);
  if (close == std::string_view::npos) return s;
  s.present = true;
  s.rule = std::string(raw_line.substr(open, close - open));
  std::string_view rest = raw_line.substr(close + 1);
  std::size_t i = 0;
  while (i < rest.size() &&
         (rest[i] == ':' || rest[i] == '-' || rest[i] == ' ' ||
          rest[i] == '\t'))
    ++i;
  s.has_rationale = i < rest.size();
  return s;
}

void run_token_rule(std::string_view rel_path,
                    const std::vector<std::string_view>& raw_lines,
                    const std::vector<std::string_view>& scrubbed_lines,
                    std::string_view rule_name,
                    const ForbiddenToken* tokens, std::size_t num_tokens,
                    std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i < scrubbed_lines.size(); ++i) {
    for (std::size_t t = 0; t < num_tokens; ++t) {
      const ForbiddenToken& ft = tokens[t];
      if (!contains_token(scrubbed_lines[i], ft.token, ft.match)) continue;
      const Suppression sup = parse_suppression(raw_lines[i]);
      if (sup.present && sup.rule == rule_name) {
        if (!sup.has_rationale) {
          out.push_back({std::string(rel_path), i + 1,
                         std::string(kSuppressionRule),
                         "lint:allow(" + sup.rule +
                             ") needs a rationale after the ')' — say why "
                             "this use is sound"});
        }
        continue;  // suppressed (rationale problems reported separately)
      }
      out.push_back({std::string(rel_path), i + 1, std::string(rule_name),
                     "forbidden call/name '" + std::string(ft.token) + "': " +
                         std::string(ft.hint)});
    }
  }
}

void add_file(std::vector<std::filesystem::path>& files,
              const std::filesystem::path& root,
              const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  if (ext != ".hpp" && ext != ".cpp") return;
  // Fixture trees violate rules on purpose; skip them — but only when the
  // lint_fixtures component is *below* the scanned root, so the fixture
  // trees themselves can be linted by the tests.
  std::error_code ec;
  for (const auto& part : std::filesystem::relative(p, root, ec)) {
    if (part == "lint_fixtures") return;
  }
  files.push_back(p);
}

}  // namespace

std::string scrub(std::string_view source) {
  std::string out(source);
  enum class State { kCode, kString, kChar, kLine, kBlock };
  State st = State::kCode;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    const char next = i + 1 < source.size() ? source[i + 1] : '\0';
    switch (st) {
      case State::kCode:
        if (c == '"') {
          st = State::kString;
        } else if (c == '\'' && (i == 0 || !ident_char(source[i - 1]))) {
          // The ident_char guard keeps digit separators (1'000'000) and
          // literal suffixes out of the char-literal state.
          st = State::kChar;
        } else if (c == '/' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          st = State::kLine;
        } else if (c == '/' && next == '*') {
          out[i] = out[i + 1] = ' ';
          ++i;
          st = State::kBlock;
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = st == State::kString ? '"' : '\'';
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < source.size() && source[i + 1] != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == quote) {
          st = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
      case State::kLine:
        if (c == '\n') {
          st = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          st = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<RuleInfo> rules() {
  return {
      {"determinism-no-wall-clock",
       "src/ draws randomness only via core Rng and time only via "
       "steady_clock (no rand/random_device/time()/system_clock)"},
      {"no-stdout-in-library",
       "src/ never writes to stdout (std::cout/printf family) outside "
       "src/experiments/printers.*"},
      {"pragma-once", "every header starts its include guard with "
                      "#pragma once"},
      {"bench-session",
       "every bench/bench_*.cpp routes through bench_common::BenchSession "
       "(--json + result_fingerprint discipline)"},
      {"single-thread-pool",
       "only src/core/parallel.hpp constructs std::thread/jthread/async in "
       "src/; every worker pool runs on parallel_for_ranges"},
      {"durable-file-replacement",
       "src/ and tools/ replace files only via durable_write_file "
       "(core/durable.hpp) — raw std::ofstream/std::rename swaps are "
       "findings unless waived as create-only"},
      {"suppression-rationale",
       "every lint:allow(rule) waiver carries a written rationale"},
  };
}

std::vector<Diagnostic> check_file(std::string_view rel_path,
                                   std::string_view content) {
  std::vector<Diagnostic> out;

  // Every rule matches against the scrubbed copy (comments and literal
  // bodies blanked), so a rule is satisfied or violated by *code*, never
  // by prose mentioning a token — a comment saying "#pragma once" must
  // not count as an include guard.
  const std::string scrubbed = scrub(content);

  if (is_header(rel_path) &&
      scrubbed.find("#pragma once") == std::string::npos) {
    out.push_back({std::string(rel_path), 1, "pragma-once",
                   "header lacks #pragma once"});
  }

  if (is_bench_binary(rel_path) &&
      scrubbed.find("BenchSession") == std::string::npos) {
    out.push_back({std::string(rel_path), 1, "bench-session",
                   "bench binary does not use bench_common::BenchSession — "
                   "every bench must support --json and emit a fingerprint"});
  }

  if (in_src(rel_path) || in_tools(rel_path)) {
    const std::vector<std::string_view> raw_lines = split_lines(content);
    const std::vector<std::string_view> scrubbed_lines =
        split_lines(scrubbed);
    if (in_src(rel_path)) {
      run_token_rule(rel_path, raw_lines, scrubbed_lines,
                     "determinism-no-wall-clock", kWallClockTokens,
                     std::size(kWallClockTokens), out);
      if (!is_designated_printer(rel_path)) {
        run_token_rule(rel_path, raw_lines, scrubbed_lines,
                       "no-stdout-in-library", kStdoutTokens,
                       std::size(kStdoutTokens), out);
      }
      if (!is_thread_pool(rel_path)) {
        run_token_rule(rel_path, raw_lines, scrubbed_lines,
                       "single-thread-pool", kThreadTokens,
                       std::size(kThreadTokens), out);
      }
    }
    // The durable helper itself is the one place the raw idiom lives.
    if (!is_durable_helper(rel_path)) {
      run_token_rule(rel_path, raw_lines, scrubbed_lines,
                     "durable-file-replacement", kDurableTokens,
                     std::size(kDurableTokens), out);
    }
  }

  return out;
}

LintResult lint_tree(const std::filesystem::path& root) {
  namespace fs = std::filesystem;
  LintResult result;

  std::vector<fs::path> files;
  for (const char* sub : {"src", "tests", "bench", "tools", "examples"}) {
    const fs::path dir = root / sub;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;
    for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (it->is_regular_file(ec)) add_file(files, root, it->path());
    }
  }
  std::sort(files.begin(), files.end());

  for (const fs::path& p : files) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in) {
      result.unreadable.push_back(p.generic_string());
      continue;
    }
    const std::string rel =
        fs::relative(p, root).generic_string();
    std::vector<Diagnostic> diags = check_file(rel, buf.str());
    result.diagnostics.insert(result.diagnostics.end(),
                              std::make_move_iterator(diags.begin()),
                              std::make_move_iterator(diags.end()));
    result.files_checked += 1;
  }
  return result;
}

std::string format(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": [" + d.rule + "] " +
         d.message;
}

}  // namespace frontier::lint
