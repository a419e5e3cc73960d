// Declarative command-line options shared by the CLI tools.
//
// Each subcommand declares a CommandSpec — its positional arguments and a
// table of typed OptionSpecs — and parses argv through it. The parser
// enforces the schema the way the JSON readers enforce theirs: unknown
// flags, missing values, malformed numbers, and out-of-range values are
// all rejected with an error naming the flag, never silently defaulted
// (the same discipline as the FS_* env vars in core/env.hpp). Usage text
// is generated from the spec, so the declared table is also the
// documentation.
//
// Error contract: schema violations throw UsageError (a
// std::invalid_argument) whose message begins with the offending detail
// and ends with the auto-generated usage block, so tools can print
// e.what() and exit 2 without composing anything.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace frontier::cli {

/// A rejected command line. what() names the problem and carries the
/// command's usage text.
class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

enum class OptionType : std::uint8_t {
  kFlag,    // boolean, takes no value
  kU64,     // unsigned integer, strict parse (no signs, no decimals)
  kDouble,  // finite decimal number
  kString,  // free-form value
  kPath,    // filesystem path (same as kString; documents intent)
};

struct OptionSpec {
  std::string name;          ///< long name without the leading "--"
  OptionType type = OptionType::kString;
  std::string value_name{};  ///< placeholder in usage text, e.g. "N"
  std::string help{};        ///< one-line description for usage text
  /// kU64: inclusive lower bound (set to 1 to reject an explicit 0 —
  /// the validation sweep for --checkpoint-every and the serve quotas).
  std::uint64_t min_u64 = 0;
  /// kDouble: inclusive lower bound (default: unbounded).
  double min_double = 0.0;
  bool has_min_double = false;
  /// kDouble: additionally reject the bound itself (strict >).
  bool exclusive_min = false;
};

struct PositionalSpec {
  std::string name;  ///< placeholder in usage text, e.g. "edges.txt"
  bool required = true;
};

class ParsedArgs;

struct CommandSpec {
  std::string program{};  ///< e.g. "frontier_cli"
  std::string command{};  ///< e.g. "stream"; empty for single-command tools
  std::string summary{};  ///< one-line description for usage text
  std::vector<PositionalSpec> positionals{};
  /// Extra positionals beyond the declared ones are accepted iff set
  /// (bench-report/metrics-summary take a file list).
  bool variadic_positionals = false;
  std::vector<OptionSpec> options{};

  /// Parses argv[first..argc). Throws UsageError on any schema violation.
  [[nodiscard]] ParsedArgs parse(int argc, char** argv, int first) const;
  [[nodiscard]] ParsedArgs parse(const std::vector<std::string>& tokens) const;

  /// The generated usage block: synopsis plus one line per option.
  [[nodiscard]] std::string usage() const;

  [[nodiscard]] const OptionSpec* find(std::string_view name) const;
};

/// The validated result of CommandSpec::parse. Borrows the CommandSpec
/// it was parsed from (for accessor type checks), so the spec must
/// outlive the ParsedArgs — bind the spec to a local, don't parse off a
/// temporary. Typed accessors take the fallback used when the option was
/// not given; asking for an option the spec does not declare (or with
/// the wrong-typed accessor) throws std::logic_error — that is a
/// programming error in the tool, not user input.
class ParsedArgs {
 public:
  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] bool get_flag(std::string_view name) const;
  [[nodiscard]] std::uint64_t get_u64(std::string_view name,
                                      std::uint64_t fallback) const;
  [[nodiscard]] double get_double(std::string_view name,
                                  double fallback) const;
  [[nodiscard]] std::string get_string(std::string_view name,
                                       std::string fallback) const;
  /// Same as get_string; the empty string conventionally means "not set".
  [[nodiscard]] std::string get_path(std::string_view name,
                                     std::string fallback = "") const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positionals_;
  }

 private:
  friend struct CommandSpec;
  void require_type(std::string_view name, OptionType t1,
                    OptionType t2) const;

  const CommandSpec* spec_ = nullptr;
  std::map<std::string, std::string, std::less<>> values_;  // raw text
  std::map<std::string, std::uint64_t, std::less<>> u64s_;
  std::map<std::string, double, std::less<>> doubles_;
  std::vector<std::string> positionals_;
};

/// Strict scalar parsers, exposed so tools and the serve wire protocol
/// share one set of error messages.
/// "--<flag> expects a non-negative integer, got '<raw>'" on violation;
/// values below `min` are rejected naming the bound.
[[nodiscard]] std::uint64_t parse_u64(std::string_view flag,
                                      std::string_view raw,
                                      std::uint64_t min = 0);
[[nodiscard]] double parse_double(std::string_view flag, std::string_view raw,
                                  bool has_min = false, double min = 0.0,
                                  bool exclusive_min = false);

}  // namespace frontier::cli
