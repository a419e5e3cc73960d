// frontier_lint contract tests.
//
// Two layers: the rule library is driven directly on synthetic content and
// on the fixture trees under tests/lint_fixtures/ (pass_tree must be
// clean, fail_tree must trip every rule with file:line diagnostics), and
// the installed binary is spawned to pin the exit-code contract
// (0 clean, 1 findings, 2 usage error) end to end.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint_rules.hpp"

namespace lint = frontier::lint;

namespace {

[[nodiscard]] std::vector<lint::Diagnostic> check(std::string_view path,
                                                  std::string_view content) {
  return lint::check_file(path, content);
}

[[nodiscard]] bool has_rule(const std::vector<lint::Diagnostic>& diags,
                            std::string_view rule) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const lint::Diagnostic& d) { return d.rule == rule; });
}

}  // namespace

// ---------------------------------------------------------------------------
// Scrubber

TEST(Scrub, BlanksCommentsAndLiteralBodiesPreservingLines) {
  const std::string src =
      "int a; // std::rand() here\n"
      "const char* s = \"time(0) inside\";\n"
      "/* system_clock\n   spans lines */ int b;\n";
  const std::string out = lint::scrub(src);
  ASSERT_EQ(out.size(), src.size());
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find("time("), std::string::npos);
  EXPECT_EQ(out.find("system_clock"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
}

TEST(Scrub, DigitSeparatorsAreNotCharLiterals) {
  const std::string src = "long x = 1'000'000; std::cout << x;\n";
  // If 1'000'000 opened a char literal, the cout would be blanked.
  EXPECT_NE(lint::scrub(src).find("std::cout"), std::string::npos);
}

// ---------------------------------------------------------------------------
// determinism-no-wall-clock

TEST(WallClockRule, FlagsForbiddenCallsWithLineNumbers) {
  const auto diags = check("src/x.cpp",
                           "int a = std::rand();\n"
                           "auto t = time(nullptr);\n"
                           "std::chrono::system_clock::time_point p;\n"
                           "std::random_device rd;\n");
  ASSERT_EQ(diags.size(), 4u);
  for (std::size_t i = 0; i < diags.size(); ++i) {
    EXPECT_EQ(diags[i].rule, "determinism-no-wall-clock");
    EXPECT_EQ(diags[i].line, i + 1);
    EXPECT_EQ(diags[i].file, "src/x.cpp");
  }
}

TEST(WallClockRule, SteadyClockAndLookalikeIdentifiersPass) {
  const auto diags =
      check("src/x.cpp",
            "using Clock = std::chrono::steady_clock;\n"
            "double wall_time_seconds = 0;\n"  // 'time' not call-like
            "auto tp = Clock::now();\n"
            "int randomized = 3;\n");  // 'rand' bounded inside identifier
  EXPECT_TRUE(diags.empty());
}

TEST(WallClockRule, OnlyAppliesToSrc) {
  EXPECT_TRUE(check("tests/t.cpp", "int a = std::rand();\n").empty());
  EXPECT_TRUE(check("bench/bench_x.cpp",
                    "BenchSession s; auto t = time(nullptr);\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// no-stdout-in-library

TEST(StdoutRule, FlagsCoutAndPrintfFamily) {
  const auto diags = check("src/x.cpp",
                           "std::cout << 1;\n"
                           "printf(\"%d\", 2);\n"
                           "puts(\"x\");\n");
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_TRUE(has_rule(diags, "no-stdout-in-library"));
  EXPECT_EQ(diags[1].line, 2u);
}

TEST(StdoutRule, SnprintfAndDesignatedPrintersPass) {
  EXPECT_TRUE(check("src/x.cpp", "std::snprintf(buf, n, \"%d\", 2);\n")
                  .empty());
  EXPECT_TRUE(
      check("src/experiments/printers.cpp", "std::cout << header;\n").empty());
}

// ---------------------------------------------------------------------------
// Suppressions

TEST(Suppression, AllowWithRationaleSilencesTheFinding) {
  const auto diags = check(
      "src/x.cpp",
      "std::random_device rd;  // lint:allow(determinism-no-wall-clock): "
      "seeding the doc example only, value never reaches a sampler\n");
  EXPECT_TRUE(diags.empty());
}

TEST(Suppression, AllowWithoutRationaleIsItselfAFinding) {
  const auto diags = check(
      "src/x.cpp",
      "std::random_device rd;  // lint:allow(determinism-no-wall-clock)\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "suppression-rationale");
  EXPECT_EQ(diags[0].line, 1u);
}

TEST(Suppression, WrongRuleNameDoesNotSuppress) {
  const auto diags =
      check("src/x.cpp",
            "std::random_device rd;  // lint:allow(pragma-once): nope\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "determinism-no-wall-clock");
}

// ---------------------------------------------------------------------------
// durable-file-replacement

TEST(DurableRule, FlagsRawOfstreamAndRenameInSrcAndTools) {
  const auto diags = check("src/stream/x.cpp",
                           "std::ofstream f(tmp);\n"
                           "std::rename(tmp.c_str(), path.c_str());\n");
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_TRUE(has_rule(diags, "durable-file-replacement"));
  EXPECT_EQ(diags[1].line, 2u);
  EXPECT_TRUE(has_rule(check("tools/x.cpp", "std::ofstream f(p);\n"),
                       "durable-file-replacement"));
}

TEST(DurableRule, HelperItselfAndWaiversAndOtherTreesPass) {
  // The helper is the one place the raw idiom is the implementation.
  EXPECT_TRUE(check("src/core/durable.cpp",
                    "std::ofstream f(tmp);\nstd::rename(a, b);\n")
                  .empty());
  // A create-only stream is waived per line with a rationale.
  EXPECT_TRUE(check("src/graph/x.cpp",
                    "std::ofstream f(p);  // lint:allow(durable-file-"
                    "replacement): create-only scratch file, never "
                    "replaces a read-back artifact\n")
                  .empty());
  // Tests and benches build scratch inputs freely.
  EXPECT_TRUE(check("bench/bench_x.cpp",
                    "bench_common::BenchSession s(argc, argv);\n"
                    "std::ofstream f(p);\n")
                  .empty());
  // ifstream and renamed identifiers never match.
  EXPECT_TRUE(check("src/x.cpp",
                    "std::ifstream in(p);\nint my_rename = 0;\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// single-thread-pool

TEST(ThreadPoolRule, FlagsThreadJthreadAndAsyncOutsideParallelHpp) {
  const auto diags = check("src/experiments/x.cpp",
                           "std::vector<std::thread> pool;\n"
                           "std::jthread t([] {});\n"
                           "auto f = std::async(std::launch::async, g);\n"
                           "pool.emplace_back(std::thread(g));\n");
  ASSERT_EQ(diags.size(), 4u);
  for (std::size_t i = 0; i < diags.size(); ++i) {
    EXPECT_EQ(diags[i].rule, "single-thread-pool");
    EXPECT_EQ(diags[i].line, i + 1);
  }
}

TEST(ThreadPoolRule, NestedNamesParallelHppAndOtherTreesPass) {
  // Naming a thread's id or asking for the core count starts nothing.
  EXPECT_TRUE(check("src/x.cpp",
                    "const unsigned hw = std::thread::hardware_concurrency();\n"
                    "std::thread::id self = std::this_thread::get_id();\n"
                    "std::jthread::id other;\n"
                    "int my_std_thread_count = 0;\n")
                  .empty());
  // The one pool lives in core/parallel.hpp.
  EXPECT_TRUE(
      check("src/core/parallel.hpp",
            "#pragma once\nstd::vector<std::thread> pool;\n")
          .empty());
  // Tests, tools and benches start threads freely.
  EXPECT_TRUE(check("tests/t.cpp", "std::thread t(f);\n").empty());
  EXPECT_TRUE(check("tools/x.cpp", "std::thread t(f);\n").empty());
  // A waiver with a rationale silences the finding.
  EXPECT_TRUE(check("src/x.cpp",
                    "std::thread t(f);  // lint:allow(single-thread-pool): "
                    "a watchdog, not a worker pool\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// pragma-once and bench-session

TEST(PragmaOnce, MissingGuardFlagsLineOne) {
  const auto diags = check("src/x.hpp", "#ifndef X\n#define X\n#endif\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "pragma-once");
  EXPECT_EQ(diags[0].line, 1u);
  EXPECT_TRUE(check("src/x.hpp", "#pragma once\nint x;\n").empty());
}

TEST(BenchSession, CommentMentionDoesNotSatisfyTheRule) {
  EXPECT_TRUE(has_rule(
      check("bench/bench_x.cpp", "// uses BenchSession, honest!\nint main(){}\n"),
      "bench-session"));
  EXPECT_TRUE(
      check("bench/bench_x.cpp", "bench_common::BenchSession s(argc, argv);\n")
          .empty());
  // Non-bench files in bench/ (the shared runtime) are exempt.
  EXPECT_TRUE(check("bench/common_helpers.cpp", "int x;\n").empty());
}

// ---------------------------------------------------------------------------
// Fixture trees + formatting

TEST(LintTree, PassTreeIsClean) {
  const lint::LintResult r =
      lint::lint_tree(std::string(LINT_FIXTURE_DIR) + "/pass_tree");
  EXPECT_TRUE(r.unreadable.empty());
  EXPECT_EQ(r.files_checked, 3u);
  for (const auto& d : r.diagnostics) ADD_FAILURE() << lint::format(d);
}

TEST(LintTree, FailTreeTripsEveryRuleWithFileAndLine) {
  const lint::LintResult r =
      lint::lint_tree(std::string(LINT_FIXTURE_DIR) + "/fail_tree");
  EXPECT_TRUE(r.unreadable.empty());
  EXPECT_EQ(r.files_checked, 7u);
  for (const char* rule :
       {"determinism-no-wall-clock", "no-stdout-in-library", "pragma-once",
        "bench-session", "suppression-rationale",
        "durable-file-replacement", "single-thread-pool"}) {
    EXPECT_TRUE(has_rule(r.diagnostics, rule)) << "rule not tripped: " << rule;
  }
  // Exact anchors: the fixtures pin their violations to known lines.
  bool saw_rand = false;
  std::vector<std::size_t> thread_lines;
  for (const auto& d : r.diagnostics) {
    EXPECT_GT(d.line, 0u);
    EXPECT_NE(d.file.find('/'), std::string::npos) << d.file;
    if (d.file == "src/bad_clock.cpp" && d.line == 15) saw_rand = true;
    if (d.file == "src/bad_thread.cpp") {
      EXPECT_EQ(d.rule, "single-thread-pool");
      thread_lines.push_back(d.line);
    }
    const std::string line = lint::format(d);
    // file:line: [rule] message — editor-clickable.
    EXPECT_NE(line.find(d.file + ":" + std::to_string(d.line) + ": ["),
              std::string::npos)
        << line;
  }
  EXPECT_TRUE(saw_rand) << "std::rand on bad_clock.cpp:15 not anchored";
  EXPECT_EQ(thread_lines, (std::vector<std::size_t>{12, 15}));
}

// ---------------------------------------------------------------------------
// Binary exit-code contract (0 clean / 1 findings / 2 usage error)

namespace {

[[nodiscard]] int run_binary(const std::string& args, std::string* output) {
  const std::string out_path =
      ::testing::TempDir() + "/frontier_lint_out.txt";
  const std::string cmd = std::string(FRONTIER_LINT_BINARY) + " " + args +
                          " > " + out_path + " 2>&1";
  const int status = std::system(cmd.c_str());
  std::ifstream in(out_path);
  std::ostringstream buf;
  buf << in.rdbuf();
  *output = buf.str();
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

TEST(Binary, ExitCodesAndDiagnosticsNameFileLine) {
  std::string out;
  EXPECT_EQ(run_binary(std::string(LINT_FIXTURE_DIR) + "/pass_tree", &out), 0);
  EXPECT_NE(out.find("frontier_lint: OK"), std::string::npos) << out;

  EXPECT_EQ(run_binary(std::string(LINT_FIXTURE_DIR) + "/fail_tree", &out), 1);
  EXPECT_NE(out.find("src/bad_clock.cpp:15: [determinism-no-wall-clock]"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("src/bad_header.hpp:1: [pragma-once]"),
            std::string::npos)
      << out;

  EXPECT_EQ(run_binary("/no/such/dir", &out), 2);
  EXPECT_EQ(run_binary("--list-rules", &out), 0);
  EXPECT_NE(out.find("determinism-no-wall-clock"), std::string::npos);
}
