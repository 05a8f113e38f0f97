// Unit tests for tools/piolint: each fixture file under tests/lint_fixtures/
// carries exactly one deliberate violation of one rule (or none), so rule
// regressions show up as changed counts, not vague diffs.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "piolint/index.hpp"
#include "piolint/lint.hpp"

namespace pio::lint {
namespace {

std::string fixture(const std::string& name) {
  return std::string(PIO_LINT_FIXTURE_DIR) + "/" + name;
}

std::vector<std::string> rules_of(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> rules;
  rules.reserve(diags.size());
  for (const auto& d : diags) rules.push_back(d.rule);
  return rules;
}

TEST(PiolintRules, D1FlagsBannedNondeterminismSource) {
  const auto diags = lint_file(fixture("d1_violation.cpp"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D1");
  EXPECT_EQ(diags[0].line, 5);
  EXPECT_NE(diags[0].message.find("std::rand"), std::string::npos);
}

TEST(PiolintRules, D1CatchesWallClockSeededFaultInjector) {
  // pio::fault's determinism contract: injector schedules come from the
  // campaign seed, never the wall clock. The linter is the enforcement.
  const auto diags = lint_file(fixture("d1_wallclock_injector.cpp"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D1");
  EXPECT_EQ(diags[0].line, 9);
}

TEST(PiolintRules, D1CatchesWallClockPacedRebuildPlanner) {
  // The durability layer's resync pacing draws from kRebuildRngStream; a
  // planner that jitters off the wall clock breaks byte-identical replay of
  // recovery schedules (DESIGN.md §9).
  const auto diags = lint_file(fixture("d1_wallclock_rebuild.cpp"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D1");
  EXPECT_EQ(diags[0].line, 10);
  EXPECT_NE(diags[0].message.find("time"), std::string::npos);
}

TEST(PiolintRules, D1CatchesWallClockAgedCacheEviction) {
  // pio::cache's determinism contract: page recency is logical list order,
  // never wall-clock age. A steady_clock-aged eviction policy makes cache
  // contents (and so hit counters and makespans) host-dependent, breaking
  // byte-identical replay of cached campaigns (DESIGN.md §10).
  const auto diags = lint_file(fixture("d1_wallclock_cache.cpp"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D1");
  EXPECT_EQ(diags[0].line, 10);
  EXPECT_NE(diags[0].message.find("steady_clock"), std::string::npos);
}

TEST(PiolintRules, D2FlagsUnorderedIterationFeedingOutput) {
  const auto diags = lint_file(fixture("d2_violation.cpp"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D2");
  EXPECT_NE(diags[0].message.find("counts"), std::string::npos);
}

TEST(PiolintRules, T1FlagsHandScaledTimeConversion) {
  const auto diags = lint_file(fixture("t1_violation.cpp"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "T1");
}

TEST(PiolintRules, T1ExemptsTypesHeaderItself) {
  const auto diags =
      lint_source("src/common/types.hpp",
                  "#pragma once\n"
                  "struct SimTime { double sec() const { return ns_ * 1e9; } };\n");
  EXPECT_TRUE(diags.empty());
}

TEST(PiolintRules, R1FlagsMissingNodiscardOnResultApi) {
  const auto diags = lint_file(fixture("r1_violation.hpp"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "R1");
  EXPECT_NE(diags[0].message.find("parse_count"), std::string::npos);
}

TEST(PiolintRules, R1SkipsOutOfLineMemberDefinitions) {
  const auto diags = lint_source(
      "src/h5/h5.cpp", "#include \"h5/h5.hpp\"\nResult<bool> H5File::create_group() {}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(PiolintRules, P1FlagsRawThreadingPrimitives) {
  const auto diags = lint_file(fixture("p1_raw_thread.cpp"));
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_EQ(diags[0].rule, "P1");
  EXPECT_EQ(diags[0].line, 15);
  EXPECT_NE(diags[0].message.find("std::thread"), std::string::npos);
  EXPECT_EQ(diags[1].rule, "P1");
  EXPECT_EQ(diags[1].line, 17);
  EXPECT_NE(diags[1].message.find("std::jthread"), std::string::npos);
  EXPECT_EQ(diags[2].rule, "P1");
  EXPECT_EQ(diags[2].line, 18);
  EXPECT_NE(diags[2].message.find("std::async"), std::string::npos);
}

TEST(PiolintRules, P1SkipsHardwareConcurrencyQuery) {
  // `std::thread::hardware_concurrency()` is a capability query, not a
  // thread spawn — the lookahead must keep it (and any other static member
  // access) out of scope.
  const auto diags = lint_source(
      "x.cpp", "unsigned n() { return std::thread::hardware_concurrency(); }\n");
  EXPECT_TRUE(diags.empty());
}

TEST(PiolintRules, H1FlagsMissingPragmaOnce) {
  const auto diags = lint_file(fixture("h1_missing_pragma.hpp"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "H1");
  EXPECT_EQ(diags[0].line, 1);
}

TEST(PiolintRules, H1FlagsUsingNamespaceInHeader) {
  const auto diags = lint_file(fixture("h1_using_namespace.hpp"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "H1");
  EXPECT_EQ(diags[0].line, 6);
}

TEST(PiolintRules, H2FlagsHandRolledFnvConstant) {
  const auto diags = lint_file(fixture("h2_fnv_copy.cpp"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "H2");
  EXPECT_EQ(diags[0].line, 5);
}

TEST(PiolintRules, H2ComparesByValueAndExemptsFnvHeader) {
  // Built from the constants themselves so this file spells none of them.
  std::ostringstream hex;
  hex << std::hex << std::uppercase << "0X" << kFnv1a64Basis;
  const std::string prime = std::to_string(kFnv64Prime);
  const std::string separated =
      prime.substr(0, prime.size() - 3) + "'" + prime.substr(prime.size() - 3);
  const std::string src = "#pragma once\nconstexpr auto a = " + std::to_string(kFnv64Offset) +
                          "ULL;\nconstexpr auto b = " + hex.str() +
                          "u;\nconstexpr auto c = " + separated + ";\n";
  const auto diags = lint_source("bench/fold.hpp", src);
  ASSERT_EQ(rules_of(diags), (std::vector<std::string>{"H2", "H2", "H2"}));
  EXPECT_EQ(diags[2].line, 4);
  EXPECT_TRUE(lint_source("src/common/fnv.hpp", src).empty());
}

TEST(PiolintRules, CleanHeaderHasNoFindings) {
  EXPECT_TRUE(lint_file(fixture("clean.hpp")).empty());
}

TEST(PiolintAllow, DirectivesSuppressSameLinePreviousLineAndFileWide) {
  EXPECT_TRUE(lint_file(fixture("allowed.cpp")).empty());
}

TEST(PiolintAllow, DirectiveDoesNotLeakToUnrelatedLines) {
  const auto diags = lint_source("x.cpp",
                                 "// piolint: allow(D1)\n"
                                 "int a() { return std::rand(); }\n"
                                 "int b() { return std::rand(); }\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 3);
}

TEST(PiolintScan, CollectFilesFindsAllFixtures) {
  const auto files = collect_files({std::string(PIO_LINT_FIXTURE_DIR)});
  EXPECT_GE(files.size(), 8u);
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
}

TEST(PiolintOutput, TextFormatIsFileLineRuleMessage) {
  const Diagnostic d{"src/a.cpp", 12, "D1", "bad"};
  EXPECT_EQ(to_text(d), "src/a.cpp:12:D1: bad");
}

TEST(PiolintOutput, JsonIsWellFormedAndEscaped) {
  const std::vector<Diagnostic> diags = {{"a\"b.cpp", 3, "H1", "line1\nline2"}};
  const std::string json = to_json(diags);
  EXPECT_NE(json.find("\"file\": \"a\\\"b.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
  EXPECT_EQ(to_json({}), "[]\n");
}

TEST(PiolintLexer, RawStringsAndCharLiteralsAreBlanked) {
  const auto diags = lint_source("x.cpp",
                                 "const char* s = R\"(std::rand() 1e9 .sec()\n"
                                 "random_device)\";\n"
                                 "char c = '\\'';\n");
  EXPECT_TRUE(rules_of(diags).empty());
}

TEST(PiolintLexer, DigitSeparatorsDoNotOpenCharLiterals) {
  const auto diags = lint_source("x.cpp",
                                 "constexpr long k = 1'000'000'000;\n"
                                 "int bad() { return std::rand(); }\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 2);
}

// ---------------------------------------------------------------------------
// Cross-TU analyzer (S1/D3/R2/C2/L1) over tests/lint_fixtures/xtu/.

std::vector<std::string> xtu(std::initializer_list<const char*> names) {
  std::vector<std::string> files;
  for (const char* n : names) files.push_back(fixture(std::string("xtu/") + n));
  return files;
}

std::vector<Diagnostic> project_diags(std::vector<std::string> files) {
  return lint_project(build_index(std::move(files)));
}

bool any_with(const std::vector<Diagnostic>& diags, const std::string& rule,
              const std::string& needle) {
  return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return d.rule == rule && d.message.find(needle) != std::string::npos;
  });
}

TEST(PiolintXtuS1, RegistryAloneIsClean) {
  EXPECT_TRUE(project_diags(xtu({"seed_streams.hpp"})).empty());
}

TEST(PiolintXtuS1, FlagsCollisionAndOutsideRegistryDefinition) {
  const auto diags = project_diags(xtu({"seed_streams.hpp", "s1_collision.hpp"}));
  // kGammaStream collides with the registry's kBetaStream (reported at both
  // definition sites) and is itself defined outside the registry.
  ASSERT_EQ(diags.size(), 3u);
  for (const auto& d : diags) EXPECT_EQ(d.rule, "S1");
  EXPECT_TRUE(any_with(diags, "S1", "collision: 'kGammaStream'"));
  EXPECT_TRUE(any_with(diags, "S1", "collision: 'kBetaStream'"));
  EXPECT_TRUE(any_with(diags, "S1", "outside the seed-stream registry"));
}

TEST(PiolintXtuS1, FlagsRawLiteralOfClaimedStreamOnly) {
  const auto diags = project_diags(xtu({"seed_streams.hpp", "s1_magic.cpp"}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "S1");
  EXPECT_NE(diags[0].file.find("s1_magic.cpp"), std::string::npos);
  EXPECT_NE(diags[0].message.find("kAlphaStream"), std::string::npos);
  // 0xDEADBEEF is not a claimed stream id, so only one finding exists.
}

TEST(PiolintXtuD3, FlagsCrossFileUnorderedIterationOnly) {
  const auto diags = project_diags(xtu({"d3_decl.hpp", "d3_use.cpp"}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D3");
  EXPECT_NE(diags[0].file.find("d3_use.cpp"), std::string::npos);
  EXPECT_NE(diags[0].message.find("pages_"), std::string::npos);
  EXPECT_NE(diags[0].message.find("d3_decl.hpp"), std::string::npos);
  // rows_ is declared ordered, so its loop stays silent.
}

TEST(PiolintXtuD3, SilentWithoutTheDeclaringFile) {
  EXPECT_TRUE(project_diags(xtu({"d3_use.cpp"})).empty());
}

TEST(PiolintXtuR2, FlagsDiscardedCrossTuResult) {
  const auto diags = project_diags(xtu({"r2_api.hpp", "r2_use.cpp"}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "R2");
  EXPECT_NE(diags[0].file.find("r2_use.cpp"), std::string::npos);
  EXPECT_EQ(diags[0].line, 8);
  EXPECT_NE(diags[0].message.find("parse_thing"), std::string::npos);
}

TEST(PiolintXtuR2, SameFileDeclarationIsNotCrossTu) {
  ProjectIndex idx;
  idx.files.push_back(analyze_source("one.cpp",
                                     "template <typename T> struct Result { T v; };\n"
                                     "[[nodiscard]] Result<int> local_thing();\n"
                                     "void drive() { local_thing(); }\n"));
  EXPECT_TRUE(lint_project(idx).empty());
}

TEST(PiolintXtuC2, FlagsByReferenceCapturesIntoDeferringSinks) {
  const auto diags = project_diags(xtu({"c2_capture.cpp"}));
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "C2");
  EXPECT_EQ(diags[0].line, 14);
  EXPECT_NE(diags[0].message.find("schedule_at"), std::string::npos);
  EXPECT_EQ(diags[1].rule, "C2");
  EXPECT_EQ(diags[1].line, 15);
  EXPECT_NE(diags[1].message.find("submit"), std::string::npos);
  // The by-value [x] and [=] lambdas on lines 16-17 stay silent.
}

TEST(PiolintXtuL1, FlagsLockOrderCycleAcrossFiles) {
  const auto diags = project_diags(xtu({"l1_cycle_a.cpp", "l1_cycle_b.cpp"}));
  ASSERT_GE(diags.size(), 1u);
  for (const auto& d : diags) EXPECT_EQ(d.rule, "L1");
  EXPECT_TRUE(any_with(diags, "L1", "m_a"));
  EXPECT_TRUE(any_with(diags, "L1", "m_b"));
}

TEST(PiolintXtuL1, ConsistentOrderAndScopedLockAreSilent) {
  // Either direction alone is a consistent order; the multi-arg scoped_lock
  // in l1_cycle_b.cpp acquires atomically and contributes no edge.
  EXPECT_TRUE(project_diags(xtu({"l1_cycle_a.cpp"})).empty());
  EXPECT_TRUE(project_diags(xtu({"l1_cycle_b.cpp"})).empty());
}

TEST(PiolintXtuAllow, DirectivesSuppressProjectRules) {
  EXPECT_TRUE(project_diags(xtu({"seed_streams.hpp", "xtu_allowed.cpp"})).empty());
}

// ---------------------------------------------------------------------------
// Determinism: the merged index and the diagnostic stream must be
// byte-identical at any --jobs count.

TEST(PiolintXtuIndex, ByteStableAcrossJobCounts) {
  const auto files = collect_files({std::string(PIO_LINT_FIXTURE_DIR)});
  ASSERT_GE(files.size(), 8u);
  const ProjectIndex one = build_index(files, 1);
  const ProjectIndex four = build_index(files, 4);
  const ProjectIndex eight = build_index(files, 8);
  EXPECT_EQ(dump_index(one), dump_index(four));
  EXPECT_EQ(dump_index(one), dump_index(eight));
  EXPECT_EQ(to_json(all_diagnostics(one)), to_json(all_diagnostics(four)));
  EXPECT_EQ(to_json(all_diagnostics(one)), to_json(all_diagnostics(eight)));
}

TEST(PiolintScan, CollectFilesPicksUpInlIppAndSkipsBuildDirs) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(testing::TempDir()) / "piolint_scan";
  fs::remove_all(root);
  fs::create_directories(root / "build");
  fs::create_directories(root / "sub");
  for (const char* rel : {"a.hpp", "b.inl", "sub/c.ipp", "build/d.cpp", "e.txt"}) {
    std::ofstream(root / rel) << "// x\n";
  }
  const auto files = collect_files({root.string()});
  ASSERT_EQ(files.size(), 3u);  // a.hpp, b.inl, sub/c.ipp; build/ and .txt skipped
  EXPECT_NE(files[0].find("a.hpp"), std::string::npos);
  EXPECT_NE(files[1].find("b.inl"), std::string::npos);
  EXPECT_NE(files[2].find("c.ipp"), std::string::npos);
  fs::remove_all(root);
}

// ---------------------------------------------------------------------------
// SARIF output and baseline files.

TEST(PiolintOutput, SarifIsWellFormedAndStable) {
  const std::vector<Diagnostic> diags = {{"src/a \"q\".cpp", 7, "S1", "msg\nline2"}};
  const std::string sarif = to_sarif(diags);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"S1\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 7"), std::string::npos);
  EXPECT_NE(sarif.find("src/a \\\"q\\\".cpp"), std::string::npos);
  EXPECT_NE(sarif.find("msg\\nline2"), std::string::npos);
  EXPECT_EQ(sarif, to_sarif(diags));  // pure function of the diagnostic list
  // An empty run still carries the tool metadata and an empty results array.
  EXPECT_NE(to_sarif({}).find("\"results\": []"), std::string::npos);
}

TEST(PiolintBaseline, RoundTripSuppressesOnlyListedFindings) {
  namespace fs = std::filesystem;
  const std::vector<Diagnostic> diags = {{"a.cpp", 1, "D1", "one"}, {"b.cpp", 2, "R2", "two"}};
  EXPECT_EQ(baseline_key(diags[0]), "a.cpp:1:D1");

  const fs::path path = fs::path(testing::TempDir()) / "piolint_baseline.txt";
  std::ofstream(path) << "# known findings\n\n"
                      << baseline_key(diags[0]) << "\n"
                      << to_text(diags[1]) << "\n";  // full text lines accepted too
  const auto baseline = read_baseline(path.string());
  EXPECT_EQ(baseline.size(), 2u);

  std::size_t suppressed = 0;
  const auto remaining = apply_baseline(diags, baseline, &suppressed);
  EXPECT_TRUE(remaining.empty());
  EXPECT_EQ(suppressed, 2u);

  const auto partial = apply_baseline({{"c.cpp", 9, "C2", "new"}}, baseline, &suppressed);
  ASSERT_EQ(partial.size(), 1u);
  EXPECT_EQ(partial[0].file, "c.cpp");
  fs::remove(path);
}

}  // namespace
}  // namespace pio::lint
