// piolint: PIOEval's project-specific determinism/hygiene linter.
//
// A lightweight lexer-level static analyzer (no libclang, no third-party
// dependencies) that enforces the invariants the simulator's determinism
// contract rests on (src/sim/engine.hpp): all randomness through pio::Rng,
// all simulated-time math through SimTime, no iteration order leaking from
// unordered containers into ordered output, no silently dropped pio::Result,
// and basic header hygiene.
//
// Rules (stable IDs, referenced by the allow escape hatch and DESIGN.md):
//   D1  banned nondeterminism source (std::rand, std::random_device,
//       std::chrono::*_clock::now, time(nullptr), gettimeofday, ...)
//   D2  range-for / .begin() iteration over a std::unordered_{map,set}
//       variable declared in the same file (iteration order is
//       implementation-defined and must not feed ordered output)
//   T1  raw float/double time-unit arithmetic (a 1e3/1e6/1e9-style scale
//       literal combined with SimTime accessors) outside common/types.hpp
//   R1  function declaration returning pio::Result<T> without [[nodiscard]]
//   H1  header hygiene: missing #pragma once, or using-namespace at header
//       scope
//   H2  the FNV-1a offset basis or prime spelled outside common/fnv.hpp
//
// Cross-TU rules (S1, D3, R2, C2, L1) run over the merged project index —
// see piolint/index.hpp.
//
// Escape hatches, checked per line (same line or the line directly above):
//   // piolint: allow(D1)          suppress one or more rules: allow(D1,T1)
//   // piolint: allow-file(D2)     suppress a rule for the whole file
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

namespace pio::lint {

/// One finding. `rule` is the stable ID ("D1", ...), `line` is 1-based.
struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// Static description of a rule, for --list-rules and docs.
struct RuleInfo {
  const char* id;
  const char* summary;
};

/// All rules, in report order.
[[nodiscard]] const std::vector<RuleInfo>& rules();

/// Lint one translation unit given its (display) path and full contents.
/// `path` decides header-only rules (H1) and the types.hpp exemption (T1).
[[nodiscard]] std::vector<Diagnostic> lint_source(const std::string& path,
                                                  const std::string& content);

/// Lint a file on disk. Unreadable files produce a single "IO" diagnostic.
[[nodiscard]] std::vector<Diagnostic> lint_file(const std::string& path);

/// Recursively collect lintable files (.hpp/.h/.hxx/.cpp/.cc/.cxx/.inl/.ipp)
/// under each path; a path that is itself a regular file is taken as-is.
/// Descent skips directories named `build`, `.git`, and `lint_fixtures`
/// (deliberately-violating test data), so a scan rooted at the repo top does
/// not lint build output. Results are sorted so output is stable across
/// platforms.
[[nodiscard]] std::vector<std::string> collect_files(const std::vector<std::string>& paths);

/// Format one diagnostic as "file:line:rule: message".
[[nodiscard]] std::string to_text(const Diagnostic& d);

/// Format all diagnostics as a JSON array (stable field order).
[[nodiscard]] std::string to_json(const std::vector<Diagnostic>& diags);

/// Format all diagnostics as a SARIF 2.1.0 log (one run, static rule table,
/// stable field order — byte-identical for equal diagnostic lists).
[[nodiscard]] std::string to_sarif(const std::vector<Diagnostic>& diags);

/// Baseline support: a checked-in file of known findings keyed
/// "file:line:rule" (full `to_text` lines are accepted; '#' comments and
/// blank lines are ignored). New findings fail the gate while pre-existing
/// allows stay visible in the baseline file itself.
[[nodiscard]] std::string baseline_key(const Diagnostic& d);
[[nodiscard]] std::set<std::string> read_baseline(const std::string& path);
[[nodiscard]] std::vector<Diagnostic> apply_baseline(std::vector<Diagnostic> diags,
                                                     const std::set<std::string>& baseline,
                                                     std::size_t* suppressed = nullptr);

}  // namespace pio::lint
