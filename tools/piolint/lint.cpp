#include "piolint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "common/fnv.hpp"
#include "piolint/lex.hpp"

namespace pio::lint {

namespace {

using lex::balance_angles;
using lex::header_path;
using lex::is_ident;
using lex::json_escape;
using lex::line_of;
using lex::skip_ws;

// ---------------------------------------------------------------------------
// Rules.
// ---------------------------------------------------------------------------

struct Sink {
  const std::string& path;
  const lex::Allows& allows;
  std::vector<Diagnostic>& out;

  void report(int line, const char* rule, std::string message) const {
    if (allows.allowed(rule, line)) return;
    out.push_back(Diagnostic{path, line, rule, std::move(message)});
  }
};

// D1: nondeterminism sources. Everything stochastic or time-like in library
// code must flow through pio::Rng substreams / the simulated clock.
void rule_d1(const std::string& code, const Sink& sink) {
  static const std::regex kBanned(
      R"(\bstd::rand\b|\brand\s*\(|\bsrand\s*\(|\brandom_device\b)"
      R"(|\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\b)"
      R"(|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\))"
      R"(|\bgettimeofday\s*\(|\bclock_gettime\s*\(|\bgetpid\s*\()");
  for (std::sregex_iterator it(code.begin(), code.end(), kBanned), end; it != end; ++it) {
    std::string tok = it->str();
    tok.erase(std::remove_if(tok.begin(), tok.end(),
                             [](char c) { return c == '(' || std::isspace(static_cast<unsigned char>(c)) != 0; }),
              tok.end());
    sink.report(line_of(code, static_cast<std::size_t>(it->position())), "D1",
                "nondeterminism source '" + tok +
                    "': route randomness through pio::Rng substreams and time through the "
                    "sim clock");
  }
}

// D2: iteration over unordered containers declared in this file. Iteration
// order is implementation-defined; it must never feed ordered output.
void rule_d2(const std::string& code, const Sink& sink) {
  const std::set<std::string> unordered_vars =
      lex::collect_decl_names(code, lex::unordered_decl_regex());
  if (unordered_vars.empty()) return;
  for (const lex::IterUse& use : lex::collect_iteration_uses(code)) {
    if (unordered_vars.count(use.name) == 0) continue;
    if (use.range_for) {
      sink.report(use.line, "D2",
                  "iteration over unordered container '" + use.name +
                      "': order is implementation-defined and must not feed ordered output "
                      "(sort keys first, or justify with piolint: allow(D2))");
    } else {
      sink.report(use.line, "D2",
                  "iterator walk over unordered container '" + use.name +
                      "': order is implementation-defined and must not feed ordered output");
    }
  }
}

// T1: manual float time-unit conversion. A power-of-ten scale literal next to
// SimTime accessors means hand-rolled ns<->us/ms/s math; all conversions
// belong in common/types.hpp (SimTime::from_* / .sec()/.ms()/.us()).
void rule_t1(const std::string& path, const std::vector<std::string>& lines, const Sink& sink) {
  if (path.size() >= 16 && path.rfind("common/types.hpp") == path.size() - 16) return;
  static const std::regex kScale(R"(\b1\.?0?e[-+]?0*[369]\b)");
  static const std::regex kSimTimeToken(
      R"(\bSimTime\b|\.\s*(?:ns|us|ms|sec)\s*\(|\b\w+_ns\b|\bns_\b)");
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& l = lines[i];
    if (!std::regex_search(l, kScale)) continue;
    if (!std::regex_search(l, kSimTimeToken)) continue;
    sink.report(static_cast<int>(i), "T1",
                "raw float time-unit arithmetic: use SimTime::from_* / accessor methods "
                "from common/types.hpp instead of hand-scaling by 1e3/1e6/1e9");
  }
}

// R1: functions returning pio::Result<T> must be [[nodiscard]] — a silently
// dropped Result is a swallowed I/O error.
void rule_r1(const std::string& code, const Sink& sink) {
  static const std::regex kResult(R"(\b(?:pio\s*::\s*)?Result\s*<)");
  for (std::sregex_iterator it(code.begin(), code.end(), kResult), end; it != end; ++it) {
    const auto match_pos = static_cast<std::size_t>(it->position());
    // Skip when this Result<...> is itself nested in a larger template
    // argument list or preceded by '<' (e.g. vector<Result<T>>).
    const std::size_t open = match_pos + static_cast<std::size_t>(it->length()) - 1;
    const std::size_t after = balance_angles(code, open);
    if (after == std::string::npos) continue;
    std::size_t p = skip_ws(code, after);
    // Function declarator: [qualified] identifier followed by '('.
    const std::size_t name_start = p;
    bool qualified = false;
    while (p < code.size()) {
      if (is_ident(code[p])) {
        ++p;
      } else if (code[p] == ':' && p + 1 < code.size() && code[p + 1] == ':') {
        qualified = true;
        p += 2;
      } else {
        break;
      }
    }
    if (p == name_start) continue;            // not a declarator (value/temporary)
    const std::size_t q = skip_ws(code, p);
    if (q >= code.size() || code[q] != '(') continue;  // variable, member, etc.
    if (qualified) continue;  // out-of-line definition; attribute lives on the declaration
    const std::string name = code.substr(name_start, p - name_start);
    if (name == "if" || name == "while" || name == "for" || name == "switch" ||
        name == "return") {
      continue;
    }
    // Scan back to the start of this declaration (previous ; { } or access
    // specifier colon) and look for [[nodiscard]].
    std::size_t begin = match_pos;
    while (begin > 0) {
      const char c = code[begin - 1];
      if (c == ';' || c == '{' || c == '}' || c == '(') break;
      if (c == ':') {
        if (begin >= 2 && code[begin - 2] == ':') {
          begin -= 2;
          continue;
        }
        break;
      }
      --begin;
    }
    if (code.substr(begin, match_pos - begin).find("[[nodiscard]]") != std::string::npos) {
      continue;
    }
    sink.report(line_of(code, match_pos), "R1",
                "function '" + name +
                    "' returns pio::Result but is not [[nodiscard]]; a dropped Result is a "
                    "swallowed I/O error");
  }
}

// P1: raw threading primitives. Every std::thread/std::jthread/std::async
// use outside the sanctioned pool internals (src/exec) and shared-memory
// collectives (src/par) is a determinism hazard: ad-hoc threads race on
// merge order and bypass the ordered-merge contract of exec::Pool. The rule
// is annotation-based, not path-based — sanctioned sites carry
// `piolint: allow(P1)` so every exemption is visible at the use site.
// The lookahead keeps `std::thread::hardware_concurrency()` (a query, not a
// spawn) out of scope.
void rule_p1(const std::string& code, const Sink& sink) {
  static const std::regex kRawThread(
      R"(\bstd\s*::\s*(?:thread|jthread)\b(?!\s*::)|\bstd\s*::\s*async\b)");
  for (std::sregex_iterator it(code.begin(), code.end(), kRawThread), end; it != end; ++it) {
    std::string tok = it->str();
    tok.erase(std::remove_if(tok.begin(), tok.end(),
                             [](char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }),
              tok.end());
    sink.report(line_of(code, static_cast<std::size_t>(it->position())), "P1",
                "raw threading primitive '" + tok +
                    "': fan work out through exec::Pool (ordered merge, deterministic "
                    "seeds); pool/collective internals justify with piolint: allow(P1)");
  }
}

// H1: header hygiene.
void rule_h1(const std::string& path, const std::string& code,
             const std::vector<std::string>& lines, const Sink& sink) {
  if (!header_path(path)) return;
  static const std::regex kPragmaOnce(R"(#\s*pragma\s+once\b)");
  if (!std::regex_search(code, kPragmaOnce)) {
    sink.report(1, "H1", "header is missing #pragma once");
  }
  static const std::regex kUsingNamespace(R"(\busing\s+namespace\b)");
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (std::regex_search(lines[i], kUsingNamespace)) {
      sink.report(static_cast<int>(i), "H1",
                  "using-namespace in a header leaks into every includer");
    }
  }
}

// H2: an FNV-1a offset basis or the prime outside common/fnv.hpp. A local
// copy is a second digest definition that can drift from the one the
// goldens pin; fold through pio::Fnv64 or the library digests instead.
// Literals are compared by value, so hex, digit separators and suffixes
// are caught too.
void rule_h2(const std::string& path, const std::string& code, const Sink& sink) {
  if (path.size() >= 14 && path.rfind("common/fnv.hpp") == path.size() - 14) return;
  static const std::regex kInteger(R"(\b(?:0[xX][0-9a-fA-F']+|[1-9][0-9']*)[uUlL]*\b)");
  for (std::sregex_iterator it(code.begin(), code.end(), kInteger), end; it != end; ++it) {
    std::string digits = it->str();
    digits.erase(std::remove(digits.begin(), digits.end(), '\''), digits.end());
    const std::uint64_t value = std::strtoull(digits.c_str(), nullptr, 0);
    if (value != kFnv64Offset && value != kFnv64Prime && value != kFnv1a64Basis) continue;
    sink.report(line_of(code, static_cast<std::size_t>(it->position())), "H2",
                "FNV-1a constant outside common/fnv.hpp: fold through pio::Fnv64 or a "
                "library digest instead of a local copy");
  }
}

}  // namespace

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {"D1", "banned nondeterminism source (rand/random_device/wall clocks)"},
      {"D2", "iteration over std::unordered_{map,set} (order feeds output)"},
      {"T1", "raw float time-unit arithmetic outside common/types.hpp"},
      {"R1", "pio::Result-returning function missing [[nodiscard]]"},
      {"P1", "raw std::thread/std::jthread/std::async outside exec::Pool internals"},
      {"H1", "header hygiene (#pragma once, no using-namespace)"},
      {"H2", "FNV-1a offset or prime spelled outside common/fnv.hpp"},
      {"S1", "seed-stream registry: collisions / stream ids outside seed_streams.hpp"},
      {"D3", "iteration over an unordered container declared in another file"},
      {"R2", "discarded pio::Result from a function declared in another TU"},
      {"C2", "by-reference lambda capture passed to a deferred sink"},
      {"L1", "lock-order cycle across the project's mutex graph"},
  };
  return kRules;
}

std::vector<Diagnostic> lint_source(const std::string& path, const std::string& content) {
  const lex::Stripped stripped = lex::strip(content);
  const lex::Allows allows = lex::parse_allows(stripped);
  const std::vector<std::string> lines = lex::split_lines(stripped.code);

  std::vector<Diagnostic> diags;
  const Sink sink{path, allows, diags};
  rule_d1(stripped.code, sink);
  rule_d2(stripped.code, sink);
  rule_t1(path, lines, sink);
  rule_r1(stripped.code, sink);
  rule_p1(stripped.code, sink);
  rule_h1(path, stripped.code, lines, sink);
  rule_h2(path, stripped.code, sink);

  std::sort(diags.begin(), diags.end(), [](const Diagnostic& a, const Diagnostic& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return diags;
}

std::vector<Diagnostic> lint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {Diagnostic{path, 0, "IO", "cannot open file"}};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return lint_source(path, buf.str());
}

std::vector<std::string> collect_files(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  static const std::set<std::string> kExts = {".hpp", ".h",   ".hxx", ".cpp",
                                              ".cc",  ".cxx", ".inl", ".ipp"};
  // Subtrees never worth linting, even when a scan is rooted at the repo
  // top: build output, VCS internals, and the deliberately-violating lint
  // fixtures (which only make sense as test data). A skipped name only
  // prunes *descent* — a path passed explicitly is always honoured.
  static const std::set<std::string> kSkipDirs = {"build", ".git", "lint_fixtures"};
  std::vector<std::string> files;
  for (const auto& p : paths) {
    std::error_code ec;
    if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
      continue;
    }
    if (!fs::is_directory(p, ec)) continue;
    for (fs::recursive_directory_iterator it(p, ec), end; it != end; it.increment(ec)) {
      if (ec) break;
      if (it->is_directory(ec) && kSkipDirs.count(it->path().filename().string()) != 0) {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file(ec)) continue;
      if (kExts.count(it->path().extension().string()) != 0) {
        files.push_back(it->path().string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

std::string to_text(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ":" + d.rule + ": " + d.message;
}

std::string to_json(const std::vector<Diagnostic>& diags) {
  std::string out = "[";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    if (i != 0) out += ",";
    out += "\n  {\"file\": \"";
    json_escape(out, diags[i].file);
    out += "\", \"line\": " + std::to_string(diags[i].line) + ", \"rule\": \"";
    json_escape(out, diags[i].rule);
    out += "\", \"message\": \"";
    json_escape(out, diags[i].message);
    out += "\"}";
  }
  out += diags.empty() ? "]" : "\n]";
  out += "\n";
  return out;
}

std::string to_sarif(const std::vector<Diagnostic>& diags) {
  // Minimal SARIF 2.1.0: one run, the static rule table as
  // tool.driver.rules, one result per diagnostic. Field order and the
  // pre-sorted diagnostics keep the report byte-stable across thread counts.
  std::string out;
  out += "{\n";
  out += "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  out += "  \"version\": \"2.1.0\",\n";
  out += "  \"runs\": [\n    {\n";
  out += "      \"tool\": {\n        \"driver\": {\n";
  out += "          \"name\": \"piolint\",\n";
  out += "          \"informationUri\": \"tools/piolint\",\n";
  out += "          \"rules\": [\n";
  const auto& rule_table = rules();
  for (std::size_t i = 0; i < rule_table.size(); ++i) {
    out += "            {\"id\": \"";
    json_escape(out, rule_table[i].id);
    out += "\", \"shortDescription\": {\"text\": \"";
    json_escape(out, rule_table[i].summary);
    out += "\"}}";
    out += i + 1 < rule_table.size() ? ",\n" : "\n";
  }
  out += "          ]\n        }\n      },\n";
  if (diags.empty()) {
    out += "      \"results\": []\n    }\n  ]\n}\n";
    return out;
  }
  out += "      \"results\": [\n";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    out += "        {\"ruleId\": \"";
    json_escape(out, d.rule);
    out += "\", \"level\": \"error\", \"message\": {\"text\": \"";
    json_escape(out, d.message);
    out += "\"}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": {\"uri\": \"";
    json_escape(out, d.file);
    out += "\"}, \"region\": {\"startLine\": " + std::to_string(d.line < 1 ? 1 : d.line) +
           "}}}]}";
    out += i + 1 < diags.size() ? ",\n" : "\n";
  }
  out += "      ]\n    }\n  ]\n}\n";
  return out;
}

std::string baseline_key(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ":" + d.rule;
}

std::set<std::string> read_baseline(const std::string& path) {
  std::set<std::string> keys;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    // Trim, skip blanks and '#' comments; keep only "file:line:rule" (a full
    // to_text line is accepted — everything past the third colon is ignored).
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    line = line.substr(first);
    if (line[0] == '#') continue;
    std::size_t colon = line.find(':');
    if (colon != std::string::npos) colon = line.find(':', colon + 1);
    if (colon != std::string::npos) colon = line.find(':', colon + 1);
    keys.insert(colon == std::string::npos ? line : line.substr(0, colon));
  }
  return keys;
}

std::vector<Diagnostic> apply_baseline(std::vector<Diagnostic> diags,
                                       const std::set<std::string>& baseline,
                                       std::size_t* suppressed) {
  if (suppressed != nullptr) *suppressed = 0;
  if (baseline.empty()) return diags;
  std::vector<Diagnostic> kept;
  kept.reserve(diags.size());
  for (auto& d : diags) {
    if (baseline.count(baseline_key(d)) != 0) {
      if (suppressed != nullptr) ++*suppressed;
    } else {
      kept.push_back(std::move(d));
    }
  }
  return kept;
}

}  // namespace pio::lint
