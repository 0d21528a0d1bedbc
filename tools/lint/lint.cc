// webcc_lint driver: tokenizes and parses every input file, merges the
// whole-program facts (annotations, acquired-before edges), then runs the
// per-file passes and the global cycle check. See lint.h for the rule
// catalogue and passes/ for the analyses themselves.
#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "passes/passes.h"
#include "scopes.h"
#include "tokenizer.h"

namespace webcc::lint {
namespace {

std::string Trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

// --- suppression pragmas ------------------------------------------------------
//
// Pragmas live in comments, which the tokenizer keeps as tokens — so this
// parses comment tokens, not raw lines, and a pragma spelled inside a
// string literal is (correctly) inert.

void ParsePragmaComment(const std::string& path, const Token& comment,
                        Reporter& reporter) {
  const std::string& text = comment.text;
  std::size_t pos = 0;
  while ((pos = text.find("webcc-lint:", pos)) != std::string::npos) {
    // Line of this occurrence (block comments can span lines).
    int line = comment.line;
    for (std::size_t i = 0; i < pos; ++i) {
      if (text[i] == '\n') ++line;
    }
    pos += std::string_view("webcc-lint:").size();
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    bool file_wide = false;
    if (text.compare(pos, 10, "allow-file") == 0) {
      file_wide = true;
      pos += 10;
    } else if (text.compare(pos, 5, "allow") == 0) {
      pos += 5;
    } else {
      continue;
    }
    if (pos >= text.size() || text[pos] != '(') continue;
    const std::size_t close = text.find(')', pos);
    if (close == std::string::npos) continue;
    std::istringstream rules(text.substr(pos + 1, close - pos - 1));
    std::string rule;
    while (std::getline(rules, rule, ',')) {
      rule = Trim(rule);
      // Rule ids are [a-z-]; anything else (like the `allow(<rule>)`
      // spelling in documentation) is not a pragma.
      const bool valid =
          !rule.empty() &&
          std::all_of(rule.begin(), rule.end(), [](char c) {
            return (c >= 'a' && c <= 'z') || c == '-';
          });
      if (!valid) continue;
      if (file_wide) {
        reporter.AddFileAllow(path, line, rule);
      } else {
        reporter.AddLineAllow(path, line, rule);
      }
    }
    pos = close;
  }
}

// --- the pipeline ---------------------------------------------------------------

FileContext BuildFileContext(std::string_view path, std::string_view text) {
  FileContext ctx;
  ctx.path = std::string(path);
  ctx.model = BuildScopeModel(Tokenize(text));
  ctx.unordered_names = CollectUnorderedNames(ctx.model);
  return ctx;
}

std::vector<Finding> LintContexts(std::vector<FileContext> files) {
  std::vector<Finding> findings;
  Reporter reporter(&findings);

  // Phase 0: suppressions, so every pass reports through them.
  for (const FileContext& file : files) {
    for (const Token& t : file.model.tokens) {
      if (t.kind == TokKind::kComment) {
        ParsePragmaComment(file.path, t, reporter);
      }
    }
  }

  // Phase 1: whole-program facts. A field annotated in a header is checked
  // in the .cc; a lock acquired in one TU orders against a lock acquired
  // in another.
  ProgramFacts facts;
  LockOrderGraph graph;
  for (const FileContext& file : files) {
    CollectProgramFacts(file, &facts);
    CollectLockOrder(file, &graph);
  }

  // Phase 2: per-file passes, then the global ones.
  for (const FileContext& file : files) {
    RunLegacyRules(file, reporter);
    RunLockDiscipline(file, facts, reporter);
    RunDeterminismTaint(file, reporter);
  }
  RunLockOrderCycles(graph, reporter);
  reporter.FlagStaleSuppressions();

  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  return findings;
}

// --- JSON ------------------------------------------------------------------------

void AppendJsonEscaped(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += "\\u00";
          *out += kHex[(c >> 4) & 0xf];
          *out += kHex[c & 0xf];
        } else {
          *out += c;
        }
    }
  }
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  AppendJsonEscaped(&out, s);
  out += '"';
  return out;
}

}  // namespace

// --- the reporter ------------------------------------------------------------------

void Reporter::AddLineAllow(const std::string& file, int line,
                            const std::string& rule) {
  pragmas_[file][line].push_back({rule, /*used=*/false, /*file_wide=*/false});
}

void Reporter::AddFileAllow(const std::string& file, int line,
                            const std::string& rule) {
  pragmas_[file][line].push_back({rule, /*used=*/false, /*file_wide=*/true});
}

bool Reporter::Suppress(const Finding& finding) {
  const auto fit = pragmas_.find(finding.file);
  if (fit == pragmas_.end()) return false;
  // File-wide allows first, then the finding's line or the line above.
  for (auto& [line, pragmas] : fit->second) {
    for (Pragma& p : pragmas) {
      if (p.file_wide && p.rule == finding.rule) {
        p.used = true;
        return true;
      }
    }
  }
  for (const int line : {finding.line, finding.line - 1}) {
    const auto lit = fit->second.find(line);
    if (lit == fit->second.end()) continue;
    for (Pragma& p : lit->second) {
      if (!p.file_wide && p.rule == finding.rule) {
        p.used = true;
        return true;
      }
    }
  }
  return false;
}

void Reporter::Report(Finding finding) {
  if (Suppress(finding)) return;
  std::string key = finding.file;
  key += '\0';
  key += std::to_string(finding.line);
  key += '\0';
  key += finding.rule;
  if (!seen_.insert(std::move(key)).second) return;  // duplicate
  findings_->push_back(std::move(finding));
}

void Reporter::FlagStaleSuppressions() {
  for (auto& [file, lines] : pragmas_) {
    for (auto& [line, pragmas] : lines) {
      for (const Pragma& p : pragmas) {
        if (p.used) continue;
        // A pragma for a rule that cannot fire here (path-exempt file) is
        // documentation, not staleness — thread_annotations.h keeps its
        // allow(raw-mutex) markers even though the rule skips the file.
        if (!RuleAppliesToPath(p.rule, file)) continue;
        Finding f;
        f.file = file;
        f.line = line;
        f.rule = "stale-suppression";
        f.pass = "suppressions";
        f.severity = "warning";
        f.message = std::string("suppression 'webcc-lint: ") +
                    (p.file_wide ? "allow-file(" : "allow(") + p.rule +
                    ")' never fires; remove it or fix the rule id";
        Report(std::move(f));  // itself suppressible and deduplicated
      }
    }
  }
}

// --- public API ---------------------------------------------------------------------

std::vector<std::string_view> RuleIds() {
  return {"determinism-clock",
          "unordered-iter-in-dump",
          "raw-mutex",
          "naked-send",
          "guarded-by-unlocked",
          "lock-order-cycle",
          "determinism-taint",
          "stale-suppression"};
}

std::vector<Finding> LintFile(std::string_view path, std::string_view text) {
  std::vector<FileContext> files;
  files.push_back(BuildFileContext(path, text));
  return LintContexts(std::move(files));
}

std::vector<Finding> LintPaths(const std::vector<std::string>& paths,
                               std::vector<std::string>& errors) {
  namespace fs = std::filesystem;
  std::vector<std::string> names;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (fs::recursive_directory_iterator it(path, ec), end;
           it != end && !ec; it.increment(ec)) {
        if (!it->is_regular_file()) continue;
        const std::string ext = it->path().extension().string();
        if (ext == ".cc" || ext == ".h") names.push_back(it->path().string());
      }
      if (ec) errors.push_back(path + ": " + ec.message());
    } else if (fs::is_regular_file(path, ec)) {
      names.push_back(path);
    } else {
      errors.push_back(path + ": not a file or directory");
    }
  }
  std::sort(names.begin(), names.end());  // deterministic report order

  std::vector<FileContext> files;
  for (const std::string& name : names) {
    std::ifstream in(name, std::ios::binary);
    if (!in) {
      errors.push_back(name + ": cannot open");
      continue;
    }
    std::ostringstream text;
    text << in.rdbuf();
    files.push_back(BuildFileContext(name, text.str()));
  }
  return LintContexts(std::move(files));
}

void WriteFindings(std::ostream& out, const std::vector<Finding>& findings,
                   bool json) {
  for (const Finding& f : findings) {
    if (json) {
      std::string line = "{\"file\":" + JsonString(f.file) +
                         ",\"line\":" + std::to_string(f.line) +
                         ",\"rule\":" + JsonString(f.rule) +
                         ",\"severity\":" + JsonString(f.severity) +
                         ",\"pass\":" + JsonString(f.pass) +
                         ",\"message\":" + JsonString(f.message);
      if (!f.witness.empty()) {
        line += ",\"witness\":[";
        for (std::size_t i = 0; i < f.witness.size(); ++i) {
          const WitnessStep& w = f.witness[i];
          if (i > 0) line += ',';
          line += "{\"file\":" + JsonString(w.file) +
                  ",\"line\":" + std::to_string(w.line) +
                  ",\"note\":" + JsonString(w.note) + "}";
        }
        line += ']';
      }
      line += "}";
      out << line << "\n";
    } else {
      out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
          << "\n";
      for (const WitnessStep& w : f.witness) {
        out << "    " << w.file << ":" << w.line << ": " << w.note << "\n";
      }
    }
  }
}

int RunLintMain(const std::vector<std::string>& argv, std::ostream& out,
                std::ostream& err) {
  bool json = false;
  bool strict_suppressions = false;
  std::vector<std::string> paths;
  for (const std::string& arg : argv) {
    if (arg == "--json") {
      json = true;
    } else if (arg == "--strict-suppressions") {
      strict_suppressions = true;
    } else if (arg == "--help" || arg == "-h") {
      out << "usage: webcc_lint [--json] [--strict-suppressions] "
             "<file-or-dir>...\n"
             "rules:";
      for (const std::string_view rule : RuleIds()) out << ' ' << rule;
      out << "\nexit: 0 clean, 1 findings, 2 errors\n"
             "warnings (stale-suppression) exit 0 unless "
             "--strict-suppressions\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "webcc_lint: unknown flag '" << arg << "'\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    err << "webcc_lint: no paths given (try: webcc_lint src)\n";
    return 2;
  }
  std::vector<std::string> errors;
  const std::vector<Finding> findings = LintPaths(paths, errors);
  WriteFindings(out, findings, json);
  for (const std::string& error : errors) {
    err << "webcc_lint: " << error << "\n";
  }
  if (!errors.empty()) return 2;
  std::size_t error_count = 0, warning_count = 0;
  for (const Finding& f : findings) {
    (f.severity == "warning" ? warning_count : error_count) += 1;
  }
  if (error_count != 0 || (strict_suppressions && warning_count != 0)) {
    err << "webcc_lint: " << error_count << " finding(s), " << warning_count
        << " warning(s)\n";
    return 1;
  }
  return 0;
}

}  // namespace webcc::lint
