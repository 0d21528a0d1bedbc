// Four of the v1 webcc_lint rules, reimplemented on the token stream. Rule
// ids, messages and path scoping match the line-scanner version (the
// fixture suite pins them); what changed is fidelity — string literals,
// raw strings, comments and member-qualified calls can no longer trip a
// rule, because the rules see tokens, not characters.
#include <set>
#include <string>
#include <string_view>

#include "passes.h"

namespace webcc::lint {
namespace {

constexpr std::string_view kDeterminismClock = "determinism-clock";
constexpr std::string_view kUnorderedIter = "unordered-iter-in-dump";
constexpr std::string_view kRawMutex = "raw-mutex";
constexpr std::string_view kNakedSend = "naked-send";

bool PathContains(std::string_view path, std::string_view piece) {
  return path.find(piece) != std::string_view::npos;
}

struct RuleScan {
  const FileContext& file;
  Reporter& reporter;
  const ScopeModel& model;

  const Token& Tok(std::size_t k) const { return model.Tok(k); }
  bool IsPunct(std::size_t k, std::string_view p) const {
    const Token& t = Tok(k);
    return t.kind == TokKind::kPunct && t.text == p;
  }
  bool PrevIsMemberAccess(std::size_t k) const {
    return k > 0 && (IsPunct(k - 1, ".") || IsPunct(k - 1, "->"));
  }
  bool PrevIsStd(std::size_t k) const {
    return k >= 2 && IsPunct(k - 1, "::") && Tok(k - 2).kind == TokKind::kIdent &&
           Tok(k - 2).text == "std";
  }
  bool NextIsCall(std::size_t k) const {
    return k + 1 < model.code.size() && IsPunct(k + 1, "(");
  }
  bool InDump(std::size_t k) const {
    const int s = model.scope_of[k];
    return s >= 0 && model.scopes[static_cast<std::size_t>(s)].in_dump;
  }

  void Report(int line, std::string_view rule, std::string message) {
    Finding f;
    f.file = file.path;
    f.line = line;
    f.rule = std::string(rule);
    f.pass = "scanner";
    f.message = std::move(message);
    reporter.Report(std::move(f));
  }

  // --- determinism-clock ------------------------------------------------------

  void CheckClock(std::size_t k) {
    static const std::set<std::string, std::less<>> kClockTypes = {
        "random_device", "system_clock", "steady_clock",
        "high_resolution_clock"};
    static const std::set<std::string, std::less<>> kClockCalls = {
        "rand",          "srand", "gettimeofday",
        "clock_gettime", "time",  "timespec_get",
        "clock"};
    const std::string& word = Tok(k).text;
    if (PrevIsMemberAccess(k)) return;  // x.time(...) is a member, not libc
    if (kClockTypes.count(word) != 0) {
      // Any qualification fires: std::chrono::steady_clock reads the same
      // wall clock however it is spelled.
      const std::string shown = PrevIsStd(k) ? "std::" + word : word;
      Report(Tok(k).line, kDeterminismClock,
             "nondeterministic source '" + shown +
                 "' in replay code; use the simulated clock or a seeded "
                 "util::Rng");
      return;
    }
    if (kClockCalls.count(word) != 0 && NextIsCall(k)) {
      // `other_ns::time(` is a different function; bare, `::time(` and
      // `std::time(` are the libc clock.
      if (k >= 2 && IsPunct(k - 1, "::") &&
          Tok(k - 2).kind == TokKind::kIdent && Tok(k - 2).text != "std") {
        return;
      }
      Report(Tok(k).line, kDeterminismClock,
             "nondeterministic call '" + word +
                 "(' in replay code; use the simulated clock or a seeded "
                 "util::Rng");
    }
  }

  // --- raw-mutex ---------------------------------------------------------------

  void CheckRawMutexInclude(const Token& pp) {
    for (const std::string_view header :
         {"<mutex>", "<condition_variable>", "<shared_mutex>"}) {
      if (pp.text.find("include") != std::string::npos &&
          pp.text.find(header) != std::string::npos) {
        Report(pp.line, kRawMutex,
               "raw '#include " + std::string(header) +
                   "' is invisible to thread-safety analysis; use "
                   "util::Mutex/MutexLock (util/thread_annotations.h)");
        return;
      }
    }
  }

  void CheckRawMutex(std::size_t k) {
    static const std::set<std::string, std::less<>> kRawTypes = {
        "mutex",       "timed_mutex",        "recursive_mutex",
        "shared_mutex", "lock_guard",        "unique_lock",
        "scoped_lock", "condition_variable", "condition_variable_any"};
    const std::string& word = Tok(k).text;
    if (kRawTypes.count(word) == 0 || !PrevIsStd(k)) return;
    Report(Tok(k).line, kRawMutex,
           "raw 'std::" + word +
               "' is invisible to thread-safety analysis; use "
               "util::Mutex/MutexLock (util/thread_annotations.h)");
  }

  // --- unordered-iter-in-dump --------------------------------------------------

  void CheckUnorderedIter(std::size_t k) {
    const std::string& word = Tok(k).text;
    if (word == "for" && NextIsCall(k) && InDump(k)) {
      // Range-for: `for ( init : range )` — flag unordered names in range.
      const std::size_t n = model.code.size();
      int depth = 0;
      std::size_t colon = 0, close = 0;
      for (std::size_t j = k + 1; j < n; ++j) {
        if (IsPunct(j, "(")) ++depth;
        if (IsPunct(j, ")") && --depth == 0) {
          close = j;
          break;
        }
        if (depth == 1 && IsPunct(j, ":") && colon == 0) colon = j;
      }
      if (colon == 0 || close == 0) return;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (Tok(j).kind != TokKind::kIdent) continue;
        if (file.unordered_names.count(Tok(j).text) == 0) continue;
        Report(Tok(k).line, kUnorderedIter,
               "iterating unordered container '" + Tok(j).text +
                   "' in an output path; sort first or use an ordered "
                   "container");
        return;
      }
      return;
    }
    // Iterator-style walks: x.begin() over a declared-unordered container.
    if (word == "begin" && NextIsCall(k) && k >= 2 && IsPunct(k - 1, ".") &&
        Tok(k - 2).kind == TokKind::kIdent && InDump(k) &&
        file.unordered_names.count(Tok(k - 2).text) != 0) {
      Report(Tok(k).line, kUnorderedIter,
             "iterating unordered container '" + Tok(k - 2).text +
                 "' in an output path; sort first or use an ordered "
                 "container");
    }
  }

  // --- naked-send --------------------------------------------------------------

  void CheckNakedSend(std::size_t k) {
    const std::string& word = Tok(k).text;
    if (!NextIsCall(k)) return;
    if (word == "send" || word == "recv") {
      if (PrevIsMemberAccess(k)) return;
      Report(Tok(k).line, kNakedSend,
             "direct socket I/O '" + word +
                 "(' bypasses the classified IoError path; go through "
                 "live/socket.h");
      return;
    }
    if ((word == "write" || word == "read") && k >= 1 && IsPunct(k - 1, "::")) {
      // The `::write(` / `::read(` syscall spellings (v1 flagged any
      // ::-qualified form; member calls fall through above).
      Report(Tok(k).line, kNakedSend,
             "direct socket I/O '::" + word +
                 "(' bypasses the classified IoError path; go through "
                 "live/socket.h");
    }
  }
};

}  // namespace

// --- per-rule path scoping (unchanged from v1) ---------------------------------

bool RuleAppliesToPath(std::string_view rule, std::string_view path) {
  const auto ends_with = [path](std::string_view tail) {
    return path.size() >= tail.size() &&
           path.substr(path.size() - tail.size()) == tail;
  };
  if (rule == kDeterminismClock) {
    // The live stack and CLI run on real wall clocks; util owns the
    // sanctioned clock/RNG plumbing itself.
    return !PathContains(path, "/live/") && !PathContains(path, "/cli/") &&
           !PathContains(path, "/util/");
  }
  if (rule == kRawMutex) {
    return !ends_with("util/thread_annotations.h");
  }
  if (rule == kNakedSend) {
    return PathContains(path, "live") && !ends_with("live/socket.cc") &&
           !ends_with("live/socket.h");
  }
  return true;  // unordered-iter-in-dump, new passes
}

std::set<std::string> CollectUnorderedNames(const ScopeModel& model) {
  std::set<std::string> names;
  const std::size_t n = model.code.size();
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const Token& t = model.Tok(k);
    if (t.kind != TokKind::kIdent ||
        (t.text != "unordered_map" && t.text != "unordered_set")) {
      continue;
    }
    const Token& open = model.Tok(k + 1);
    if (open.kind != TokKind::kPunct || open.text != "<") continue;
    // Skip the template argument list; `>>` closes two levels.
    int depth = 0;
    std::size_t j = k + 1;
    for (; j < n; ++j) {
      const Token& u = model.Tok(j);
      if (u.kind != TokKind::kPunct) continue;
      if (u.text == "<") ++depth;
      if (u.text == ">") --depth;
      if (u.text == ">>") depth -= 2;
      if (depth <= 0 && (u.text == ">" || u.text == ">>")) break;
    }
    // First plain identifier after the '>' is the declared name
    // (`std::unordered_map<K, V> interns_ WEBCC_GUARDED_BY(mu_);`).
    for (++j; j < n; ++j) {
      const Token& u = model.Tok(j);
      if (u.kind == TokKind::kIdent) {
        if (u.text == "const" || u.text == "mutable") continue;
        names.insert(u.text);
        break;
      }
      if (u.kind == TokKind::kPunct &&
          (u.text == "&" || u.text == "*" || u.text == "::")) {
        continue;
      }
      break;  // `;`, `(`, `{`, `,` — a type-only mention, no variable
    }
  }
  return names;
}

void RunLegacyRules(const FileContext& file, Reporter& reporter) {
  RuleScan scan{file, reporter, file.model};
  const std::string_view path = file.path;
  const bool clock_on = RuleAppliesToPath(kDeterminismClock, path);
  const bool mutex_on = RuleAppliesToPath(kRawMutex, path);
  const bool send_on = RuleAppliesToPath(kNakedSend, path);

  if (mutex_on) {
    for (const Token& t : file.model.tokens) {
      if (t.kind == TokKind::kPreproc) scan.CheckRawMutexInclude(t);
    }
  }
  const std::size_t n = file.model.code.size();
  for (std::size_t k = 0; k < n; ++k) {
    const Token& t = file.model.Tok(k);
    if (t.kind != TokKind::kIdent) continue;
    if (clock_on) scan.CheckClock(k);
    if (mutex_on) scan.CheckRawMutex(k);
    scan.CheckUnorderedIter(k);
    if (send_on) scan.CheckNakedSend(k);
  }
}

}  // namespace webcc::lint
