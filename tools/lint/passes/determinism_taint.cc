// Determinism taint (rule: determinism-taint).
//
// Hash-container iteration order is the classic source of run-to-run
// nondeterminism in this codebase's byte-stable outputs (trace files,
// metrics dumps, wire messages). This pass tracks it as a taint: the body
// of a range-for over an `unordered_map`/`unordered_set` is a tainted
// region, a container that accumulates values inside a tainted region
// (push_back/emplace_back/insert) becomes a tainted name, and
// `std::sort`/`std::stable_sort` over a tainted name cleanses it. Calling
// a sink — TraceSink::Emit or a live push's TcpStream::WriteAll — inside a
// tainted region, or passing a tainted name to one, is a finding whose
// witness points back at the loop that introduced the nondeterminism.
//
// The canonical clean idiom (core/invalidation_table.cc) — collect into a
// vector inside the hash-map walk, sort, then emit — passes: the sort
// cleanses the vector before the emit sees it.
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "passes.h"

namespace webcc::lint {
namespace {

// TraceSink::Emit, and TcpStream::WriteAll: the live stack's push path
// (LiveServer::PushInvalidations) writes every frame through it.
bool IsSinkName(std::string_view word) {
  return word == "Emit" || word == "WriteAll";
}

bool IsAccumulatorName(std::string_view word) {
  return word == "push_back" || word == "emplace_back" || word == "insert" ||
         word == "emplace";
}

struct TaintRange {
  std::size_t begin = 0, end = 0;  // code-token indices, half-open
  int src_line = 0;                // the range-for that introduced it
  std::string source;              // container being iterated
};

struct Pass {
  const FileContext& file;
  Reporter& reporter;
  const ScopeModel& model;

  const Token& Tok(std::size_t k) const { return model.Tok(k); }
  bool IsPunct(std::size_t k, std::string_view p) const {
    const Token& t = Tok(k);
    return t.kind == TokKind::kPunct && t.text == p;
  }
  bool IsIdent(std::size_t k) const {
    return Tok(k).kind == TokKind::kIdent;
  }

  std::vector<TaintRange> ranges;
  struct TaintSource {
    int line = 0;
    std::string container;
  };
  std::map<std::string, TaintSource> tainted_names;

  // End of the statement or brace body starting right after `open_close`
  // (the for-head's ')'): the matching '}' for a braced body, or the next
  // top-level ';' for a single-statement body.
  std::size_t BodyEnd(std::size_t after_close) const {
    const std::size_t n = model.code.size();
    if (after_close < n && IsPunct(after_close, "{")) {
      int depth = 0;
      for (std::size_t k = after_close; k < n; ++k) {
        if (IsPunct(k, "{")) ++depth;
        if (IsPunct(k, "}") && --depth == 0) return k;
      }
      return n;
    }
    int depth = 0;
    for (std::size_t k = after_close; k < n; ++k) {
      if (IsPunct(k, "(") || IsPunct(k, "{")) ++depth;
      if (IsPunct(k, ")") || IsPunct(k, "}")) --depth;
      if (depth == 0 && IsPunct(k, ";")) return k;
    }
    return n;
  }

  const TaintRange* RangeAt(std::size_t k) const {
    for (const TaintRange& r : ranges) {
      if (k >= r.begin && k < r.end) return &r;
    }
    return nullptr;
  }

  // `for ( decl : range )` — if the range expression names an unordered
  // container (or a still-tainted accumulator), its body is tainted.
  void MaybeOpenRange(std::size_t k) {
    if (!IsIdent(k) || Tok(k).text != "for") return;
    if (k + 1 >= model.code.size() || !IsPunct(k + 1, "(")) return;
    const std::size_t n = model.code.size();
    int depth = 0;
    std::size_t colon = 0, close = 0;
    for (std::size_t j = k + 1; j < n; ++j) {
      if (IsPunct(j, "(")) ++depth;
      if (IsPunct(j, ")") && --depth == 0) {
        close = j;
        break;
      }
      if (depth == 1 && IsPunct(j, ":") && colon == 0 && !IsPunct(j - 1, ":") &&
          (j + 1 >= n || !IsPunct(j + 1, ":"))) {
        colon = j;
      }
    }
    if (colon == 0 || close == 0) return;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (!IsIdent(j)) continue;
      const std::string& name = Tok(j).text;
      const bool unordered = file.unordered_names.count(name) != 0;
      const bool accumulated = tainted_names.count(name) != 0;
      if (!unordered && !accumulated) continue;
      TaintRange r;
      r.begin = close + 1;
      r.end = BodyEnd(close + 1);
      r.src_line = Tok(k).line;
      r.source = unordered ? name : tainted_names[name].container;
      ranges.push_back(std::move(r));
      return;
    }
  }

  // Inside a tainted region: `X.push_back(...)` marks X as carrying
  // hash-ordered values.
  void MaybeAccumulate(std::size_t k, const TaintRange& r) {
    if (!IsIdent(k) || !IsAccumulatorName(Tok(k).text)) return;
    if (k < 2 || !IsPunct(k - 1, ".") || !IsIdent(k - 2)) return;
    if (k + 1 >= model.code.size() || !IsPunct(k + 1, "(")) return;
    tainted_names[Tok(k - 2).text] = {r.src_line, r.source};
  }

  // `std::sort(v.begin(), v.end())` — any tainted name in the argument
  // list is now deterministically ordered.
  void MaybeCleanse(std::size_t k) {
    if (!IsIdent(k)) return;
    const std::string& word = Tok(k).text;
    if (word != "sort" && word != "stable_sort") return;
    if (k + 1 >= model.code.size() || !IsPunct(k + 1, "(")) return;
    const std::size_t n = model.code.size();
    int depth = 0;
    for (std::size_t j = k + 1; j < n; ++j) {
      if (IsPunct(j, "(")) ++depth;
      if (IsPunct(j, ")") && --depth == 0) break;
      if (IsIdent(j)) tainted_names.erase(Tok(j).text);
    }
  }

  void ReportSink(std::size_t k, int src_line, const std::string& source,
                  const std::string& how) {
    Finding f;
    f.file = file.path;
    f.line = Tok(k).line;
    f.rule = "determinism-taint";
    f.pass = "determinism-taint";
    f.message = "'" + Tok(k).text +
                "(' emits values in hash-iteration order of '" + source +
                "'; collect into a vector and sort before emitting";
    f.witness.push_back({file.path, Tok(k).line, how});
    f.witness.push_back(
        {file.path, src_line,
         "unordered container '" + source + "' iterated here"});
    reporter.Report(std::move(f));
  }

  void MaybeSink(std::size_t k) {
    if (!IsIdent(k) || !IsSinkName(Tok(k).text)) return;
    if (k + 1 >= model.code.size() || !IsPunct(k + 1, "(")) return;
    if (const TaintRange* r = RangeAt(k)) {
      ReportSink(k, r->src_line, r->source,
                 "sink called inside the iteration body");
      return;
    }
    // Outside any loop: tainted only if an argument carries taint.
    const std::size_t n = model.code.size();
    int depth = 0;
    for (std::size_t j = k + 1; j < n; ++j) {
      if (IsPunct(j, "(")) ++depth;
      if (IsPunct(j, ")") && --depth == 0) break;
      if (!IsIdent(j)) continue;
      const auto it = tainted_names.find(Tok(j).text);
      if (it == tainted_names.end()) continue;
      ReportSink(k, it->second.line, it->second.container,
                 "'" + Tok(j).text +
                     "' accumulated in hash order and never sorted");
      return;
    }
  }

  void Run() {
    // Taint state is per named function; lambdas share their host's state
    // (a lambda emitting its host's tainted vector is still a finding).
    const std::size_t n = model.code.size();
    int current_fn = -2;
    for (std::size_t k = 0; k < n; ++k) {
      int fn = -1;
      for (int s = model.scope_of[k]; s >= 0;
           s = model.scopes[static_cast<std::size_t>(s)].parent) {
        if (model.scopes[static_cast<std::size_t>(s)].kind ==
            ScopeKind::kFunction) {
          fn = s;
          break;
        }
      }
      if (fn != current_fn) {
        current_fn = fn;
        ranges.clear();
        tainted_names.clear();
      }
      MaybeOpenRange(k);
      if (const TaintRange* r = RangeAt(k)) MaybeAccumulate(k, *r);
      MaybeCleanse(k);
      MaybeSink(k);
    }
  }
};

}  // namespace

void RunDeterminismTaint(const FileContext& file, Reporter& reporter) {
  Pass pass{file, reporter, file.model, {}, {}};
  pass.Run();
}

}  // namespace webcc::lint
