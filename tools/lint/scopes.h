// Lightweight declaration/scope parser over the token stream.
//
// Builds the structural facts the semantic passes need without a real C++
// parser: a tree of brace scopes classified as namespace / class / enum /
// function / lambda / switch / block, each function's (possibly qualified)
// name and enclosing class, `util::MutexLock` acquisitions with the scope
// they live in, and the thread-safety annotation facts —
// `WEBCC_GUARDED_BY` fields, `WEBCC_REQUIRES` contracts and
// `WEBCC_ACQUIRED_BEFORE`/`_AFTER` lock-order declarations.
//
// The parser is heuristic by design (it classifies statement heads, it
// does not resolve names), but the heuristics are tuned to this codebase's
// idiom and every misparse degrades to a plain kBlock scope — passes only
// act on scopes they positively classified.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "tokenizer.h"

namespace webcc::lint {

enum class ScopeKind : unsigned char {
  kNamespace,
  kClass,
  kEnum,
  kFunction,
  kLambda,
  kSwitch,
  kBlock,
};

struct Scope {
  ScopeKind kind = ScopeKind::kBlock;
  int parent = -1;
  // kClass: the class name. kFunction: the unqualified function name.
  std::string name;
  // For functions: the class the body belongs to — from the enclosing
  // class scope for inline definitions, or from the `C::f(...)` qualifier
  // for out-of-class definitions. Empty for free functions.
  std::string class_name;
  bool in_dump = false;    // inside a Dump/Snapshot/Serialize/... function
  bool no_tsa = false;     // WEBCC_NO_THREAD_SAFETY_ANALYSIS on the head
  bool ctor_dtor = false;  // constructor or destructor body
  int line = 0;            // line of the opening '{'
  // Code-token index ranges (into ScopeModel::code): the statement head
  // [head_begin, head_end) and the brace body [body_begin, body_end).
  std::size_t head_begin = 0, head_end = 0;
  std::size_t body_begin = 0, body_end = 0;
};

// One `util::MutexLock lock(expr)` acquisition.
struct LockAcquire {
  int scope = -1;         // innermost scope containing the statement
  std::string expr;       // normalized lock expression, e.g. "mu_"
  std::string canonical;  // class-qualified graph name, e.g. "Farm::mu_"
  std::size_t code_index = 0;  // position in ScopeModel::code
  int line = 0;
};

struct GuardedField {
  std::string class_name;
  std::string field;
  std::string guard;  // normalized mutex expression from the annotation
  int line = 0;       // declaration line (witness anchor)
  // WEBCC_PT_GUARDED_BY: only dereferences need the lock, not reads of the
  // pointer value itself.
  bool pointee_only = false;
};

// A declared lock-order edge: `before` must be acquired before `after`.
struct DeclaredOrder {
  std::string before;  // canonical lock names
  std::string after;
  int line = 0;
};

struct ScopeModel {
  std::vector<Token> tokens;       // full stream, comments included
  std::vector<std::size_t> code;   // indices of non-comment tokens
  std::vector<Scope> scopes;       // creation (= document) order
  std::vector<int> scope_of;       // innermost scope per code index (-1 top)
  std::vector<LockAcquire> locks;  // document order
  std::vector<GuardedField> guarded_fields;
  // "Class::Method" (or bare "Method") -> normalized required lock exprs.
  std::map<std::string, std::set<std::string>> requires_locks;
  std::vector<DeclaredOrder> declared_order;

  const Token& Tok(std::size_t code_index) const {
    return tokens[code[code_index]];
  }
  // Walks parents from `scope` (inclusive); true if any satisfies `pred`.
  template <typename Pred>
  bool AnyEnclosing(int scope, Pred pred) const {
    for (int s = scope; s >= 0; s = scopes[static_cast<std::size_t>(s)].parent) {
      if (pred(scopes[static_cast<std::size_t>(s)])) return true;
    }
    return false;
  }
};

// Function names whose bodies are byte-stable output paths.
bool IsDumpFunctionName(std::string_view name);

// Parses one file. Never fails; unparseable regions become kBlock scopes.
ScopeModel BuildScopeModel(std::vector<Token> tokens);

// Joins tokens [begin, end) of `model.code` with no spaces — the
// normalized-expression form used for lock names and guard matching.
std::string JoinTokens(const ScopeModel& model, std::size_t begin,
                       std::size_t end);

}  // namespace webcc::lint
