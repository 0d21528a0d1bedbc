// Internal interface between the webcc_lint driver and its analysis
// passes. Each pass consumes one file's ScopeModel (plus program-wide
// facts where the analysis is whole-program) and reports findings through
// the Reporter, which owns suppression handling and de-duplication.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "lint.h"
#include "scopes.h"

namespace webcc::lint {

class Reporter;

struct FileContext {
  std::string path;
  ScopeModel model;
  // Variables declared as std::unordered_map/unordered_set in this file
  // (members and locals) — shared by unordered-iter-in-dump and the
  // determinism-taint pass.
  std::set<std::string> unordered_names;
};

// Whole-program annotation facts, merged across every linted file before
// per-file passes run (a field declared GUARDED_BY in a header is checked
// in the .cc that defines the methods).
struct ProgramFacts {
  struct FieldFact {
    std::string guard;  // normalized mutex expression
    std::string file;   // declaration site (witness anchor)
    int line = 0;
    bool pointee_only = false;  // WEBCC_PT_GUARDED_BY
  };
  // class -> field -> fact
  std::map<std::string, std::map<std::string, FieldFact>> guarded;
  // "Class::Method" -> normalized lock expressions the caller must hold
  std::map<std::string, std::set<std::string>> requires_locks;
};

// The acquired-before graph: one edge per (outer, inner) nested
// acquisition or per WEBCC_ACQUIRED_BEFORE/_AFTER declaration.
struct LockEdge {
  std::string from;  // canonical lock names ("Class::mu_")
  std::string to;
  std::string file;  // where the inner acquisition (or declaration) is
  int line = 0;
  std::string note;  // human-readable witness step
};

struct LockOrderGraph {
  std::vector<LockEdge> edges;
};

// --- pass entry points -------------------------------------------------------

std::set<std::string> CollectUnorderedNames(const ScopeModel& model);

void CollectProgramFacts(const FileContext& file, ProgramFacts* facts);

// Four of the v1 rules (determinism-clock, unordered-iter-in-dump,
// raw-mutex, naked-send), reimplemented on the token stream. Rule ids and
// suppression pragmas are unchanged from the line-scanner version.
void RunLegacyRules(const FileContext& file, Reporter& reporter);

// Intra-procedural lock-discipline dataflow: every access to a
// WEBCC_GUARDED_BY field inside its class's methods must be covered by a
// util::MutexLock on the declared mutex or a WEBCC_REQUIRES contract.
void RunLockDiscipline(const FileContext& file, const ProgramFacts& facts,
                       Reporter& reporter);

// Whole-program lock-order cycle detection over nested MutexLock scopes
// and declared ACQUIRED_BEFORE/_AFTER edges.
void CollectLockOrder(const FileContext& file, LockOrderGraph* graph);
void RunLockOrderCycles(const LockOrderGraph& graph, Reporter& reporter);

// Determinism taint: values produced by iterating unordered containers
// must not flow into trace emission or wire sends without a sort.
void RunDeterminismTaint(const FileContext& file, Reporter& reporter);

// --- path scoping -------------------------------------------------------------

// Whether `rule` applies to `path` at all (some rules exempt the files
// that own the sanctioned machinery). Used both to skip rules and to keep
// stale-suppression detection from flagging pragmas in exempt files.
bool RuleAppliesToPath(std::string_view rule, std::string_view path);

// --- the reporter --------------------------------------------------------------

class Reporter {
 public:
  explicit Reporter(std::vector<Finding>* findings) : findings_(findings) {}

  // Registers one file's suppression pragmas before its passes run.
  void AddLineAllow(const std::string& file, int line, const std::string& rule);
  void AddFileAllow(const std::string& file, int line, const std::string& rule);

  // Reports unless suppressed; duplicate (file, line, rule) drop via a
  // hashed seen-set (the v1 scanner rescanned the whole findings vector
  // per report — quadratic on noisy files).
  void Report(Finding finding);

  // Stale-suppression sweep: every pragma that never fired (and whose rule
  // actually applies to its file) becomes a `stale-suppression` warning.
  void FlagStaleSuppressions();

 private:
  struct Pragma {
    std::string rule;
    bool used = false;
    bool file_wide = false;
  };
  bool Suppress(const Finding& finding);

  std::vector<Finding>* findings_;
  std::unordered_set<std::string> seen_;  // "file\0line\0rule" keys
  // file -> pragma line -> pragmas on that line (file_wide entries apply
  // to the whole file but keep their line for stale reporting).
  // std::map keeps the stale-suppression sweep deterministic.
  std::map<std::string, std::map<int, std::vector<Pragma>>> pragmas_;
};

}  // namespace webcc::lint
