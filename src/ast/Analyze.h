//===----------------------------------------------------------------------===//
///
/// \file
/// Static analysis for ProbNetKAT programs (ARCHITECTURE S15): an
/// iterative (explicit-stack) abstract interpretation over the AST with a
/// per-field value-set domain. The analysis starts from ⊤ — every
/// concrete packet — so every fact it derives ("this arm can never
/// fire", "this test is always true here") holds over the whole input
/// space, which is exactly the property the verified simplifier
/// (ast/Simplify.h) needs for FDD reference equality.
///
/// Two consumers:
///  - `mcnk_cli lint`: the diagnostic catalog below, rendered as
///    `file:line:col: warning[check-name]: message` using the source
///    locations the parser records in the Context side table.
///  - `ast::simplify`: the per-node reachability/truth facts exposed by
///    DomainAnalysis drive constant folding and dead-branch pruning.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_AST_ANALYZE_H
#define MCNK_AST_ANALYZE_H

#include "ast/Context.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mcnk {
namespace ast {

/// The lint check catalog. Kept in sync with checkName().
enum class CheckKind : uint8_t {
  UnreachableCaseArm,    ///< guard can never match any input of the case
  ShadowedCaseArm,       ///< guard is covered by earlier arms (first-match)
  OverlappingCaseGuards, ///< two guards admit a common packet
  UnreachableBranch,     ///< if-branch with a statically decided condition
  UnreachableLoopBody,   ///< while guard statically false on entry
  DivergentLoop,         ///< while guard statically true — never absorbs
  DropEquivalent,        ///< subprogram reached but delivers no packets
  DegenerateChoice,      ///< p ⊕_r q with r ∉ (0,1) (raised by the parser)
  DeadAssignment,        ///< assignment immediately overwritten
  RedundantAssignment,   ///< field already known to hold the assigned value
  DeadField,             ///< field read but outside the delivery cone
  WriteOnlyField,        ///< field written but never read anywhere
  QueryIrrelevantAssignment, ///< assigns a field no delivery query can see
};

/// Kebab-case slug used in rendered diagnostics, e.g.
/// "overlapping-case-guards".
const char *checkName(CheckKind Check);

/// One lint diagnostic. \c Loc comes from the parser's side table (or the
/// nearest located ancestor); programmatically built ASTs may have no
/// location at all, in which case render() omits the line:col prefix.
struct Finding {
  CheckKind Check;
  SourceLoc Loc;
  const Node *Where = nullptr;
  std::string Message;

  /// `file:line:col: warning[check-name]: message` (machine-readable; the
  /// format is pinned by ast_analyze_test and the lint_smoke ctest).
  std::string render(const std::string &File) const;
};

struct AnalyzeOptions {
  /// Maximum number of candidate assignments per guard pair in the
  /// overlap check: the product over the pair's fields of (distinct
  /// mentioned values + 1). Pairs over budget are skipped (no false
  /// positives, possible false negatives on huge guards).
  std::size_t OverlapBudget = 4096;
};

/// Runs the abstract interpretation once over \p Program and keeps the
/// per-node facts around for queries. The referenced Context and program
/// must outlive the analysis.
class DomainAnalysis {
public:
  DomainAnalysis(const Context &Ctx, const Node *Program,
                 AnalyzeOptions Opts = {});
  ~DomainAnalysis();
  DomainAnalysis(const DomainAnalysis &) = delete;
  DomainAnalysis &operator=(const DomainAnalysis &) = delete;

  /// All diagnostics, deduplicated and sorted by source position. The
  /// constructor computes only the facts; the diagnostic passes run on the
  /// first call, and later calls return the same list. Not safe to call
  /// concurrently on one analysis.
  const std::vector<Finding> &findings() const;

  /// Three-valued truth of a test under the join of every abstract state
  /// that reaches it (over all occurrences and both polarities).
  enum class Truth : uint8_t { True, False, Unknown };
  Truth testTruth(const TestNode *T) const;

  /// True if some execution reaches \p N with a non-empty abstract state.
  bool reached(const Node *N) const;
  /// True if the then/else branch of \p N can be entered.
  bool branchReachable(const IfThenElseNode *N, bool Then) const;
  /// True if the loop body of \p N can run at least once.
  bool loopEntered(const WhileNode *N) const;
  /// True if some packet ever leaves the loop (guard eventually false).
  bool loopExits(const WhileNode *N) const;
  /// True if arm \p Arm can fire; Arm == branches().size() queries the
  /// else arm.
  bool armReachable(const CaseNode *N, std::size_t Arm) const;
  /// True if the guard of arm \p Arm matches every packet remaining at
  /// that arm — later arms (incl. else) are then dead.
  bool guardTotal(const CaseNode *N, std::size_t Arm) const;
  /// True if the assignment writes a value the field is already known to
  /// hold everywhere the assignment executes.
  bool assignRedundant(const AssignNode *N) const;
  /// True if \p N is reached but delivers no packets (≡ drop in context).
  bool dropEquivalent(const Node *N) const;

private:
  struct Impl;
  std::unique_ptr<Impl> M;
};

/// One-shot convenience: analyze \p Program and return the diagnostics.
std::vector<Finding> analyze(const Context &Ctx, const Node *Program,
                             const AnalyzeOptions &Opts = {});

} // namespace ast
} // namespace mcnk

#endif // MCNK_AST_ANALYZE_H
