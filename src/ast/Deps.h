//===----------------------------------------------------------------------===//
///
/// \file
/// Field-dependency analysis over full ProbNetKAT (ARCHITECTURE S17): an
/// iterative, explicit-stack dataflow pass computing per-subtree read and
/// written field sets plus a field dependency graph. Because assignments
/// are always constant (`f := n` — there is no field-to-field copy in the
/// syntax), every dependency is control-flow: a test on `f` flows into `g`
/// exactly when an assignment to `g` executes under a guard that tested
/// `f`. A distinguished pseudo-sink ⊥ stands for the delivered/dropped
/// probability mass; a test flows into ⊥ when its outcome can change which
/// packets survive (bare predicates in program position, guards over
/// droppy regions, and `while` guards — divergence loses mass).
///
/// Guard contexts are OR-merged across hash-consed shared subtrees and
/// iterated to a fixpoint (contexts only grow and are bounded by the field
/// universe, so the worklist terminates quickly), mirroring the S15
/// analyzer's treatment of sharing. The backward cone of influence of a
/// query's observation set over this graph is what `ast/Slice.h` uses to
/// delete assignments no query answer can see.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_AST_DEPS_H
#define MCNK_AST_DEPS_H

#include "ast/Analyze.h"
#include "ast/Context.h"

#include <cstdint>
#include <vector>

namespace mcnk {
namespace ast {

/// What a query can see of a program's output: the delivered/dropped mass
/// (always observed — every query class reports or normalizes by it) plus
/// a set of output fields (hop-stats observe the counter, field
/// distributions their field, equivalence/refinement the joint mentioned
/// fields of both programs).
struct ObservationSet {
  /// Observe every field (the bar for equivalence against an unknown
  /// counterpart); Fields is ignored when set.
  bool AllFields = false;
  /// Observed output fields (need not be sorted or unique).
  std::vector<FieldId> Fields;

  /// Delivery queries observe only the drop mass.
  static ObservationSet delivery() { return {}; }
  static ObservationSet fields(std::vector<FieldId> Fs) {
    ObservationSet O;
    O.Fields = std::move(Fs);
    return O;
  }
  static ObservationSet all() {
    ObservationSet O;
    O.AllFields = true;
    return O;
  }
};

/// The dependency summary of one program. Field indices run over the
/// owning Context's field table at analysis time; fields interned later
/// are trivially unread/unwritten/irrelevant.
class FieldDeps {
public:
  FieldDeps(const Context &Ctx, const Node *Program);

  std::size_t numFields() const { return NumFields; }

  /// Field is tested somewhere in the program.
  bool read(FieldId F) const { return F < NumFields && Read[F]; }
  /// Field is assigned somewhere in the program.
  bool written(FieldId F) const { return F < NumFields && Written[F]; }
  /// A test on the field can change the delivered mass (edge into ⊥).
  bool dropDep(FieldId F) const { return F < NumFields && DropDep[F]; }
  /// A test on \p F controls an assignment to \p G.
  bool edge(FieldId F, FieldId G) const {
    return F < NumFields && G < NumFields && Edges[F][G];
  }

  /// First (syntactically earliest located) test of / assignment to the
  /// field, for diagnostic anchors; null when none exists.
  const Node *firstTest(FieldId F) const {
    return F < NumFields ? FirstTest[F] : nullptr;
  }
  const Node *firstAssign(FieldId F) const {
    return F < NumFields ? FirstAssign[F] : nullptr;
  }

  /// Backward cone of influence: the least set containing every observed
  /// field, every ⊥-feeding field, and — closed backwards over the
  /// dependency edges — every field whose tests control an assignment to
  /// a field already in the cone. Fields interned after the analysis (or
  /// forced by non-guarded Star/Union regions) are conservatively
  /// included. Indexed by FieldId over numFields().
  std::vector<bool> coneOfInfluence(const ObservationSet &Obs) const;

private:
  std::size_t NumFields = 0;
  std::vector<bool> Read;
  std::vector<bool> Written;
  std::vector<bool> DropDep;
  /// Written fields under a general (non-predicate) Star/Union region:
  /// set-collapse semantics make deleting their writes unsound, so the
  /// cone always includes them.
  std::vector<bool> ForceRelevant;
  std::vector<std::vector<bool>> Edges;
  std::vector<const Node *> FirstTest;
  std::vector<const Node *> FirstAssign;
  /// Per-subtree syntactic read (tested) / written (assigned) fields: one
  /// bit row of Words 64-bit words per node, indexed by node id. Shared
  /// subtrees are computed once.
  std::size_t Words = 0;
  std::vector<uint64_t> ReadRows;
  std::vector<uint64_t> WrittenRows;

  const uint64_t *readRow(const Node *N) const {
    return ReadRows.data() + N->id() * Words;
  }
  const uint64_t *writtenRow(const Node *N) const {
    return WrittenRows.data() + N->id() * Words;
  }
  void run(const Node *Program);
  void computeSubtreeSets(const Node *Program);
};

/// The S17 dependency lint checks, complementing ast::analyze()'s S15
/// catalog (kept separate so the simplifier's per-round analyze() never
/// pays for them):
///  - write-only-field: the field is assigned but never tested, so its
///    writes cannot steer any program decision (one finding per field,
///    anchored at the first assignment).
///  - dead-field: the field is tested, but under the delivery observation
///    no query can see the outcome — it is outside the delivery cone of
///    influence (one finding per field, anchored at the first test).
///  - query-irrelevant-assignment: the field *is* tested somewhere, yet
///    still outside the delivery cone, so delivery queries cannot observe
///    this assignment (one finding per assignment; disjoint from
///    write-only-field, which already covers never-tested fields).
std::vector<Finding> analyzeDeps(const Context &Ctx, const Node *Program);

} // namespace ast
} // namespace mcnk

#endif // MCNK_AST_DEPS_H
