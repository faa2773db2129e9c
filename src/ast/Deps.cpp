//===----------------------------------------------------------------------===//
///
/// \file
/// The S17 dependency pass. Two explicit-stack walks:
///
///  1. A syntactic post-order pass computing per-subtree read/written sets
///     (memoized across hash-consed sharing) and the first test/assignment
///     per field, in source order.
///
///  2. A worklist pass propagating *guard contexts* — the set of fields
///     tested by enclosing if/while/case guards — down the tree. Contexts
///     attached to a node only ever grow (OR-merge across the different
///     paths that reach a shared subtree), so re-processing a node whose
///     context grew reaches a fixpoint; `while` bodies need no extra
///     iteration beyond that because assignments are constant, making the
///     edge relation a function of the static guard structure alone.
///
/// A node can occur both as a guard (if/while condition, case guard) and
/// in program position (a bare filter); the two roles propagate different
/// facts — program-position tests can drop packets, guard tests cannot
/// (the enclosing construct is total) — so contexts are tracked per role.
///
//===----------------------------------------------------------------------===//

#include "ast/Deps.h"

#include "ast/Traversal.h"
#include "support/Casting.h"
#include "support/Error.h"

#include <algorithm>
#include <deque>

using namespace mcnk;
using namespace mcnk::ast;

namespace {

/// Dense field bitset used for guard contexts.
using Bits = std::vector<uint64_t>;

std::size_t wordsFor(std::size_t NumFields) { return (NumFields + 63) / 64; }

void setBit(uint64_t *B, FieldId F) { B[F / 64] |= uint64_t(1) << (F % 64); }

/// OR the \p Words words at \p Src into \p Dst; returns true when Dst
/// changed.
bool orInto(uint64_t *Dst, const uint64_t *Src, std::size_t Words) {
  bool Changed = false;
  for (std::size_t I = 0; I < Words; ++I) {
    uint64_t Merged = Dst[I] | Src[I];
    Changed |= Merged != Dst[I];
    Dst[I] = Merged;
  }
  return Changed;
}

template <typename Fn>
void forEachSetBit(const uint64_t *B, std::size_t NumFields, Fn &&Visit) {
  for (std::size_t F = 0; F < NumFields; ++F)
    if (B[F / 64] & (uint64_t(1) << (F % 64)))
      Visit(static_cast<FieldId>(F));
}

} // namespace

FieldDeps::FieldDeps(const Context &Ctx, const Node *Program) {
  NumFields = Ctx.fields().numFields();
  Words = wordsFor(NumFields);
  Read.assign(NumFields, false);
  Written.assign(NumFields, false);
  DropDep.assign(NumFields, false);
  ForceRelevant.assign(NumFields, false);
  Edges.assign(NumFields, std::vector<bool>(NumFields, false));
  FirstTest.assign(NumFields, nullptr);
  FirstAssign.assign(NumFields, nullptr);
  computeSubtreeSets(Program);
  run(Program);
}

void FieldDeps::computeSubtreeSets(const Node *Program) {
  // Post-order with a phase bit; shared subtrees are computed once, and
  // the pre-order (first-visit) side doubles as the syntactic-order scan
  // recording the first test/assignment per field. Every node of the
  // program has an id at most the root's, which sizes the rows.
  const std::size_t NumNodes = std::size_t(Program->id()) + 1;
  ReadRows.assign(NumNodes * Words, 0);
  WrittenRows.assign(NumNodes * Words, 0);
  std::vector<bool> Expanded(NumNodes, false);
  struct Frame {
    const Node *N;
    bool Expanded;
  };
  std::vector<Frame> Stack{{Program, false}};
  std::vector<const Node *> Kids;
  while (!Stack.empty()) {
    Frame F = Stack.back();
    Stack.pop_back();
    if (!F.Expanded) {
      if (Expanded[F.N->id()])
        continue; // Shared subtree already (or about to be) computed.
      Expanded[F.N->id()] = true;
      if (const auto *T = dyn_cast<TestNode>(F.N)) {
        if (T->field() < NumFields) {
          Read[T->field()] = true;
          if (!FirstTest[T->field()])
            FirstTest[T->field()] = F.N;
        }
      } else if (const auto *A = dyn_cast<AssignNode>(F.N)) {
        if (A->field() < NumFields) {
          Written[A->field()] = true;
          if (!FirstAssign[A->field()])
            FirstAssign[A->field()] = F.N;
        }
      }
      Stack.push_back({F.N, true});
      // Push children reversed so the pre-order visits them in syntactic
      // order (first-test anchors point at the earliest occurrence).
      Kids.clear();
      forEachChild(F.N, [&](const Node *C) { Kids.push_back(C); });
      for (auto It = Kids.rbegin(); It != Kids.rend(); ++It)
        if (!Expanded[(*It)->id()])
          Stack.push_back({*It, false});
      continue;
    }
    uint64_t *R = ReadRows.data() + F.N->id() * Words;
    uint64_t *W = WrittenRows.data() + F.N->id() * Words;
    if (const auto *T = dyn_cast<TestNode>(F.N)) {
      if (T->field() < NumFields)
        setBit(R, T->field());
    } else if (const auto *A = dyn_cast<AssignNode>(F.N)) {
      if (A->field() < NumFields)
        setBit(W, A->field());
    }
    forEachChild(F.N, [&](const Node *C) {
      orInto(R, readRow(C), Words);
      orInto(W, writtenRow(C), Words);
    });
  }
}

void FieldDeps::run(const Node *Program) {
  // Guard contexts, one row of Words words per (node id, role); a node is
  // re-processed whenever its context grows, so facts are OR-merged
  // across every path reaching it.
  const std::size_t NumRows = 2 * (std::size_t(Program->id()) + 1);
  std::vector<uint64_t> Contexts(NumRows * Words, 0);
  std::vector<bool> Reached(NumRows, false);
  std::deque<std::pair<const Node *, bool>> Work; // (node, guard role)

  auto Propagate = [&](const Node *N, bool Guard, const Bits &C) {
    const std::size_t Row = 2 * std::size_t(N->id()) + Guard;
    if (orInto(Contexts.data() + Row * Words, C.data(), Words) ||
        !Reached[Row]) {
      Reached[Row] = true;
      Work.emplace_back(N, Guard);
    }
  };

  auto MarkDroppy = [&](const uint64_t *C) {
    forEachSetBit(C, NumFields, [&](FieldId F) { DropDep[F] = true; });
  };

  // Non-guarded Star/Union region: set-collapse semantics make deleting
  // any write underneath observable, so pin the whole region.
  auto PinRegion = [&](const Node *N) {
    forEachSetBit(writtenRow(N), NumFields,
                  [&](FieldId F) { ForceRelevant[F] = true; });
    forEachSetBit(readRow(N), NumFields,
                  [&](FieldId F) { DropDep[F] = true; });
  };

  Propagate(Program, /*Guard=*/false, Bits(Words, 0));

  while (!Work.empty()) {
    auto [N, Guard] = Work.front();
    Work.pop_front();
    const uint64_t *Row =
        Contexts.data() + (2 * std::size_t(N->id()) + Guard) * Words;
    const Bits C(Row, Row + Words);

    if (Guard) {
      // Guard role: the enclosing construct routes every packet somewhere,
      // so tests here are not droppy by themselves. Only predicate shapes
      // occur; anything else falls through to the program role below
      // (conservative for malformed inputs).
      switch (N->kind()) {
      case NodeKind::Drop:
      case NodeKind::Skip:
      case NodeKind::Test:
        continue;
      case NodeKind::Not:
        Propagate(cast<NotNode>(N)->operand(), true, C);
        continue;
      case NodeKind::Seq:
        Propagate(cast<SeqNode>(N)->lhs(), true, C);
        Propagate(cast<SeqNode>(N)->rhs(), true, C);
        continue;
      case NodeKind::Union:
        Propagate(cast<UnionNode>(N)->lhs(), true, C);
        Propagate(cast<UnionNode>(N)->rhs(), true, C);
        continue;
      default:
        break; // Non-predicate guard: treat as program position.
      }
    }

    switch (N->kind()) {
    case NodeKind::Skip:
      break;
    case NodeKind::Drop:
      // An explicit drop under a guard makes the guard delivery-relevant.
      MarkDroppy(C.data());
      break;
    case NodeKind::Test: {
      // A bare filter: the test's outcome (and the guards that decided
      // whether the filter runs) changes the surviving mass.
      const auto *T = cast<TestNode>(N);
      if (T->field() < NumFields)
        DropDep[T->field()] = true;
      MarkDroppy(C.data());
      break;
    }
    case NodeKind::Assign: {
      const auto *A = cast<AssignNode>(N);
      if (A->field() < NumFields) {
        FieldId G = A->field();
        forEachSetBit(C.data(), NumFields,
                      [&](FieldId F) { Edges[F][G] = true; });
      }
      break;
    }
    case NodeKind::Not:
      Propagate(cast<NotNode>(N)->operand(), false, C);
      break;
    case NodeKind::Seq:
      Propagate(cast<SeqNode>(N)->lhs(), false, C);
      Propagate(cast<SeqNode>(N)->rhs(), false, C);
      break;
    case NodeKind::Union: {
      const auto *U = cast<UnionNode>(N);
      if (!N->isPredicate())
        PinRegion(N); // General program union copies the packet.
      Propagate(U->lhs(), false, C);
      Propagate(U->rhs(), false, C);
      break;
    }
    case NodeKind::Choice:
      Propagate(cast<ChoiceNode>(N)->lhs(), false, C);
      Propagate(cast<ChoiceNode>(N)->rhs(), false, C);
      break;
    case NodeKind::Star: {
      const auto *S = cast<StarNode>(N);
      if (!S->body()->isPredicate())
        PinRegion(N);
      Propagate(S->body(), false, C);
      break;
    }
    case NodeKind::IfThenElse: {
      const auto *I = cast<IfThenElseNode>(N);
      Propagate(I->cond(), true, C);
      Bits Inner = C;
      orInto(Inner.data(), readRow(I->cond()), Words);
      Propagate(I->thenBranch(), false, Inner);
      Propagate(I->elseBranch(), false, Inner);
      break;
    }
    case NodeKind::While: {
      const auto *W = cast<WhileNode>(N);
      Propagate(W->cond(), true, C);
      // Divergence loses mass: the guard's fields (and whatever guards
      // decide if the loop runs at all) are delivery-relevant.
      const uint64_t *GuardBits = readRow(W->cond());
      MarkDroppy(GuardBits);
      MarkDroppy(C.data());
      Bits Inner = C;
      orInto(Inner.data(), GuardBits, Words);
      Propagate(W->body(), false, Inner);
      break;
    }
    case NodeKind::Case: {
      const auto *CN = cast<CaseNode>(N);
      // First-match: which arm fires depends on every guard up to it, so
      // all arm bodies (and the default) run under the union of all guard
      // fields.
      Bits AllGuards(Words, 0);
      for (const CaseNode::Branch &B : CN->branches()) {
        Propagate(B.first, true, C);
        orInto(AllGuards.data(), readRow(B.first), Words);
      }
      Bits Inner = C;
      orInto(Inner.data(), AllGuards.data(), Words);
      for (const CaseNode::Branch &B : CN->branches())
        Propagate(B.second, false, Inner);
      Propagate(CN->defaultBranch(), false, Inner);
      break;
    }
    }
  }
}

std::vector<bool>
FieldDeps::coneOfInfluence(const ObservationSet &Obs) const {
  std::vector<bool> Cone(NumFields, false);
  if (Obs.AllFields) {
    Cone.assign(NumFields, true);
    return Cone;
  }
  for (FieldId F : Obs.Fields)
    if (F < NumFields)
      Cone[F] = true;
  for (std::size_t F = 0; F < NumFields; ++F)
    if (DropDep[F] || ForceRelevant[F])
      Cone[F] = true;
  // Backward closure: a test on F controls an assignment to an in-cone
  // field ⇒ F's value is observable through that assignment.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (std::size_t F = 0; F < NumFields; ++F) {
      if (Cone[F])
        continue;
      for (std::size_t G = 0; G < NumFields; ++G) {
        if (Edges[F][G] && Cone[G]) {
          Cone[F] = true;
          Changed = true;
          break;
        }
      }
    }
  }
  return Cone;
}

std::vector<Finding> ast::analyzeDeps(const Context &Ctx,
                                      const Node *Program) {
  FieldDeps Deps(Ctx, Program);
  std::vector<bool> Cone = Deps.coneOfInfluence(ObservationSet::delivery());
  std::vector<Finding> Findings;
  auto Report = [&](CheckKind Check, const Node *Where, std::string Msg) {
    Findings.push_back({Check, Ctx.loc(Where), Where, std::move(Msg)});
  };

  const std::size_t NumFields = Deps.numFields();
  for (std::size_t I = 0; I < NumFields; ++I) {
    FieldId F = static_cast<FieldId>(I);
    const std::string &Name = Ctx.fields().name(F);
    if (Deps.written(F) && !Deps.read(F))
      Report(CheckKind::WriteOnlyField, Deps.firstAssign(F),
             "field '" + Name +
                 "' is assigned but never tested; its writes cannot "
                 "influence any decision or the delivered mass");
    else if (Deps.read(F) && !Cone[F])
      Report(CheckKind::DeadField, Deps.firstTest(F),
             "field '" + Name +
                 "' is outside the delivery cone of influence; no delivery "
                 "query can observe it");
  }

  // Per-assignment findings for fields that are tested somewhere yet still
  // invisible to delivery queries. Syntactic pre-order walk, shared
  // (hash-consed) assignment nodes reported once.
  std::vector<const Node *> Stack{Program};
  std::vector<bool> Seen(Program->id() + 1, false); // Indexed by node id.
  while (!Stack.empty()) {
    const Node *N = Stack.back();
    Stack.pop_back();
    if (Seen[N->id()])
      continue;
    Seen[N->id()] = true;
    if (const auto *A = dyn_cast<AssignNode>(N)) {
      FieldId F = A->field();
      if (F < NumFields && Deps.read(F) && !Cone[F])
        Report(CheckKind::QueryIrrelevantAssignment, N,
               "assignment to '" + Ctx.fields().name(F) +
                   "' cannot be observed by any delivery query");
      continue;
    }
    std::vector<const Node *> Kids;
    forEachChild(N, [&](const Node *C) { Kids.push_back(C); });
    for (auto It = Kids.rbegin(); It != Kids.rend(); ++It)
      Stack.push_back(*It);
  }

  // Same presentation order as ast::analyze(): located findings first, by
  // position, then by check.
  std::stable_sort(Findings.begin(), Findings.end(),
                   [](const Finding &A, const Finding &B) {
                     if (A.Loc.valid() != B.Loc.valid())
                       return A.Loc.valid();
                     if (A.Loc.Line != B.Loc.Line)
                       return A.Loc.Line < B.Loc.Line;
                     if (A.Loc.Column != B.Loc.Column)
                       return A.Loc.Column < B.Loc.Column;
                     return static_cast<unsigned>(A.Check) <
                            static_cast<unsigned>(B.Check);
                   });
  return Findings;
}
