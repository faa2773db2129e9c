//===----------------------------------------------------------------------===//
///
/// \file
/// The S17 slicer: rounds of (dependency analysis -> cone -> rewrite ->
/// verified simplify) until a fixpoint, exactly like the S15 simplifier's
/// round structure — which makes slice idempotent by construction and
/// lets deletions cascade (removing a field's writes can collapse the
/// branches that were that field's only reason to be in the cone, freeing
/// the next round to remove its writes too).
///
/// The rewrite itself is a memoized bottom-up explicit-stack transform:
///  - assignments to out-of-cone fields become skip;
///  - an if/case whose (sliced) branches are all structurally equal
///    collapses to that branch — the construct is total, so this is
///    pointwise sound, and it is what erases the guard cascades whose
///    only job was feeding sliced-out fields (e.g. hop counters).
/// Tests are never removed: a bare test filters packets, and every
/// droppy or cone-feeding guard must survive.
///
//===----------------------------------------------------------------------===//

#include "ast/Slice.h"

#include "ast/Simplify.h"
#include "ast/Traversal.h"
#include "support/Casting.h"
#include "support/Error.h"

#include <vector>

using namespace mcnk;
using namespace mcnk::ast;

namespace {

/// One bottom-up rewrite pass for a fixed cone. Returns the input pointer
/// when nothing under it changed.
class SliceTransform {
public:
  SliceTransform(Context &C, const std::vector<bool> &Cone)
      : Ctx(C), Relevant(Cone) {}

  std::size_t assignmentsRemoved() const { return Removed; }

  const Node *run(const Node *Root) {
    // Keyed by the input term's nodes, whose ids are at most the root's;
    // the nodes the rewrite creates are never keys.
    Memo.assign(Root->id() + 1, nullptr);
    struct Frame {
      const Node *N;
      bool Expanded;
    };
    std::vector<Frame> Stack{{Root, false}};
    while (!Stack.empty()) {
      Frame F = Stack.back();
      Stack.pop_back();
      const Node *&Out = Memo[F.N->id()];
      if (Out)
        continue;
      if (F.Expanded) {
        Out = rebuild(F.N);
      } else if (const Node *Leaf = rewriteLeaf(F.N)) {
        Out = Leaf;
      } else {
        Stack.push_back({F.N, true});
        forEachChild(F.N, [&](const Node *C) {
          if (!Memo[C->id()])
            Stack.push_back({C, false});
        });
      }
    }
    return Memo[Root->id()];
  }

private:
  /// Non-null for nodes rewritten without visiting children.
  const Node *rewriteLeaf(const Node *N) {
    switch (N->kind()) {
    case NodeKind::Drop:
    case NodeKind::Skip:
    case NodeKind::Test:
      return N;
    case NodeKind::Assign: {
      const auto *A = cast<AssignNode>(N);
      if (A->field() < Relevant.size() && Relevant[A->field()])
        return N;
      ++Removed;
      return Ctx.skip();
    }
    default:
      return nullptr;
    }
  }

  const Node *sliced(const Node *N) const { return Memo[N->id()]; }

  const Node *rebuild(const Node *N) {
    switch (N->kind()) {
    case NodeKind::Not: {
      const Node *Op = sliced(cast<NotNode>(N)->operand());
      return Op == cast<NotNode>(N)->operand() ? N : Ctx.negate(Op);
    }
    case NodeKind::Seq: {
      const auto *S = cast<SeqNode>(N);
      const Node *L = sliced(S->lhs()), *R = sliced(S->rhs());
      return (L == S->lhs() && R == S->rhs()) ? N : Ctx.seq(L, R);
    }
    case NodeKind::Union: {
      const auto *U = cast<UnionNode>(N);
      const Node *L = sliced(U->lhs()), *R = sliced(U->rhs());
      return (L == U->lhs() && R == U->rhs()) ? N : Ctx.unite(L, R);
    }
    case NodeKind::Choice: {
      const auto *C = cast<ChoiceNode>(N);
      const Node *L = sliced(C->lhs()), *R = sliced(C->rhs());
      return (L == C->lhs() && R == C->rhs())
                 ? N
                 : Ctx.choice(C->probability(), L, R);
    }
    case NodeKind::Star: {
      const auto *S = cast<StarNode>(N);
      const Node *B = sliced(S->body());
      return B == S->body() ? N : Ctx.star(B);
    }
    case NodeKind::IfThenElse: {
      const auto *I = cast<IfThenElseNode>(N);
      const Node *C = sliced(I->cond());
      const Node *T = sliced(I->thenBranch());
      const Node *E = sliced(I->elseBranch());
      // The conditional is total: equal branches make the test moot.
      if (T == E || structurallyEqual(T, E))
        return T;
      return (C == I->cond() && T == I->thenBranch() &&
              E == I->elseBranch())
                 ? N
                 : Ctx.ite(C, T, E);
    }
    case NodeKind::While: {
      const auto *W = cast<WhileNode>(N);
      const Node *C = sliced(W->cond());
      const Node *B = sliced(W->body());
      return (C == W->cond() && B == W->body()) ? N
                                                : Ctx.whileLoop(C, B);
    }
    case NodeKind::Case: {
      const auto *CN = cast<CaseNode>(N);
      const Node *Default = sliced(CN->defaultBranch());
      bool Changed = Default != CN->defaultBranch();
      bool AllEqual = true;
      std::vector<CaseNode::Branch> Branches;
      Branches.reserve(CN->branches().size());
      for (const CaseNode::Branch &B : CN->branches()) {
        const Node *G = sliced(B.first);
        const Node *P = sliced(B.second);
        Changed |= G != B.first || P != B.second;
        AllEqual &= P == Default || structurallyEqual(P, Default);
        Branches.push_back({G, P});
      }
      // First-match over a total construct: when every arm (and the
      // default) does the same thing, the routing is moot.
      if (AllEqual && !Branches.empty())
        return Default;
      return Changed ? Ctx.caseOf(std::move(Branches), Default) : N;
    }
    default:
      MCNK_UNREACHABLE("leaf kinds handled in rewriteLeaf");
    }
  }

  Context &Ctx;
  const std::vector<bool> &Relevant;
  /// The rewrite of each input node, indexed by node id (null until
  /// rewritten).
  std::vector<const Node *> Memo;
  std::size_t Removed = 0;
};

std::size_t countMentioned(const FieldDeps &D) {
  std::size_t N = 0;
  for (std::size_t F = 0; F < D.numFields(); ++F)
    N += D.read(static_cast<FieldId>(F)) ||
         D.written(static_cast<FieldId>(F));
  return N;
}

} // namespace

SliceResult ast::slice(Context &Ctx, const Node *Program,
                       const ObservationSet &Obs) {
  SliceResult Result;
  Result.Stats.NodesBefore = countNodes(Program);

  const Node *Cur = Program;
  std::vector<bool> Cone;
  // Round cap mirrors SimplifyOptions::MaxRounds; each productive round
  // strictly removes assignments, so real programs converge in a few.
  for (unsigned Round = 0; Round < 8; ++Round) {
    FieldDeps Deps(Ctx, Cur);
    Cone = Deps.coneOfInfluence(Obs);
    if (Round == 0) {
      Result.Stats.FieldsBefore = countMentioned(Deps);
      Result.Relevant = Cone; // Refined below if rounds shrink it.
    }
    SliceTransform T(Ctx, Cone);
    const Node *Next = T.run(Cur);
    Result.Stats.AssignmentsRemoved += T.assignmentsRemoved();
    if (Next == Cur || structurallyEqual(Next, Cur))
      break;
    Cur = simplify(Ctx, Next);
  }

  Result.Program = Cur;
  Result.Relevant = Cone;
  {
    // Mentioned ∩ cone of the *final* program — the projected universe.
    FieldDeps Final(Ctx, Cur);
    std::size_t N = 0;
    for (std::size_t F = 0; F < Final.numFields(); ++F)
      N += (Final.read(static_cast<FieldId>(F)) ||
            Final.written(static_cast<FieldId>(F)));
    Result.Stats.FieldsRelevant = N;
  }
  Result.Stats.NodesAfter = countNodes(Cur);
  return Result;
}
