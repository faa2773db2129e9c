//===----------------------------------------------------------------------===//
///
/// \file
/// Structural-recursion compiler from the guarded AST fragment to FDDs,
/// run in the caller's manager. `case` compiles with the associative
/// segment algebra of §6 as a pairwise reduction over its arms.
///
//===----------------------------------------------------------------------===//

#include "fdd/Compile.h"

#include "ast/Hash.h"
#include "fdd/CompileCache.h"
#include "fdd/Export.h"
#include "support/Casting.h"
#include "support/Error.h"

#include <cassert>
#include <memory>
#include <vector>

using namespace mcnk;
using namespace mcnk::fdd;
using namespace mcnk::ast;

namespace {

/// Sub-programs smaller than this (tree-size heuristic) skip the cache:
/// below a handful of nodes, recompiling is cheaper than a lookup plus
/// portable-FDD import.
constexpr std::size_t CacheMinNodes = 16;

/// Cross-compile memoization state for one compile() call: the shared
/// cache plus the fingerprint memo, computed up front in one pass over the
/// whole term.
struct CacheContext {
  CompileCache *Cache;
  FingerprintMemo Memo;
};

FddRef compileNode(FddManager &M, const Node *P, const CacheContext *CC);

/// True for the composite kinds worth a cache round-trip. Atoms and
/// negation are cheaper to recompile than to import; everything that can
/// hide real compilation work (loops, cases, conditionals, sequences,
/// choices, predicate unions) is cacheable.
bool isCacheableKind(NodeKind Kind) {
  switch (Kind) {
  case NodeKind::Seq:
  case NodeKind::Union:
  case NodeKind::Choice:
  case NodeKind::IfThenElse:
  case NodeKind::While:
  case NodeKind::Case:
    return true;
  default:
    return false;
  }
}

/// Compiles a `case` with the segment algebra of §6, serially in the
/// caller's manager. A segment over a run of arms (g_i, b_i) is the pair
/// (Guard, Body): Guard is the disjunction of its guards and Body the
/// first-match cascade with a *drop* fall-through. Each arm starts as
/// (g_i, if g_i then b_i else drop), and two adjacent segments merge as
///   Guard = Guard_L | Guard_R
///   Body  = if Guard_L then Body_L else Body_R
/// which is associative, so adjacent pairs merge level by level. Every
/// level walks each arm's nodes once, so the cost grows as n log n in the
/// arm count; a right fold `branch(g_i, b_i, Acc)` walks the whole
/// accumulated cascade per arm and grows as n^2. The default plugs into
/// the last fall-through. Both merge operations only route between
/// existing leaves, so the result is the canonical diagram of the
/// first-match cascade in every solver mode.
FddRef compileCase(FddManager &M, const CaseNode *C, const CacheContext *CC) {
  struct Segment {
    FddRef Guard;
    FddRef Body;
  };
  std::vector<Segment> Level;
  Level.reserve(C->branches().size());
  for (const auto &[G, B] : C->branches()) {
    FddRef Guard = compileNode(M, G, CC);
    FddRef Body = compileNode(M, B, CC);
    Level.push_back({Guard, M.branch(Guard, Body, M.dropLeaf())});
  }
  assert(!Level.empty() && "Context::caseOf folds an arm-less case into "
                            "its default");
  FddRef Default = compileNode(M, C->defaultBranch(), CC);
  bool DropDefault = Default == M.dropLeaf();
  while (Level.size() > 1) {
    // A drop default leaves the cascade as it is, so the last merge skips
    // the guard over every arm: nothing reads it, and building it only
    // grows the manager's tables.
    bool NeedGuard = Level.size() > 2 || !DropDefault;
    std::size_t Merged = 0;
    for (std::size_t I = 0; I + 1 < Level.size(); I += 2) {
      const Segment &L = Level[I], &R = Level[I + 1];
      FddRef Guard = NeedGuard ? M.disjoin(L.Guard, R.Guard) : L.Guard;
      Level[Merged++] = {Guard, M.branch(L.Guard, L.Body, R.Body)};
    }
    if (Level.size() & 1)
      Level[Merged++] = Level.back();
    Level.resize(Merged);
  }
  if (DropDefault)
    return Level.front().Body;
  return M.branch(Level.front().Guard, Level.front().Body, Default);
}

FddRef compileNodeUncached(FddManager &M, const Node *P,
                           const CacheContext *CC) {
  switch (P->kind()) {
  case NodeKind::Drop:
    return M.dropLeaf();
  case NodeKind::Skip:
    return M.identityLeaf();
  case NodeKind::Test: {
    const auto *T = cast<TestNode>(P);
    return M.test(T->field(), T->value());
  }
  case NodeKind::Assign: {
    const auto *A = cast<AssignNode>(P);
    return M.assign(A->field(), A->value());
  }
  case NodeKind::Not:
    return M.negate(compileNode(M, cast<NotNode>(P)->operand(), CC));
  case NodeKind::Seq: {
    const auto *S = cast<SeqNode>(P);
    return M.seq(compileNode(M, S->lhs(), CC),
                 compileNode(M, S->rhs(), CC));
  }
  case NodeKind::Union: {
    const auto *U = cast<UnionNode>(P);
    if (!U->isPredicate())
      fatalError("program-level union is outside the guarded fragment; "
                 "the native backend only compiles guarded programs (§5)");
    return M.disjoin(compileNode(M, U->lhs(), CC),
                     compileNode(M, U->rhs(), CC));
  }
  case NodeKind::Choice: {
    const auto *C = cast<ChoiceNode>(P);
    return M.choice(C->probability(), compileNode(M, C->lhs(), CC),
                    compileNode(M, C->rhs(), CC));
  }
  case NodeKind::Star:
    fatalError("star is outside the guarded fragment; use while loops");
  case NodeKind::IfThenElse: {
    const auto *I = cast<IfThenElseNode>(P);
    return M.branch(compileNode(M, I->cond(), CC),
                    compileNode(M, I->thenBranch(), CC),
                    compileNode(M, I->elseBranch(), CC));
  }
  case NodeKind::While: {
    const auto *W = cast<WhileNode>(P);
    return M.solveLoop(compileNode(M, W->cond(), CC),
                       compileNode(M, W->body(), CC));
  }
  case NodeKind::Case:
    return compileCase(M, cast<CaseNode>(P), CC);
  }
  MCNK_UNREACHABLE("unhandled node kind");
}

/// The caching shell around compileNodeUncached: consult the shared cache
/// before compiling a composite sub-program, store what was compiled
/// after. Canonicity makes this transparent — importing a cached portable
/// diagram yields exactly the ref a fresh compile would have produced, so
/// hits and misses are reference-equal in every solver mode.
FddRef compileNode(FddManager &M, const Node *P, const CacheContext *CC) {
  bool Consult = CC && isCacheableKind(P->kind());
  ast::ProgramHash Key;
  if (Consult) {
    const NodeFingerprint &FP = CC->Memo.at(P);
    Consult = FP.Size >= CacheMinNodes;
    Key = FP.Hash;
  }
  if (Consult) {
    std::shared_ptr<const PortableFdd> Cached;
    if (CC->Cache->lookup(Key, M.solverKind(), Cached))
      return importFdd(M, *Cached);
  }
  FddRef Result = compileNodeUncached(M, P, CC);
  if (Consult)
    CC->Cache->insert(Key, M.solverKind(), exportFdd(M, Result));
  return Result;
}

} // namespace

FddRef fdd::compile(FddManager &Manager, const Node *Program,
                    CompileCache *Cache) {
  if (!Cache)
    return compileNode(Manager, Program, nullptr);
  CacheContext CC{Cache, FingerprintMemo(Program)};
  return compileNode(Manager, Program, &CC);
}
