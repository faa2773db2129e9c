//===----------------------------------------------------------------------===//
///
/// \file
/// Structural-recursion compiler from the guarded AST fragment to FDDs,
/// including the parallel `case` path that compiles branches on a
/// persistent worker-pool engine and merges them through the portable
/// format with a pairwise tree reduction (Sec 6).
///
//===----------------------------------------------------------------------===//

#include "fdd/Compile.h"

#include "ast/Hash.h"
#include "ast/Simplify.h"
#include "fdd/CompileCache.h"
#include "fdd/Export.h"
#include "support/Casting.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <cassert>
#include <memory>

using namespace mcnk;
using namespace mcnk::fdd;
using namespace mcnk::ast;

namespace {

/// Cross-compile memoization state for one compile() call: the shared
/// cache plus the fingerprint memo, computed up front in one pass so the
/// parallel `case` workers can read it concurrently without locking.
struct CacheContext {
  CompileCache *Cache;
  std::size_t MinNodes;
  FingerprintMemo Memo;
};

FddRef compileNode(FddManager &M, const Node *P, const CompileOptions &O,
                   const CacheContext *CC);

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

/// A partially merged run of `case` branches, shipped between worker
/// managers in portable form. A segment over arms (g_i, b_i) denotes the
/// first-match cascade with a *drop* fall-through; Guard is the
/// disjunction of its guards, so the cascade-with-hole semantics is
/// `Body + !Guard ; <hole>`. Two adjacent segments compose as
///   Guard = Guard_L | Guard_R
///   Body  = if Guard_L then Body_L else Body_R
/// which is associative — that is what licenses the pairwise tree
/// reduction below. Both merge operations are arithmetic-free (they only
/// route between existing leaves), so parallel and serial compilation
/// produce reference-equal canonical diagrams in every solver mode.
struct CaseSegment {
  PortableFdd Guard;
  PortableFdd Body;
};

/// Compiles the branches of a `case` on the persistent worker pool: one
/// FddManager per task (managers are single-threaded), guards precompiled
/// alongside their branch, results shipped through the portable format and
/// merged by a log-depth pairwise tree reduction — the map-reduce strategy
/// of §6 on a single machine. Nested `case` nodes keep ParallelCase set:
/// they reuse the same pool, whose waiters help execute queued tasks
/// inline instead of blocking (docs/ARCHITECTURE.md S10).
FddRef compileCaseParallel(FddManager &M, const CaseNode *C,
                           const CompileOptions &O, const CacheContext *CC) {
  assert(O.Pool && "parallel case compilation requires an engine");
  ThreadPool &Pool = *O.Pool;
  const auto &Branches = C->branches();

  // Map: compile guard and branch of each arm in a private manager. The
  // cache context is shared read-only (the memo is fully populated before
  // any worker runs; CompileCache itself is thread-safe).
  std::vector<CaseSegment> Level(Branches.size());
  Pool.parallelFor(Branches.size(), [&](std::size_t I) {
    FddManager Worker(M.solverKind());
    Worker.setSolverStructure(M.solverStructure());
    FddRef Guard = compileNode(Worker, Branches[I].first, O, CC);
    FddRef Body = compileNode(Worker, Branches[I].second, O, CC);
    Level[I].Guard = exportFdd(Worker, Guard);
    Level[I].Body =
        exportFdd(Worker, Worker.branch(Guard, Body, Worker.dropLeaf()));
  });

  // Reduce: merge adjacent segments pairwise until one remains. Each
  // level halves the segment count, so the critical path is logarithmic
  // instead of the old serial right-fold.
  while (Level.size() > 1) {
    std::size_t Pairs = Level.size() / 2;
    std::vector<CaseSegment> Next(Pairs + (Level.size() & 1));
    Pool.parallelFor(Pairs, [&](std::size_t J) {
      FddManager Worker(M.solverKind());
      FddRef GuardL = importFdd(Worker, Level[2 * J].Guard);
      FddRef BodyL = importFdd(Worker, Level[2 * J].Body);
      FddRef GuardR = importFdd(Worker, Level[2 * J + 1].Guard);
      FddRef BodyR = importFdd(Worker, Level[2 * J + 1].Body);
      Next[J].Guard = exportFdd(Worker, Worker.disjoin(GuardL, GuardR));
      Next[J].Body = exportFdd(Worker, Worker.branch(GuardL, BodyL, BodyR));
    });
    if (Level.size() & 1)
      Next.back() = std::move(Level.back());
    Level = std::move(Next);
  }

  // Plug the default branch into the surviving segment's fall-through, in
  // the caller's manager.
  FddRef Default = compileNode(M, C->defaultBranch(), O, CC);
  FddRef Guard = importFdd(M, Level.front().Guard);
  FddRef Body = importFdd(M, Level.front().Body);
  return M.branch(Guard, Body, Default);
}

FddRef compileNodeUncached(FddManager &M, const Node *P,
                           const CompileOptions &O, const CacheContext *CC) {
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
    return M.negate(compileNode(M, cast<NotNode>(P)->operand(), O, CC));
  case NodeKind::Seq: {
    const auto *S = cast<SeqNode>(P);
    return M.seq(compileNode(M, S->lhs(), O, CC),
                 compileNode(M, S->rhs(), O, CC));
  }
  case NodeKind::Union: {
    const auto *U = cast<UnionNode>(P);
    if (!U->isPredicate())
      fatalError("program-level union is outside the guarded fragment; "
                 "the native backend only compiles guarded programs (§5)");
    return M.disjoin(compileNode(M, U->lhs(), O, CC),
                     compileNode(M, U->rhs(), O, CC));
  }
  case NodeKind::Choice: {
    const auto *C = cast<ChoiceNode>(P);
    return M.choice(C->probability(), compileNode(M, C->lhs(), O, CC),
                    compileNode(M, C->rhs(), O, CC));
  }
  case NodeKind::Star:
    fatalError("star is outside the guarded fragment; use while loops");
  case NodeKind::IfThenElse: {
    const auto *I = cast<IfThenElseNode>(P);
    return M.branch(compileNode(M, I->cond(), O, CC),
                    compileNode(M, I->thenBranch(), O, CC),
                    compileNode(M, I->elseBranch(), O, CC));
  }
  case NodeKind::While: {
    const auto *W = cast<WhileNode>(P);
    return M.solveLoop(compileNode(M, W->cond(), O, CC),
                       compileNode(M, W->body(), O, CC));
  }
  case NodeKind::Case: {
    const auto *C = cast<CaseNode>(P);
    if (O.ParallelCase && C->branches().size() > 1)
      return compileCaseParallel(M, C, O, CC);
    FddRef Acc = compileNode(M, C->defaultBranch(), O, CC);
    for (std::size_t I = C->branches().size(); I-- > 0;) {
      FddRef Guard = compileNode(M, C->branches()[I].first, O, CC);
      FddRef Branch = compileNode(M, C->branches()[I].second, O, CC);
      Acc = M.branch(Guard, Branch, Acc);
    }
    return Acc;
  }
  }
  MCNK_UNREACHABLE("unhandled node kind");
}

/// The caching shell around compileNodeUncached: consult the shared cache
/// before compiling a composite sub-program, store what was compiled
/// after. Canonicity makes this transparent — importing a cached portable
/// diagram yields exactly the ref a fresh compile would have produced, so
/// hits and misses are reference-equal in every solver mode, serial or
/// parallel.
FddRef compileNode(FddManager &M, const Node *P, const CompileOptions &O,
                   const CacheContext *CC) {
  bool Consult = CC && isCacheableKind(P->kind());
  ast::ProgramHash Key;
  if (Consult) {
    const NodeFingerprint &FP = CC->Memo.at(P);
    Consult = FP.Size >= CC->MinNodes;
    Key = FP.Hash;
  }
  if (Consult) {
    std::shared_ptr<const PortableFdd> Cached;
    if (CC->Cache->lookup(Key, M.solverKind(), Cached))
      return importFdd(M, *Cached);
  }
  FddRef Result = compileNodeUncached(M, P, O, CC);
  if (Consult)
    CC->Cache->insert(Key, M.solverKind(), exportFdd(M, Result));
  return Result;
}

} // namespace

FddRef fdd::compile(FddManager &Manager, const Node *Program,
                    const CompileOptions &Options) {
  CompileOptions O = Options;
  if (O.Slice && O.Slice->Ctx) {
    // Like Simplify below: once, before any worker copies the options.
    ast::SliceResult R =
        ast::slice(*O.Slice->Ctx, Program, O.Slice->Observed);
    Program = R.Program;
    if (O.Slice->Stats)
      *O.Slice->Stats = R.Stats;
    O.Slice = nullptr;
  }
  if (O.Simplify) {
    // Once, before any worker copies the options: ast::Context (the arena
    // behind the rewrite) is not thread-safe.
    Program = ast::simplify(*O.Simplify, Program);
    O.Simplify = nullptr;
  }
  std::unique_ptr<ThreadPool> Owned;
  if (O.ParallelCase && !O.Pool) {
    if (O.Threads == 0) {
      O.Pool = &ThreadPool::global();
    } else {
      // A caller-specified width with no engine: a private pool spanning
      // this one compile (every nested `case` shares it).
      Owned = std::make_unique<ThreadPool>(O.Threads);
      O.Pool = Owned.get();
    }
  }
  if (O.Cache) {
    CacheContext CC{O.Cache, O.CacheMinNodes, {}};
    // One up-front fingerprint pass over the whole term; workers then
    // share the memo read-only.
    fingerprintTree(Program, CC.Memo);
    return compileNode(Manager, Program, O, &CC);
  }
  return compileNode(Manager, Program, O, nullptr);
}
