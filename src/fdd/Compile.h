//===----------------------------------------------------------------------===//
///
/// \file
/// AST -> FDD compilation (the native backend of §5.1). Accepts exactly
/// the guarded fragment (ast::isGuarded) and compiles serially in the
/// caller's manager. The n-ary `case` construct is reduced with the
/// associative segment algebra of the paper's map-reduce backend (§6),
/// merging adjacent arms pairwise (docs/ARCHITECTURE.md S10). Loop solves
/// run serially too, block by block (docs/ARCHITECTURE.md S13); nothing in
/// a compile runs on another thread.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_FDD_COMPILE_H
#define MCNK_FDD_COMPILE_H

#include "ast/Node.h"
#include "ast/Slice.h"
#include "fdd/Fdd.h"

namespace mcnk {

namespace ast {
class Context;
} // namespace ast

namespace fdd {

class CompileCache;

/// The CompileOptions.Slice payload: the rewrite arena (must own the
/// program's nodes and outlive the compile), the observation set the
/// query exposes, and an optional stats sink filled by the slice.
struct SliceHook {
  ast::Context *Ctx = nullptr;
  ast::ObservationSet Observed;
  ast::SliceStats *Stats = nullptr;
};

struct CompileOptions {
  /// Cross-compile memoization (docs/ARCHITECTURE.md S12): when non-null,
  /// compile() consults this cache at every composite sub-program
  /// boundary (seq / union / choice / if / while / case, gated by
  /// CacheMinNodes) and stores what it compiles, so a family of programs
  /// differing in a few arms only pays for the arms that changed. The
  /// cache may be shared across managers, solver kinds, threads, and
  /// Verifier lifetimes. Caveat: a hit that covers a while loop skips the
  /// solver, so FddManager::lastLoopStats() is not refreshed by cached
  /// sub-programs.
  CompileCache *Cache = nullptr;
  /// Sub-programs smaller than this (tree-size heuristic) skip the cache:
  /// below a handful of nodes, recompiling is cheaper than a lookup plus
  /// portable-FDD import.
  std::size_t CacheMinNodes = 16;
  /// Query-directed cone-of-influence slicing (ast/Slice.h; ARCHITECTURE
  /// S17). When non-null (with a non-null Ctx), the program is sliced for
  /// Observed before compilation — assignments to fields outside the
  /// query's cone of influence are removed, so the diagram never pays for
  /// fields the query cannot see. Applied exactly once at the top of
  /// compile(); it composes with the S12 cache — the fingerprint pass sees
  /// the sliced tree. Unlike the S15 simplifier (ast/Simplify.h, which
  /// callers run on the AST themselves), the sliced diagram is only equal
  /// to the original *after projecting leaf actions onto the cone*; the
  /// answers of queries within Observed are unchanged, a contract the
  /// oracle's CheckSlice lane enforces.
  const SliceHook *Slice = nullptr;
};

/// Compiles a guarded ProbNetKAT program into an FDD owned by \p Manager.
///
/// \param Manager  The manager that will own (and hash-cons) every node of
///                 the result; while-loop bodies are solved with the
///                 manager's configured markov::SolverKind.
/// \param Program  A guarded-fragment program (ast::isGuarded must hold).
///                 General Star or program-level Union abort with a
///                 diagnostic rather than returning an error value.
/// \param Options  Compile cache, simplifier and slice hooks.
/// \return A canonical diagram denoting \p Program's sub-stochastic
///         single-packet semantics: each leaf maps actions to exact
///         rational probabilities summing to at most 1, the deficit being
///         the probability of dropping the packet.
FddRef compile(FddManager &Manager, const ast::Node *Program,
               const CompileOptions &Options = {});

} // namespace fdd
} // namespace mcnk

#endif // MCNK_FDD_COMPILE_H
