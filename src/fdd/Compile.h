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
#include "fdd/Fdd.h"

namespace mcnk {
namespace fdd {

class CompileCache;

/// Compiles a guarded ProbNetKAT program into an FDD owned by \p Manager.
/// The program is translated exactly as given: rewrites such as the S15
/// simplifier (ast/Simplify.h) or S17 slicing (ast/Slice.h) are front-end
/// steps the caller runs on the AST first.
///
/// \param Manager  The manager that will own (and hash-cons) every node of
///                 the result; while-loop bodies are solved with the
///                 manager's configured markov::SolverKind.
/// \param Program  A guarded-fragment program (ast::isGuarded must hold).
///                 General Star or program-level Union abort with a
///                 diagnostic rather than returning an error value.
/// \param Cache    Cross-compile memoization (docs/ARCHITECTURE.md S12):
///                 when non-null, compile() consults this cache at every
///                 composite sub-program boundary (seq / union / choice /
///                 if / while / case) of at least 16 nodes and stores what
///                 it compiles, so a family of programs differing in a few
///                 arms only pays for the arms that changed. The cache may
///                 be shared across managers, solver kinds, threads, and
///                 Verifier lifetimes. Caveat: a hit that covers a while
///                 loop skips the solver, so FddManager::lastLoopStats() is
///                 not refreshed by cached sub-programs.
/// \return A canonical diagram denoting \p Program's sub-stochastic
///         single-packet semantics: each leaf maps actions to exact
///         rational probabilities summing to at most 1, the deficit being
///         the probability of dropping the packet.
FddRef compile(FddManager &Manager, const ast::Node *Program,
               CompileCache *Cache = nullptr);

} // namespace fdd
} // namespace mcnk

#endif // MCNK_FDD_COMPILE_H
