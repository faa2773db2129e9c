//===----------------------------------------------------------------------===//
///
/// \file
/// AST analyses: structural equality/hashing (for tests and caches), node
/// statistics, guarded-fragment checking (§5's pragmatic restriction), and
/// mentioned-value collection (seed of dynamic domain reduction). Every
/// walk keeps its own stack, so arbitrarily deep terms are safe on any
/// thread.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_AST_TRAVERSAL_H
#define MCNK_AST_TRAVERSAL_H

#include "ast/Node.h"
#include "support/Casting.h"
#include "support/Error.h"

#include <cstddef>
#include <map>
#include <set>

namespace mcnk {
namespace ast {

/// Calls \p Visit on each child of \p N in syntactic order: operands left
/// to right, a conditional's guard before its branches, each case arm's
/// guard before its program, the default last.
template <typename Fn> void forEachChild(const Node *N, Fn &&Visit) {
  switch (N->kind()) {
  case NodeKind::Drop:
  case NodeKind::Skip:
  case NodeKind::Test:
  case NodeKind::Assign:
    return;
  case NodeKind::Not:
    Visit(cast<NotNode>(N)->operand());
    return;
  case NodeKind::Seq:
    Visit(cast<SeqNode>(N)->lhs());
    Visit(cast<SeqNode>(N)->rhs());
    return;
  case NodeKind::Union:
    Visit(cast<UnionNode>(N)->lhs());
    Visit(cast<UnionNode>(N)->rhs());
    return;
  case NodeKind::Choice:
    Visit(cast<ChoiceNode>(N)->lhs());
    Visit(cast<ChoiceNode>(N)->rhs());
    return;
  case NodeKind::Star:
    Visit(cast<StarNode>(N)->body());
    return;
  case NodeKind::IfThenElse:
    Visit(cast<IfThenElseNode>(N)->cond());
    Visit(cast<IfThenElseNode>(N)->thenBranch());
    Visit(cast<IfThenElseNode>(N)->elseBranch());
    return;
  case NodeKind::While:
    Visit(cast<WhileNode>(N)->cond());
    Visit(cast<WhileNode>(N)->body());
    return;
  case NodeKind::Case: {
    const auto *C = cast<CaseNode>(N);
    for (const auto &[Guard, Program] : C->branches()) {
      Visit(Guard);
      Visit(Program);
    }
    Visit(C->defaultBranch());
    return;
  }
  }
  MCNK_UNREACHABLE("unhandled node kind");
}

/// Deep structural equality (ignores sharing).
bool structurallyEqual(const Node *A, const Node *B);

/// Hash consistent with structurallyEqual.
std::size_t structuralHash(const Node *N);

/// Number of nodes in the term viewed as a tree (shared subterms counted
/// once per occurrence).
std::size_t countNodes(const Node *N);

/// Height of the term tree (a leaf has depth 1).
std::size_t depth(const Node *N);

/// True if the program lies in the guarded fragment accepted by the tool
/// backends: no Star anywhere, and Union only between predicates (§5). All
/// conditionals/loops/cases are fine.
bool isGuarded(const Node *N);

/// Per-field sets of values mentioned in tests or assignments. Used to
/// build finite packet domains for the reference semantics and as the seed
/// of the symbolic-packet domains (§5.1 dynamic domain reduction). A
/// shared subterm is visited once.
std::map<FieldId, std::set<FieldValue>> collectValues(const Node *N);

} // namespace ast
} // namespace mcnk

#endif // MCNK_AST_TRAVERSAL_H
