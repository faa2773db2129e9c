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

#include <cstddef>
#include <map>
#include <set>

namespace mcnk {
namespace ast {

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
