//===----------------------------------------------------------------------===//
///
/// \file
/// AST analyses: structural equality and hashing, node statistics,
/// guarded-fragment checking, and mentioned-value collection.
///
//===----------------------------------------------------------------------===//

#include "ast/Traversal.h"

#include "support/Casting.h"
#include "support/Error.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <vector>

using namespace mcnk;
using namespace mcnk::ast;

namespace {

/// The kind and scalar payload of \p A and \p B match (children aside).
bool sameShallow(const Node *A, const Node *B) {
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case NodeKind::Test: {
    const auto *TA = cast<TestNode>(A), *TB = cast<TestNode>(B);
    return TA->field() == TB->field() && TA->value() == TB->value();
  }
  case NodeKind::Assign: {
    const auto *TA = cast<AssignNode>(A), *TB = cast<AssignNode>(B);
    return TA->field() == TB->field() && TA->value() == TB->value();
  }
  case NodeKind::Choice:
    return cast<ChoiceNode>(A)->probability() ==
           cast<ChoiceNode>(B)->probability();
  case NodeKind::Case:
    return cast<CaseNode>(A)->branches().size() ==
           cast<CaseNode>(B)->branches().size();
  default:
    return true;
  }
}

/// A node's own hash, before its children's hashes are folded in.
std::size_t shallowHash(const Node *N) {
  std::size_t Seed = hashCombine(0x1234u, static_cast<unsigned>(N->kind()));
  switch (N->kind()) {
  case NodeKind::Test: {
    const auto *T = cast<TestNode>(N);
    return hashCombine(hashCombine(Seed, T->field()), T->value());
  }
  case NodeKind::Assign: {
    const auto *T = cast<AssignNode>(N);
    return hashCombine(hashCombine(Seed, T->field()), T->value());
  }
  case NodeKind::Choice:
    return hashCombine(Seed, cast<ChoiceNode>(N)->probability().hash());
  default:
    return Seed;
  }
}

} // namespace

// Every traversal below keeps its own stack: programs arrive from sockets
// and files as 200k-deep `;` spines, and a recursive walk would overflow
// the calling thread's stack on them.

bool ast::structurallyEqual(const Node *A, const Node *B) {
  // Equal shapes push equally many children, so the two stacks stay
  // aligned pair by pair.
  std::vector<const Node *> As{A}, Bs{B};
  while (!As.empty()) {
    const Node *X = As.back(), *Y = Bs.back();
    As.pop_back();
    Bs.pop_back();
    if (X == Y)
      continue;
    if (!sameShallow(X, Y))
      return false;
    forEachChild(X, [&As](const Node *C) { As.push_back(C); });
    forEachChild(Y, [&Bs](const Node *C) { Bs.push_back(C); });
  }
  return true;
}

std::size_t ast::structuralHash(const Node *N) {
  // Post-order: a node folds its children's hashes, in child order, into
  // its shallow hash. Frames are pushed twice; the second visit folds.
  std::vector<std::pair<const Node *, bool>> Stack{{N, false}};
  std::vector<std::size_t> Hashes;
  while (!Stack.empty()) {
    auto [X, Folding] = Stack.back();
    Stack.pop_back();
    if (!Folding) {
      Stack.push_back({X, true});
      std::size_t Mark = Stack.size();
      forEachChild(X, [&Stack](const Node *C) { Stack.push_back({C, false}); });
      std::reverse(Stack.begin() + static_cast<std::ptrdiff_t>(Mark),
                   Stack.end());
      continue;
    }
    std::size_t Arity = 0;
    forEachChild(X, [&Arity](const Node *) { ++Arity; });
    std::size_t Seed = shallowHash(X);
    for (std::size_t I = Hashes.size() - Arity; I < Hashes.size(); ++I)
      Seed = hashCombine(Seed, Hashes[I]);
    Hashes.resize(Hashes.size() - Arity);
    Hashes.push_back(Seed);
  }
  return Hashes.back();
}

std::size_t ast::countNodes(const Node *N) {
  std::size_t Count = 0;
  std::vector<const Node *> Stack{N};
  while (!Stack.empty()) {
    const Node *X = Stack.back();
    Stack.pop_back();
    ++Count;
    forEachChild(X, [&Stack](const Node *C) { Stack.push_back(C); });
  }
  return Count;
}

std::size_t ast::depth(const Node *N) {
  std::size_t Max = 0;
  std::vector<std::pair<const Node *, std::size_t>> Stack{{N, 1}};
  while (!Stack.empty()) {
    auto [X, D] = Stack.back();
    Stack.pop_back();
    Max = std::max(Max, D);
    forEachChild(X, [&Stack, D = D](const Node *C) {
      Stack.push_back({C, D + 1});
    });
  }
  return Max;
}

bool ast::isGuarded(const Node *N) {
  std::vector<const Node *> Stack{N};
  while (!Stack.empty()) {
    const Node *X = Stack.back();
    Stack.pop_back();
    if (isa<StarNode>(X) || (isa<UnionNode>(X) && !X->isPredicate()))
      return false;
    forEachChild(X, [&Stack](const Node *C) { Stack.push_back(C); });
  }
  return true;
}

std::map<FieldId, std::set<FieldValue>> ast::collectValues(const Node *N) {
  std::map<FieldId, std::set<FieldValue>> Result;
  std::vector<bool> Seen(N->id() + 1, false); // Indexed by node id.
  Seen[N->id()] = true;
  std::vector<const Node *> Stack{N};
  while (!Stack.empty()) {
    const Node *X = Stack.back();
    Stack.pop_back();
    if (const auto *T = dyn_cast<TestNode>(X))
      Result[T->field()].insert(T->value());
    else if (const auto *A = dyn_cast<AssignNode>(X))
      Result[A->field()].insert(A->value());
    forEachChild(X, [&](const Node *C) {
      assert(C->id() < X->id() && "child from another Context");
      if (!Seen[C->id()]) {
        Seen[C->id()] = true;
        Stack.push_back(C);
      }
    });
  }
  return Result;
}
