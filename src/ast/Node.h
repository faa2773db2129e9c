//===----------------------------------------------------------------------===//
///
/// \file
/// ProbNetKAT abstract syntax (paper Fig 2). Terms divide into predicates
/// (drop, skip, f=n, &, ;, ¬) and programs (predicates, f:=n, &, ;, ⊕_r,
/// *). The guarded fragment adds first-class conditionals, while loops, and
/// the n-ary disjoint `case` construct (§6), which the compiler reduces
/// with the map-reduce segment algebra.
///
/// Nodes are immutable, placed in the chunks of their Context's arena, and
/// use LLVM-style kind-based RTTI (isa/cast/dyn_cast via classof). They
/// have no vtable: the Context destroys the two kinds that own memory
/// (ChoiceNode, CaseNode) by their static type. Each node carries a
/// dense id, its index in the owning Context's arena, so per-node side
/// tables (source locations, fingerprints, pass memos) are flat vectors
/// indexed by id rather than pointer-keyed hash maps.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_AST_NODE_H
#define MCNK_AST_NODE_H

#include "packet/Field.h"
#include "support/Casting.h"
#include "support/Rational.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace mcnk {
namespace ast {

class Context;

/// Discriminator for Node's subclasses.
enum class NodeKind : uint8_t {
  Drop,       ///< false / abort
  Skip,       ///< true / identity
  Test,       ///< f = n
  Assign,     ///< f := n
  Not,        ///< ¬t (predicate only)
  Seq,        ///< p ; q (conjunction on predicates)
  Union,      ///< p & q (disjunction on predicates)
  Choice,     ///< p ⊕_r q
  Star,       ///< p* (full language only; not in the guarded fragment)
  IfThenElse, ///< if t then p else q
  While,      ///< while t do p
  Case,       ///< case t1 -> p1 | ... | else -> q (first-match cascade)
};

/// Base class of all ProbNetKAT terms.
class Node {
public:
  Node(const Node &) = delete;
  Node &operator=(const Node &) = delete;

  NodeKind kind() const { return Kind; }

  /// True if this term denotes a predicate (filters packets, no
  /// randomness, no modification). Computed structurally at construction.
  bool isPredicate() const { return IsPred; }

  /// Dense index of this node in its Context's arena, assigned at
  /// creation. Children exist before their parent, so every node of a
  /// term has an id no larger than the term's root: an id-indexed table
  /// of root->id() + 1 entries covers the whole term. Ids from different
  /// Contexts overlap, so an id-indexed table serves one Context only.
  uint32_t id() const { return Id; }

protected:
  Node(NodeKind K, bool Pred) : Kind(K), IsPred(Pred) {}
  /// Not virtual: nodes are never deleted through a Node pointer.
  ~Node() = default;

private:
  friend class Context;

  NodeKind Kind;
  bool IsPred;
  uint32_t Id = 0;
};

static_assert(sizeof(Node) == 8,
              "the id must fit the padding after Kind and IsPred");

/// drop — the constant-false predicate; maps every input to ∅.
class DropNode : public Node {
public:
  DropNode() : Node(NodeKind::Drop, /*IsPred=*/true) {}
  static bool classof(const Node *N) { return N->kind() == NodeKind::Drop; }
};

/// skip — the constant-true predicate; the identity program.
class SkipNode : public Node {
public:
  SkipNode() : Node(NodeKind::Skip, /*IsPred=*/true) {}
  static bool classof(const Node *N) { return N->kind() == NodeKind::Skip; }
};

/// f = n — passes the packet iff field f holds n.
class TestNode : public Node {
public:
  TestNode(FieldId F, FieldValue V)
      : Node(NodeKind::Test, /*IsPred=*/true), Field(F), Value(V) {}

  FieldId field() const { return Field; }
  FieldValue value() const { return Value; }

  static bool classof(const Node *N) { return N->kind() == NodeKind::Test; }

private:
  FieldId Field;
  FieldValue Value;
};

/// f := n — functional field update.
class AssignNode : public Node {
public:
  AssignNode(FieldId F, FieldValue V)
      : Node(NodeKind::Assign, /*IsPred=*/false), Field(F), Value(V) {}

  FieldId field() const { return Field; }
  FieldValue value() const { return Value; }

  static bool classof(const Node *N) { return N->kind() == NodeKind::Assign; }

private:
  FieldId Field;
  FieldValue Value;
};

/// ¬t — predicate negation.
class NotNode : public Node {
public:
  explicit NotNode(const Node *Op)
      : Node(NodeKind::Not, /*IsPred=*/true), Operand(Op) {}

  const Node *operand() const { return Operand; }

  static bool classof(const Node *N) { return N->kind() == NodeKind::Not; }

private:
  const Node *Operand;
};

/// p ; q — sequential composition; conjunction on predicates.
class SeqNode : public Node {
public:
  SeqNode(const Node *L, const Node *R)
      : Node(NodeKind::Seq, L->isPredicate() && R->isPredicate()), Lhs(L),
        Rhs(R) {}

  const Node *lhs() const { return Lhs; }
  const Node *rhs() const { return Rhs; }

  static bool classof(const Node *N) { return N->kind() == NodeKind::Seq; }

private:
  const Node *Lhs, *Rhs;
};

/// p & q — parallel composition; disjunction on predicates. Outside
/// predicates this is only available to the reference set semantics (the
/// guarded single-packet backends reject it).
class UnionNode : public Node {
public:
  UnionNode(const Node *L, const Node *R)
      : Node(NodeKind::Union, L->isPredicate() && R->isPredicate()), Lhs(L),
        Rhs(R) {}

  const Node *lhs() const { return Lhs; }
  const Node *rhs() const { return Rhs; }

  static bool classof(const Node *N) { return N->kind() == NodeKind::Union; }

private:
  const Node *Lhs, *Rhs;
};

/// p ⊕_r q — executes p with probability r, q with probability 1 - r.
class ChoiceNode : public Node {
public:
  ChoiceNode(Rational Prob, const Node *L, const Node *R)
      : Node(NodeKind::Choice, /*IsPred=*/false),
        Probability(std::move(Prob)), Lhs(L), Rhs(R) {}

  const Rational &probability() const { return Probability; }
  const Node *lhs() const { return Lhs; }
  const Node *rhs() const { return Rhs; }

  static bool classof(const Node *N) { return N->kind() == NodeKind::Choice; }

private:
  Rational Probability;
  const Node *Lhs, *Rhs;
};

/// p* — iteration (full language only).
class StarNode : public Node {
public:
  explicit StarNode(const Node *B)
      : Node(NodeKind::Star, /*IsPred=*/false), Body(B) {}

  const Node *body() const { return Body; }

  static bool classof(const Node *N) { return N->kind() == NodeKind::Star; }

private:
  const Node *Body;
};

/// if t then p else q — guarded branching (≜ t;p & ¬t;q).
class IfThenElseNode : public Node {
public:
  IfThenElseNode(const Node *C, const Node *T, const Node *E)
      : Node(NodeKind::IfThenElse, /*IsPred=*/false), Cond(C), Then(T),
        Else(E) {}

  const Node *cond() const { return Cond; }
  const Node *thenBranch() const { return Then; }
  const Node *elseBranch() const { return Else; }

  static bool classof(const Node *N) {
    return N->kind() == NodeKind::IfThenElse;
  }

private:
  const Node *Cond, *Then, *Else;
};

/// while t do p — guarded iteration (≜ (t;p)* ; ¬t).
class WhileNode : public Node {
public:
  WhileNode(const Node *C, const Node *B)
      : Node(NodeKind::While, /*IsPred=*/false), Cond(C), Body(B) {}

  const Node *cond() const { return Cond; }
  const Node *body() const { return Body; }

  static bool classof(const Node *N) { return N->kind() == NodeKind::While; }

private:
  const Node *Cond, *Body;
};

/// case t1 -> p1 | ... | tn -> pn | else -> q — n-ary branching (§6).
/// Semantically a first-match conditional cascade: guards need not be
/// disjoint, and branch i fires only where guards 1..i-1 failed (every
/// backend, including the PRISM translation, implements this). The FDD
/// compiler merges adjacent arms pairwise (fdd/Compile.cpp).
class CaseNode : public Node {
public:
  using Branch = std::pair<const Node *, const Node *>; // (guard, program)

  CaseNode(std::vector<Branch> Arms, const Node *Dflt)
      : Node(NodeKind::Case, /*IsPred=*/false), Branches(std::move(Arms)),
        Default(Dflt) {}

  const std::vector<Branch> &branches() const { return Branches; }
  const Node *defaultBranch() const { return Default; }

  static bool classof(const Node *N) { return N->kind() == NodeKind::Case; }

private:
  std::vector<Branch> Branches;
  const Node *Default;
};

} // namespace ast
} // namespace mcnk

#endif // MCNK_AST_NODE_H
