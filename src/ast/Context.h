//===----------------------------------------------------------------------===//
///
/// \file
/// Context owns the field table and all AST nodes (arena style) and exposes
/// smart constructors that perform light, semantics-preserving
/// normalizations (drop/skip absorption, trivial-probability collapse).
/// Derived forms from the paper — n-ary choice, `var f := n in p`,
/// conditional cascades — desugar here exactly as §2/§3 prescribe.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_AST_CONTEXT_H
#define MCNK_AST_CONTEXT_H

#include "ast/Node.h"
#include "packet/Field.h"
#include "support/Error.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mcnk {
namespace ast {

/// 1-based source coordinates for a node, recorded by the parser in a
/// Context side table indexed by node id (nodes themselves stay immutable
/// and location-free). Line 0 means "no recorded location".
struct SourceLoc {
  unsigned Line = 0;
  unsigned Column = 0;

  bool valid() const { return Line != 0; }
};

/// Owns nodes and fields; the root object every McNetKAT pipeline starts
/// from. Nodes are deduplicated only for the two constants drop/skip;
/// structural sharing elsewhere comes from reusing subterm pointers.
class Context {
public:
  Context();

  FieldTable &fields() { return Fields; }
  const FieldTable &fields() const { return Fields; }

  /// Shorthand for fields().intern(Name).
  FieldId field(const std::string &Name) { return Fields.intern(Name); }

  // --- Primitive terms -------------------------------------------------
  const Node *drop() const { return DropSingleton; }
  const Node *skip() const { return SkipSingleton; }
  const Node *test(FieldId Field, FieldValue Value);
  const Node *assign(FieldId Field, FieldValue Value);

  // --- Compound terms (light normalization; see implementation) --------
  const Node *negate(const Node *Pred);
  const Node *seq(const Node *Lhs, const Node *Rhs);
  const Node *unite(const Node *Lhs, const Node *Rhs);
  const Node *choice(const Rational &Probability, const Node *Lhs,
                     const Node *Rhs);
  const Node *star(const Node *Body);
  const Node *ite(const Node *Cond, const Node *Then, const Node *Else);
  const Node *whileLoop(const Node *Cond, const Node *Body);
  const Node *caseOf(std::vector<CaseNode::Branch> Branches,
                     const Node *Default);

  // --- Derived forms ----------------------------------------------------
  /// p1 ; p2 ; ... ; pn (skip when empty).
  const Node *seqAll(const std::vector<const Node *> &Programs);
  /// t1 & t2 & ... & tn (drop when empty).
  const Node *uniteAll(const std::vector<const Node *> &Programs);
  /// Uniform n-ary choice p1 ⊕ ... ⊕ pn (§3).
  const Node *choiceUniform(const std::vector<const Node *> &Programs);
  /// Weighted n-ary choice ⊕ { p_i @ w_i }; weights must sum to 1.
  const Node *
  choiceWeighted(const std::vector<std::pair<const Node *, Rational>> &Cases);
  /// var f := n in p  ≜  f := n ; p ; f := 0 (§3).
  const Node *local(FieldId Field, FieldValue Init, const Node *Body);

  // --- Source locations -------------------------------------------------
  /// Records the source location of \p N. First write wins, so a node
  /// shared by normalization (or reused by a builder) keeps the location
  /// of its first occurrence. The drop/skip singletons are not tracked —
  /// they stand for every literal in the program at once.
  void noteLoc(const Node *N, SourceLoc Loc);
  /// The recorded location of \p N, or an invalid (0:0) location — also
  /// for nodes created after the last noteLoc (by slice, simplify, ...).
  SourceLoc loc(const Node *N) const;

  /// Number of nodes allocated (diagnostics).
  std::size_t numAllocatedNodes() const { return Arena.size(); }

private:
  template <typename T, typename... Args> const T *make(Args &&...A) {
    if (Arena.size() > UINT32_MAX)
      fatalError("ast::Context: more than 2^32 nodes (node id overflow)");
    auto Owned = std::make_unique<T>(std::forward<Args>(A)...);
    Owned->Id = static_cast<uint32_t>(Arena.size());
    const T *Raw = Owned.get();
    Arena.push_back(std::move(Owned));
    return Raw;
  }

  FieldTable Fields;
  /// Indexed by node id; grows on noteLoc, so later nodes read past it.
  std::vector<SourceLoc> Locs;
  std::vector<std::unique_ptr<Node>> Arena;
  const Node *DropSingleton;
  const Node *SkipSingleton;
};

} // namespace ast
} // namespace mcnk

#endif // MCNK_AST_CONTEXT_H
