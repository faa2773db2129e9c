//===----------------------------------------------------------------------===//
///
/// \file
/// Context owns the field table and all AST nodes (a bump arena of chunks
/// that double in size) and exposes
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

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string_view>
#include <type_traits>
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
  ~Context();
  // Nodes point at each other and at the singletons; a Context stays put.
  Context(const Context &) = delete;
  Context &operator=(const Context &) = delete;

  FieldTable &fields() { return Fields; }
  const FieldTable &fields() const { return Fields; }

  /// Shorthand for fields().intern(Name).
  FieldId field(std::string_view Name) { return Fields.intern(Name); }

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
  std::size_t numAllocatedNodes() const { return NumNodes; }

private:
  /// Places a node in the arena: a pointer bump in the current chunk.
  /// Only ChoiceNode (its Rational) and CaseNode (its branch vector) own
  /// memory; ~Context runs their destructors and frees the chunks.
  template <typename T, typename... Args> const T *make(Args &&...A) {
    constexpr bool Owns = std::is_same_v<T, ChoiceNode> ||
                          std::is_same_v<T, CaseNode>;
    static_assert(Owns || std::is_trivially_destructible_v<T>,
                  "~Context destroys only ChoiceNode and CaseNode");
    static_assert(alignof(T) <= alignof(std::max_align_t) &&
                  sizeof(T) <= FirstChunkBytes);
    if (NumNodes > UINT32_MAX)
      fatalError("ast::Context: more than 2^32 nodes (node id overflow)");
    void *Slot = Cur;
    std::size_t Space = static_cast<std::size_t>(End - Cur);
    if (!std::align(alignof(T), sizeof(T), Slot, Space)) {
      newChunk();
      Slot = Cur;
    }
    T *N = new (Slot) T(std::forward<Args>(A)...);
    Cur = static_cast<std::byte *>(Slot) + sizeof(T);
    N->Id = static_cast<uint32_t>(NumNodes++);
    if constexpr (Owns)
      Owning.push_back(N);
    return N;
  }

  /// Starts a chunk twice the size of the last one (FirstChunkBytes for
  /// the first).
  void newChunk();

  static constexpr std::size_t FirstChunkBytes = 1024;

  FieldTable Fields;
  /// Indexed by node id; grows geometrically on noteLoc, so nodes created
  /// since it last grew read past it (or an unwritten, invalid entry).
  std::vector<SourceLoc> Locs;
  std::vector<std::unique_ptr<std::byte[]>> Chunks;
  std::size_t LastChunkBytes = 0;
  std::byte *Cur = nullptr; ///< Next free byte of the current chunk.
  std::byte *End = nullptr; ///< One past the current chunk.
  std::size_t NumNodes = 0;
  /// The ChoiceNode/CaseNode nodes, whose destructors free memory.
  std::vector<Node *> Owning;
  const Node *DropSingleton;
  const Node *SkipSingleton;
};

} // namespace ast
} // namespace mcnk

#endif // MCNK_AST_CONTEXT_H
