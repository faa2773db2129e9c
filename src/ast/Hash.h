//===----------------------------------------------------------------------===//
///
/// \file
/// Salt-stable structural fingerprints over ProbNetKAT terms — the keys of
/// the cross-compile memoization cache (docs/ARCHITECTURE.md S12). A
/// fingerprint is a 128-bit hash of the term's structure (kinds, fields,
/// values, probabilities) computed with fixed constants only: no std::hash,
/// no pointers, no per-process salt, so the same program text fingerprints
/// identically across processes and platforms and cached FDDs could be
/// shared between them.
///
/// The hash is commutativity-aware exactly where the compiled FDD is
/// invariant under the swap, so semantically interchangeable spellings land
/// on the same cache entry:
///  - `t & u` == `u & t` (predicate disjunction),
///  - `t ; u` == `u ; t` when both operands are predicates (conjunction),
///  - `p ⊕_r q` == `q ⊕_{1-r} p` (choice reversal).
/// Everything else is order-sensitive. Fingerprints depend on numeric
/// FieldIds, not field names — which is exactly what determines the FDD.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_AST_HASH_H
#define MCNK_AST_HASH_H

#include "ast/Node.h"
#include "support/Hashing.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace mcnk {
namespace ast {

/// 128-bit structural fingerprint. Two independently mixed 64-bit lanes
/// make accidental collisions (which would hand a wrong cached FDD to a
/// caller) astronomically unlikely rather than merely rare.
struct ProgramHash {
  uint64_t Lo = 0;
  uint64_t Hi = 0;

  bool operator==(const ProgramHash &R) const {
    return Lo == R.Lo && Hi == R.Hi;
  }
  bool operator!=(const ProgramHash &R) const { return !(*this == R); }
};

struct ProgramHashHasher {
  std::size_t operator()(const ProgramHash &H) const {
    return static_cast<std::size_t>(H.Lo ^ (H.Hi * 0x9e3779b97f4a7c15ULL));
  }
};

/// Fingerprint plus a size heuristic, memoized per term.
struct NodeFingerprint {
  ProgramHash Hash;
  /// Tree-size heuristic (shared subterms counted once per pointer during
  /// the walk, re-added per occurrence, saturating) — used only to gate
  /// which sub-programs are worth a cache round-trip.
  uint32_t Size = 0;
};

/// Memo table from the nodes of one term to their fingerprints: a flat
/// array indexed by node id (Node::id()), filled once at construction by
/// an iterative post-order walk from the root, whose id bounds every id in
/// the term. Each slot also records its node, so a term that mixes the
/// nodes of two Contexts (whose ids collide) is a fatal error rather than
/// a wrong cached FDD. Valid for the lifetime of the root's Context; safe
/// to share read-only across threads.
class FingerprintMemo {
public:
  /// Fingerprints \p Root and every subterm reachable from it. Iterative
  /// — survives arbitrarily deep terms.
  explicit FingerprintMemo(const Node *Root);

  /// The fingerprint of \p N, or nullptr when \p N is not in the term.
  const NodeFingerprint *find(const Node *N) const {
    if (N->id() >= Slots.size() || Slots[N->id()].Owner != N)
      return nullptr;
    return &Slots[N->id()].Fingerprint;
  }
  /// The fingerprint of \p N, which must be in the term.
  const NodeFingerprint &at(const Node *N) const;

private:
  struct Slot {
    const Node *Owner = nullptr; ///< Null while the slot is empty.
    NodeFingerprint Fingerprint;
  };
  std::vector<Slot> Slots;
};

/// One-shot convenience: the structural fingerprint of \p Root.
ProgramHash programHash(const Node *Root);

/// The weights a choice `p ⊕_r q` folds into its fingerprint: FNV-1a over
/// the text `Rational::toString` gives r and 1 - r. Word-sized values are
/// rendered into a stack buffer; wider ones go through toString.
std::pair<uint64_t, uint64_t> choiceWeightHashes(const Rational &R);

} // namespace ast
} // namespace mcnk

#endif // MCNK_AST_HASH_H
