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

/// Memo table from the nodes of one ast::Context to their fingerprints: a
/// flat array indexed by node id (Node::id()). fingerprintTree sizes it
/// from the root's id, which bounds every id in the term, and grows it
/// when a later call reaches nodes created since. Each slot also records
/// its node, so a node of another Context whose id lands on a filled slot
/// is a fatal error rather than a wrong cached FDD. Valid for the lifetime
/// of that Context; safe to share read-only across threads once populated.
class FingerprintMemo {
public:
  /// The fingerprint of \p N, or nullptr when it has none yet.
  const NodeFingerprint *find(const Node *N) const {
    if (N->id() >= Slots.size() || Slots[N->id()].Owner != N)
      return nullptr;
    return &Slots[N->id()].Fingerprint;
  }
  /// The fingerprint of \p N, which must have one.
  const NodeFingerprint &at(const Node *N) const;

private:
  friend const NodeFingerprint &fingerprintTree(const Node *,
                                                FingerprintMemo &);

  struct Slot {
    const Node *Owner = nullptr; ///< Null while the slot is empty.
    NodeFingerprint Fingerprint;
  };
  std::vector<Slot> Slots;
};

/// Fingerprints \p Root and every subterm reachable from it into \p Memo
/// (existing entries are reused, so incremental calls over a growing term
/// are cheap). Iterative — survives arbitrarily deep terms. Returns the
/// root's fingerprint.
const NodeFingerprint &fingerprintTree(const Node *Root,
                                       FingerprintMemo &Memo);

/// One-shot convenience: the structural fingerprint of \p Root.
ProgramHash programHash(const Node *Root);

/// The weights a choice `p ⊕_r q` folds into its fingerprint: FNV-1a over
/// the text `Rational::toString` gives r and 1 - r. Word-sized values are
/// rendered into a stack buffer; wider ones go through toString.
std::pair<uint64_t, uint64_t> choiceWeightHashes(const Rational &R);

} // namespace ast
} // namespace mcnk

#endif // MCNK_AST_HASH_H
