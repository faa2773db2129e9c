//===----------------------------------------------------------------------===//
///
/// \file
/// FDD leaf ingredients (paper §5.1): an *action* is either drop or a set
/// of field modifications; a leaf holds a probability distribution over
/// actions. All probabilities are exact rationals.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_FDD_ACTION_H
#define MCNK_FDD_ACTION_H

#include "packet/Packet.h"
#include "support/Hashing.h"
#include "support/Rational.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>
#include <vector>

namespace mcnk {
namespace fdd {

/// A deterministic packet transformation: `drop`, or a (possibly empty)
/// set of `field := value` writes applied simultaneously. The empty
/// modification set is the identity.
class Action {
public:
  using Mod = std::pair<FieldId, FieldValue>;

  /// The identity action (no modifications).
  Action() = default;

  static Action drop() {
    Action Result;
    Result.IsDrop = true;
    return Result;
  }

  /// Builds a modification action; \p Mods need not be sorted.
  static Action modify(std::vector<Mod> Mods);

  /// Builds from \p Mods already sorted by field with no duplicates
  /// (asserted), skipping modify's sort and dedup.
  static Action fromCanonicalMods(std::vector<Mod> Mods) {
    assert(std::adjacent_find(Mods.begin(), Mods.end(),
                              [](const Mod &L, const Mod &R) {
                                return L.first >= R.first;
                              }) == Mods.end() &&
           "mods must be strictly sorted by field");
    Action Result;
    Result.Mods = std::move(Mods);
    return Result;
  }

  bool isDrop() const { return IsDrop; }
  bool isIdentity() const { return !IsDrop && Mods.empty(); }

  /// Sorted, duplicate-free modification list (empty for drop/identity).
  const std::vector<Mod> &mods() const { return Mods; }

  /// The value this action writes to \p Field, if any.
  std::optional<FieldValue> writeTo(FieldId Field) const;

  /// Sequential composition: run *this first, then \p Other; later writes
  /// win. drop absorbs on either side.
  Action then(const Action &Other) const;

  /// Returns a copy without the modification of \p Field (used to
  /// canonicalize writes that restate a path constraint).
  Action dropMod(FieldId Field) const;

  /// Applies to a concrete packet; must not be called on drop.
  Packet applyTo(const Packet &P) const;

  bool operator==(const Action &RHS) const {
    return IsDrop == RHS.IsDrop && Mods == RHS.Mods;
  }
  bool operator!=(const Action &RHS) const { return !(*this == RHS); }
  bool operator<(const Action &RHS) const {
    if (IsDrop != RHS.IsDrop)
      return IsDrop < RHS.IsDrop;
    return Mods < RHS.Mods;
  }

  std::size_t hash() const {
    std::size_t Seed = IsDrop ? 0x9e37u : 0x42u;
    for (const Mod &M : Mods)
      Seed = hashCombine(hashCombine(Seed, M.first), M.second);
    return Seed;
  }

private:
  bool IsDrop = false;
  std::vector<Mod> Mods;
};

/// A probability distribution over actions: sorted by action, strictly
/// positive weights summing to exactly one. Canonical representation, so
/// equality is structural.
class ActionDist {
public:
  ActionDist() = default;

  static ActionDist dirac(Action A) {
    ActionDist Result;
    Result.Entries.emplace_back(std::move(A), Rational(1));
    return Result;
  }

  /// Builds from unsorted entries with possible duplicates; merges and
  /// drops zero weights. Asserts the total is one.
  static ActionDist
  fromEntries(std::vector<std::pair<Action, Rational>> Entries);

  /// Builds from entries already sorted by action with no duplicates
  /// (asserted), skipping fromEntries' sort and merge; still drops zero
  /// weights and asserts the total is one.
  static ActionDist
  fromCanonicalEntries(std::vector<std::pair<Action, Rational>> Entries);

  /// r·Lhs + (1-r)·Rhs.
  static ActionDist convex(const Rational &R, const ActionDist &Lhs,
                           const ActionDist &Rhs);

  const std::vector<std::pair<Action, Rational>> &entries() const {
    return Entries;
  }

  bool isDirac() const { return Entries.size() == 1; }
  /// Probability of dropping the packet.
  Rational dropMass() const;

  bool operator==(const ActionDist &RHS) const {
    return Entries == RHS.Entries;
  }
  bool operator!=(const ActionDist &RHS) const { return !(*this == RHS); }

  std::size_t hash() const {
    std::size_t Seed = 0x5eedu;
    for (const auto &[A, W] : Entries)
      Seed = hashCombine(hashCombine(Seed, A.hash()), W.hash());
    return Seed;
  }

private:
  std::vector<std::pair<Action, Rational>> Entries;
};

} // namespace fdd
} // namespace mcnk

#endif // MCNK_FDD_ACTION_H
