//===----------------------------------------------------------------------===//
///
/// \file
/// Action and distribution interning for FDD leaves; distribution
/// arithmetic (convex combination, composition) over exact rationals.
///
//===----------------------------------------------------------------------===//

#include "fdd/Action.h"

#include <algorithm>
#include <cassert>

using namespace mcnk;
using namespace mcnk::fdd;

Action Action::modify(std::vector<Mod> ModList) {
  std::sort(ModList.begin(), ModList.end());
  // Later entries for the same field win (matches `then` semantics when a
  // caller assembles writes left to right). After sort, equal fields are
  // adjacent; keep the last occurrence.
  std::vector<Mod> Unique;
  for (std::size_t I = 0; I < ModList.size(); ++I) {
    if (!Unique.empty() && Unique.back().first == ModList[I].first)
      Unique.back().second = ModList[I].second;
    else
      Unique.push_back(ModList[I]);
  }
  Action Result;
  Result.Mods = std::move(Unique);
  return Result;
}

std::optional<FieldValue> Action::writeTo(FieldId Field) const {
  for (const Mod &M : Mods)
    if (M.first == Field)
      return M.second;
  return std::nullopt;
}

Action Action::then(const Action &Other) const {
  if (IsDrop || Other.IsDrop)
    return drop();
  // Merge two sorted mod lists; Other's writes override ours.
  Action Result;
  Result.Mods.reserve(Mods.size() + Other.Mods.size());
  std::size_t I = 0, J = 0;
  while (I < Mods.size() || J < Other.Mods.size()) {
    if (J == Other.Mods.size() ||
        (I < Mods.size() && Mods[I].first < Other.Mods[J].first)) {
      Result.Mods.push_back(Mods[I++]);
    } else if (I == Mods.size() || Other.Mods[J].first < Mods[I].first) {
      Result.Mods.push_back(Other.Mods[J++]);
    } else {
      Result.Mods.push_back(Other.Mods[J++]); // Same field: Other wins.
      ++I;
    }
  }
  return Result;
}

Action Action::dropMod(FieldId Field) const {
  assert(!IsDrop && "dropMod on drop");
  Action Result;
  Result.Mods.reserve(Mods.size());
  for (const Mod &M : Mods)
    if (M.first != Field)
      Result.Mods.push_back(M);
  return Result;
}

Packet Action::applyTo(const Packet &P) const {
  assert(!IsDrop && "applyTo on drop");
  Packet Result = P;
  for (const Mod &M : Mods)
    Result.set(M.first, M.second);
  return Result;
}

namespace {

/// The debug mass check, summed in its own pass so release builds skip the
/// adds.
[[maybe_unused]] bool
sumsToOne(const std::vector<std::pair<Action, Rational>> &Entries) {
  Rational Total;
  for (const auto &Entry : Entries)
    Total += Entry.second;
  return Total.isOne();
}

} // namespace

ActionDist
ActionDist::fromEntries(std::vector<std::pair<Action, Rational>> Raw) {
  std::sort(Raw.begin(), Raw.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  ActionDist Result;
  Result.Entries.reserve(Raw.size());
  for (auto &Entry : Raw) {
    if (Entry.second.isZero())
      continue;
    assert(!Entry.second.isNegative() && "negative probability");
    if (!Result.Entries.empty() && Result.Entries.back().first == Entry.first)
      Result.Entries.back().second += Entry.second;
    else
      Result.Entries.push_back(std::move(Entry));
  }
  assert(sumsToOne(Result.Entries) && "action distribution must sum to one");
  return Result;
}

ActionDist ActionDist::fromCanonicalEntries(
    std::vector<std::pair<Action, Rational>> Canonical) {
  ActionDist Result;
  Result.Entries = std::move(Canonical);
  Result.Entries.erase(
      std::remove_if(Result.Entries.begin(), Result.Entries.end(),
                     [](const auto &Entry) { return Entry.second.isZero(); }),
      Result.Entries.end());
  assert(std::adjacent_find(Result.Entries.begin(), Result.Entries.end(),
                            [](const auto &A, const auto &B) {
                              return !(A.first < B.first);
                            }) == Result.Entries.end() &&
         "entries must be strictly sorted by action");
  assert(std::none_of(Result.Entries.begin(), Result.Entries.end(),
                      [](const auto &Entry) {
                        return Entry.second.isNegative();
                      }) &&
         "negative probability");
  assert(sumsToOne(Result.Entries) && "action distribution must sum to one");
  return Result;
}

ActionDist ActionDist::convex(const Rational &R, const ActionDist &Lhs,
                              const ActionDist &Rhs) {
  assert(R.isProbability() && "convex weight outside [0,1]");
  if (R.isZero())
    return Rhs;
  if (R.isOne())
    return Lhs;
  Rational OneMinusR(1);
  OneMinusR -= R;
  // Both sides are sorted by action with positive weights, so one merge
  // pass yields the canonical result: scale each copied weight in place
  // (no R * W temporaries on this hot path of choice()) and fold an action
  // present on both sides into one entry.
  ActionDist Result;
  Result.Entries.reserve(Lhs.Entries.size() + Rhs.Entries.size());
  auto L = Lhs.Entries.begin(), LEnd = Lhs.Entries.end();
  auto Rt = Rhs.Entries.begin(), REnd = Rhs.Entries.end();
  while (L != LEnd || Rt != REnd) {
    if (Rt == REnd || (L != LEnd && L->first < Rt->first)) {
      Result.Entries.push_back(*L++);
      Result.Entries.back().second *= R;
    } else if (L == LEnd || Rt->first < L->first) {
      Result.Entries.push_back(*Rt++);
      Result.Entries.back().second *= OneMinusR;
    } else {
      Result.Entries.push_back(*L++);
      Result.Entries.back().second *= R;
      Result.Entries.back().second.addMul(Rt++->second, OneMinusR);
    }
  }
  return Result;
}

Rational ActionDist::dropMass() const {
  for (const auto &[A, W] : Entries)
    if (A.isDrop())
      return W;
  return Rational();
}
