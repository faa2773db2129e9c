//===----------------------------------------------------------------------===//
///
/// \file
/// Product-walk decision procedures over pairs of FDDs: refinement
/// p <= q and epsilon-equivalence for float-solved diagrams.
///
//===----------------------------------------------------------------------===//

#include "fdd/Query.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

using namespace mcnk;
using namespace mcnk::fdd;

namespace {

/// Positive path constraints accumulated during a product walk: fields
/// pinned to a concrete value by a taken true-branch.
using Pins = std::map<FieldId, FieldValue>;

/// Canonicalizes a leaf distribution relative to path constraints: writes
/// that restate a pinned value are no-ops and are removed, after which
/// actions that now coincide merge. This makes action-wise comparison
/// meaningful across structurally different diagrams.
std::map<Action, Rational> canonicalize(const ActionDist &Dist,
                                        const Pins &Pinned) {
  std::map<Action, Rational> Result;
  for (const auto &[A, W] : Dist.entries()) {
    if (A.isDrop()) {
      Result[A] += W;
      continue;
    }
    std::vector<Action::Mod> Kept;
    for (const Action::Mod &M : A.mods()) {
      auto It = Pinned.find(M.first);
      if (It != Pinned.end() && It->second == M.second)
        continue; // Restates a path constraint.
      Kept.push_back(M);
    }
    Result[Action::modify(std::move(Kept))] += W;
  }
  return Result;
}

enum class CompareMode { Equivalence, Refinement };

bool compareLeaves(const FddManager &M, FddRef A, FddRef B,
                   const Pins &Pinned, CompareMode Mode, double Eps) {
  std::map<Action, Rational> DA = canonicalize(M.leafDist(A), Pinned);
  std::map<Action, Rational> DB = canonicalize(M.leafDist(B), Pinned);
  auto MassOf = [](const std::map<Action, Rational> &D, const Action &Act) {
    auto It = D.find(Act);
    return It == D.end() ? Rational() : It->second;
  };
  if (Mode == CompareMode::Equivalence) {
    for (const auto &[Act, W] : DA)
      if (std::fabs((W - MassOf(DB, Act)).toDouble()) > Eps)
        return false;
    for (const auto &[Act, W] : DB)
      if (std::fabs((W - MassOf(DA, Act)).toDouble()) > Eps)
        return false;
    return true;
  }
  // Refinement: every non-drop action of A has no more mass than in B.
  for (const auto &[Act, W] : DA) {
    if (Act.isDrop())
      continue;
    Rational Delta = W - MassOf(DB, Act);
    if (Delta.toDouble() > Eps)
      return false;
  }
  return true;
}

bool productWalk(const FddManager &M, FddRef A, FddRef B, Pins &Pinned,
                 CompareMode Mode, double Eps) {
  if (isLeafRef(A) && isLeafRef(B))
    return compareLeaves(M, A, B, Pinned, Mode, Eps);
  auto [F, V] =
      std::min(M.rootTest(A), M.rootTest(B), FddManager::testLess);

  // True branch: F is pinned to V below here.
  auto SavedPin = Pinned.find(F) != Pinned.end()
                      ? std::optional<FieldValue>(Pinned[F])
                      : std::nullopt;
  Pinned[F] = V;
  bool HiOk = productWalk(M, M.cofactorTrue(A, F, V),
                          M.cofactorTrue(B, F, V), Pinned, Mode, Eps);
  if (SavedPin)
    Pinned[F] = *SavedPin;
  else
    Pinned.erase(F);
  if (!HiOk)
    return false;

  // False branch: only negative information, which canonicalization does
  // not use.
  return productWalk(M, M.cofactorFalse(A, F, V), M.cofactorFalse(B, F, V),
                     Pinned, Mode, Eps);
}

} // namespace

bool fdd::approxEquivalent(const FddManager &Manager, FddRef A, FddRef B,
                           double Eps) {
  if (A == B)
    return true;
  Pins Pinned;
  return productWalk(Manager, A, B, Pinned, CompareMode::Equivalence, Eps);
}

bool fdd::refines(const FddManager &Manager, FddRef P, FddRef Q,
                  double Eps) {
  if (P == Q)
    return true;
  Pins Pinned;
  return productWalk(Manager, P, Q, Pinned, CompareMode::Refinement, Eps);
}
