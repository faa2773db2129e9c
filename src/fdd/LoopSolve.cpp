//===----------------------------------------------------------------------===//
///
/// \file
/// Closed-form while-loop compilation (paper §4, §5.1): `while g do b` is
/// an absorbing Markov chain over *symbolic packets* — per-field mentioned
/// values plus a wildcard (*), chosen dynamically from the guard/body FDDs
/// (dynamic domain reduction). Guard-true classes are transient with
/// transitions given by the body's leaf distributions; guard-false classes
/// absorb. The absorption matrix A = (I-Q)^{-1} R (Theorem 4.7) is solved
/// with the configured engine and converted back into an FDD.
///
/// Refinement over a literal product domain: fields that are modified but
/// never tested (e.g. hop-local link-health flags resolved away by
/// sequential composition) are kept out of the transient state space and
/// reattached to exits as output decorations, which is what keeps
/// thousand-switch models tractable (see docs/ARCHITECTURE.md).
///
//===----------------------------------------------------------------------===//

#include "fdd/Fdd.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <set>

using namespace mcnk;
using namespace mcnk::fdd;

namespace {

/// Hard cap on the symbolic product size; exceeding it indicates a model
/// whose loop state was not reduced (e.g. globally-scoped failure flags).
constexpr std::size_t MaxSymbolicStates = 4u << 20;

/// Kept float-solve values are whole multiples of 2^-UnitBits; a row of
/// at most MaxSymbolicStates of them (the exit-column cap), each at most
/// one, sums within 128 bits (docs/ARCHITECTURE.md S1).
constexpr int UnitBits = 92;
static_assert(MaxSymbolicStates <= (std::size_t(1) << (128 - UnitBits - 1)),
              "a float-solve row total must fit in 128 bits");

BigInt toBigInt(unsigned __int128 Value) {
  if (Value <= static_cast<uint64_t>(INT64_MAX))
    return BigInt(static_cast<int64_t>(Value));
  return BigInt::fromLimbs64(false, {static_cast<uint64_t>(Value),
                                     static_cast<uint64_t>(Value >> 64)});
}

int countTrailingZeros(unsigned __int128 Value) {
  auto Low = static_cast<uint64_t>(Value);
  return Low != 0 ? __builtin_ctzll(Low)
                  : 64 + __builtin_ctzll(static_cast<uint64_t>(Value >> 64));
}

/// The canonical Rational of Num / Den (0 < Num, Den), reduced by a binary
/// gcd in registers. Against a power-of-two Den it stops after one step.
Rational fromRatio(unsigned __int128 Num, unsigned __int128 Den) {
  int Shift = countTrailingZeros(Num | Den);
  unsigned __int128 A = Num >> countTrailingZeros(Num), B = Den;
  while (B != 0 && A != 1) {
    B >>= countTrailingZeros(B);
    if (A > B)
      std::swap(A, B);
    B -= A;
  }
  Num >>= Shift;
  Den >>= Shift;
  if (A != 1) {
    Num /= A;
    Den /= A;
  }
  return Rational::fromCoprime(toBigInt(Num), toBigInt(Den));
}

/// Collects tested (field -> values) and modified (field -> values) maps.
void collectTestsAndMods(const FddManager &M, FddRef Root,
                         std::map<FieldId, std::set<FieldValue>> &Tests,
                         std::map<FieldId, std::set<FieldValue>> &Mods) {
  std::set<FddRef> Visited;
  std::vector<FddRef> Stack = {Root};
  while (!Stack.empty()) {
    FddRef Cur = Stack.back();
    Stack.pop_back();
    if (!Visited.insert(Cur).second)
      continue;
    if (isLeafRef(Cur)) {
      for (const auto &[A, W] : M.leafDist(Cur).entries()) {
        (void)W;
        for (const auto &[F, V] : A.mods())
          Mods[F].insert(V);
      }
      continue;
    }
    const auto &N = M.innerNode(Cur);
    Tests[N.Field].insert(N.Value);
    Stack.push_back(N.Hi);
    Stack.push_back(N.Lo);
  }
}

/// True if every non-drop action of every leaf under \p Root writes
/// \p Field. Such fields can be tracked as pure output decorations.
bool allActionsWrite(const FddManager &M, FddRef Root, FieldId Field) {
  std::set<FddRef> Visited;
  std::vector<FddRef> Stack = {Root};
  while (!Stack.empty()) {
    FddRef Cur = Stack.back();
    Stack.pop_back();
    if (!Visited.insert(Cur).second)
      continue;
    if (isLeafRef(Cur)) {
      for (const auto &[A, W] : M.leafDist(Cur).entries()) {
        (void)W;
        if (!A.isDrop() && !A.writeTo(Field))
          return false;
      }
      continue;
    }
    const auto &N = M.innerNode(Cur);
    Stack.push_back(N.Hi);
    Stack.push_back(N.Lo);
  }
  return true;
}

} // namespace

FddRef FddManager::solveLoop(FddRef Guard, FddRef Body) {
  assert(isPredicateFdd(Guard) && "loop guard must be a predicate FDD");
  if (Guard == DropLeaf)
    return IdentityLeaf; // Zero iterations for every input.
  std::pair<FddRef, FddRef> Key = {Guard, Body};
  auto It = LoopCache.find(Key);
  if (It != LoopCache.end()) {
    // A cache hit must behave observably like a fresh solve: refresh the
    // diagnostics with the stats recorded when this loop was first solved
    // (previously lastLoopStats() kept describing an unrelated loop).
    LastLoop = It->second.Stats;
    return It->second.Result;
  }


  // --- Dynamic domain reduction (§5.1) ----------------------------------
  std::map<FieldId, std::set<FieldValue>> Tests, Mods;
  collectTestsAndMods(*this, Guard, Tests, Mods);
  collectTestsAndMods(*this, Body, Tests, Mods);

  // State fields: every tested field, plus modified-only fields whose exit
  // value cannot be recovered from the final action alone.
  std::vector<FieldId> StateFields;
  std::vector<FieldId> OutputOnly;
  for (const auto &[F, Values] : Tests) {
    (void)Values;
    StateFields.push_back(F);
  }
  for (const auto &[F, Values] : Mods) {
    (void)Values;
    if (Tests.count(F))
      continue;
    if (allActionsWrite(*this, Body, F))
      OutputOnly.push_back(F);
    else
      StateFields.push_back(F);
  }
  std::sort(StateFields.begin(), StateFields.end());

  // Per-field symbolic domains: mentioned values in ascending order; the
  // index one past the end encodes the wildcard '*' (any other value).
  std::vector<std::vector<FieldValue>> Domain(StateFields.size());
  std::size_t NumStates = 1;
  for (std::size_t I = 0; I < StateFields.size(); ++I) {
    std::set<FieldValue> Values;
    auto TIt = Tests.find(StateFields[I]);
    if (TIt != Tests.end())
      Values.insert(TIt->second.begin(), TIt->second.end());
    auto MIt = Mods.find(StateFields[I]);
    if (MIt != Mods.end())
      Values.insert(MIt->second.begin(), MIt->second.end());
    Domain[I].assign(Values.begin(), Values.end());
    if (NumStates > MaxSymbolicStates / (Domain[I].size() + 1))
      fatalError("while-loop symbolic state space exceeds the cap; "
                 "restructure the model (e.g. make failure flags hop-local)");
    NumStates *= Domain[I].size() + 1;
  }

  // A symbolic packet is a vector of per-field value indices (the last
  // index of each field meaning '*'); states are mixed-radix integers.
  auto ValueIndex = [&](std::size_t FieldPos, FieldValue V) -> std::size_t {
    const std::vector<FieldValue> &Vals = Domain[FieldPos];
    auto Pos = std::lower_bound(Vals.begin(), Vals.end(), V);
    assert(Pos != Vals.end() && *Pos == V && "value outside symbolic domain");
    return static_cast<std::size_t>(Pos - Vals.begin());
  };
  auto Decode = [&](std::size_t State, std::vector<std::size_t> &Sym) {
    Sym.resize(StateFields.size());
    for (std::size_t I = StateFields.size(); I-- > 0;) {
      Sym[I] = State % (Domain[I].size() + 1);
      State /= Domain[I].size() + 1;
    }
  };
  auto Encode = [&](const std::vector<std::size_t> &Sym) {
    std::size_t State = 0;
    for (std::size_t I = 0; I < StateFields.size(); ++I)
      State = State * (Domain[I].size() + 1) + Sym[I];
    return State;
  };

  // Walks an FDD with a symbolic packet. Tests compare against concrete
  // domain values; the wildcard fails every test (its value is outside the
  // mentioned set by construction).
  auto EvalSymbolic = [&](FddRef Ref,
                          const std::vector<std::size_t> &Sym) -> FddRef {
    while (!isLeafRef(Ref)) {
      const InnerNode &N = innerNode(Ref);
      auto FieldPos = std::lower_bound(StateFields.begin(), StateFields.end(),
                                       N.Field) -
                      StateFields.begin();
      assert(static_cast<std::size_t>(FieldPos) < StateFields.size() &&
             StateFields[FieldPos] == N.Field && "test on non-state field");
      std::size_t SymVal = Sym[FieldPos];
      bool Matches = SymVal < Domain[FieldPos].size() &&
                     Domain[FieldPos][SymVal] == N.Value;
      Ref = Matches ? N.Hi : N.Lo;
    }
    return Ref;
  };

  // --- Chain construction -------------------------------------------------
  // Transient states: guard-true classes. Absorbing states: guard-false
  // classes decorated with output-only field values. Drop mass is left
  // implicit (rows may be substochastic).
  std::vector<std::size_t> TransientId(NumStates, SIZE_MAX);
  std::size_t NumTransient = 0;
  std::vector<std::size_t> Sym;
  for (std::size_t S = 0; S < NumStates; ++S) {
    Decode(S, Sym);
    if (EvalSymbolic(Guard, Sym) == IdentityLeaf)
      TransientId[S] = NumTransient++;
  }

  struct AbsorbKey {
    std::size_t ExitState;
    std::vector<FieldValue> Decorations; // Aligned with OutputOnly.
    bool operator<(const AbsorbKey &R) const {
      return ExitState != R.ExitState ? ExitState < R.ExitState
                                      : Decorations < R.Decorations;
    }
  };
  std::map<AbsorbKey, std::size_t> AbsorbIds;
  std::vector<AbsorbKey> AbsorbKeys;

  markov::AbsorbingChain Chain;
  Chain.NumTransient = NumTransient;
  std::vector<std::size_t> Target;
  for (std::size_t S = 0; S < NumStates; ++S) {
    if (TransientId[S] == SIZE_MAX)
      continue;
    Decode(S, Sym);
    FddRef Leaf = EvalSymbolic(Body, Sym);
    for (const auto &[A, W] : leafDist(Leaf).entries()) {
      if (A.isDrop())
        continue; // Dropped mass never absorbs; it is implicit.
      Target = Sym;
      for (const auto &[F, V] : A.mods()) {
        auto FieldPos =
            std::lower_bound(StateFields.begin(), StateFields.end(), F) -
            StateFields.begin();
        if (static_cast<std::size_t>(FieldPos) >= StateFields.size() ||
            StateFields[FieldPos] != F)
          continue; // Output-only field; handled as decoration below.
        Target[FieldPos] = ValueIndex(FieldPos, V);
      }
      std::size_t T = Encode(Target);
      if (TransientId[T] != SIZE_MAX) {
        Chain.QEntries.push_back({TransientId[S], TransientId[T], W});
        continue;
      }
      AbsorbKey ExitKey{T, {}};
      ExitKey.Decorations.reserve(OutputOnly.size());
      for (FieldId F : OutputOnly) {
        std::optional<FieldValue> Written = A.writeTo(F);
        assert(Written && "output-only field missing from an action");
        ExitKey.Decorations.push_back(*Written);
      }
      auto [AIt, Inserted] = AbsorbIds.emplace(ExitKey, AbsorbKeys.size());
      if (Inserted)
        AbsorbKeys.push_back(ExitKey);
      Chain.REntries.push_back({TransientId[S], AIt->second, W});
    }
  }
  Chain.NumAbsorbing = AbsorbKeys.size();

  LastLoop = LoopSolveStats();
  LastLoop.NumStates = NumStates;
  LastLoop.NumTransient = NumTransient;
  LastLoop.NumAbsorbing = Chain.NumAbsorbing;
  LastLoop.NumQEntries = Chain.QEntries.size();

  // --- Solve (Theorem 4.7) -------------------------------------------------
  // One SCC block pipeline for every engine (docs/ARCHITECTURE.md S13);
  // the per-block metrics land in lastLoopStats(). Every engine leaves one
  // sparse row per transient state: its nonzero exits in column order and
  // its drop mass, 1 minus their sum.
  struct SolvedRow {
    std::vector<std::pair<std::size_t, Rational>> Exits;
    Rational Drop;
  };
  std::vector<SolvedRow> Solved(NumTransient);
  markov::SolveMetrics Metrics;
  if (Solver == markov::SolverKind::Exact) {
    linalg::DenseMatrix<Rational> Absorption(NumTransient,
                                             Chain.NumAbsorbing);
    if (!markov::solveAbsorptionExact(Chain, Absorption, &Metrics, Structure))
      fatalError("absorbing-chain solve failed (malformed chain)");
    for (std::size_t R = 0; R < NumTransient; ++R) {
      SolvedRow &Row = Solved[R];
      Row.Drop = Rational(1);
      for (std::size_t C = 0; C < Chain.NumAbsorbing; ++C) {
        Rational &W = Absorption.at(R, C);
        if (W.isZero())
          continue;
        Row.Drop -= W;
        Row.Exits.emplace_back(C, std::move(W));
      }
    }
  } else {
    linalg::DenseMatrix<double> Approx;
    if (!markov::solveAbsorptionDouble(Chain, Approx, Solver, &Metrics))
      fatalError("absorbing-chain solve failed (malformed chain)");
    // Clamp, snap, and renormalize the float solution before it re-enters
    // the exact world (paper §5: UMFPACK's float results are trusted but
    // must be cleaned at the boundary). Kept values and row totals are
    // integers of 2^-UnitBits units; a row whose doubles sum past one is
    // rescaled to total exactly one (docs/ARCHITECTURE.md S1).
    if (Chain.NumAbsorbing > MaxSymbolicStates)
      fatalError("while-loop exit space exceeds the cap; "
                 "restructure the model (e.g. make failure flags hop-local)");
    const unsigned __int128 One = static_cast<unsigned __int128>(1)
                                  << UnitBits;
    std::vector<unsigned __int128> Units;
    for (std::size_t R = 0; R < NumTransient; ++R) {
      SolvedRow &Row = Solved[R];
      Units.clear();
      unsigned __int128 Total = 0;
      for (std::size_t C = 0; C < Chain.NumAbsorbing; ++C) {
        double V = std::min(1.0, std::max(0.0, Approx.at(R, C)));
        if (V < 1e-12)
          continue;
        if (V > 1.0 - 1e-12)
          V = 1.0;
        Units.push_back(
            static_cast<unsigned __int128>(std::ldexp(V, UnitBits)));
        Total += Units.back();
        Row.Exits.emplace_back(C, Rational());
      }
      for (std::size_t I = 0; I < Units.size(); ++I)
        Row.Exits[I].second = fromRatio(Units[I], std::max(Total, One));
      if (Total < One)
        Row.Drop = fromRatio(One - Total, One);
    }
  }

  LastLoop.NumSolved = Metrics.NumSolved;
  LastLoop.NumSolvedQ = Metrics.NumSolvedQ;
  LastLoop.NumBlocks = Metrics.NumBlocks;
  LastLoop.MaxBlockSize = Metrics.MaxBlockSize;
  LastLoop.EliminationOps = Metrics.EliminationOps;
  LastLoop.FillIn = Metrics.FillIn;
  LastLoop.NumPrimes = Metrics.NumPrimes;
  LastLoop.RetriedPrimes = Metrics.RetriedPrimes;
  LastLoop.ReconstructionBits = Metrics.ReconstructionBits;
  LastLoop.ModularFallbacks = Metrics.ModularFallbacks;
  LastLoop.Blocks = std::move(Metrics.Blocks);


  // --- Rebuild an FDD from the absorption matrix ---------------------------
  // Nested per-field value branching over the symbolic domain; guard-false
  // seeds exit immediately (identity), transient seeds get their solved
  // exit distribution (missing mass = drop).
  std::vector<std::size_t> Partial(StateFields.size(), 0);
  std::vector<std::size_t> ExitSym;

  auto MakeLeaf = [&](std::size_t S) -> FddRef {
    if (TransientId[S] == SIZE_MAX)
      return IdentityLeaf; // Guard already false: zero iterations.
    Decode(S, Sym);
    // Each transient state's leaf is built once, so its row is moved out.
    SolvedRow &Row = Solved[TransientId[S]];
    std::vector<std::pair<Action, Rational>> Entries;
    Entries.reserve(Row.Exits.size() + 1);
    for (auto &[C, W] : Row.Exits) {
      const AbsorbKey &ExitKey = AbsorbKeys[C];
      Decode(ExitKey.ExitState, ExitSym);
      std::vector<Action::Mod> ModList;
      for (std::size_t I = 0; I < StateFields.size(); ++I) {
        if (ExitSym[I] == Sym[I])
          continue;
        assert(ExitSym[I] < Domain[I].size() &&
               "wildcard cannot appear as a changed exit value");
        ModList.emplace_back(StateFields[I], Domain[I][ExitSym[I]]);
      }
      for (std::size_t I = 0; I < OutputOnly.size(); ++I)
        ModList.emplace_back(OutputOnly[I], ExitKey.Decorations[I]);
      Entries.emplace_back(Action::modify(std::move(ModList)), std::move(W));
    }
    assert(!Row.Drop.isNegative() && "absorption mass exceeds one");
    if (!Row.Drop.isZero()) // Missing mass is drop.
      Entries.emplace_back(Action::drop(), std::move(Row.Drop));
    return leaf(ActionDist::fromEntries(std::move(Entries)));
  };

  // Recursive build; plain lambda recursion via explicit stack of field
  // positions is clumsy — use a Y-combinator-style helper.
  auto Build = [&](auto &&Self, std::size_t FieldPos) -> FddRef {
    if (FieldPos == StateFields.size())
      return MakeLeaf(Encode(Partial));
    // Wildcard branch first (the lo-most), then concrete values from the
    // largest down, chaining lo links in ascending test order.
    Partial[FieldPos] = Domain[FieldPos].size();
    FddRef Acc = Self(Self, FieldPos + 1);
    for (std::size_t VI = Domain[FieldPos].size(); VI-- > 0;) {
      Partial[FieldPos] = VI;
      FddRef Hi = Self(Self, FieldPos + 1);
      Acc = inner(StateFields[FieldPos], Domain[FieldPos][VI], Hi, Acc);
    }
    return Acc;
  };
  FddRef Result = Build(Build, 0);


  LoopCache.emplace(Key, LoopEntry{Result, LastLoop});
  return Result;
}
