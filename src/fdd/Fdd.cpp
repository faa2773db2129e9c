//===----------------------------------------------------------------------===//
///
/// \file
/// The FddManager: hash-consed node construction, the ordered-diagram
/// invariants, apply-style binary operations, and leaf algebra that keep
/// diagrams canonical so equivalence is reference equality.
///
//===----------------------------------------------------------------------===//

#include "fdd/Fdd.h"

#include "support/Error.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <optional>
#include <set>
#include <type_traits>

using namespace mcnk;
using namespace mcnk::fdd;

namespace {
constexpr FieldId NoField = std::numeric_limits<FieldId>::max();
constexpr FieldValue NoValue = std::numeric_limits<FieldValue>::max();

std::size_t innerHash(const FddManager::InnerNode &N) {
  return hashValues(N.Field, N.Value, N.Hi, N.Lo);
}
} // namespace

FddManager::FddManager(markov::SolverKind SolverMode) : Solver(SolverMode) {
  IdentityLeaf = leaf(ActionDist::dirac(Action()));
  DropLeaf = leaf(ActionDist::dirac(Action::drop()));
}

FddRef FddManager::leaf(ActionDist Dist) {
  std::size_t Hash = Dist.hash();
  return (LeafTable.intern(Leaves, Hash, std::move(Dist)) << 1) | 1;
}

FddRef FddManager::inner(FieldId Field, FieldValue Value, FddRef Hi,
                         FddRef Lo) {
  if (Hi == Lo)
    return Hi;
  assert((isLeafRef(Hi) || innerNode(Hi).Field > Field) &&
         "true-subtree re-tests the decided field");
  assert((isLeafRef(Lo) || innerNode(Lo).Field > Field ||
          (innerNode(Lo).Field == Field && innerNode(Lo).Value > Value)) &&
         "false-subtree violates test ordering");
  // Second reduction rule (beyond Hi == Lo): the test is redundant when
  // the false-subtree already behaves like Hi for packets with
  // Field == Value — i.e. its true-cofactor equals Hi. Without this rule
  // multi-valued FDDs are not canonical and equivalence checking by
  // reference equality would report false negatives.
  if (cofactorTrue(Lo, Field, Value) == Hi)
    return Lo;
  InnerNode Node{Field, Value, Hi, Lo};
  return InnerTable.intern(Inners, innerHash(Node), Node) << 1;
}

const ActionDist &FddManager::leafDist(FddRef Leaf) const {
  assert(isLeafRef(Leaf) && "leafDist on interior node");
  return Leaves[Leaf >> 1];
}

const FddManager::InnerNode &FddManager::innerNode(FddRef Ref) const {
  assert(!isLeafRef(Ref) && "innerNode on leaf");
  return Inners[Ref >> 1];
}

uint32_t FddManager::internAction(const Action &A) {
  return ActionTable.intern(Actions, A.hash(), A);
}

uint32_t FddManager::internWeight(const Rational &R) {
  return WeightTable.intern(Weights, R.hash(), R);
}

FddRef FddManager::test(FieldId Field, FieldValue Value) {
  return inner(Field, Value, IdentityLeaf, DropLeaf);
}

FddRef FddManager::assign(FieldId Field, FieldValue Value) {
  return leaf(ActionDist::dirac(Action::modify({{Field, Value}})));
}

std::pair<FieldId, FieldValue> FddManager::rootTest(FddRef Ref) const {
  if (isLeafRef(Ref))
    return {NoField, NoValue};
  const InnerNode &N = innerNode(Ref);
  return {N.Field, N.Value};
}

FddRef FddManager::cofactorTrue(FddRef Ref, FieldId Field,
                                FieldValue Value) const {
  // Assumption Field == Value; precondition: Ref's root test is not
  // smaller than (Field, Value) in the global test order.
  while (!isLeafRef(Ref)) {
    const InnerNode &N = innerNode(Ref);
    if (N.Field != Field)
      break; // N.Field > Field: no test on Field anywhere below.
    if (N.Value == Value)
      return N.Hi;
    assert(N.Value > Value && "cofactor precondition violated");
    Ref = N.Lo; // Test Field = N.Value fails under Field == Value.
  }
  return Ref;
}

FddRef FddManager::cofactorFalse(FddRef Ref, FieldId Field,
                                 FieldValue Value) const {
  if (isLeafRef(Ref))
    return Ref;
  const InnerNode &N = innerNode(Ref);
  if (N.Field == Field && N.Value == Value)
    return N.Lo;
  return Ref; // Larger tests stay undetermined under Field != Value.
}

// The compiler operations below are written in the explicit-stack style of
// Export.cpp rather than as direct recursion: diagrams shaped like long
// test chains (one inner node per value, tens of thousands deep) would
// otherwise overflow the call stack.
//
// negate, disjoin, choice, branch and weightedSum (the leaf case of seq)
// are one Shannon expansion over a tuple of operands, run by apply(). The
// tuple's width is fixed per call: 1 to 3 for the first four, one operand
// per distinct term for the sum. A tuple resolves through the op's terminal
// rule (unmemoized), then its memo entry, then, when every operand is a
// leaf, the op's leaf combiner. Otherwise it splits on the least root test
// (F, V) of its operands under testLess: the true cofactors are solved,
// then the false ones, and inner(F, V, Hi, Lo) rebuilds the result. A
// frame stack replaces the call stack and a value stack carries child
// results to their parent. Frames resolve only when they reach the top,
// so the Hi subtree completes (and fills the memo) before the Lo tuple is
// looked at. That fixed depth-first, true-first order decides which nodes
// are created and when, and so every FddRef the manager hands out.
//
// seq and seqAction keep their own loops: seq splits only its left
// operand and rebuilds through branch(), and seqAction resolves tests
// against its action's writes, taking one child instead of two.

template <typename MemoT, typename TerminalFn, typename KeyFn,
          typename CombineFn>
FddRef FddManager::apply(const FddRef *Operands, std::size_t Width,
                         MemoT &Memo, TerminalFn Terminal, KeyFn Key,
                         CombineFn Combine) {
  if (std::optional<FddRef> Out = Terminal(Operands))
    return *Out;

  // The operands of every frame live in one arena: the top frame's tuple
  // is always the arena's last Width refs, so frames carry only their
  // split test, and popping a frame drops its tuple. The stacks are
  // members, empty between calls, so their capacity carries over.
  std::vector<ApplyFrame> &Stack = ApplyStack;
  std::vector<FddRef> &Arena = ApplyArena;
  std::vector<FddRef> &Values = ApplyValues;
  assert(Stack.empty() && Arena.empty() && Values.empty() &&
         "apply() re-entered");
  Arena.assign(Operands, Operands + Width);
  Stack.push_back({0, 0, false});
  while (!Stack.empty()) {
    ApplyFrame &Top = Stack.back();
    const std::size_t Base = Arena.size() - Width;
    const FddRef *Ops = Arena.data() + Base;
    if (!Top.Expanded) {
      std::optional<FddRef> Out = Terminal(Ops);
      if (!Out) {
        if (const FddRef *Hit = Memo.find(Key(Ops))) {
          Out = *Hit;
        } else if (std::all_of(Ops, Ops + Width,
                               [](FddRef R) { return isLeafRef(R); })) {
          Out = Combine(Ops);
          Memo.insert(Key(Ops), *Out);
        }
      }
      if (Out) {
        Values.push_back(*Out);
        Arena.resize(Base);
        Stack.pop_back();
        continue;
      }
      std::pair<FieldId, FieldValue> Split = rootTest(Ops[0]);
      for (std::size_t I = 1; I < Width; ++I)
        Split = std::min(Split, rootTest(Ops[I]), testLess);
      auto [F, V] = Split;
      Top.Field = F;
      Top.Value = V;
      Top.Expanded = true;
      // Growing the arena and the stack below invalidates Ops and Top;
      // cofactors allocate nothing.
      Arena.resize(Base + 3 * Width);
      FddRef *Parent = Arena.data() + Base;
      FddRef *Lo = Parent + Width, *Hi = Lo + Width;
      for (std::size_t I = 0; I < Width; ++I) {
        Hi[I] = cofactorTrue(Parent[I], F, V);
        Lo[I] = cofactorFalse(Parent[I], F, V);
      }
      Stack.push_back({0, 0, false});
      Stack.push_back({0, 0, false});
      continue;
    }
    FddRef LoRes = Values.back();
    Values.pop_back();
    FddRef HiRes = Values.back();
    Values.pop_back();
    FddRef Result = inner(Top.Field, Top.Value, HiRes, LoRes);
    Memo.insert(Key(Ops), Result);
    Values.push_back(Result);
    Arena.resize(Base);
    Stack.pop_back();
  }
  assert(Values.size() == 1 && "unbalanced traversal");
  FddRef Result = Values.back();
  Values.clear();
  return Result;
}

namespace {
/// The memo key of a fixed-width op: its N operand refs.
template <std::size_t N> std::array<uint32_t, N> refsKey(const FddRef *O) {
  std::array<uint32_t, N> Key;
  std::copy(O, O + N, Key.begin());
  return Key;
}

/// The leaf combiner of the predicate operations: their terminal rules
/// already resolve every tuple of pass/drop leaves.
FddRef notAPredicate(const FddRef *) {
  MCNK_UNREACHABLE("predicate operation on a non-predicate leaf");
}
} // namespace

FddRef FddManager::negate(FddRef Pred) {
  const FddRef Ops[] = {Pred};
  return apply(
      Ops, 1, NegateCache,
      [this](const FddRef *O) -> std::optional<FddRef> {
        if (O[0] == IdentityLeaf)
          return DropLeaf;
        if (O[0] == DropLeaf)
          return IdentityLeaf;
        return std::nullopt;
      },
      refsKey<1>, notAPredicate);
}

FddRef FddManager::disjoin(FddRef PredA, FddRef PredB) {
  const FddRef Ops[] = {PredA, PredB};
  return apply(
      Ops, 2, DisjoinCache,
      [this](const FddRef *O) -> std::optional<FddRef> {
        FddRef A = O[0], B = O[1];
        if (A == B || B == DropLeaf)
          return A;
        if (A == DropLeaf)
          return B;
        if (A == IdentityLeaf || B == IdentityLeaf)
          return IdentityLeaf;
        return std::nullopt;
      },
      [](const FddRef *O) {
        return std::array<uint32_t, 2>{std::min(O[0], O[1]),
                                       std::max(O[0], O[1])};
      },
      notAPredicate);
}

FddRef FddManager::choice(const Rational &R, FddRef P, FddRef Q) {
  assert(R.isProbability() && "choice weight outside [0,1]");
  if (P == Q || R.isOne())
    return P;
  if (R.isZero())
    return Q;
  // R is invariant across the whole decomposition: intern it once, so
  // cache keys carry only its id.
  const uint32_t Weight = internWeight(R);
  const FddRef Ops[] = {P, Q};
  return apply(
      Ops, 2, ChoiceCache,
      [](const FddRef *O) -> std::optional<FddRef> {
        if (O[0] == O[1])
          return O[0];
        return std::nullopt;
      },
      [Weight](const FddRef *O) {
        return std::array<uint32_t, 3>{Weight, O[0], O[1]};
      },
      [this, &R](const FddRef *O) {
        return leaf(ActionDist::convex(R, leafDist(O[0]), leafDist(O[1])));
      });
}

FddRef FddManager::branch(FddRef Guard, FddRef Then, FddRef Else) {
  const FddRef Ops[] = {Guard, Then, Else};
  return apply(
      Ops, 3, BranchCache,
      [this](const FddRef *O) -> std::optional<FddRef> {
        FddRef G = O[0], T = O[1], E = O[2];
        if (G == IdentityLeaf || T == E)
          return T;
        if (G == DropLeaf)
          return E;
        return std::nullopt;
      },
      refsKey<3>, notAPredicate);
}

FddRef FddManager::seqAction(uint32_t ActionId, FddRef Q) {
  // Drop actions are never memoized, so a hit is never a drop.
  if (const FddRef *Hit = SeqActionCache.find({ActionId, Q}))
    return *Hit;
  // Copy: the leaf algebra below can intern new leaves, but never new
  // actions, so the id stays valid; the copy guards against pool growth
  // elsewhere all the same.
  const Action A = Actions[ActionId];
  if (A.isDrop())
    return DropLeaf;

  // The action is invariant across the decomposition; frames carry the
  // sub-diagram plus whether the test was statically resolved (one child)
  // or split (two).
  struct Frame {
    FddRef Q;
    FieldId Field;
    FieldValue Value;
    bool Expanded;
    bool Resolved;
  };
  std::vector<Frame> Stack;
  std::vector<FddRef> Values;
  Stack.push_back({Q, 0, 0, false, false});
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (!Top.Expanded) {
      FddRef Cur = Top.Q;
      if (const FddRef *Hit = SeqActionCache.find({ActionId, Cur})) {
        Values.push_back(*Hit);
        Stack.pop_back();
        continue;
      }
      if (isLeafRef(Cur)) {
        const auto &CurEntries = leafDist(Cur).entries();
        std::vector<std::pair<Action, Rational>> Entries;
        Entries.reserve(CurEntries.size());
        for (const auto &[B, W] : CurEntries)
          Entries.emplace_back(A.then(B), W);
        FddRef Result = leaf(ActionDist::fromEntries(std::move(Entries)));
        SeqActionCache.insert({ActionId, Cur}, Result);
        Values.push_back(Result);
        Stack.pop_back();
        continue;
      }
      const InnerNode &N = innerNode(Cur);
      Top.Field = N.Field;
      Top.Value = N.Value;
      Top.Expanded = true;
      FddRef Hi = N.Hi, Lo = N.Lo; // Pushing below invalidates Top and N.
      if (std::optional<FieldValue> Written = A.writeTo(Top.Field)) {
        // The action pins this field before Q tests it; resolve statically.
        Top.Resolved = true;
        Stack.push_back(
            {*Written == Top.Value ? Hi : Lo, 0, 0, false, false});
      } else {
        Stack.push_back({Lo, 0, 0, false, false});
        Stack.push_back({Hi, 0, 0, false, false});
      }
      continue;
    }
    FddRef Result;
    if (Top.Resolved) {
      Result = Values.back();
      Values.pop_back();
    } else {
      FddRef LoRes = Values.back();
      Values.pop_back();
      FddRef HiRes = Values.back();
      Values.pop_back();
      Result = inner(Top.Field, Top.Value, HiRes, LoRes);
    }
    SeqActionCache.insert({ActionId, Top.Q}, Result);
    Values.push_back(Result);
    Stack.pop_back();
  }
  assert(Values.size() == 1 && "unbalanced traversal");
  return Values.back();
}

FddRef FddManager::weightedSum(
    std::vector<std::pair<Rational, FddRef>> Terms) {
  assert(!Terms.empty() && "weighted sum of nothing");
  assert([&Terms] {
    Rational Mass;
    for (const auto &Term : Terms)
      Mass += Term.first;
    return Mass.isOne();
  }() && "weighted sum must be a full decomposition");
  // Equal operands merge up front, their weights adding, so each distinct
  // diagram is one operand of the expansion.
  std::sort(Terms.begin(), Terms.end(),
            [](const auto &A, const auto &B) { return A.second < B.second; });
  std::size_t Width = 1;
  for (std::size_t I = 1; I < Terms.size(); ++I) {
    if (Terms[I].second == Terms[Width - 1].second) {
      Terms[Width - 1].first += Terms[I].first;
    } else {
      if (Width != I)
        Terms[Width] = std::move(Terms[I]);
      ++Width;
    }
  }
  if (Width == 1)
    return Terms[0].second;
  std::vector<FddRef> Operands(Width);
  for (std::size_t I = 0; I < Width; ++I)
    Operands[I] = Terms[I].second;

  // The weights are fixed for the whole expansion, so a memo on the
  // operand refs alone, emptied for each call, is exact; SeqCache keeps
  // the result across calls.
  SumMemo.reset(Width);
  // One leaf term per operand entry: the action, its probability in that
  // leaf, and the operand's index. Reused across all-leaf tuples.
  struct LeafTerm {
    const Action *A;
    const Rational *P;
    std::size_t Operand;
  };
  std::vector<LeafTerm> LeafTerms;
  return apply(
      Operands.data(), Width, SumMemo,
      [Width](const FddRef *O) -> std::optional<FddRef> {
        if (std::all_of(O + 1, O + Width, [O](FddRef R) { return R == O[0]; }))
          return O[0];
        return std::nullopt;
      },
      [](const FddRef *O) { return O; },
      [&, this](const FddRef *O) {
        // Σ wᵢ·pᵢⱼ per action j: gather every operand's entries, group
        // them by action, and build each output weight from the original
        // weights in one pass.
        LeafTerms.clear();
        for (std::size_t I = 0; I < Width; ++I)
          for (const auto &[A, P] : leafDist(O[I]).entries())
            LeafTerms.push_back({&A, &P, I});
        std::sort(LeafTerms.begin(), LeafTerms.end(),
                  [](const LeafTerm &X, const LeafTerm &Y) {
                    return *X.A < *Y.A;
                  });
        std::vector<std::pair<Action, Rational>> Entries;
        Entries.reserve(LeafTerms.size());
        for (const LeafTerm &T : LeafTerms) {
          if (Entries.empty() || Entries.back().first != *T.A) {
            Entries.emplace_back(*T.A, Terms[T.Operand].first);
            Entries.back().second *= *T.P;
          } else {
            Entries.back().second.addMul(Terms[T.Operand].first, *T.P);
          }
        }
        return leaf(ActionDist::fromCanonicalEntries(std::move(Entries)));
      });
}

FddRef FddManager::seq(FddRef P, FddRef Q) {
  auto Terminal = [this](FddRef A, FddRef B, FddRef &Out) {
    if (A == DropLeaf || B == IdentityLeaf || B == DropLeaf) {
      // p ; skip = p, drop ; q = drop, p ; drop = drop (all mass dropped).
      Out = B == DropLeaf ? DropLeaf : A;
      return true;
    }
    if (A == IdentityLeaf) {
      Out = B;
      return true;
    }
    return false;
  };
  FddRef Quick;
  if (Terminal(P, Q, Quick))
    return Quick;

  struct Frame {
    FddRef P, Q;
    FieldId Field;
    FieldValue Value;
    bool Expanded;
  };
  std::vector<Frame> Stack;
  std::vector<FddRef> Values;
  Stack.push_back({P, Q, 0, 0, false});
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (!Top.Expanded) {
      FddRef A = Top.P, B = Top.Q;
      FddRef Out;
      if (Terminal(A, B, Out)) {
        Values.push_back(Out);
        Stack.pop_back();
        continue;
      }
      if (const FddRef *Hit = SeqCache.find({A, B})) {
        Values.push_back(*Hit);
        Stack.pop_back();
        continue;
      }
      if (isLeafRef(A)) {
        // Leaf ▷ diagram: decompose into per-action compositions (each
        // one an iterative seqAction) and reassemble them with
        // weightedSum, which runs on apply(). Copy the entries: the
        // seqAction calls intern new leaves, which can relocate the pool
        // the distribution lives in.
        const std::vector<std::pair<Action, Rational>> Entries =
            leafDist(A).entries();
        std::vector<std::pair<Rational, FddRef>> Terms;
        Terms.reserve(Entries.size());
        for (const auto &[Act, W] : Entries)
          Terms.emplace_back(W, seqAction(internAction(Act), B));
        FddRef Result = weightedSum(std::move(Terms));
        SeqCache.insert({A, B}, Result);
        Values.push_back(Result);
        Stack.pop_back();
        continue;
      }
      const InnerNode &N = innerNode(A);
      Top.Field = N.Field;
      Top.Value = N.Value;
      Top.Expanded = true;
      FddRef Hi = N.Hi, Lo = N.Lo; // Pushing below invalidates Top and N.
      Stack.push_back({Lo, B, 0, 0, false});
      Stack.push_back({Hi, B, 0, 0, false});
      continue;
    }
    FddRef LoRes = Values.back();
    Values.pop_back();
    FddRef HiRes = Values.back();
    Values.pop_back();
    // Q's tests read the packet *after* P's actions, so they may need to
    // float above this node's test; route through branch() which
    // re-interleaves in canonical order.
    FddRef Result = branch(test(Top.Field, Top.Value), HiRes, LoRes);
    SeqCache.insert({Top.P, Top.Q}, Result);
    Values.push_back(Result);
    Stack.pop_back();
  }
  assert(Values.size() == 1 && "unbalanced traversal");
  return Values.back();
}

bool FddManager::isPredicateFdd(FddRef Ref) const {
  std::set<FddRef> Visited;
  std::vector<FddRef> Stack = {Ref};
  while (!Stack.empty()) {
    FddRef Cur = Stack.back();
    Stack.pop_back();
    if (!Visited.insert(Cur).second)
      continue;
    if (isLeafRef(Cur)) {
      if (Cur != IdentityLeaf && Cur != DropLeaf)
        return false;
      continue;
    }
    const InnerNode &N = innerNode(Cur);
    Stack.push_back(N.Hi);
    Stack.push_back(N.Lo);
  }
  return true;
}

const ActionDist &FddManager::evalToLeaf(FddRef Ref, const Packet &P) const {
  while (!isLeafRef(Ref)) {
    const InnerNode &N = innerNode(Ref);
    Ref = P.get(N.Field) == N.Value ? N.Hi : N.Lo;
  }
  return leafDist(Ref);
}

FddManager::OutputDist FddManager::outputDistribution(FddRef Ref,
                                                      const Packet &P) const {
  OutputDist Result;
  for (const auto &[A, W] : evalToLeaf(Ref, P).entries()) {
    if (A.isDrop())
      Result.Dropped += W;
    else
      Result.Outputs[A.applyTo(P)] += W;
  }
  return Result;
}

std::size_t FddManager::diagramSize(FddRef Ref) const {
  std::set<FddRef> Visited;
  std::vector<FddRef> Stack = {Ref};
  while (!Stack.empty()) {
    FddRef Cur = Stack.back();
    Stack.pop_back();
    if (!Visited.insert(Cur).second || isLeafRef(Cur))
      continue;
    const InnerNode &N = innerNode(Cur);
    Stack.push_back(N.Hi);
    Stack.push_back(N.Lo);
  }
  return Visited.size();
}

std::map<FieldId, std::vector<FieldValue>>
FddManager::collectDomain(FddRef Ref) const {
  std::map<FieldId, std::set<FieldValue>> Sets;
  std::set<FddRef> Visited;
  std::vector<FddRef> Stack = {Ref};
  while (!Stack.empty()) {
    FddRef Cur = Stack.back();
    Stack.pop_back();
    if (!Visited.insert(Cur).second)
      continue;
    if (isLeafRef(Cur)) {
      for (const auto &[A, W] : leafDist(Cur).entries()) {
        (void)W;
        for (const auto &[F, V] : A.mods())
          Sets[F].insert(V);
      }
      continue;
    }
    const InnerNode &N = innerNode(Cur);
    Sets[N.Field].insert(N.Value);
    Stack.push_back(N.Hi);
    Stack.push_back(N.Lo);
  }
  std::map<FieldId, std::vector<FieldValue>> Result;
  for (auto &[F, Values] : Sets)
    Result.emplace(F, std::vector<FieldValue>(Values.begin(), Values.end()));
  return Result;
}

//===----------------------------------------------------------------------===//
// Lifecycle: reset and mark-sweep compaction
//===----------------------------------------------------------------------===//

void FddManager::reset() {
  Leaves.clear();
  LeafTable.clear();
  Inners.clear();
  InnerTable.clear();
  Actions.clear();
  ActionTable.clear();
  Weights.clear();
  WeightTable.clear();
  SeqCache.clear();
  DisjoinCache.clear();
  NegateCache.clear();
  ChoiceCache.clear();
  BranchCache.clear();
  SeqActionCache.clear();
  LoopCache.clear();
  LastLoop = LoopSolveStats();
  IdentityLeaf = leaf(ActionDist::dirac(Action()));
  DropLeaf = leaf(ActionDist::dirac(Action::drop()));
}

GcStats FddManager::gc(const std::vector<FddRef *> &Roots) {
  GcStats Stats;
  constexpr uint32_t Dead = std::numeric_limits<uint32_t>::max();

  // --- Mark: everything reachable from the roots plus the constants. ----
  std::vector<bool> LeafLive(Leaves.size(), false);
  std::vector<bool> InnerLive(Inners.size(), false);
  std::vector<FddRef> Stack = {IdentityLeaf, DropLeaf};
  for (FddRef *Root : Roots) {
    assert(Root && "null root handed to gc");
    Stack.push_back(*Root);
  }
  while (!Stack.empty()) {
    FddRef Cur = Stack.back();
    Stack.pop_back();
    if (isLeafRef(Cur)) {
      LeafLive[Cur >> 1] = true;
      continue;
    }
    if (InnerLive[Cur >> 1])
      continue;
    InnerLive[Cur >> 1] = true;
    const InnerNode &N = Inners[Cur >> 1];
    Stack.push_back(N.Hi);
    Stack.push_back(N.Lo);
  }

  // --- Sweep: order-preserving compaction keeps the children-precede-
  // parents property of the inner pool, so one ascending pass remaps
  // every child ref before its parent is rebuilt. -----------------------
  std::vector<uint32_t> LeafRemap(Leaves.size(), Dead);
  std::vector<uint32_t> InnerRemap(Inners.size(), Dead);
  for (std::size_t I = 0; I < Leaves.size(); ++I)
    if (LeafLive[I])
      LeafRemap[I] = static_cast<uint32_t>(Stats.LiveLeaves++);
  Stats.FreedLeaves = Leaves.size() - Stats.LiveLeaves;
  for (std::size_t I = 0; I < Inners.size(); ++I)
    if (InnerLive[I])
      InnerRemap[I] = static_cast<uint32_t>(Stats.LiveInners++);
  Stats.FreedInners = Inners.size() - Stats.LiveInners;

  auto LiveRef = [&](FddRef Old) {
    return isLeafRef(Old) ? LeafLive[Old >> 1] : InnerLive[Old >> 1];
  };
  auto RemapRef = [&](FddRef Old) -> FddRef {
    if (isLeafRef(Old)) {
      assert(LeafRemap[Old >> 1] != Dead && "remapping a dead leaf");
      return (LeafRemap[Old >> 1] << 1) | 1;
    }
    assert(InnerRemap[Old >> 1] != Dead && "remapping a dead node");
    return InnerRemap[Old >> 1] << 1;
  };

  {
    std::vector<ActionDist> NewLeaves;
    NewLeaves.reserve(Stats.LiveLeaves);
    for (std::size_t I = 0; I < Leaves.size(); ++I)
      if (LeafLive[I])
        NewLeaves.push_back(std::move(Leaves[I]));
    Leaves = std::move(NewLeaves);
    LeafTable.reindex(Leaves, [](const ActionDist &D) { return D.hash(); });
  }
  {
    std::vector<InnerNode> NewInners;
    NewInners.reserve(Stats.LiveInners);
    for (std::size_t I = 0; I < Inners.size(); ++I) {
      if (!InnerLive[I])
        continue;
      InnerNode N = Inners[I];
      N.Hi = RemapRef(N.Hi);
      N.Lo = RemapRef(N.Lo);
      NewInners.push_back(N);
    }
    Inners = std::move(NewInners);
    InnerTable.reindex(Inners, innerHash);
  }

  IdentityLeaf = RemapRef(IdentityLeaf);
  DropLeaf = RemapRef(DropLeaf);
  // Remap each distinct root location exactly once: duplicate (aliased)
  // pointers in Roots would otherwise be remapped twice, feeding an
  // already-new ref back through the old-index tables.
  {
    std::set<FddRef *> Seen;
    for (FddRef *Root : Roots)
      if (Seen.insert(Root).second)
        *Root = RemapRef(*Root);
  }

  // --- Rebuild the operation caches onto the compacted refs. An entry
  // survives iff every operand and its result are still reachable; the
  // rest would pin dead structure (or dangle), so they are dropped and
  // simply recomputed on demand. -----------------------------------------
  auto Keep = [&](auto &Key, std::size_t FirstRef, FddRef &Result) {
    bool Live = LiveRef(Result);
    for (std::size_t I = FirstRef; I < Key.size(); ++I)
      Live = Live && LiveRef(Key[I]);
    if (!Live) {
      ++Stats.DroppedCacheEntries;
      return false;
    }
    for (std::size_t I = FirstRef; I < Key.size(); ++I)
      Key[I] = RemapRef(Key[I]);
    Result = RemapRef(Result);
    ++Stats.KeptCacheEntries;
    return true;
  };
  auto KeepRefs = [&](auto &Key, FddRef &Result) {
    return Keep(Key, 0, Result);
  };
  SeqCache.rebuild(KeepRefs);
  // Disjoin keys stay (min, max)-normalized: both operands are always inner
  // refs (the terminal cases swallow leaves), and RemapRef is monotone on
  // inner refs.
  DisjoinCache.rebuild(KeepRefs);
  NegateCache.rebuild(KeepRefs);
  BranchCache.rebuild(KeepRefs);
  // Choice and seqAction keys lead with a weight / action id. Those pools
  // are cache-support structures, so each is compacted down to the ids
  // that surviving entries still reference.
  auto RebuildWithIds = [&](auto &Cache, auto &Pool, IndexSet &Table,
                            auto Hash) {
    std::vector<uint32_t> IdRemap(Pool.size(), Dead);
    std::remove_reference_t<decltype(Pool)> NewPool;
    Cache.rebuild([&](auto &Key, FddRef &Result) {
      if (!Keep(Key, 1, Result))
        return false;
      uint32_t &NewId = IdRemap[Key[0]];
      if (NewId == Dead) {
        NewId = static_cast<uint32_t>(NewPool.size());
        NewPool.push_back(std::move(Pool[Key[0]]));
      }
      Key[0] = NewId;
      return true;
    });
    std::size_t Freed = Pool.size() - NewPool.size();
    Pool = std::move(NewPool);
    Table.reindex(Pool, Hash);
    return Freed;
  };
  Stats.FreedWeights =
      RebuildWithIds(ChoiceCache, Weights, WeightTable,
                     [](const Rational &R) { return R.hash(); });
  Stats.FreedActions =
      RebuildWithIds(SeqActionCache, Actions, ActionTable,
                     [](const Action &A) { return A.hash(); });
  {
    decltype(LoopCache) New;
    New.reserve(LoopCache.size());
    for (const auto &[K, V] : LoopCache) {
      if (!LiveRef(K.first) || !LiveRef(K.second) || !LiveRef(V.Result)) {
        ++Stats.DroppedCacheEntries;
        continue;
      }
      New.emplace(std::make_pair(RemapRef(K.first), RemapRef(K.second)),
                  LoopEntry{RemapRef(V.Result), V.Stats});
      ++Stats.KeptCacheEntries;
    }
    LoopCache = std::move(New);
  }
  return Stats;
}
