//===----------------------------------------------------------------------===//
///
/// \file
/// Deeper FDD property suites: the action algebra, closed-form loop
/// solving against textbook closed forms (gambler's ruin expressed as a
/// ProbNetKAT program), algebraic-law sweeps on random subterms (canonical
/// diagrams turn semantic laws into reference equalities), export/import
/// preservation on random programs, an op-level differential of the
/// apply operations against a recursive Shannon-expansion reference, and a
/// differential of seq's n-ary weighted sum against a fold of binary
/// choices.
///
//===----------------------------------------------------------------------===//

#include "ast/Context.h"
#include "fdd/Action.h"
#include "fdd/Compile.h"
#include "fdd/Export.h"
#include "fdd/Query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

using namespace mcnk;
using namespace mcnk::fdd;
using ast::Context;
using ast::Node;

//===----------------------------------------------------------------------===//
// Action algebra
//===----------------------------------------------------------------------===//

TEST(ActionTest, ThenComposition) {
  Action A = Action::modify({{0, 1}, {2, 3}});
  Action B = Action::modify({{0, 9}, {1, 7}});
  Action C = A.then(B);
  // B's writes win on overlap; union elsewhere.
  EXPECT_EQ(C.writeTo(0), std::optional<FieldValue>(9));
  EXPECT_EQ(C.writeTo(1), std::optional<FieldValue>(7));
  EXPECT_EQ(C.writeTo(2), std::optional<FieldValue>(3));
  EXPECT_EQ(C.writeTo(5), std::nullopt);
  // Identity laws.
  EXPECT_EQ(Action().then(A), A);
  EXPECT_EQ(A.then(Action()), A);
  // Drop absorbs.
  EXPECT_TRUE(A.then(Action::drop()).isDrop());
  EXPECT_TRUE(Action::drop().then(A).isDrop());
  // Associativity on a sample.
  Action D = Action::modify({{1, 1}});
  EXPECT_EQ(A.then(B).then(D), A.then(B.then(D)));
}

TEST(ActionTest, ModifyNormalizes) {
  // Unsorted input with a duplicate field: last write wins, sorted output.
  Action A = Action::modify({{3, 1}, {0, 2}, {3, 9}});
  ASSERT_EQ(A.mods().size(), 2u);
  EXPECT_EQ(A.mods()[0], (Action::Mod{0, 2}));
  EXPECT_EQ(A.mods()[1], (Action::Mod{3, 9}));
  EXPECT_EQ(A.dropMod(3).mods().size(), 1u);
}

TEST(ActionTest, ApplyToPacket) {
  Packet P(4);
  P.set(1, 5);
  Action A = Action::modify({{1, 7}, {3, 2}});
  Packet Q = A.applyTo(P);
  EXPECT_EQ(Q.get(1), 7u);
  EXPECT_EQ(Q.get(3), 2u);
  EXPECT_EQ(Q.get(0), 0u);
}

TEST(ActionDistTest, ConvexAndMerge) {
  ActionDist A = ActionDist::dirac(Action::modify({{0, 1}}));
  ActionDist B = ActionDist::dirac(Action::drop());
  ActionDist C = ActionDist::convex(Rational(1, 4), A, B);
  EXPECT_EQ(C.dropMass(), Rational(3, 4));
  EXPECT_FALSE(C.isDirac());
  // Convex of equal distributions is the distribution itself.
  EXPECT_EQ(ActionDist::convex(Rational(1, 3), A, A), A);
  // fromEntries merges duplicates.
  ActionDist D = ActionDist::fromEntries({{Action::drop(), Rational(1, 2)},
                                          {Action::drop(), Rational(1, 2)}});
  EXPECT_TRUE(D.isDirac());
  EXPECT_EQ(D.dropMass(), Rational(1));
}

//===----------------------------------------------------------------------===//
// Gambler's ruin, as a ProbNetKAT program through the whole pipeline
//===----------------------------------------------------------------------===//

class GamblersRuinProgram
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GamblersRuinProgram, LoopSolveMatchesClosedForm) {
  auto [N, StartPos] = GetParam();
  Context Ctx;
  FieldId Pos = Ctx.field("pos");

  // while 0 < pos < N: pos += 1 with 2/3, pos -= 1 with 1/3.
  const Node *Guard = Ctx.drop();
  for (int I = 1; I < N; ++I)
    Guard = Ctx.unite(Guard, Ctx.test(Pos, static_cast<FieldValue>(I)));
  const Node *Step = Ctx.drop();
  // Build the body as a cascade: if pos=i then (pos:=i+1 ⊕ pos:=i-1).
  for (int I = N - 1; I >= 1; --I)
    Step = Ctx.ite(
        Ctx.test(Pos, static_cast<FieldValue>(I)),
        Ctx.choice(Rational(2, 3),
                   Ctx.assign(Pos, static_cast<FieldValue>(I + 1)),
                   Ctx.assign(Pos, static_cast<FieldValue>(I - 1))),
        Step);
  const Node *Program = Ctx.whileLoop(Guard, Step);

  FddManager M; // Exact.
  FddRef Ref = compile(M, Program);
  Packet In(1);
  In.set(Pos, static_cast<FieldValue>(StartPos));
  auto Out = M.outputDistribution(Ref, In);

  // Pr[absorb at N | start k] = (1 - r^k)/(1 - r^N) with r = q/p = 1/2.
  Rational RPowK = Rational(BigInt(1), BigInt(1).shl(StartPos));
  Rational RPowN = Rational(BigInt(1), BigInt(1).shl(N));
  Rational WinExpected =
      (Rational(1) - RPowK) / (Rational(1) - RPowN);
  Packet Win(1), Ruin(1);
  Win.set(Pos, static_cast<FieldValue>(N));
  Ruin.set(Pos, 0);
  EXPECT_EQ(Out.Outputs[Win], WinExpected);
  EXPECT_EQ(Out.Outputs[Ruin], Rational(1) - WinExpected);
  EXPECT_EQ(Out.Dropped, Rational(0));
}

INSTANTIATE_TEST_SUITE_P(Walks, GamblersRuinProgram,
                         ::testing::Values(std::make_pair(5, 1),
                                           std::make_pair(5, 3),
                                           std::make_pair(9, 4),
                                           std::make_pair(12, 6)));

//===----------------------------------------------------------------------===//
// Algebraic-law sweep on random subterms
//===----------------------------------------------------------------------===//

namespace {

struct LawFixture {
  Context Ctx;
  FieldId A = Ctx.field("a");
  FieldId B = Ctx.field("b");
  FddManager M;
  std::mt19937_64 Rng;

  explicit LawFixture(unsigned Seed) : Rng(Seed) {}

  const Node *randomProgram(unsigned Depth) {
    std::uniform_int_distribution<int> Pick(0, Depth == 0 ? 2 : 6);
    auto Value = [&] {
      return std::uniform_int_distribution<FieldValue>(0, 2)(Rng);
    };
    auto Field = [&] {
      return std::uniform_int_distribution<int>(0, 1)(Rng) ? A : B;
    };
    switch (Pick(Rng)) {
    case 0:
      return Ctx.assign(Field(), Value());
    case 1:
      return Ctx.test(Field(), Value());
    case 2:
      return Ctx.skip();
    case 3:
      return Ctx.seq(randomProgram(Depth - 1), randomProgram(Depth - 1));
    case 4:
      return Ctx.choice(Rational(1, 2), randomProgram(Depth - 1),
                        randomProgram(Depth - 1));
    case 5:
      return Ctx.ite(Ctx.test(Field(), Value()),
                     randomProgram(Depth - 1), randomProgram(Depth - 1));
    default:
      return Ctx.drop();
    }
  }

  const Node *randomPredicate(unsigned Depth) {
    std::uniform_int_distribution<int> Pick(0, Depth == 0 ? 0 : 3);
    auto Value = [&] {
      return std::uniform_int_distribution<FieldValue>(0, 2)(Rng);
    };
    switch (Pick(Rng)) {
    case 0:
      return Ctx.test(std::uniform_int_distribution<int>(0, 1)(Rng) ? A : B,
                      Value());
    case 1:
      return Ctx.negate(randomPredicate(Depth - 1));
    case 2:
      return Ctx.unite(randomPredicate(Depth - 1),
                       randomPredicate(Depth - 1));
    default:
      return Ctx.seq(randomPredicate(Depth - 1),
                     randomPredicate(Depth - 1));
    }
  }
};

} // namespace

class AlgebraicLaws : public ::testing::TestWithParam<unsigned> {};

TEST_P(AlgebraicLaws, HoldByReferenceEquality) {
  LawFixture F(GetParam());
  Context &Ctx = F.Ctx;
  FddManager &M = F.M;

  for (int Round = 0; Round < 25; ++Round) {
    const Node *P = F.randomProgram(2);
    const Node *Q = F.randomProgram(2);
    const Node *R = F.randomProgram(2);
    const Node *T = F.randomPredicate(2);
    Rational Prob(std::uniform_int_distribution<int>(1, 3)(F.Rng), 4);

    auto C = [&](const Node *X) { return compile(M, X); };

    // Sequential composition is associative with unit skip.
    EXPECT_EQ(C(Ctx.seq(P, Ctx.seq(Q, R))), C(Ctx.seq(Ctx.seq(P, Q), R)));
    // Choice: skew/commutation and idempotence.
    EXPECT_EQ(C(Ctx.choice(Prob, P, Q)),
              C(Ctx.choice(Rational(1) - Prob, Q, P)));
    EXPECT_EQ(C(Ctx.choice(Prob, P, P)), C(P));
    // Left distributivity of ; over ⊕ (holds in ProbNetKAT).
    EXPECT_EQ(C(Ctx.seq(Ctx.choice(Prob, P, Q), R)),
              C(Ctx.choice(Prob, Ctx.seq(P, R), Ctx.seq(Q, R))));
    // Guard laws: if t then p else p ≡ p; branch flipping.
    EXPECT_EQ(C(Ctx.ite(T, P, P)), C(P));
    EXPECT_EQ(C(Ctx.ite(T, P, Q)), C(Ctx.ite(Ctx.negate(T), Q, P)));
    // Predicate conjunction with its negation annihilates the branch.
    EXPECT_EQ(C(Ctx.seq(T, Ctx.seq(Ctx.negate(T), P))), C(Ctx.drop()));
    // if t then (t ; p) else q ≡ if t then p else q (guard absorption).
    EXPECT_EQ(C(Ctx.ite(T, Ctx.seq(T, P), Q)), C(Ctx.ite(T, P, Q)));
    // Refinement: every program refines itself and drop refines it.
    EXPECT_TRUE(refines(M, C(P), C(P)));
    EXPECT_TRUE(refines(M, C(Ctx.drop()), C(P)));
    // p ⊕ drop refines p.
    EXPECT_TRUE(refines(M, C(Ctx.choice(Prob, P, Ctx.drop())), C(P)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraicLaws,
                         ::testing::Values(71u, 72u, 73u, 74u, 75u));

//===----------------------------------------------------------------------===//
// Export/import preservation on random programs
//===----------------------------------------------------------------------===//

class ExportProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ExportProperty, RoundTripPreservesBehavior) {
  LawFixture F(GetParam());
  FddManager Fresh;
  for (int Round = 0; Round < 20; ++Round) {
    const Node *P = F.randomProgram(3);
    FddRef Ref = compile(F.M, P);
    PortableFdd Portable = exportFdd(F.M, Ref);
    // Re-import into the same manager: identical diagram.
    EXPECT_EQ(importFdd(F.M, Portable), Ref);
    // Import into a fresh manager: identical behavior on all inputs.
    FddRef Copy = importFdd(Fresh, Portable);
    for (FieldValue VA = 0; VA <= 2; ++VA)
      for (FieldValue VB = 0; VB <= 2; ++VB) {
        Packet In(2);
        In.set(F.A, VA);
        In.set(F.B, VB);
        auto D1 = F.M.outputDistribution(Ref, In);
        auto D2 = Fresh.outputDistribution(Copy, In);
        EXPECT_EQ(D1.Outputs, D2.Outputs);
        EXPECT_EQ(D1.Dropped, D2.Dropped);
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExportProperty,
                         ::testing::Values(81u, 82u, 83u));

//===----------------------------------------------------------------------===//
// Op-level differential: apply operations vs a recursive Shannon reference
//===----------------------------------------------------------------------===//

namespace {

using Test = std::pair<FieldId, FieldValue>;

/// A Shannon expansion written as plain recursion from inner()/leaf() and
/// the node accessors only: split every operand on the least root test
/// until all are leaves, then apply \p Leaf. No terminal shortcuts and no
/// memo, so it is slow but independent of the manager's operations.
class ShannonReference {
public:
  explicit ShannonReference(FddManager &Manager) : M(Manager) {}

  template <typename LeafFn>
  FddRef apply(const std::vector<FddRef> &Ops, LeafFn Leaf) {
    if (std::all_of(Ops.begin(), Ops.end(), isLeafRef))
      return Leaf(Ops);
    Test Split{std::numeric_limits<FieldId>::max(),
               std::numeric_limits<FieldValue>::max()};
    for (FddRef Op : Ops)
      if (!isLeafRef(Op))
        Split = std::min(Split, Test{M.innerNode(Op).Field,
                                     M.innerNode(Op).Value});
    std::vector<FddRef> Hi, Lo;
    for (FddRef Op : Ops) {
      Hi.push_back(restrict(Op, Split, true));
      Lo.push_back(restrict(Op, Split, false));
    }
    FddRef HiRes = apply(Hi, Leaf);
    return M.inner(Split.first, Split.second, HiRes, apply(Lo, Leaf));
  }

  FddRef negate(FddRef P) {
    return apply({P}, [&](const std::vector<FddRef> &L) {
      return L[0] == M.identityLeaf() ? M.dropLeaf() : M.identityLeaf();
    });
  }
  FddRef disjoin(FddRef A, FddRef B) {
    return apply({A, B}, [&](const std::vector<FddRef> &L) {
      return L[0] == M.identityLeaf() || L[1] == M.identityLeaf()
                 ? M.identityLeaf()
                 : M.dropLeaf();
    });
  }
  FddRef choice(const Rational &R, FddRef P, FddRef Q) {
    return apply({P, Q}, [&](const std::vector<FddRef> &L) {
      return M.leaf(
          ActionDist::convex(R, M.leafDist(L[0]), M.leafDist(L[1])));
    });
  }
  FddRef branch(FddRef G, FddRef T, FddRef E) {
    return apply({G, T, E}, [&](const std::vector<FddRef> &L) {
      return L[0] == M.identityLeaf() ? L[1] : L[2];
    });
  }

private:
  /// \p Ref under the assumption that test \p T holds (\p Holds) or fails;
  /// \p Ref's root test is not smaller than \p T.
  FddRef restrict(FddRef Ref, Test T, bool Holds) {
    while (!isLeafRef(Ref)) {
      const FddManager::InnerNode &N = M.innerNode(Ref);
      if (N.Field != T.first)
        break;
      if (N.Value == T.second)
        return Holds ? N.Hi : N.Lo;
      if (!Holds)
        break;
      Ref = N.Lo;
    }
    return Ref;
  }

  FddManager &M;
};

/// Random ordered diagrams over NumFields fields with values 0..MaxValue,
/// built bottom-up through inner() so every one is canonical.
struct RandomDiagrams {
  FddManager &M;
  std::mt19937_64 Rng;
  FieldId NumFields;
  FieldValue MaxValue = 2;

  /// A diagram whose tests are all at least \p Min; predicate diagrams
  /// end in pass/drop, the rest in random distributions.
  FddRef build(Test Min, unsigned Depth, bool Predicate) {
    if (Min.first >= NumFields || Depth == 0 ||
        std::uniform_int_distribution<int>(0, 3)(Rng) == 0)
      return Predicate ? (coin() ? M.identityLeaf() : M.dropLeaf())
                       : randomLeaf();
    FieldId F = std::uniform_int_distribution<FieldId>(Min.first,
                                                       NumFields - 1)(Rng);
    FieldValue V = std::uniform_int_distribution<FieldValue>(
        F == Min.first ? Min.second : 0, MaxValue)(Rng);
    FddRef Hi = build({F + 1, 0}, Depth - 1, Predicate);
    Test LoMin = V < MaxValue ? Test{F, V + 1} : Test{F + 1, 0};
    return M.inner(F, V, Hi, build(LoMin, Depth - 1, Predicate));
  }

  FddRef randomLeaf() {
    std::vector<std::pair<Action, Rational>> Entries;
    int Parts = std::uniform_int_distribution<int>(1, 3)(Rng);
    for (int I = 0; I < Parts; ++I) {
      Action A =
          std::uniform_int_distribution<int>(0, 4)(Rng) == 0
              ? Action::drop()
              : Action::modify({{std::uniform_int_distribution<FieldId>(
                                     0, NumFields - 1)(Rng),
                                 std::uniform_int_distribution<FieldValue>(
                                     0, MaxValue)(Rng)}});
      Entries.emplace_back(A, Rational(1, Parts));
    }
    return M.leaf(ActionDist::fromEntries(std::move(Entries)));
  }

  bool coin() { return std::uniform_int_distribution<int>(0, 1)(Rng); }
};

} // namespace

class ApplyDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(ApplyDifferential, OpsMatchRecursiveReference) {
  FddManager M;
  RandomDiagrams Gen{M, std::mt19937_64(GetParam()),
                     static_cast<FieldId>(3 + GetParam() % 2)};
  ShannonReference Ref(M);
  const Rational Weights[] = {Rational(1, 2), Rational(1, 3),
                              Rational(3, 4)};

  // Operands first, then one result per op and round; both go to gc() as
  // roots so the warm pass can compare against the remapped results.
  constexpr int Rounds = 40;
  std::vector<FddRef> Preds, Progs;
  for (int I = 0; I < 3 * Rounds; ++I) {
    Preds.push_back(Gen.build({0, 0}, 5, /*Predicate=*/true));
    Progs.push_back(Gen.build({0, 0}, 5, /*Predicate=*/false));
  }
  auto RunOps = [&](int I) {
    FddRef P0 = Preds[3 * I], P1 = Preds[3 * I + 1];
    FddRef G0 = Progs[3 * I], G1 = Progs[3 * I + 1], G2 = Progs[3 * I + 2];
    const Rational &W = Weights[I % 3];
    return std::vector<FddRef>{
        M.negate(P0),       M.disjoin(P0, P1),    M.disjoin(P1, P1),
        M.choice(W, G0, G1), M.choice(W, G1, G1), M.branch(P0, G0, G1),
        M.branch(P1, P0, G2), M.branch(P0, G2, G2)};
  };
  auto Reference = [&](int I) {
    FddRef P0 = Preds[3 * I], P1 = Preds[3 * I + 1];
    FddRef G0 = Progs[3 * I], G1 = Progs[3 * I + 1], G2 = Progs[3 * I + 2];
    const Rational &W = Weights[I % 3];
    return std::vector<FddRef>{
        Ref.negate(P0),       Ref.disjoin(P0, P1),    Ref.disjoin(P1, P1),
        Ref.choice(W, G0, G1), Ref.choice(W, G1, G1), Ref.branch(P0, G0, G1),
        Ref.branch(P1, P0, G2), Ref.branch(P0, G2, G2)};
  };

  // Cold: every op result is computed before its reference.
  std::vector<std::vector<FddRef>> Results;
  for (int I = 0; I < Rounds; ++I) {
    Results.push_back(RunOps(I));
    EXPECT_EQ(Results.back(), Reference(I)) << "cold round " << I;
  }

  // Warm: gc keeps the operands, the results and the cache entries over
  // them; the ops must return the remapped results.
  std::vector<FddRef *> Roots;
  for (std::vector<FddRef> *Pool : {&Preds, &Progs})
    for (FddRef &R : *Pool)
      Roots.push_back(&R);
  for (std::vector<FddRef> &Row : Results)
    for (FddRef &R : Row)
      Roots.push_back(&R);
  GcStats Stats = M.gc(Roots);
  EXPECT_GT(Stats.KeptCacheEntries, 0u);
  for (int I = 0; I < Rounds; ++I) {
    EXPECT_EQ(RunOps(I), Results[I]) << "warm round " << I;
    EXPECT_EQ(Reference(I), Results[I]) << "warm reference round " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApplyDifferential,
                         ::testing::Values(91u, 92u, 93u, 94u));

//===----------------------------------------------------------------------===//
// seq's weighted sum vs a fold of binary choices
//===----------------------------------------------------------------------===//

namespace {

/// A prime in [Lo, 10^6], by trial division from a random start.
int64_t randomPrime(std::mt19937_64 &Rng, int64_t Lo) {
  int64_t N = std::uniform_int_distribution<int64_t>(Lo, 1000000)(Rng);
  for (;; N = N < 1000000 ? N + 1 : Lo) {
    bool Prime = N >= 2;
    for (int64_t D = 2; Prime && D * D <= N; ++D)
      Prime = N % D != 0;
    if (Prime)
      return N;
  }
}

/// seq(L, Q) as a fold of binary choices: each action's composition
/// seq(dirac(a_i), Q), folded right to left as n−1 choices with the ratio
/// weights w_i / (w_i + ... + w_n). Adds to
/// \p Shared the number of entries whose composition equals an earlier
/// entry's.
FddRef ratioFold(FddManager &M, FddRef L, FddRef Q, std::size_t &Shared) {
  // Copy: the calls below intern leaves, which can move the pool.
  const std::vector<std::pair<Action, Rational>> Entries =
      M.leafDist(L).entries();
  std::vector<FddRef> Seen;
  auto Compose = [&](const Action &A) {
    FddRef Ref = M.seq(M.leaf(ActionDist::dirac(A)), Q);
    Shared += std::count(Seen.begin(), Seen.end(), Ref) != 0;
    Seen.push_back(Ref);
    return Ref;
  };
  FddRef Acc = Compose(Entries.back().first);
  Rational Mass = Entries.back().second;
  for (std::size_t I = Entries.size() - 1; I-- > 0;) {
    Mass += Entries[I].second;
    Acc = M.choice(Entries[I].second / Mass, Compose(Entries[I].first), Acc);
  }
  EXPECT_TRUE(Mass.isOne());
  return Acc;
}

} // namespace

class WeightedSumDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(WeightedSumDifferential, SeqMatchesRatioFold) {
  FddManager M;
  std::mt19937_64 Rng(GetParam());
  RandomDiagrams Gen{M, std::mt19937_64(GetParam() + 1000), 3};
  // Q never tests Scratch; the overwriting Qs end in Scratch := 0, so all
  // actions that differ only in their Scratch write compose to one diagram.
  const FieldId Scratch = Gen.NumFields;
  std::vector<FddRef> Qs;
  for (int I = 0; I < 3; ++I) {
    Qs.push_back(Gen.build({0, 0}, 5, /*Predicate=*/false));
    Qs.push_back(M.seq(Gen.build({0, 0}, 5, /*Predicate=*/false),
                       M.assign(Scratch, 0)));
  }

  // Leaves of every size from 1 to 12 entries, twice over. Weights have
  // pairwise coprime prime denominators up to 10^6; the last entry takes
  // the remaining mass, so its denominator is their product (usually
  // wider than 64 bits from five entries on).
  std::vector<FddRef> Leaves;
  for (int Size = 1; Size <= 24; ++Size) {
    const int N = (Size - 1) % 12 + 1;
    std::vector<std::pair<Action, Rational>> Entries;
    std::vector<int64_t> Primes;
    Rational Rest(1);
    for (int I = 0; I < N; ++I) {
      Action A;
      switch (std::uniform_int_distribution<int>(0, 3)(Rng)) {
      case 0: // Drop, or (once a drop is in) the identity.
        A = std::any_of(Entries.begin(), Entries.end(),
                        [](const auto &E) { return E.first.isDrop(); })
                ? Action()
                : Action::drop();
        break;
      case 1: // Only a Scratch write: collides under the overwriting Qs.
        A = Action::modify({{Scratch, static_cast<FieldValue>(I)}});
        break;
      default:
        A = Action::modify(
            {{std::uniform_int_distribution<FieldId>(0, Scratch - 1)(Rng),
              std::uniform_int_distribution<FieldValue>(0, 2)(Rng)},
             {Scratch, static_cast<FieldValue>(I)}});
      }
      if (std::any_of(Entries.begin(), Entries.end(),
                      [&A](const auto &E) { return E.first == A; }))
        A = Action::modify({{Scratch, static_cast<FieldValue>(100 + I)}});
      if (I + 1 == N) {
        Entries.emplace_back(A, Rest);
        break;
      }
      int64_t P;
      do
        P = randomPrime(Rng, 2 * N);
      while (std::find(Primes.begin(), Primes.end(), P) != Primes.end());
      Primes.push_back(P);
      Rational W(std::uniform_int_distribution<int64_t>(1, P / (2 * N))(Rng),
                 P);
      Rest -= W;
      Entries.emplace_back(A, W);
    }
    Leaves.push_back(M.leaf(ActionDist::fromEntries(std::move(Entries))));
  }
  // One weight of more than 64 bits: 2^-80 on a write, the rest split.
  const Rational Tiny(BigInt(1), BigInt(1).shl(80));
  Leaves.push_back(M.leaf(ActionDist::fromEntries(
      {{Action::modify({{0, 1}}), Tiny},
       {Action::drop(), Rational(1, 3)},
       {Action::modify({{Scratch, 7}}), Rational(2, 3) - Tiny}})));
  ASSERT_FALSE(Tiny.denominator().isSmallRep());

  // Cold: each seq runs before its fold, in a manager that has not seen
  // the pair. The first half of the pairs go here, the rest after gc().
  const std::size_t Pairs = Leaves.size() * Qs.size();
  std::vector<FddRef> Results(Pairs);
  auto Pair = [&](std::size_t K) {
    return std::make_pair(Leaves[K / Qs.size()], Qs[K % Qs.size()]);
  };
  std::size_t Shared = 0;
  for (std::size_t K = 0; K < Pairs / 2; ++K) {
    auto [L, Q] = Pair(K);
    Results[K] = M.seq(L, Q);
    EXPECT_EQ(Results[K], ratioFold(M, L, Q, Shared)) << "cold pair " << K;
  }
  EXPECT_GT(Shared, 0u) << "no two actions composed to one diagram";

  // Warm: gc keeps the operands, the results and the cache entries over
  // them; the first half must come back remapped, the second half is new
  // work on compacted tables.
  std::vector<FddRef *> Roots;
  for (std::vector<FddRef> *Pool : {&Qs, &Leaves})
    for (FddRef &R : *Pool)
      Roots.push_back(&R);
  for (std::size_t K = 0; K < Pairs / 2; ++K)
    Roots.push_back(&Results[K]);
  GcStats Stats = M.gc(Roots);
  EXPECT_GT(Stats.KeptCacheEntries, 0u);
  for (std::size_t K = 0; K < Pairs; ++K) {
    auto [L, Q] = Pair(K);
    FddRef Sum = M.seq(L, Q);
    if (K < Pairs / 2) {
      EXPECT_EQ(Sum, Results[K]) << "warm pair " << K;
    }
    EXPECT_EQ(Sum, ratioFold(M, L, Q, Shared)) << "warm pair " << K;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedSumDifferential,
                         ::testing::Values(101u, 102u, 103u, 104u));
