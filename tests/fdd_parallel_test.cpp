//===----------------------------------------------------------------------===//
///
/// \file
/// `case` reduction and concurrency suite. The compiler reduces `case`
/// arms pairwise with the §6 segment algebra; every compile here must be
/// reference-equal to a test-local reference compiler whose `case` is the
/// plain right fold `branch(g_i, b_i, Acc)` — in the same manager
/// directly, and across managers after an export/import round trip — for
/// randomized nested `case` programs, arm counts from 0 to 64, overlapping
/// guards, and `case` inside `while`, on every solver kind with the
/// compile cache on and off. Also covers serial loop solves running
/// concurrently on several threads (the modular ones share the lazily
/// extended prime table) and CompileCache inserts racing on one cache.
/// Runs under ThreadSanitizer in `./ci.sh tsan`.
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "ast/Context.h"
#include "fdd/Compile.h"
#include "fdd/CompileCache.h"
#include "fdd/Export.h"
#include "markov/Absorbing.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <thread>

using namespace mcnk;
using namespace mcnk::fdd;
using ast::Context;
using ast::Node;
using ast::NodeKind;

namespace {

/// The reference compiler: the same structural recursion as fdd::compile,
/// except that `case` is the right fold Acc = branch(g_i, b_i, Acc) over
/// the arms, last to first, starting from the default — the first-match
/// cascade written out directly.
FddRef foldCompile(FddManager &M, const Node *P) {
  switch (P->kind()) {
  case NodeKind::Drop:
    return M.dropLeaf();
  case NodeKind::Skip:
    return M.identityLeaf();
  case NodeKind::Test: {
    const auto *T = cast<ast::TestNode>(P);
    return M.test(T->field(), T->value());
  }
  case NodeKind::Assign: {
    const auto *A = cast<ast::AssignNode>(P);
    return M.assign(A->field(), A->value());
  }
  case NodeKind::Not:
    return M.negate(foldCompile(M, cast<ast::NotNode>(P)->operand()));
  case NodeKind::Seq: {
    const auto *S = cast<ast::SeqNode>(P);
    return M.seq(foldCompile(M, S->lhs()), foldCompile(M, S->rhs()));
  }
  case NodeKind::Union: {
    const auto *U = cast<ast::UnionNode>(P);
    return M.disjoin(foldCompile(M, U->lhs()), foldCompile(M, U->rhs()));
  }
  case NodeKind::Choice: {
    const auto *C = cast<ast::ChoiceNode>(P);
    return M.choice(C->probability(), foldCompile(M, C->lhs()),
                    foldCompile(M, C->rhs()));
  }
  case NodeKind::IfThenElse: {
    const auto *I = cast<ast::IfThenElseNode>(P);
    return M.branch(foldCompile(M, I->cond()),
                    foldCompile(M, I->thenBranch()),
                    foldCompile(M, I->elseBranch()));
  }
  case NodeKind::While: {
    const auto *W = cast<ast::WhileNode>(P);
    return M.solveLoop(foldCompile(M, W->cond()),
                       foldCompile(M, W->body()));
  }
  case NodeKind::Case: {
    const auto *C = cast<ast::CaseNode>(P);
    FddRef Acc = foldCompile(M, C->defaultBranch());
    for (std::size_t I = C->branches().size(); I-- > 0;)
      Acc = M.branch(foldCompile(M, C->branches()[I].first),
                     foldCompile(M, C->branches()[I].second), Acc);
    return Acc;
  }
  case NodeKind::Star:
    break;
  }
  ADD_FAILURE() << "reference compiler reached a non-guarded node";
  return M.dropLeaf();
}

/// Generates random guarded programs that are heavy on (nested) `case`
/// constructs, the shape the parallel backend actually compiles.
struct CaseFixture {
  Context Ctx;
  FieldId A = Ctx.field("a");
  FieldId B = Ctx.field("b");
  std::mt19937_64 Rng;

  explicit CaseFixture(unsigned Seed) : Rng(Seed) {}

  FieldValue value() {
    return std::uniform_int_distribution<FieldValue>(0, 2)(Rng);
  }
  FieldId field() {
    return std::uniform_int_distribution<int>(0, 1)(Rng) ? A : B;
  }

  const Node *randomPredicate(unsigned Depth) {
    std::uniform_int_distribution<int> Pick(0, Depth == 0 ? 0 : 2);
    switch (Pick(Rng)) {
    case 0:
      return Ctx.test(field(), value());
    case 1:
      return Ctx.negate(randomPredicate(Depth - 1));
    default:
      return Ctx.unite(randomPredicate(Depth - 1),
                       randomPredicate(Depth - 1));
    }
  }

  const Node *randomProgram(unsigned Depth) {
    std::uniform_int_distribution<int> Pick(0, Depth == 0 ? 3 : 7);
    switch (Pick(Rng)) {
    case 0:
      return Ctx.assign(field(), value());
    case 1:
      return Ctx.test(field(), value());
    case 2:
      return Ctx.skip();
    case 3:
      return Ctx.drop();
    case 4:
      return Ctx.seq(randomProgram(Depth - 1), randomProgram(Depth - 1));
    case 5:
      return Ctx.choice(
          Rational(std::uniform_int_distribution<int>(1, 3)(Rng), 4),
          randomProgram(Depth - 1), randomProgram(Depth - 1));
    case 6:
      return Ctx.ite(randomPredicate(1), randomProgram(Depth - 1),
                     randomProgram(Depth - 1));
    default:
      return randomCase(Depth);
    }
  }

  /// A `case` with 2–4 arms whose guards are random predicates (arms may
  /// overlap — first match wins — and may themselves contain cases).
  const Node *randomCase(unsigned Depth) {
    std::size_t Arms = std::uniform_int_distribution<std::size_t>(2, 4)(Rng);
    std::vector<ast::CaseNode::Branch> Branches;
    for (std::size_t I = 0; I < Arms; ++I)
      Branches.emplace_back(randomPredicate(1),
                            randomProgram(Depth ? Depth - 1 : 0));
    return Ctx.caseOf(std::move(Branches),
                      randomProgram(Depth ? Depth - 1 : 0));
  }
};

/// A loop whose two states reach each other, so its chain has a genuine
/// multi-state strongly connected class:
///   while (pos=1 | pos=2) { if pos=1 then coin(pos:=2 / pos:=0)
///                           else coin(pos:=1 / pos:=3) }
const Node *coinLoop(Context &Ctx, FieldId Pos, int Num, int Den) {
  return Ctx.whileLoop(
      Ctx.unite(Ctx.test(Pos, 1), Ctx.test(Pos, 2)),
      Ctx.ite(Ctx.test(Pos, 1),
              Ctx.choice(Rational(Num, Den), Ctx.assign(Pos, 2),
                         Ctx.assign(Pos, 0)),
              Ctx.choice(Rational(Num, Den), Ctx.assign(Pos, 1),
                         Ctx.assign(Pos, 3))));
}

/// A `case` whose arms are loops, one of them two loops in sequence.
const Node *caseOfLoops(Context &Ctx) {
  FieldId Pos = Ctx.field("pos");
  FieldId Sw = Ctx.field("sw");
  std::vector<ast::CaseNode::Branch> Arms;
  Arms.emplace_back(Ctx.test(Sw, 0), coinLoop(Ctx, Pos, 1, 2));
  Arms.emplace_back(Ctx.test(Sw, 1), coinLoop(Ctx, Pos, 1, 3));
  Arms.emplace_back(Ctx.test(Sw, 2), Ctx.seq(coinLoop(Ctx, Pos, 1, 2),
                                             coinLoop(Ctx, Pos, 2, 3)));
  Arms.emplace_back(Ctx.test(Sw, 3), coinLoop(Ctx, Pos, 3, 4));
  return Ctx.caseOf(std::move(Arms), Ctx.drop());
}

/// A `case` inside a `while` whose arms hold a nested `case` and a
/// probabilistic choice: while (pos=1 | pos=2) do case { ... }.
const Node *caseInsideWhile(Context &Ctx) {
  FieldId Pos = Ctx.field("pos");
  FieldId Sw = Ctx.field("sw");
  std::vector<ast::CaseNode::Branch> Inner;
  Inner.emplace_back(Ctx.test(Sw, 0), Ctx.assign(Pos, 3));
  Inner.emplace_back(Ctx.unite(Ctx.test(Sw, 0), Ctx.test(Sw, 1)),
                     Ctx.choice(Rational(1, 3), Ctx.assign(Pos, 1),
                                Ctx.assign(Pos, 0)));
  std::vector<ast::CaseNode::Branch> Outer;
  Outer.emplace_back(Ctx.test(Pos, 1),
                     Ctx.choice(Rational(1, 2), Ctx.assign(Pos, 2),
                                Ctx.assign(Pos, 0)));
  Outer.emplace_back(Ctx.test(Pos, 2),
                     Ctx.caseOf(std::move(Inner), Ctx.assign(Pos, 1)));
  return Ctx.whileLoop(Ctx.unite(Ctx.test(Pos, 1), Ctx.test(Pos, 2)),
                       Ctx.caseOf(std::move(Outer), Ctx.skip()));
}

} // namespace

class ParallelCompileProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelCompileProperty, MatchesSerialByReferenceEquality) {
  // Randomized nested `case` programs: the pairwise reduction and the
  // serial right fold give the same ref in one manager.
  CaseFixture F(GetParam());
  FddManager M;
  for (int Round = 0; Round < 12; ++Round) {
    const Node *P = F.randomCase(3);
    EXPECT_EQ(compile(M, P), foldCompile(M, P)) << "round " << Round;
  }
}

TEST_P(ParallelCompileProperty, ReferenceEqualAfterImport) {
  CaseFixture F(GetParam());
  for (int Round = 0; Round < 8; ++Round) {
    const Node *P = F.randomCase(3);
    // The reduction and the fold in *separate* managers...
    FddManager Reduced, Folded, Target;
    FddRef R = compile(Reduced, P);
    FddRef Reference = foldCompile(Folded, P);
    // ...become reference-equal once imported into a common manager.
    EXPECT_EQ(importFdd(Target, exportFdd(Reduced, R)),
              importFdd(Target, exportFdd(Folded, Reference)))
        << "round " << Round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelCompileProperty,
                         ::testing::Values(101u, 102u, 103u, 104u, 105u));

TEST(CaseReductionTest, MatchesTheFoldAtEveryArmCount) {
  // Arm counts around the reduction's level boundaries (odd segments
  // carried up, a single arm with no merge), with a drop default — the
  // cascade is the result — and with a default that plugs into the
  // outermost fall-through. Guards overlap: arm i also fires on b=i%3.
  for (std::size_t Arms : {0u, 1u, 2u, 3u, 7u, 64u}) {
    for (bool DropDefault : {true, false}) {
      Context Ctx;
      FieldId A = Ctx.field("a");
      FieldId B = Ctx.field("b");
      std::vector<ast::CaseNode::Branch> Branches;
      for (std::size_t I = 0; I < Arms; ++I) {
        auto V = static_cast<FieldValue>(I);
        Branches.emplace_back(
            Ctx.unite(Ctx.test(A, V), Ctx.test(B, V % 3)),
            Ctx.seq(Ctx.assign(B, V + 1), Ctx.assign(A, V % 5)));
      }
      const Node *Default =
          DropDefault ? Ctx.drop()
                      : Ctx.choice(Rational(1, 4), Ctx.assign(B, 99),
                                   Ctx.skip());
      const Node *P = Ctx.caseOf(std::move(Branches), Default);
      FddManager M;
      EXPECT_EQ(compile(M, P), foldCompile(M, P))
          << Arms << " arms, " << (DropDefault ? "drop" : "choice")
          << " default";
    }
  }
}

TEST(CaseReductionTest, OverlappingGuardsKeepFirstMatch) {
  Context Ctx;
  FieldId A = Ctx.field("a");
  FieldId B = Ctx.field("b");
  auto Build = [&](bool Swapped) {
    std::vector<ast::CaseNode::Branch> Arms;
    ast::CaseNode::Branch Narrow{Ctx.test(A, 1), Ctx.assign(B, 1)};
    ast::CaseNode::Branch Wide{Ctx.unite(Ctx.test(A, 1), Ctx.test(A, 2)),
                               Ctx.assign(B, 2)};
    Arms.push_back(Swapped ? Wide : Narrow);
    Arms.push_back(Swapped ? Narrow : Wide);
    Arms.emplace_back(Ctx.skip(), Ctx.assign(B, 3));
    return Ctx.caseOf(std::move(Arms), Ctx.drop());
  };
  FddManager M;
  const Node *P = Build(false);
  FddRef R = compile(M, P);
  EXPECT_EQ(R, foldCompile(M, P));
  auto OutputB = [&](FddRef Ref, FieldValue InA) {
    Packet In(2);
    In.set(A, InA);
    auto Out = M.outputDistribution(Ref, In);
    EXPECT_EQ(Out.Outputs.size(), 1u);
    return Out.Outputs.begin()->first.get(B);
  };
  EXPECT_EQ(OutputB(R, 1), 1u); // The narrow arm comes first.
  EXPECT_EQ(OutputB(R, 2), 2u);
  EXPECT_EQ(OutputB(R, 7), 3u); // The catch-all arm.
  // Order matters: with the wide arm first, a=1 takes it instead.
  const Node *Q = Build(true);
  FddRef S = compile(M, Q);
  EXPECT_EQ(S, foldCompile(M, Q));
  EXPECT_NE(S, R);
  EXPECT_EQ(OutputB(S, 1), 2u);
}

TEST(CaseReductionTest, MatchesTheFoldOnEverySolverWithAndWithoutCache) {
  // `case` inside `while` (and loops inside `case` arms): the loop
  // solver sees the reduced diagram, so every solver kind must get the
  // fold's ref, cold and on the cache-hit path.
  const markov::SolverKind Kinds[] = {markov::SolverKind::Exact,
                                      markov::SolverKind::Direct,
                                      markov::SolverKind::Iterative};
  for (markov::SolverKind Kind : Kinds) {
    for (bool UseCache : {false, true}) {
      Context Ctx;
      for (const Node *P : {caseInsideWhile(Ctx), caseOfLoops(Ctx)}) {
        FddManager M(Kind);
        FddRef Reference = foldCompile(M, P);
        CompileCache Cache;
        CompileOptions O;
        if (UseCache) {
          O.Cache = &Cache;
          O.CacheMinNodes = 1;
        }
        EXPECT_EQ(compile(M, P, O), Reference)
            << "solver " << static_cast<int>(Kind) << ", cache "
            << UseCache;
        if (UseCache) {
          EXPECT_GT(Cache.stats().Insertions, 0u);
          EXPECT_EQ(compile(M, P, O), Reference)
              << "cache hit, solver " << static_cast<int>(Kind);
          EXPECT_GT(Cache.stats().Hits, 0u);
        }
      }
    }
  }
}

TEST(ParallelCompileTest, NestedCaseThroughWhileLoops) {
  // A case whose arms contain while loops which in turn contain cases,
  // with the loop blocks solved serially and on pools of 1 and 2 workers.
  Context Ctx;
  FieldId Pos = Ctx.field("pos");
  FieldId Sw = Ctx.field("sw");

  auto InnerCase = [&](FieldValue Bias) {
    std::vector<ast::CaseNode::Branch> Branches;
    Branches.emplace_back(Ctx.test(Pos, 1),
                          Ctx.choice(Rational(1, 2), Ctx.assign(Pos, 2),
                                     Ctx.assign(Pos, 0)));
    Branches.emplace_back(Ctx.test(Pos, 2), Ctx.assign(Pos, Bias));
    return Ctx.caseOf(std::move(Branches), Ctx.skip());
  };
  // while (pos=1 | pos=2) do <inner case>.
  auto Loop = [&](FieldValue Bias) {
    return Ctx.whileLoop(Ctx.unite(Ctx.test(Pos, 1), Ctx.test(Pos, 2)),
                         InnerCase(Bias));
  };
  std::vector<ast::CaseNode::Branch> Outer;
  Outer.emplace_back(Ctx.test(Sw, 0), Loop(0));
  Outer.emplace_back(Ctx.test(Sw, 1), Loop(3));
  Outer.emplace_back(Ctx.test(Sw, 2), Ctx.seq(Loop(0), Loop(3)));
  const Node *P = Ctx.caseOf(std::move(Outer), Ctx.drop());

  FddManager M;
  FddRef Reference = foldCompile(M, P);
  EXPECT_EQ(compile(M, P), Reference);
  FddManager Other;
  EXPECT_EQ(importFdd(M, exportFdd(Other, compile(Other, P))), Reference);
}

namespace {

/// A random substochastic chain for the concurrency tests: 6 to 25
/// transient states, out-degree 1–3 over transient states (cycles
/// included) plus an absorbing escape on some rows, so pruning leaves a
/// nonsingular system.
markov::AbsorbingChain concurrencyChain(uint64_t Seed, std::size_t I) {
  std::mt19937_64 Rng(Seed + I);
  markov::AbsorbingChain Chain;
  Chain.NumTransient = 6 + I % 20;
  Chain.NumAbsorbing = 2;
  for (std::size_t Row = 0; Row < Chain.NumTransient; ++Row) {
    std::size_t Deg = 1 + Rng() % 3;
    for (std::size_t E = 0; E < Deg; ++E)
      Chain.QEntries.push_back({Row, Rng() % Chain.NumTransient,
                                Rational(1, static_cast<int64_t>(2 * Deg))});
    if (Row % 3 == 0 || Row + 1 == Chain.NumTransient)
      Chain.REntries.push_back(
          {Row, Rng() % Chain.NumAbsorbing, Rational(1, 4)});
  }
  return Chain;
}

/// Runs Body(0) ... Body(N - 1) spread over \p NumThreads threads.
template <typename Fn>
void runOnThreads(std::size_t N, unsigned NumThreads, Fn Body) {
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&Body, N, NumThreads, T] {
      for (std::size_t I = T; I < N; I += NumThreads)
        Body(I);
    });
  for (std::thread &T : Threads)
    T.join();
}

/// Solves the 12 chains of \p Seed with the Rational engine on this
/// thread, then again with \p Solve, 12 serial solves spread over 4
/// threads, and expects the same answers.
template <typename SolveFn>
void expectConcurrentSolvesAgree(uint64_t Seed, SolveFn Solve) {
  constexpr std::size_t NumSolves = 12;
  std::vector<markov::AbsorbingChain> Chains;
  std::vector<linalg::DenseMatrix<Rational>> Expected(NumSolves);
  std::vector<char> ExpectedOk(NumSolves);
  for (std::size_t I = 0; I < NumSolves; ++I) {
    Chains.push_back(concurrencyChain(Seed, I));
    ExpectedOk[I] = markov::solveAbsorptionExact(Chains[I], Expected[I]);
  }
  std::vector<char> Agree(NumSolves, 0);
  runOnThreads(NumSolves, 4, [&](std::size_t I) {
    linalg::DenseMatrix<Rational> Got;
    bool Same = Solve(Chains[I], Got) == static_cast<bool>(ExpectedOk[I]);
    if (Same && ExpectedOk[I])
      for (std::size_t R = 0; R < Chains[I].NumTransient; ++R)
        for (std::size_t C = 0; C < Chains[I].NumAbsorbing; ++C)
          Same = Same && Got.at(R, C) == Expected[I].at(R, C);
    Agree[I] = Same ? 1 : 0;
  });
  for (std::size_t I = 0; I < NumSolves; ++I)
    EXPECT_TRUE(Agree[I]) << "solve " << I;
}

} // namespace

TEST(ParallelCompileTest, ConcurrentBlockedSolvesOnOneEngine) {
  // Serial exact block solves running at the same time on 4 threads: no
  // solve may share mutable state with another (TSan via ./ci.sh tsan).
  expectConcurrentSolvesAgree(
      0xB10C5ULL, [](const markov::AbsorbingChain &Chain,
                     linalg::DenseMatrix<Rational> &Out) {
        return markov::solveAbsorptionExact(Chain, Out);
      });
}

TEST(ParallelCompileTest, BlockedLoopsInsideCaseArms) {
  // `case` arms containing while loops: each loop solve runs block by
  // block, and fresh managers reproduce the reference diagram.
  Context Ctx;
  const Node *P = caseOfLoops(Ctx);

  FddManager Serial;
  FddRef Reference = compile(Serial, P);
  EXPECT_EQ(Reference, foldCompile(Serial, P));

  for (int Round = 0; Round < 3; ++Round) {
    FddManager M;
    FddRef Blocked = compile(M, P);
    EXPECT_EQ(importFdd(Serial, exportFdd(M, Blocked)), Reference)
        << "round " << Round;
  }
}

TEST(ParallelCompileTest, ConcurrentModularSolvesOnOneEngine) {
  // The S14 analogue of ConcurrentBlockedSolvesOnOneEngine: serial exact
  // solves with the GF(p) kernel forced on every block, on 4 threads at
  // once. Every solve draws from the lazily extended prime table, so this
  // pins its locking under ThreadSanitizer (./ci.sh tsan).
  expectConcurrentSolvesAgree(
      0x40DA7ULL, [](const markov::AbsorbingChain &Chain,
                     linalg::DenseMatrix<Rational> &Out) {
        markov::SolverStructure S;
        S.Kernel = markov::BlockKernel::Modular;
        return markov::solveAbsorptionExact(Chain, Out, nullptr, S);
      });
}

//===----------------------------------------------------------------------===//
// CompileCache accounting under concurrent insert (the S12/S16 contract:
// the persistence observer and the size counters must both survive N
// threads racing to fill the same fingerprint).
//===----------------------------------------------------------------------===//

TEST(CompileCacheRaceTest, ConcurrentSameKeyInsertsKeepAccountingExact) {
  // Export a real diagram so StoredNodes has a nontrivial expected value.
  CaseFixture F(77u);
  analysis::Verifier V;
  PortableFdd Diagram = exportFdd(V.manager(), V.compile(F.randomCase(2)));
  const std::size_t DiagramNodes = Diagram.Nodes.size();
  ASSERT_GT(DiagramNodes, 0u);

  constexpr std::size_t NumInserts = 64;
  CompileCache Cache(/*Capacity=*/8);
  std::atomic<uint64_t> Observed{0};
  Cache.setInsertObserver(
      [&Observed](const ast::ProgramHash &, markov::SolverKind,
                  const std::shared_ptr<const PortableFdd> &) {
        ++Observed;
      });

  // N workers hammer ONE key: every thread misses, compiles "its own"
  // copy, and races to insert. Before each insert, a lookup — so the
  // hit/miss counters see contention too.
  ast::ProgramHash Key{0xfeedULL, 0xfaceULL};
  runOnThreads(NumInserts, 8, [&](std::size_t) {
    std::shared_ptr<const PortableFdd> Out;
    Cache.lookup(Key, markov::SolverKind::Exact, Out);
    Cache.insert(Key, markov::SolverKind::Exact, PortableFdd(Diagram));
  });

  CompileCache::Stats S = Cache.stats();
  // Exactly one entry came into being, no matter how many raced...
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.Insertions, 1u);
  EXPECT_EQ(S.Evictions, 0u);
  // ...every other insert was deduplicated, not double-counted...
  EXPECT_EQ(S.DuplicateInserts, NumInserts - 1);
  EXPECT_EQ(S.Insertions + S.DuplicateInserts, NumInserts);
  // ...the size accounting reflects the one resident diagram, not the
  // sum of every racing copy...
  EXPECT_EQ(S.StoredNodes, DiagramNodes);
  // ...the lookups all balanced...
  EXPECT_EQ(S.Hits + S.Misses, NumInserts);
  // ...and the persistence hook fired exactly once (this is what keeps
  // the on-disk store free of duplicate records under racing workers).
  EXPECT_EQ(Observed.load(), 1u);

  // The stored value is intact and shared.
  std::shared_ptr<const PortableFdd> Hit;
  ASSERT_TRUE(Cache.lookup(Key, markov::SolverKind::Exact, Hit));
  EXPECT_EQ(Hit->Nodes.size(), DiagramNodes);
}

TEST(CompileCacheRaceTest, EvictionAccountingStaysConsistentUnderChurn) {
  CaseFixture F(78u);
  analysis::Verifier V;
  PortableFdd Diagram = exportFdd(V.manager(), V.compile(F.randomCase(1)));
  const std::size_t DiagramNodes = Diagram.Nodes.size();

  // Far more distinct keys than capacity, inserted concurrently with
  // interleaved lookups: eviction runs constantly, and the invariants
  // must hold at every quiescent point.
  constexpr std::size_t NumKeys = 96;
  CompileCache Cache(/*Capacity=*/4);
  runOnThreads(NumKeys, 8, [&](std::size_t I) {
    ast::ProgramHash Key{static_cast<uint64_t>(I), 0xabcdULL};
    Cache.insert(Key, markov::SolverKind::Exact, PortableFdd(Diagram));
    std::shared_ptr<const PortableFdd> Out;
    Cache.lookup(Key, markov::SolverKind::Exact, Out);
  });

  CompileCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Entries, 4u); // Full to capacity.
  EXPECT_EQ(S.Insertions, NumKeys);
  EXPECT_EQ(S.DuplicateInserts, 0u);
  // The load-bearing eviction invariant: every insertion either is
  // resident or was evicted, and StoredNodes tracks exactly the
  // residents (all diagrams here are the same size).
  EXPECT_EQ(S.Insertions - S.Evictions, S.Entries);
  EXPECT_EQ(S.StoredNodes, S.Entries * DiagramNodes);
}
