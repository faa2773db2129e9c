//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel-compile equivalence suite: randomized nested `case` programs
/// compiled serially and on the persistent worker-pool engine must produce
/// reference-equal canonical FDDs — in the same manager directly, and
/// across managers after an export/import round trip. Also covers the
/// verifier-owned pool's persistence and nesting through while loops.
/// Runs under ThreadSanitizer in `./ci.sh tsan`.
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "ast/Context.h"
#include "fdd/Compile.h"
#include "fdd/CompileCache.h"
#include "fdd/Export.h"
#include "markov/Absorbing.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>

using namespace mcnk;
using namespace mcnk::fdd;
using ast::Context;
using ast::Node;

namespace {

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

} // namespace

class ParallelCompileProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelCompileProperty, MatchesSerialByReferenceEquality) {
  CaseFixture F(GetParam());
  FddManager M;
  for (int Round = 0; Round < 12; ++Round) {
    const Node *P = F.randomCase(3);
    FddRef Serial = compile(M, P);
    for (unsigned Threads : {1u, 2u, 4u}) {
      ThreadPool Pool(Threads);
      CompileOptions O;
      O.ParallelCase = true;
      O.Pool = &Pool;
      EXPECT_EQ(compile(M, P, O), Serial)
          << "round " << Round << ", " << Threads << " threads";
    }
  }
}

TEST_P(ParallelCompileProperty, ReferenceEqualAfterImport) {
  CaseFixture F(GetParam());
  ThreadPool Pool(3);
  for (int Round = 0; Round < 8; ++Round) {
    const Node *P = F.randomCase(3);
    // Serial and parallel compiles in *separate* managers...
    FddManager SerialM, ParallelM, Target;
    FddRef Serial = compile(SerialM, P);
    CompileOptions O;
    O.ParallelCase = true;
    O.Pool = &Pool;
    FddRef Parallel = compile(ParallelM, P, O);
    // ...become reference-equal once imported into a common manager.
    EXPECT_EQ(importFdd(Target, exportFdd(SerialM, Serial)),
              importFdd(Target, exportFdd(ParallelM, Parallel)))
        << "round " << Round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelCompileProperty,
                         ::testing::Values(101u, 102u, 103u, 104u, 105u));

TEST(ParallelCompileTest, NestedCaseThroughWhileLoops) {
  // A case whose arms contain while loops which in turn contain cases:
  // the shape that used to force serialization (and could deadlock on a
  // per-case pool). All nesting levels now share one engine.
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
  FddRef Serial = compile(M, P);
  for (unsigned Threads : {1u, 2u}) {
    ThreadPool Pool(Threads);
    CompileOptions O;
    O.ParallelCase = true;
    O.Pool = &Pool;
    EXPECT_EQ(compile(M, P, O), Serial);
  }
}

TEST(ParallelCompileTest, GlobalPoolServesPoolLessCallers) {
  // ParallelCase with no explicit engine: the process-global pool steps
  // in; repeated compiles reuse it rather than spawning per-case pools.
  CaseFixture F(201u);
  FddManager M;
  for (int Round = 0; Round < 4; ++Round) {
    const Node *P = F.randomCase(2);
    CompileOptions O;
    O.ParallelCase = true;
    EXPECT_EQ(compile(M, P, O), compile(M, P));
  }
}

TEST(ParallelCompileTest, ConcurrentBlockedSolvesOnOneEngine) {
  // Many pooled-block exact solves race on one engine: each solve
  // schedules its condensation-DAG block tasks on the pool while sibling
  // solves (themselves running as pool tasks via parallelFor) do the
  // same. This pins down the DAG scheduler's happens-before edges —
  // dependency counters under the mutex, absorption rows published
  // through the scheduling edge — under ThreadSanitizer (./ci.sh tsan).
  ThreadPool Pool(4);
  constexpr std::size_t NumSolves = 12;
  std::vector<char> Agree(NumSolves, 0);
  Pool.parallelFor(NumSolves, [&](std::size_t I) {
    std::mt19937_64 Rng(0xB10C5ULL + I);
    markov::AbsorbingChain Chain;
    Chain.NumTransient = 6 + I % 20;
    Chain.NumAbsorbing = 2;
    for (std::size_t Row = 0; Row < Chain.NumTransient; ++Row) {
      // Out-degree 1–3 over transient states (cycles included) plus an
      // absorbing escape on some rows; weights keep each row
      // substochastic so pruning leaves a nonsingular system.
      std::size_t Deg = 1 + Rng() % 3;
      for (std::size_t E = 0; E < Deg; ++E)
        Chain.QEntries.push_back(
            {Row, Rng() % Chain.NumTransient,
             Rational(1, static_cast<int64_t>(2 * Deg))});
      if (Row % 3 == 0 || Row + 1 == Chain.NumTransient)
        Chain.REntries.push_back(
            {Row, Rng() % Chain.NumAbsorbing, Rational(1, 4)});
    }
    linalg::DenseMatrix<Rational> Serial, Pooled;
    bool OkSerial = markov::solveAbsorptionExact(Chain, Serial);
    markov::SolverStructure S;
    S.Pool = &Pool;
    bool OkPooled = markov::solveAbsorptionExact(Chain, Pooled, S);
    bool Same = OkSerial == OkPooled;
    if (Same && OkSerial)
      for (std::size_t R = 0; R < Chain.NumTransient; ++R)
        for (std::size_t C = 0; C < Chain.NumAbsorbing; ++C)
          Same = Same && Serial.at(R, C) == Pooled.at(R, C);
    Agree[I] = Same ? 1 : 0;
  });
  for (std::size_t I = 0; I < NumSolves; ++I)
    EXPECT_TRUE(Agree[I]) << "solve " << I;
}

TEST(ParallelCompileTest, BlockedLoopsNestInsideParallelCase) {
  // Parallel `case` arms containing while loops, compiled on the same
  // engine the loop solver schedules its block tasks on: worker managers
  // inherit the pooled structure, so block tasks are enqueued
  // from threads that are themselves pool tasks (help-first waiting keeps
  // the composition deadlock-free). Runs under TSan via ./ci.sh tsan.
  Context Ctx;
  FieldId Pos = Ctx.field("pos");
  FieldId Sw = Ctx.field("sw");
  // while (pos=1 | pos=2) { if pos=1 then coin(pos:=2 / pos:=0)
  //                         else coin(pos:=1 / pos:=3) }
  // The two loop states reach each other, so the chain has a genuine
  // multi-state strongly connected class.
  auto Loop = [&](int Num, int Den) {
    return Ctx.whileLoop(
        Ctx.unite(Ctx.test(Pos, 1), Ctx.test(Pos, 2)),
        Ctx.ite(Ctx.test(Pos, 1),
                Ctx.choice(Rational(Num, Den), Ctx.assign(Pos, 2),
                           Ctx.assign(Pos, 0)),
                Ctx.choice(Rational(Num, Den), Ctx.assign(Pos, 1),
                           Ctx.assign(Pos, 3))));
  };
  std::vector<ast::CaseNode::Branch> Arms;
  Arms.emplace_back(Ctx.test(Sw, 0), Loop(1, 2));
  Arms.emplace_back(Ctx.test(Sw, 1), Loop(1, 3));
  Arms.emplace_back(Ctx.test(Sw, 2), Ctx.seq(Loop(1, 2), Loop(2, 3)));
  Arms.emplace_back(Ctx.test(Sw, 3), Loop(3, 4));
  const Node *P = Ctx.caseOf(std::move(Arms), Ctx.drop());

  FddManager Serial;
  FddRef Reference = compile(Serial, P);

  ThreadPool Pool(4);
  markov::SolverStructure S;
  S.Pool = &Pool;
  CompileOptions O;
  O.ParallelCase = true;
  O.Pool = &Pool;
  for (int Round = 0; Round < 3; ++Round) {
    FddManager M;
    M.setSolverStructure(S);
    FddRef Blocked = compile(M, P, O);
    EXPECT_EQ(importFdd(Serial, exportFdd(M, Blocked)), Reference)
        << "round " << Round;
  }
}

TEST(ParallelCompileTest, ConcurrentModularSolvesOnOneEngine) {
  // The S14 analogue of ConcurrentBlockedSolvesOnOneEngine: many modular
  // solves race on one engine, each fanning its per-prime batch out via
  // parallelFor while sibling solves (themselves pool tasks) do the same,
  // with block tasks on the same pool on top. The
  // lazily extended prime table is shared by every worker, so this pins
  // its locking and the per-prime result slots under ThreadSanitizer
  // (./ci.sh tsan).
  ThreadPool Pool(4);
  constexpr std::size_t NumSolves = 12;
  std::vector<char> Agree(NumSolves, 0);
  Pool.parallelFor(NumSolves, [&](std::size_t I) {
    std::mt19937_64 Rng(0x40DA7ULL + I);
    markov::AbsorbingChain Chain;
    Chain.NumTransient = 6 + I % 20;
    Chain.NumAbsorbing = 2;
    for (std::size_t Row = 0; Row < Chain.NumTransient; ++Row) {
      std::size_t Deg = 1 + Rng() % 3;
      for (std::size_t E = 0; E < Deg; ++E)
        Chain.QEntries.push_back(
            {Row, Rng() % Chain.NumTransient,
             Rational(1, static_cast<int64_t>(2 * Deg))});
      if (Row % 3 == 0 || Row + 1 == Chain.NumTransient)
        Chain.REntries.push_back(
            {Row, Rng() % Chain.NumAbsorbing, Rational(1, 4)});
    }
    linalg::DenseMatrix<Rational> Exact, Modular;
    bool OkExact = markov::solveAbsorptionExact(Chain, Exact);
    markov::SolverStructure S;
    S.Pool = &Pool;
    bool OkModular = markov::solveAbsorptionModular(Chain, Modular, S);
    bool Same = OkExact == OkModular;
    if (Same && OkExact)
      for (std::size_t R = 0; R < Chain.NumTransient; ++R)
        for (std::size_t C = 0; C < Chain.NumAbsorbing; ++C)
          Same = Same && Exact.at(R, C) == Modular.at(R, C);
    Agree[I] = Same ? 1 : 0;
  });
  for (std::size_t I = 0; I < NumSolves; ++I)
    EXPECT_TRUE(Agree[I]) << "solve " << I;
}

TEST(ParallelCompileTest, VerifierOwnsOnePersistentPool) {
  CaseFixture F(301u);
  analysis::Verifier V;
  ThreadPool &Pool = V.compilePool(2);
  EXPECT_EQ(Pool.numThreads(), 2u);
  // Same width → same engine across compiles.
  EXPECT_EQ(&V.compilePool(2), &Pool);
  EXPECT_EQ(&V.compilePool(0), &Pool);
  const Node *P = F.randomCase(2);
  FddRef First = V.compile(P, /*Parallel=*/true, /*Threads=*/2);
  FddRef Second = V.compile(P, /*Parallel=*/true, /*Threads=*/2);
  FddRef SerialRef = V.compile(P);
  EXPECT_EQ(First, Second);
  EXPECT_EQ(First, SerialRef);
  // An explicit different width replaces the engine.
  ThreadPool &Wider = V.compilePool(3);
  EXPECT_EQ(Wider.numThreads(), 3u);
}

//===----------------------------------------------------------------------===//
// CompileCache accounting under concurrent insert (the S12/S16 contract:
// the persistence observer and the size counters must both survive N pool
// workers racing to fill the same fingerprint).
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
  ThreadPool Pool(8);
  Pool.parallelFor(NumInserts, [&](std::size_t) {
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
  ThreadPool Pool(8);
  Pool.parallelFor(NumKeys, [&](std::size_t I) {
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
