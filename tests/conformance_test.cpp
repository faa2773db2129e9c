//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-engine conformance suite (docs/ARCHITECTURE.md S11): seeded
/// random guarded programs and the full scenario registry are pushed
/// through every backend — native FDD under Exact/Direct/Iterative
/// solvers (serial and parallel), the prismlite pipeline, the exhaustive
/// baseline, and (for verdicts) the reference set semantics — with zero
/// tolerated disagreements. Also home of the subsystem's property tests:
/// the 500-program Printer -> Parser round-trip, portable-FDD
/// export/import round-trips (including cross-manager), LoopSolveStats
/// invariants on the registry's loop-bearing models, and registry
/// determinism.
///
/// Seeds print at the start of each randomized test; reproduce a failure
/// with MCNK_FUZZ_SEED. MCNK_FUZZ_ITERS scales the random-program sweep
/// (./ci.sh fuzz raises it for longer local runs).
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "ast/Printer.h"
#include "ast/Traversal.h"
#include "fdd/CompileCache.h"
#include "fdd/Export.h"
#include "gen/Oracle.h"
#include "gen/ProgramGen.h"
#include "gen/Scenario.h"
#include "parser/Parser.h"
#include "routing/Routing.h"
#include "topology/Topology.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

using namespace mcnk;
using ast::Context;
using ast::Node;

namespace {

uint64_t envSeed(const char *Name, uint64_t Default) {
  const char *Value = std::getenv(Name);
  if (!Value || !*Value)
    return Default;
  return std::strtoull(Value, nullptr, 0);
}

unsigned envUnsigned(const char *Name, unsigned Default) {
  const char *Value = std::getenv(Name);
  if (!Value || !*Value)
    return Default;
  return static_cast<unsigned>(std::strtoul(Value, nullptr, 10));
}

void reportDisagreements(const gen::OracleReport &R) {
  for (const std::string &D : R.Disagreements)
    ADD_FAILURE() << D;
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential conformance: random programs + scenario registry
//===----------------------------------------------------------------------===//

// Together these tests run well over 200 seeded scenario/program cases
// (default: 172 random programs + 44 verdict pairs across the four
// shards + the ~30-entry registry), each cross-checking all five
// engines and serial-vs-parallel compilation. Sharding exists purely so
// `ctest -j` can spread the sweep over cores; seeds stay decorrelated
// and reproducible per shard.

class RandomProgramShard : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomProgramShard, AllEnginesAgree) {
  unsigned Shard = GetParam();
  uint64_t Base = envSeed("MCNK_FUZZ_SEED", 0xA11CEULL);
  unsigned Total = envUnsigned("MCNK_FUZZ_ITERS", 172);
  uint64_t Seed = Prng(Base).deriveSeed(Shard);
  gen::FuzzOptions Fuzz;
  Fuzz.Iterations = (Total + 3) / 4;
  // The reproduction knob takes the BASE seed (each shard re-derives its
  // stream from it), so that is what the banner advertises.
  std::printf("[conformance] shard %u of base seed 0x%llx, %u iterations; "
              "reproduce with MCNK_FUZZ_SEED=0x%llx and this shard's "
              "--gtest_filter\n",
              Shard, static_cast<unsigned long long>(Base),
              Fuzz.Iterations, static_cast<unsigned long long>(Base));

  gen::OracleReport R = gen::fuzzPrograms(Seed, Fuzz, gen::OracleOptions());
  reportDisagreements(R);
  std::printf("[conformance] shard %u random programs: %s\n", Shard,
              R.summary().c_str());
  // Programs plus the every-fourth verdict pairs.
  EXPECT_GE(R.NumCases, Fuzz.Iterations + Fuzz.Iterations / 4);
  EXPECT_GE(R.NumChecks, 10u * Fuzz.Iterations);
}

INSTANTIATE_TEST_SUITE_P(Shards, RandomProgramShard,
                         ::testing::Values(0u, 1u, 2u, 3u));

TEST(ConformanceTest, ScenarioRegistryDifferential) {
  gen::OracleReport R =
      gen::runRegistry(gen::RegistryOptions(), gen::OracleOptions());
  reportDisagreements(R);
  std::printf("[conformance] scenario registry: %s\n", R.summary().c_str());
  EXPECT_GE(R.NumCases, 25u);
}

TEST(ConformanceTest, RegistryIsDeterministic) {
  std::vector<gen::ScenarioSpec> A = gen::buildRegistry();
  std::vector<gen::ScenarioSpec> B = gen::buildRegistry();
  ASSERT_EQ(A.size(), B.size());
  for (std::size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Name, B[I].Name);
    // Building the same spec twice in fresh contexts yields the same
    // program, byte for byte.
    Context CtxA, CtxB;
    gen::Scenario SA = A[I].Build(CtxA);
    gen::Scenario SB = B[I].Build(CtxB);
    EXPECT_EQ(ast::print(SA.Program, CtxA.fields()),
              ast::print(SB.Program, CtxB.fields()))
        << A[I].Name;
    EXPECT_EQ(SA.Inputs.size(), SB.Inputs.size());
  }
}

//===----------------------------------------------------------------------===//
// Cached sweep vs uncached engine on a long-lived verifier (S12)
//===----------------------------------------------------------------------===//

// One persistent cache-backed verifier survives 200 seeded programs plus
// the whole registry — the "long-lived serving" shape the compile cache
// and gc() exist for. Every compile must be reference-equal to a fresh
// uncached engine's diagram, the hit path must reproduce the cold ref,
// and periodic gc() of the shared manager must never change an answer.
TEST(ConformanceTest, CachedSweepMatchesUncachedOn200SeededCases) {
  uint64_t Seed = envSeed("MCNK_FUZZ_SEED", 0xCAC4EULL);
  std::printf("[conformance] cached-sweep seed 0x%llx\n",
              static_cast<unsigned long long>(Seed));
  Prng Master(Seed);
  gen::GenOptions G;

  fdd::CompileCache Shared;
  analysis::Verifier Cached(markov::SolverKind::Exact);
  Cached.setCompileCache(&Shared);

  std::size_t Cases = 0;
  auto CheckOne = [&](const ast::Node *Program, const std::string &Label) {
    ++Cases;
    fdd::FddRef Cold = Cached.compile(Program);
    ASSERT_EQ(Cached.compile(Program), Cold)
        << Label << ": hit path diverged from cold compile";
    analysis::Verifier Uncached(markov::SolverKind::Exact);
    fdd::FddRef Reference = Uncached.compile(Program);
    ASSERT_EQ(fdd::importFdd(Cached.manager(),
                             fdd::exportFdd(Uncached.manager(), Reference)),
              Cold)
        << Label << ": cached compile != uncached engine";
    // Periodically compact the long-lived manager down to the current
    // root; the surviving diagram must still be the canonical one.
    if (Cases % 25 == 0) {
      std::size_t Before = Cached.manager().numInnerNodes();
      fdd::GcStats GS = Cached.manager().gc({&Cold});
      EXPECT_LE(Cached.manager().numInnerNodes(), Before) << Label;
      EXPECT_EQ(GS.LiveInners, Cached.manager().numInnerNodes());
      ASSERT_EQ(
          fdd::importFdd(Cached.manager(),
                         fdd::exportFdd(Uncached.manager(), Reference)),
          Cold)
          << Label << ": gc changed the live root's identity";
    }
  };

  for (unsigned I = 0; I < 200; ++I) {
    Context Ctx;
    Prng Rng(Master.deriveSeed(I));
    const Node *Program = gen::generateProgram(Ctx, Rng, G);
    CheckOne(Program, "case " + std::to_string(I));
  }
  for (const gen::ScenarioSpec &Spec : gen::buildRegistry()) {
    Context Ctx;
    gen::Scenario S = Spec.Build(Ctx);
    CheckOne(S.Program, Spec.Name);
  }
  fdd::CompileCache::Stats S = Shared.stats();
  std::printf("[conformance] cached sweep: %zu cases, %llu hits / %llu "
              "misses, %zu entries\n",
              Cases, static_cast<unsigned long long>(S.Hits),
              static_cast<unsigned long long>(S.Misses), S.Entries);
  EXPECT_GE(Cases, 200u);
  EXPECT_GT(S.Hits, 0u);
}

//===----------------------------------------------------------------------===//
// Printer -> Parser round-trip on 500 seeded random programs
//===----------------------------------------------------------------------===//

TEST(ConformanceTest, PrinterParserRoundTrip500) {
  uint64_t Seed = envSeed("MCNK_FUZZ_SEED", 0x500ULL);
  std::printf("[conformance] round-trip seed 0x%llx\n",
              static_cast<unsigned long long>(Seed));
  Prng Master(Seed);
  gen::GenOptions G;
  G.MaxDepth = 5; // Syntax-only: deeper terms are free.
  for (unsigned I = 0; I < 500; ++I) {
    Context Ctx;
    Prng Rng(Master.deriveSeed(I));
    const Node *P = gen::generateProgram(Ctx, Rng, G);
    ASSERT_TRUE(ast::isGuarded(P)) << "generator left the guarded fragment";
    std::string Printed = ast::print(P, Ctx.fields());
    parser::ParseResult PR = parser::parseProgram(Printed, Ctx);
    ASSERT_TRUE(PR.ok()) << "iteration " << I << ": "
                         << PR.Diagnostics.front().render() << "\n"
                         << Printed;
    EXPECT_TRUE(ast::structurallyEqual(P, PR.Program))
        << "iteration " << I << " round-trip changed structure:\n"
        << Printed;
    EXPECT_TRUE(ast::isGuarded(PR.Program))
        << "round-trip left the guarded fragment";
  }
}

//===----------------------------------------------------------------------===//
// Portable-FDD round-trips on randomly generated diagrams
//===----------------------------------------------------------------------===//

TEST(ConformanceTest, PortableFddRoundTripRandomDiagrams) {
  uint64_t Seed = envSeed("MCNK_FUZZ_SEED", 0xF00DULL);
  Prng Master(Seed);
  gen::GenOptions G;
  for (unsigned I = 0; I < 60; ++I) {
    Context Ctx;
    Prng Rng(Master.deriveSeed(I));
    const Node *P = gen::generateProgram(Ctx, Rng, G);
    analysis::Verifier V;
    fdd::FddRef Ref = V.compile(P);

    // Same-manager: import must dedup onto the existing nodes.
    fdd::PortableFdd Portable = fdd::exportFdd(V.manager(), Ref);
    EXPECT_EQ(fdd::importFdd(V.manager(), Portable), Ref);

    // Cross-manager: a fresh manager re-canonicalizes (hash-consing from
    // scratch); importing twice must intern to the same reference, and
    // shipping the re-export back must land on the original.
    fdd::FddManager Fresh(markov::SolverKind::Exact);
    fdd::FddRef First = fdd::importFdd(Fresh, Portable);
    fdd::FddRef Second = fdd::importFdd(Fresh, Portable);
    EXPECT_EQ(First, Second) << "re-import is not reference-stable";
    fdd::PortableFdd Reexported = fdd::exportFdd(Fresh, First);
    EXPECT_EQ(fdd::importFdd(V.manager(), Reexported), Ref)
        << "cross-manager round-trip lost canonicity (iteration " << I
        << ")";

    // A manager whose pools already hold unrelated diagrams must dedup
    // imports against them the same way.
    analysis::Verifier Busy;
    Context CtxB;
    Prng RngB(Master.deriveSeed(0x20000 + I));
    Busy.compile(gen::generateProgram(CtxB, RngB, G));
    fdd::FddRef Imported = fdd::importFdd(Busy.manager(), Portable);
    fdd::FddRef Again = fdd::importFdd(Busy.manager(), Portable);
    EXPECT_EQ(Imported, Again);
  }
}

//===----------------------------------------------------------------------===//
// LoopSolveStats invariants
//===----------------------------------------------------------------------===//

// The generic invariants (NumTransient <= NumStates, dense-Q bound,
// positive delivery implies an absorbing class, ...) are asserted on
// every loop-bearing registry scenario by the oracle itself — see the
// LoopBearing block in gen/Oracle.cpp, exercised above by
// ScenarioRegistryDifferential. Here we pin the *exact* class counts on
// the one model small enough to predict by hand.

TEST(ConformanceTest, LoopSolveStatsChainClassCounts) {
  // The chain model's loop chain is small enough to predict exactly: the
  // only state field is sw (the sampled up flag is resolved by sequential
  // composition and re-canonicalized, leaving an output-only decoration).
  // Symbolic sw values: 4K switches + the Delivered sentinel + wildcard.
  // Transient = everything but sw=Delivered; one absorbing class; Q holds
  // split->upper, split->lower, upper->join, lower->join per diamond plus
  // the K-1 inner join->split hops.
  for (unsigned K = 1; K <= 3; ++K) {
    Context Ctx;
    topology::ChainLayout L;
    topology::makeChain(K, L);
    routing::NetworkModel M =
        routing::buildChainModel(L, Rational(1, 10), Ctx);
    analysis::Verifier V;
    V.compile(M.Program);
    const fdd::LoopSolveStats &LS = V.manager().lastLoopStats();
    EXPECT_EQ(LS.NumStates, 4 * K + 2u) << "K=" << K;
    EXPECT_EQ(LS.NumTransient, 4 * K + 1u) << "K=" << K;
    EXPECT_EQ(LS.NumAbsorbing, 1u) << "K=" << K;
    EXPECT_EQ(LS.NumQEntries, 5 * K - 1u) << "K=" << K;
  }
}

TEST(ConformanceTest, BlockedChainStatsSumToMonolithic) {
  // The chain model's transient graph is acyclic (packets only move
  // forward), so after pruning the unreachable wildcard class every kept
  // state is its own strongly connected class: the solver must report 4K
  // singleton blocks whose per-block counts sum exactly to the totals of
  // the monolithic system, which is small enough to predict by hand (see
  // LoopSolveStatsChainClassCounts). The monolithic reference answer is
  // the closed form (1 - pfail/2)^K.
  for (unsigned K = 1; K <= 3; ++K) {
    Context Ctx;
    topology::ChainLayout L;
    topology::makeChain(K, L);
    routing::NetworkModel M =
        routing::buildChainModel(L, Rational(1, 10), Ctx);

    analysis::Verifier V;
    fdd::FddRef PS = V.compile(M.Program);
    const fdd::LoopSolveStats &LS = V.manager().lastLoopStats();

    // The monolithic system: the wildcard class is pruned (4K states kept
    // of 4K+1 transient) and every kept Q entry survives.
    EXPECT_EQ(LS.NumSolved, 4 * K) << "K=" << K;
    EXPECT_EQ(LS.NumSolvedQ, 5 * K - 1u) << "K=" << K;
    Rational Closed(1);
    for (unsigned D = 0; D < K; ++D)
      Closed *= Rational(1) - Rational(1, 20);
    EXPECT_EQ(V.deliveryProbability(PS, M.ingressPacket(0, Ctx)), Closed)
        << "K=" << K;

    // ...decomposed into singleton classes.
    EXPECT_EQ(LS.NumBlocks, 4 * K) << "K=" << K;
    EXPECT_EQ(LS.MaxBlockSize, 1u) << "K=" << K;

    // Per-block counts sum to the totals.
    ASSERT_EQ(LS.Blocks.size(), LS.NumBlocks) << "K=" << K;
    std::size_t States = 0, QEntries = 0, Ops = 0, Fill = 0;
    for (const markov::BlockMetrics &B : LS.Blocks) {
      EXPECT_EQ(B.NumStates, 1u) << "K=" << K;
      States += B.NumStates;
      QEntries += B.NumQEntries;
      Ops += B.EliminationOps;
      Fill += B.FillIn;
    }
    EXPECT_EQ(States, LS.NumSolved) << "K=" << K;
    EXPECT_EQ(QEntries, LS.NumSolvedQ) << "K=" << K;
    EXPECT_EQ(Ops, LS.EliminationOps) << "K=" << K;
    EXPECT_EQ(Fill, LS.FillIn) << "K=" << K;
    // Singleton blocks without self-loops are identity systems: no
    // elimination work and no fill-in at all (the monolithic elimination
    // of the same 4K-state system does strictly more).
    EXPECT_EQ(LS.FillIn, 0u) << "K=" << K;
    EXPECT_EQ(LS.EliminationOps, 0u) << "K=" << K;
  }
}

TEST(ConformanceTest, ModularPrimeWalkSpansTheWholeChain) {
  // CRT, reconstruction and verification run once over the whole
  // solution, never per block: the K=128 diamond chain (512 singleton
  // blocks) takes exactly the primes and reconstruction width of one
  // whole-system solve. A per-block prime walk would take hundreds of
  // times more primes.
  Context Ctx;
  topology::ChainLayout L;
  topology::makeChain(128, L);
  routing::NetworkModel M =
      routing::buildChainModel(L, Rational(1, 1000), Ctx);
  analysis::Verifier V(markov::SolverKind::ModularExact);
  V.compile(M.Program);
  const fdd::LoopSolveStats &LS = V.manager().lastLoopStats();
  EXPECT_EQ(LS.NumBlocks, 512u);
  EXPECT_EQ(LS.NumPrimes, 47u);
  EXPECT_EQ(LS.ReconstructionBits, 2914u);
  EXPECT_EQ(LS.ModularFallbacks, 0u);
}
