//===----------------------------------------------------------------------===//
///
/// \file
/// Absorbing Markov chain tests: textbook chains with known closed forms
/// (gambler's ruin, §4's coin-flip example), cross-engine agreement between
/// exact, direct, and iterative solvers, and singularity detection for
/// chains with unreachable absorption.
///
//===----------------------------------------------------------------------===//

#include "markov/Absorbing.h"

#include "markov/Scc.h"
#include "support/ModArith.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

using namespace mcnk;
using namespace mcnk::markov;
using linalg::DenseMatrix;

namespace {

/// Gambler's ruin on {0..N} with win probability P: transient 1..N-1,
/// absorbing 0 and N. Absorption probability into N starting from K is
/// ((q/p)^K - 1)/((q/p)^N - 1) for p != q.
AbsorbingChain gamblersRuin(std::size_t N, const Rational &P) {
  AbsorbingChain Chain;
  Chain.NumTransient = N - 1;
  Chain.NumAbsorbing = 2; // 0 = ruin, 1 = win.
  Rational Q = Rational(1) - P;
  for (std::size_t K = 1; K < N; ++K) {
    std::size_t Row = K - 1;
    if (K + 1 < N)
      Chain.QEntries.push_back({Row, Row + 1, P});
    else
      Chain.REntries.push_back({Row, 1, P});
    if (K - 1 >= 1)
      Chain.QEntries.push_back({Row, Row - 1, Q});
    else
      Chain.REntries.push_back({Row, 0, Q});
  }
  return Chain;
}

} // namespace

TEST(AbsorbingTest, CoinFlipLoopFromPaper) {
  // The §4 example: p* with p = (f<-0 ⊕_1/2 f<-1) keeps flipping; from the
  // small-step chain's perspective a single state loops with prob 1/2 and
  // absorbs into each of two outcomes with prob 1/4... Simplified model:
  // one transient state, self-loop 1/2, absorption 1/4 + 1/4.
  AbsorbingChain Chain;
  Chain.NumTransient = 1;
  Chain.NumAbsorbing = 2;
  Chain.QEntries.push_back({0, 0, Rational(1, 2)});
  Chain.REntries.push_back({0, 0, Rational(1, 4)});
  Chain.REntries.push_back({0, 1, Rational(1, 4)});
  ASSERT_TRUE(rowsAreStochastic(Chain));

  DenseMatrix<Rational> A;
  ASSERT_TRUE(solveAbsorptionExact(Chain, A));
  EXPECT_EQ(A.at(0, 0), Rational(1, 2));
  EXPECT_EQ(A.at(0, 1), Rational(1, 2));
}

TEST(AbsorbingTest, GamblersRuinExactMatchesClosedForm) {
  // N=5, p=2/3: ratio r = q/p = 1/2; Pr[win | start K] =
  // (1 - r^K)/(1 - r^N).
  AbsorbingChain Chain = gamblersRuin(5, Rational(2, 3));
  ASSERT_TRUE(rowsAreStochastic(Chain));
  DenseMatrix<Rational> A;
  ASSERT_TRUE(solveAbsorptionExact(Chain, A));
  Rational RatioPow(1);
  const Rational Ratio(1, 2);
  Rational Denom = Rational(1) - Rational(1, 32); // 1 - r^5
  for (std::size_t K = 1; K <= 4; ++K) {
    RatioPow *= Ratio;
    Rational Expected = (Rational(1) - RatioPow) / Denom;
    EXPECT_EQ(A.at(K - 1, 1), Expected) << "start " << K;
    // Rows of the absorption matrix are stochastic (total absorption = 1).
    EXPECT_EQ(A.at(K - 1, 0) + A.at(K - 1, 1), Rational(1));
  }
}

TEST(AbsorbingTest, EnginesAgree) {
  AbsorbingChain Chain = gamblersRuin(8, Rational(3, 5));
  DenseMatrix<Rational> Exact;
  ASSERT_TRUE(solveAbsorptionExact(Chain, Exact));

  DenseMatrix<double> Direct, Iterative;
  ASSERT_TRUE(solveAbsorptionDouble(Chain, Direct, SolverKind::Direct));
  ASSERT_TRUE(solveAbsorptionDouble(Chain, Iterative, SolverKind::Iterative));

  for (std::size_t R = 0; R < Chain.NumTransient; ++R)
    for (std::size_t C = 0; C < Chain.NumAbsorbing; ++C) {
      double Reference = Exact.at(R, C).toDouble();
      EXPECT_NEAR(Direct.at(R, C), Reference, 1e-10);
      EXPECT_NEAR(Iterative.at(R, C), Reference, 1e-9);
    }
}

TEST(AbsorbingTest, SubStochasticRowsLoseMass) {
  // A row that drops mass (models a drop action): absorption sums < 1.
  AbsorbingChain Chain;
  Chain.NumTransient = 1;
  Chain.NumAbsorbing = 1;
  Chain.QEntries.push_back({0, 0, Rational(1, 2)});
  Chain.REntries.push_back({0, 0, Rational(1, 4)});
  EXPECT_FALSE(rowsAreStochastic(Chain));
  DenseMatrix<Rational> A;
  ASSERT_TRUE(solveAbsorptionExact(Chain, A));
  // Σ (1/2)^n * 1/4 = 1/2.
  EXPECT_EQ(A.at(0, 0), Rational(1, 2));
}

TEST(AbsorbingTest, DivergingStatesDropAllMass) {
  // Two transient states that only communicate with each other: absorption
  // is unreachable, so the absorption probabilities are zero. ProbNetKAT
  // interprets the lost mass as landing on ∅ (the loop diverges ≡ drop).
  AbsorbingChain Chain;
  Chain.NumTransient = 2;
  Chain.NumAbsorbing = 1;
  Chain.QEntries.push_back({0, 1, Rational(1)});
  Chain.QEntries.push_back({1, 0, Rational(1)});
  DenseMatrix<Rational> A;
  ASSERT_TRUE(solveAbsorptionExact(Chain, A));
  EXPECT_EQ(A.at(0, 0), Rational(0));
  EXPECT_EQ(A.at(1, 0), Rational(0));
  DenseMatrix<double> AD;
  ASSERT_TRUE(solveAbsorptionDouble(Chain, AD, SolverKind::Direct));
  EXPECT_DOUBLE_EQ(AD.at(0, 0), 0.0);
  ASSERT_TRUE(solveAbsorptionDouble(Chain, AD, SolverKind::Iterative));
  EXPECT_DOUBLE_EQ(AD.at(1, 0), 0.0);
}

TEST(AbsorbingTest, PartiallyDivergingChain) {
  // State 0 flips a fair coin: heads -> absorb, tails -> state 1 which
  // loops forever. Absorption probability from state 0 is exactly 1/2.
  AbsorbingChain Chain;
  Chain.NumTransient = 2;
  Chain.NumAbsorbing = 1;
  Chain.QEntries.push_back({0, 1, Rational(1, 2)});
  Chain.QEntries.push_back({1, 1, Rational(1)});
  Chain.REntries.push_back({0, 0, Rational(1, 2)});
  DenseMatrix<Rational> A;
  ASSERT_TRUE(solveAbsorptionExact(Chain, A));
  EXPECT_EQ(A.at(0, 0), Rational(1, 2));
  EXPECT_EQ(A.at(1, 0), Rational(0));
  DenseMatrix<double> AD;
  ASSERT_TRUE(solveAbsorptionDouble(Chain, AD, SolverKind::Direct));
  EXPECT_NEAR(AD.at(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(AD.at(1, 0), 0.0, 1e-12);
}

TEST(AbsorbingTest, EmptyChainTrivial) {
  AbsorbingChain Chain;
  Chain.NumTransient = 0;
  Chain.NumAbsorbing = 3;
  DenseMatrix<double> A;
  ASSERT_TRUE(solveAbsorptionDouble(Chain, A, SolverKind::Direct));
  EXPECT_EQ(A.numRows(), 0u);
  EXPECT_EQ(A.numCols(), 3u);
}

/// Randomized chains: the exact sparse Gauss-Jordan engine and the sparse
/// LU engine must agree entry-wise, and no row may exceed total mass one.
class AbsorbingEngineProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(AbsorbingEngineProperty, ExactAndDirectAgree) {
  std::mt19937_64 Rng(GetParam());
  for (int Round = 0; Round < 40; ++Round) {
    std::uniform_int_distribution<std::size_t> Size(2, 40);
    std::size_t NT = Size(Rng), NA = 2;
    AbsorbingChain Chain;
    Chain.NumTransient = NT;
    Chain.NumAbsorbing = NA;
    std::uniform_int_distribution<int> Den(2, 6);
    std::uniform_int_distribution<std::size_t> Col(0, NT - 1);
    for (std::size_t R = 0; R < NT; ++R) {
      int D = Den(Rng);
      for (int I = 0; I < D; ++I) {
        Rational W(1, D);
        if (I == 0 && (Rng() & 3) == 0)
          Chain.REntries.push_back(
              {R, static_cast<std::size_t>(Rng() % NA), W});
        else if ((Rng() & 7) == 0)
          continue; // Dropped mass: substochastic row.
        else
          Chain.QEntries.push_back({R, Col(Rng), W});
      }
    }
    DenseMatrix<Rational> Exact;
    DenseMatrix<double> Direct;
    ASSERT_TRUE(solveAbsorptionExact(Chain, Exact));
    ASSERT_TRUE(solveAbsorptionDouble(Chain, Direct, SolverKind::Direct));
    for (std::size_t R = 0; R < NT; ++R) {
      Rational RowSum;
      for (std::size_t A = 0; A < NA; ++A) {
        EXPECT_NEAR(Exact.at(R, A).toDouble(), Direct.at(R, A), 1e-8);
        RowSum += Exact.at(R, A);
      }
      EXPECT_LE(RowSum, Rational(1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AbsorbingEngineProperty,
                         ::testing::Values(61u, 62u, 63u, 64u));

namespace {

/// A random chain in the shape the engine property suite uses: rows split
/// mass 1/D over random transient columns, absorbing exits, and a dash of
/// dropped mass so some rows are substochastic.
AbsorbingChain randomChain(std::mt19937_64 &Rng) {
  std::uniform_int_distribution<std::size_t> Size(2, 40);
  std::size_t NT = Size(Rng), NA = 2;
  AbsorbingChain Chain;
  Chain.NumTransient = NT;
  Chain.NumAbsorbing = NA;
  std::uniform_int_distribution<int> Den(2, 6);
  std::uniform_int_distribution<std::size_t> Col(0, NT - 1);
  for (std::size_t R = 0; R < NT; ++R) {
    int D = Den(Rng);
    for (int I = 0; I < D; ++I) {
      Rational W(1, D);
      if (I == 0 && (Rng() & 3) == 0)
        Chain.REntries.push_back({R, static_cast<std::size_t>(Rng() % NA), W});
      else if ((Rng() & 7) == 0)
        continue; // Dropped mass: substochastic row.
      else
        Chain.QEntries.push_back({R, Col(Rng), W});
    }
  }
  return Chain;
}

/// Per-block sums of a SolveMetrics must reproduce the totals (the S13
/// stats contract, in monolithic and blocked mode alike).
void expectMetricsConsistent(const SolveMetrics &M) {
  EXPECT_EQ(M.Blocks.size(), M.NumBlocks);
  std::size_t States = 0, QEntries = 0, Ops = 0, Fill = 0, MaxSize = 0;
  for (const BlockMetrics &B : M.Blocks) {
    States += B.NumStates;
    QEntries += B.NumQEntries;
    Ops += B.EliminationOps;
    Fill += B.FillIn;
    MaxSize = std::max(MaxSize, B.NumStates);
  }
  EXPECT_EQ(States, M.NumSolved);
  EXPECT_EQ(QEntries, M.NumSolvedQ);
  EXPECT_EQ(Ops, M.EliminationOps);
  EXPECT_EQ(Fill, M.FillIn);
  EXPECT_EQ(MaxSize, M.MaxBlockSize);
}

/// What the test-local monolithic reference solved.
struct MonolithicStats {
  std::size_t NumSolved = 0;
  std::size_t NumSolvedQ = 0;
  std::size_t EliminationOps = 0;
};

/// Test-local monolithic reference: the whole pruned system, assembled as
/// one I - Q and one R and eliminated by the exact kernel in a single
/// call, with no block decomposition — the unique rational solution the
/// block pipeline must reproduce exactly.
bool solveMonolithic(const AbsorbingChain &Chain, DenseMatrix<Rational> &Out,
                     MonolithicStats &Stats) {
  ChainPruning P = pruneUnreachableStates(Chain);
  std::size_t NK = P.NumKept;
  Out = DenseMatrix<Rational>(Chain.NumTransient, Chain.NumAbsorbing);
  Stats = MonolithicStats();
  Stats.NumSolved = NK;
  std::vector<std::map<std::size_t, Rational>> Rows(NK);
  DenseMatrix<Rational> Rhs(NK, Chain.NumAbsorbing);
  for (std::size_t K = 0; K < NK; ++K)
    Rows[K][K] = Rational(1);
  for (const RationalTriplet &E : Chain.QEntries) {
    if (E.Value.isZero() || !P.CanReach[E.Row] || !P.CanReach[E.Col])
      continue;
    ++Stats.NumSolvedQ;
    Rational &Cell = Rows[P.Compact[E.Row]][P.Compact[E.Col]];
    Cell -= E.Value;
    if (Cell.isZero())
      Rows[P.Compact[E.Row]].erase(P.Compact[E.Col]);
  }
  for (const RationalTriplet &E : Chain.REntries)
    if (P.CanReach[E.Row])
      Rhs.at(P.Compact[E.Row], E.Col) += E.Value;
  std::size_t Fill = 0;
  if (!detail::eliminateRationalSystem(Rows, Rhs, Stats.EliminationOps,
                                       Fill))
    return false;
  for (std::size_t K = 0; K < NK; ++K)
    for (std::size_t C = 0; C < Chain.NumAbsorbing; ++C)
      Out.at(P.Original[K], C) = Rhs.at(K, C);
  return true;
}

} // namespace

/// Seeded SCC-decomposition properties: the blocks are a valid partition,
/// the block relation is exactly mutual reachability, and the condensation
/// numbering is reverse-topological (hence acyclic).
class SccProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(SccProperty, DecompositionIsCorrect) {
  std::mt19937_64 Rng(GetParam());
  for (int Round = 0; Round < 30; ++Round) {
    std::uniform_int_distribution<std::size_t> Size(1, 36);
    std::uniform_int_distribution<int> Degree(0, 3);
    std::size_t N = Size(Rng);
    std::vector<std::vector<std::size_t>> Adj(N);
    std::uniform_int_distribution<std::size_t> Vertex(0, N - 1);
    for (std::size_t U = 0; U < N; ++U)
      for (int E = Degree(Rng); E-- > 0;)
        Adj[U].push_back(Vertex(Rng));

    SccDecomposition Scc = computeScc(N, Adj);

    // Valid partition: every vertex in exactly one block, ids consistent.
    ASSERT_EQ(Scc.BlockOf.size(), N);
    ASSERT_EQ(Scc.Blocks.size(), Scc.NumBlocks);
    std::vector<std::size_t> Seen(N, 0);
    for (std::size_t B = 0; B < Scc.NumBlocks; ++B) {
      EXPECT_FALSE(Scc.Blocks[B].empty());
      for (std::size_t V : Scc.Blocks[B]) {
        EXPECT_EQ(Scc.BlockOf[V], B);
        ++Seen[V];
      }
    }
    for (std::size_t V = 0; V < N; ++V)
      EXPECT_EQ(Seen[V], 1u);

    // Reachability closure by BFS from each vertex (N is small).
    std::vector<std::vector<bool>> Reach(N, std::vector<bool>(N, false));
    for (std::size_t S = 0; S < N; ++S) {
      std::vector<std::size_t> Stack = {S};
      Reach[S][S] = true;
      while (!Stack.empty()) {
        std::size_t U = Stack.back();
        Stack.pop_back();
        for (std::size_t V : Adj[U])
          if (!Reach[S][V]) {
            Reach[S][V] = true;
            Stack.push_back(V);
          }
      }
    }
    // Same block iff mutually reachable.
    for (std::size_t U = 0; U < N; ++U)
      for (std::size_t V = 0; V < N; ++V)
        EXPECT_EQ(Scc.BlockOf[U] == Scc.BlockOf[V],
                  Reach[U][V] && Reach[V][U])
            << U << " vs " << V;

    // Reverse-topological numbering: every edge points to an equal or
    // smaller block id, so the condensation is acyclic by construction.
    for (std::size_t U = 0; U < N; ++U)
      for (std::size_t V : Adj[U])
        EXPECT_GE(Scc.BlockOf[U], Scc.BlockOf[V]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SccProperty,
                         ::testing::Values(81u, 82u, 83u, 84u));

/// The block pipeline must reproduce the monolithic reference: exactly
/// (same rationals) for the exact engine, within ulps for sparse LU.
class BlockedSolveProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(BlockedSolveProperty, BlockedEqualsMonolithic) {
  std::mt19937_64 Rng(GetParam());
  for (int Round = 0; Round < 25; ++Round) {
    AbsorbingChain Chain = randomChain(Rng);
    std::size_t NT = Chain.NumTransient, NA = Chain.NumAbsorbing;

    DenseMatrix<Rational> Mono;
    MonolithicStats MonoStats;
    ASSERT_TRUE(solveMonolithic(Chain, Mono, MonoStats));

    DenseMatrix<Rational> Blocked;
    SolveMetrics Metrics;
    ASSERT_TRUE(solveAbsorptionExact(Chain, Blocked, &Metrics));
    expectMetricsConsistent(Metrics);
    // Same kept subsystem, decomposed into at least one block per
    // nonempty system.
    EXPECT_EQ(Metrics.NumSolved, MonoStats.NumSolved);
    EXPECT_EQ(Metrics.NumSolvedQ, MonoStats.NumSolvedQ);
    EXPECT_GE(Metrics.NumBlocks, MonoStats.NumSolved ? 1u : 0u);
    for (std::size_t R = 0; R < NT; ++R)
      for (std::size_t C = 0; C < NA; ++C)
        EXPECT_EQ(Blocked.at(R, C), Mono.at(R, C)) << R << "," << C;

    DenseMatrix<double> Direct;
    ASSERT_TRUE(
        solveAbsorptionDouble(Chain, Direct, SolverKind::Direct, &Metrics));
    expectMetricsConsistent(Metrics);
    for (std::size_t R = 0; R < NT; ++R)
      for (std::size_t C = 0; C < NA; ++C)
        EXPECT_NEAR(Direct.at(R, C), Mono.at(R, C).toDouble(), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockedSolveProperty,
                         ::testing::Values(91u, 92u, 93u, 94u));

TEST(BlockedSolveTest, SingleSccExtreme) {
  // Gambler's ruin: every transient state reaches every other (birth-death
  // chain), so the pipeline degenerates to one block == monolithic.
  AbsorbingChain Chain = gamblersRuin(8, Rational(3, 5));
  DenseMatrix<Rational> Blocked, Mono;
  SolveMetrics Metrics;
  MonolithicStats MonoStats;
  ASSERT_TRUE(solveAbsorptionExact(Chain, Blocked, &Metrics));
  ASSERT_TRUE(solveMonolithic(Chain, Mono, MonoStats));
  EXPECT_EQ(Metrics.NumBlocks, 1u);
  EXPECT_EQ(Metrics.MaxBlockSize, Chain.NumTransient);
  EXPECT_EQ(Metrics.NumSolvedQ, MonoStats.NumSolvedQ);
  // One block is the whole system: the same kernel does the same work.
  EXPECT_EQ(Metrics.EliminationOps, MonoStats.EliminationOps);
  for (std::size_t R = 0; R < Chain.NumTransient; ++R)
    for (std::size_t C = 0; C < Chain.NumAbsorbing; ++C)
      EXPECT_EQ(Blocked.at(R, C), Mono.at(R, C));
}

TEST(BlockedSolveTest, FullyDisconnectedExtreme) {
  // Self-loops only: no state communicates with any other, so every state
  // is its own block and elimination is N independent 1x1 solves.
  AbsorbingChain Chain;
  Chain.NumTransient = 6;
  Chain.NumAbsorbing = 1;
  for (std::size_t S = 0; S < 6; ++S) {
    Chain.QEntries.push_back({S, S, Rational(1, 2)});
    Chain.REntries.push_back({S, 0, Rational(1, 2)});
  }
  DenseMatrix<Rational> A, Mono;
  SolveMetrics Metrics;
  MonolithicStats MonoStats;
  ASSERT_TRUE(solveAbsorptionExact(Chain, A, &Metrics));
  ASSERT_TRUE(solveMonolithic(Chain, Mono, MonoStats));
  EXPECT_EQ(Metrics.NumBlocks, 6u);
  EXPECT_EQ(Metrics.MaxBlockSize, 1u);
  EXPECT_EQ(Metrics.NumSolved, 6u);
  EXPECT_EQ(Metrics.NumSolvedQ, MonoStats.NumSolvedQ);
  EXPECT_LE(Metrics.EliminationOps, MonoStats.EliminationOps);
  for (std::size_t S = 0; S < 6; ++S) {
    EXPECT_EQ(A.at(S, 0), Rational(1));
    EXPECT_EQ(A.at(S, 0), Mono.at(S, 0));
  }
}

TEST(BlockedSolveTest, DivergingStatesPrunedBeforeBlocking) {
  // The two-state loop with unreachable absorption: pruning removes both
  // states, leaving zero blocks and a zero matrix.
  AbsorbingChain Chain;
  Chain.NumTransient = 2;
  Chain.NumAbsorbing = 1;
  Chain.QEntries.push_back({0, 1, Rational(1)});
  Chain.QEntries.push_back({1, 0, Rational(1)});
  DenseMatrix<Rational> A, Mono;
  SolveMetrics Metrics;
  MonolithicStats MonoStats;
  ASSERT_TRUE(solveAbsorptionExact(Chain, A, &Metrics));
  ASSERT_TRUE(solveMonolithic(Chain, Mono, MonoStats));
  EXPECT_EQ(Metrics.NumBlocks, 0u);
  EXPECT_EQ(Metrics.NumSolved, 0u);
  EXPECT_EQ(MonoStats.NumSolved, 0u);
  EXPECT_EQ(A.at(0, 0), Rational(0));
  EXPECT_EQ(A.at(1, 0), Rational(0));
  EXPECT_EQ(A, Mono);
}

TEST(AbsorbingTest, LongChainDirectSolver) {
  // A 400-state birth-death chain exercises sparse LU at moderate size.
  AbsorbingChain Chain = gamblersRuin(400, Rational(1, 2));
  DenseMatrix<double> A;
  ASSERT_TRUE(solveAbsorptionDouble(Chain, A, SolverKind::Direct));
  // Symmetric ruin: Pr[win | start K] = K / N.
  for (std::size_t K = 1; K < 400; K += 37)
    EXPECT_NEAR(A.at(K - 1, 1), static_cast<double>(K) / 400.0, 1e-8);
}

//===----------------------------------------------------------------------===//
// Modular exact solver (docs/ARCHITECTURE.md S14)
//===----------------------------------------------------------------------===//

/// The multi-prime engine must reproduce the Rational engine's answers
/// exactly while reporting its prime and reconstruction metrics
/// consistently.
class ModularSolveProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ModularSolveProperty, ModularEqualsExact) {
  std::mt19937_64 Rng(GetParam());
  for (int Round = 0; Round < 25; ++Round) {
    AbsorbingChain Chain = randomChain(Rng);
    std::size_t NT = Chain.NumTransient, NA = Chain.NumAbsorbing;

    DenseMatrix<Rational> Exact;
    ASSERT_TRUE(solveAbsorptionExact(Chain, Exact));

    DenseMatrix<Rational> Modular;
    SolveMetrics Metrics;
    ASSERT_TRUE(solveAbsorptionModular(Chain, Modular, {}, &Metrics));
    expectMetricsConsistent(Metrics);
    for (std::size_t R = 0; R < NT; ++R)
      for (std::size_t C = 0; C < NA; ++C)
        EXPECT_EQ(Modular.at(R, C), Exact.at(R, C)) << R << "," << C;
    if (Metrics.NumSolved > 0) {
      EXPECT_GE(Metrics.NumPrimes, 1u);
      EXPECT_GT(Metrics.ReconstructionBits, 0u);
      EXPECT_EQ(Metrics.ModularFallbacks, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModularSolveProperty,
                         ::testing::Values(71u, 72u, 73u, 74u));

TEST(ModularSolveTest, VerifiedReconstructionTriggersRationalFallback) {
  // Gambler's ruin with N = 40 has absorption probabilities whose
  // denominators are near 3^40 (about 64 bits) — far outside the Wang
  // bound of a single 62-bit prime (about 2^30.5). With MaxPrimes = 1 the
  // engine either fails to reconstruct or reconstructs a wrong small
  // fraction that the fresh-prime verification rejects; both paths must
  // end in the Rational fallback, and the answer must still be exact.
  AbsorbingChain Chain = gamblersRuin(40, Rational(3, 5));
  DenseMatrix<Rational> Exact, Modular;
  ASSERT_TRUE(solveAbsorptionExact(Chain, Exact));
  SolverStructure Structure;
  Structure.Modular.MaxPrimes = 1;
  SolveMetrics Metrics;
  ASSERT_TRUE(solveAbsorptionModular(Chain, Modular, Structure, &Metrics));
  EXPECT_EQ(Metrics.ModularFallbacks, 1u);
  for (std::size_t R = 0; R < Chain.NumTransient; ++R)
    for (std::size_t C = 0; C < Chain.NumAbsorbing; ++C)
      EXPECT_EQ(Modular.at(R, C), Exact.at(R, C));

  // The default prime budget reconstructs the same system without any
  // fallback.
  SolveMetrics Full;
  ASSERT_TRUE(solveAbsorptionModular(Chain, Modular, {}, &Full));
  EXPECT_EQ(Full.ModularFallbacks, 0u);
  EXPECT_GT(Full.NumPrimes, 1u);
  for (std::size_t R = 0; R < Chain.NumTransient; ++R)
    for (std::size_t C = 0; C < Chain.NumAbsorbing; ++C)
      EXPECT_EQ(Modular.at(R, C), Exact.at(R, C));
}

TEST(ModularSolveTest, UnluckyPrimeRetriesDeterministically) {
  // A chain whose probabilities have the first table prime as their
  // denominator: that prime divides every denominator, so the solve must
  // discard it, record the retry, and still produce the exact answer.
  // The sequence is deterministic, so two runs report identical metrics.
  const std::uint64_t P0 = modPrime(0);
  ASSERT_LE(P0, static_cast<std::uint64_t>(INT64_MAX));
  const Rational Loop(1, static_cast<int64_t>(P0));
  AbsorbingChain Chain;
  Chain.NumTransient = 2;
  Chain.NumAbsorbing = 1;
  Chain.QEntries.push_back({0, 1, Loop});
  Chain.QEntries.push_back({1, 0, Loop});
  Chain.REntries.push_back({0, 0, Rational(1) - Loop});
  Chain.REntries.push_back({1, 0, Rational(1) - Loop});
  ASSERT_TRUE(rowsAreStochastic(Chain));

  SolveMetrics First, Second;
  DenseMatrix<Rational> A;
  ASSERT_TRUE(solveAbsorptionModular(Chain, A, {}, &First));
  EXPECT_GE(First.RetriedPrimes, 1u);
  EXPECT_EQ(A.at(0, 0), Rational(1));
  EXPECT_EQ(A.at(1, 0), Rational(1));
  ASSERT_TRUE(solveAbsorptionModular(Chain, A, {}, &Second));
  EXPECT_EQ(First.RetriedPrimes, Second.RetriedPrimes);
  EXPECT_EQ(First.NumPrimes, Second.NumPrimes);
  EXPECT_EQ(First.ReconstructionBits, Second.ReconstructionBits);

  // Starting the prime walk past the poisoned entry skips the retry:
  // the FirstPrimeIndex knob replays any table position directly.
  SolverStructure Skip;
  Skip.Modular.FirstPrimeIndex = 1;
  SolveMetrics Skipped;
  ASSERT_TRUE(solveAbsorptionModular(Chain, A, Skip, &Skipped));
  EXPECT_EQ(Skipped.RetriedPrimes, 0u);
  EXPECT_EQ(A.at(0, 0), Rational(1));
}
