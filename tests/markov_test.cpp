//===----------------------------------------------------------------------===//
///
/// \file
/// Absorbing Markov chain tests: textbook chains with known closed forms
/// (gambler's ruin, §4's coin-flip example), cross-engine agreement between
/// exact, direct, and iterative solvers, singularity detection for
/// chains with unreachable absorption, and the sparse absorption rows the
/// block pipeline returns (checked through a test-local dense view).
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

/// The sparse-row contract every engine keeps, and solveLoop's leaf
/// rebuild relies on: one row per transient state, columns in range and
/// strictly ascending, no explicit zeros. Returns true if it holds.
template <typename T>
bool rowsKeepContract(const std::vector<AbsorptionRow<T>> &Rows,
                      const AbsorbingChain &Chain) {
  bool Ok = Rows.size() == Chain.NumTransient;
  EXPECT_EQ(Rows.size(), Chain.NumTransient);
  for (std::size_t R = 0; R < Rows.size(); ++R)
    for (std::size_t I = 0; I < Rows[R].size(); ++I) {
      const auto &[C, V] = Rows[R][I];
      bool Cell = !(V == T()) && C < Chain.NumAbsorbing &&
                  (I == 0 || Rows[R][I - 1].first < C);
      EXPECT_TRUE(Cell) << "row " << R << ", entry " << I << ": column "
                        << C << " (explicit zero, out of range or out of "
                        << "order)";
      Ok = Ok && Cell;
    }
  return Ok;
}

/// The test-local dense view of \p Rows, in which a column missing from a
/// row reads as zero; checks the row contract on the way.
template <typename T>
DenseMatrix<T> denseView(std::vector<AbsorptionRow<T>> Rows,
                         const AbsorbingChain &Chain) {
  DenseMatrix<T> Out(Chain.NumTransient, Chain.NumAbsorbing);
  if (!rowsKeepContract(Rows, Chain))
    return Out;
  for (std::size_t R = 0; R < Rows.size(); ++R)
    for (auto &[C, V] : Rows[R])
      Out.at(R, C) = std::move(V);
  return Out;
}

/// solveAbsorptionExact through the dense view; \p Out is left alone when
/// the solve fails.
bool solveExactDense(const AbsorbingChain &Chain, DenseMatrix<Rational> &Out,
                     SolveMetrics *Metrics = nullptr,
                     const SolverStructure &Structure = {}) {
  std::vector<AbsorptionRow<Rational>> Rows;
  if (!solveAbsorptionExact(Chain, Rows, Metrics, Structure))
    return false;
  Out = denseView(std::move(Rows), Chain);
  return true;
}

/// solveAbsorptionDouble through the dense view.
bool solveDoubleDense(const AbsorbingChain &Chain, DenseMatrix<double> &Out,
                      SolverKind Kind = SolverKind::Direct,
                      SolveMetrics *Metrics = nullptr) {
  std::vector<AbsorptionRow<double>> Rows;
  if (!solveAbsorptionDouble(Chain, Rows, Kind, Metrics))
    return false;
  Out = denseView(std::move(Rows), Chain);
  return true;
}

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
  ASSERT_TRUE(solveExactDense(Chain, A));
  EXPECT_EQ(A.at(0, 0), Rational(1, 2));
  EXPECT_EQ(A.at(0, 1), Rational(1, 2));
}

TEST(AbsorbingTest, GamblersRuinExactMatchesClosedForm) {
  // N=5, p=2/3: ratio r = q/p = 1/2; Pr[win | start K] =
  // (1 - r^K)/(1 - r^N).
  AbsorbingChain Chain = gamblersRuin(5, Rational(2, 3));
  ASSERT_TRUE(rowsAreStochastic(Chain));
  DenseMatrix<Rational> A;
  ASSERT_TRUE(solveExactDense(Chain, A));
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
  ASSERT_TRUE(solveExactDense(Chain, Exact));

  DenseMatrix<double> Direct, Iterative;
  ASSERT_TRUE(solveDoubleDense(Chain, Direct, SolverKind::Direct));
  ASSERT_TRUE(solveDoubleDense(Chain, Iterative, SolverKind::Iterative));

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
  ASSERT_TRUE(solveExactDense(Chain, A));
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
  ASSERT_TRUE(solveExactDense(Chain, A));
  EXPECT_EQ(A.at(0, 0), Rational(0));
  EXPECT_EQ(A.at(1, 0), Rational(0));
  DenseMatrix<double> AD;
  ASSERT_TRUE(solveDoubleDense(Chain, AD, SolverKind::Direct));
  EXPECT_DOUBLE_EQ(AD.at(0, 0), 0.0);
  ASSERT_TRUE(solveDoubleDense(Chain, AD, SolverKind::Iterative));
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
  ASSERT_TRUE(solveExactDense(Chain, A));
  EXPECT_EQ(A.at(0, 0), Rational(1, 2));
  EXPECT_EQ(A.at(1, 0), Rational(0));
  DenseMatrix<double> AD;
  ASSERT_TRUE(solveDoubleDense(Chain, AD, SolverKind::Direct));
  EXPECT_NEAR(AD.at(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(AD.at(1, 0), 0.0, 1e-12);
}

TEST(AbsorbingTest, EmptyChainTrivial) {
  AbsorbingChain Chain;
  Chain.NumTransient = 0;
  Chain.NumAbsorbing = 3;
  DenseMatrix<double> A;
  ASSERT_TRUE(solveDoubleDense(Chain, A, SolverKind::Direct));
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
    ASSERT_TRUE(solveExactDense(Chain, Exact));
    ASSERT_TRUE(solveDoubleDense(Chain, Direct, SolverKind::Direct));
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
  std::size_t Primes = 0, Retried = 0, Bits = 0, Fallbacks = 0;
  for (const BlockMetrics &B : M.Blocks) {
    States += B.NumStates;
    QEntries += B.NumQEntries;
    Ops += B.EliminationOps;
    Fill += B.FillIn;
    MaxSize = std::max(MaxSize, B.NumStates);
    Primes += B.NumPrimes;
    Retried += B.RetriedPrimes;
    Bits = std::max(Bits, B.ReconstructionBits);
    Fallbacks += B.ModularFallbacks;
  }
  EXPECT_EQ(States, M.NumSolved);
  EXPECT_EQ(QEntries, M.NumSolvedQ);
  EXPECT_EQ(Ops, M.EliminationOps);
  EXPECT_EQ(Fill, M.FillIn);
  EXPECT_EQ(MaxSize, M.MaxBlockSize);
  EXPECT_EQ(Primes, M.NumPrimes);
  EXPECT_EQ(Retried, M.RetriedPrimes);
  EXPECT_EQ(Bits, M.ReconstructionBits);
  EXPECT_EQ(Fallbacks, M.ModularFallbacks);
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
    ASSERT_TRUE(solveExactDense(Chain, Blocked, &Metrics));
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
        solveDoubleDense(Chain, Direct, SolverKind::Direct, &Metrics));
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
  ASSERT_TRUE(solveExactDense(Chain, Blocked, &Metrics));
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
  ASSERT_TRUE(solveExactDense(Chain, A, &Metrics));
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
  ASSERT_TRUE(solveExactDense(Chain, A, &Metrics));
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
  ASSERT_TRUE(solveDoubleDense(Chain, A, SolverKind::Direct));
  // Symmetric ruin: Pr[win | start K] = K / N.
  for (std::size_t K = 1; K < 400; K += 37)
    EXPECT_NEAR(A.at(K - 1, 1), static_cast<double>(K) / 400.0, 1e-8);
}

//===----------------------------------------------------------------------===//
// The exact engine's GF(p) block kernel (docs/ARCHITECTURE.md S14)
//===----------------------------------------------------------------------===//

/// \p Kernel forced on every block of the exact engine.
SolverStructure forced(BlockKernel Kernel) {
  SolverStructure S;
  S.Kernel = Kernel;
  return S;
}

/// The GF(p) kernel forced on every block must reproduce Rational
/// elimination exactly while reporting its prime and reconstruction
/// metrics consistently.
class ModularSolveProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ModularSolveProperty, ModularEqualsExact) {
  std::mt19937_64 Rng(GetParam());
  for (int Round = 0; Round < 25; ++Round) {
    AbsorbingChain Chain = randomChain(Rng);
    std::size_t NT = Chain.NumTransient, NA = Chain.NumAbsorbing;

    DenseMatrix<Rational> Exact;
    ASSERT_TRUE(solveExactDense(Chain, Exact, nullptr,
                                     forced(BlockKernel::Rational)));

    DenseMatrix<Rational> Modular;
    SolveMetrics Metrics;
    ASSERT_TRUE(solveExactDense(Chain, Modular, &Metrics,
                                     forced(BlockKernel::Modular)));
    expectMetricsConsistent(Metrics);
    for (std::size_t R = 0; R < NT; ++R)
      for (std::size_t C = 0; C < NA; ++C)
        EXPECT_EQ(Modular.at(R, C), Exact.at(R, C)) << R << "," << C;
    EXPECT_EQ(Metrics.ModularFallbacks, 0u);
    for (const BlockMetrics &B : Metrics.Blocks)
      EXPECT_EQ(B.NumPrimes > 0, B.ReconstructionBits > 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModularSolveProperty,
                         ::testing::Values(71u, 72u, 73u, 74u));

/// A chain of dense strongly connected blocks, some below
/// ModularMinBlock states and some at or above it, joined downstream by
/// singleton tail states. Blocks only point at earlier states, so every
/// block's right-hand side carries the exact solutions of the blocks
/// after it in solve order.
AbsorbingChain mixedBlockChain(std::mt19937_64 &Rng) {
  std::uniform_int_distribution<std::size_t> Small(2, ModularMinBlock - 1);
  std::uniform_int_distribution<std::size_t> Large(ModularMinBlock,
                                                   ModularMinBlock + 12);
  std::uniform_int_distribution<int64_t> Weight(1, 5);
  AbsorbingChain Chain;
  Chain.NumAbsorbing = 2;
  std::size_t NumGroups = 3 + Rng() % 4;
  for (std::size_t G = 0; G < NumGroups; ++G) {
    std::size_t Size = G % 3 == 2 ? 1 : (Rng() & 1 ? Large(Rng) : Small(Rng));
    std::size_t First = Chain.NumTransient;
    Chain.NumTransient += Size;
    for (std::size_t S = First; S < First + Size; ++S) {
      Rational Left(1);
      auto Edge = [&](std::size_t To, Rational W) {
        Left -= W;
        Chain.QEntries.push_back({S, To, std::move(W)});
      };
      if (Size > 1) {
        Edge(S + 1 < First + Size ? S + 1 : First, Rational(Weight(Rng), 31));
        Edge(First + Rng() % Size, Rational(Weight(Rng), 31));
        Edge(First + Rng() % Size, Rational(Weight(Rng), 37));
      }
      if (First > 0)
        Edge(Rng() % First, Rational(Weight(Rng), 29));
      // Half the rest absorbs, the other half is dropped.
      Chain.REntries.push_back({S, S % 2, Left / Rational(2)});
    }
  }
  return Chain;
}

/// Auto, forced Rational and forced GF(p) agree entry for entry on chains
/// that mix blocks on both sides of the threshold with singleton tails,
/// and Auto spends primes exactly on the blocks at or above it.
class KernelChoiceProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(KernelChoiceProperty, EveryKernelChoiceAgrees) {
  std::mt19937_64 Rng(GetParam());
  for (int Round = 0; Round < 12; ++Round) {
    AbsorbingChain Chain = mixedBlockChain(Rng);
    DenseMatrix<Rational> Want;
    SolveMetrics RationalMetrics;
    ASSERT_TRUE(solveExactDense(Chain, Want, &RationalMetrics,
                                     forced(BlockKernel::Rational)));
    expectMetricsConsistent(RationalMetrics);
    EXPECT_EQ(RationalMetrics.NumPrimes, 0u);
    for (BlockKernel Kernel : {BlockKernel::Auto, BlockKernel::Modular}) {
      DenseMatrix<Rational> Got;
      SolveMetrics Metrics;
      ASSERT_TRUE(
          solveExactDense(Chain, Got, &Metrics, forced(Kernel)));
      expectMetricsConsistent(Metrics);
      EXPECT_EQ(Got, Want);
      EXPECT_EQ(Metrics.ModularFallbacks, 0u);
      for (const BlockMetrics &B : Metrics.Blocks) {
        if (Kernel == BlockKernel::Auto && B.NumStates < ModularMinBlock) {
          EXPECT_EQ(B.NumPrimes, 0u);
        } else if (B.NumStates > 1) {
          EXPECT_GT(B.NumPrimes, 0u);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelChoiceProperty,
                         ::testing::Values(101u, 102u, 103u, 104u));

TEST(ModularSolveTest, VerifiedReconstructionTriggersRationalFallback) {
  // Gambler's ruin with N = 40 has absorption probabilities whose
  // denominators are near 3^40 (about 64 bits) — far outside the Wang
  // bound of a single 62-bit prime (about 2^30.5). With MaxPrimes = 1 the
  // engine either fails to reconstruct or reconstructs a wrong small
  // fraction that the fresh-prime verification rejects; both paths must
  // end in the Rational fallback, and the answer must still be exact.
  AbsorbingChain Chain = gamblersRuin(40, Rational(3, 5));
  DenseMatrix<Rational> Exact, Modular;
  ASSERT_TRUE(solveExactDense(Chain, Exact, nullptr,
                                   forced(BlockKernel::Rational)));
  SolverStructure Structure = forced(BlockKernel::Modular);
  Structure.MaxPrimes = 1;
  SolveMetrics Metrics;
  ASSERT_TRUE(solveExactDense(Chain, Modular, &Metrics, Structure));
  EXPECT_EQ(Metrics.ModularFallbacks, 1u);
  for (std::size_t R = 0; R < Chain.NumTransient; ++R)
    for (std::size_t C = 0; C < Chain.NumAbsorbing; ++C)
      EXPECT_EQ(Modular.at(R, C), Exact.at(R, C));

  // The default prime budget reconstructs the same system without any
  // fallback.
  SolveMetrics Full;
  ASSERT_TRUE(solveExactDense(Chain, Modular, &Full,
                                   forced(BlockKernel::Modular)));
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
  ASSERT_TRUE(
      solveExactDense(Chain, A, &First, forced(BlockKernel::Modular)));
  EXPECT_GE(First.RetriedPrimes, 1u);
  EXPECT_EQ(A.at(0, 0), Rational(1));
  EXPECT_EQ(A.at(1, 0), Rational(1));
  ASSERT_TRUE(
      solveExactDense(Chain, A, &Second, forced(BlockKernel::Modular)));
  EXPECT_EQ(First.RetriedPrimes, Second.RetriedPrimes);
  EXPECT_EQ(First.NumPrimes, Second.NumPrimes);
  EXPECT_EQ(First.ReconstructionBits, Second.ReconstructionBits);

  // Starting the prime walk past the poisoned entry skips the retry:
  // the FirstPrimeIndex knob replays any table position directly.
  SolverStructure Skip = forced(BlockKernel::Modular);
  Skip.FirstPrimeIndex = 1;
  SolveMetrics Skipped;
  ASSERT_TRUE(solveExactDense(Chain, A, &Skipped, Skip));
  EXPECT_EQ(Skipped.RetriedPrimes, 0u);
  EXPECT_EQ(A.at(0, 0), Rational(1));
}

//===----------------------------------------------------------------------===//
// Sparse absorption rows: each block's right-hand side spans only the exit
// columns it reaches
//===----------------------------------------------------------------------===//

namespace {

/// The four kernels every block-pipeline test runs on.
enum class Engine { Rational, Modular, Direct, Iterative };
const Engine AllEngines[] = {Engine::Rational, Engine::Modular,
                             Engine::Direct, Engine::Iterative};

const char *engineName(Engine E) {
  switch (E) {
  case Engine::Rational:
    return "Rational";
  case Engine::Modular:
    return "Modular";
  case Engine::Direct:
    return "Direct";
  case Engine::Iterative:
    return "Iterative";
  }
  return "?";
}

/// Solves \p Chain on \p E and expects every cell of the result to match
/// the unblocked reference \p Want: exactly on the exact kernels, within
/// \p Tol on the float ones. Checks the row contract on the raw rows.
void expectEngineMatches(Engine E, const AbsorbingChain &Chain,
                         const DenseMatrix<Rational> &Want, double Tol) {
  SCOPED_TRACE(engineName(E));
  SolveMetrics Metrics;
  if (E == Engine::Rational || E == Engine::Modular) {
    std::vector<AbsorptionRow<Rational>> Rows;
    ASSERT_TRUE(solveAbsorptionExact(Chain, Rows, &Metrics,
                                     forced(E == Engine::Rational
                                                ? BlockKernel::Rational
                                                : BlockKernel::Modular)));
    expectMetricsConsistent(Metrics);
    DenseMatrix<Rational> Got = denseView(std::move(Rows), Chain);
    for (std::size_t R = 0; R < Chain.NumTransient; ++R)
      for (std::size_t C = 0; C < Chain.NumAbsorbing; ++C)
        EXPECT_EQ(Got.at(R, C), Want.at(R, C)) << R << "," << C;
    return;
  }
  std::vector<AbsorptionRow<double>> Rows;
  ASSERT_TRUE(solveAbsorptionDouble(
      Chain, Rows,
      E == Engine::Direct ? SolverKind::Direct : SolverKind::Iterative,
      &Metrics));
  expectMetricsConsistent(Metrics);
  DenseMatrix<double> Got = denseView(std::move(Rows), Chain);
  for (std::size_t R = 0; R < Chain.NumTransient; ++R)
    for (std::size_t C = 0; C < Chain.NumAbsorbing; ++C)
      EXPECT_NEAR(Got.at(R, C), Want.at(R, C).toDouble(), Tol)
          << R << "," << C;
}

/// Many exits, few reachable per block: NumBlocks two-state cycles, block
/// B exiting into column (29 B) mod NumExits (a permutation, so a block's
/// two columns come in either order), odd blocks also stepping into their
/// even predecessor. Every block reaches one or two exit columns.
AbsorbingChain wideExitChain(std::size_t NumBlocks, std::size_t NumExits) {
  AbsorbingChain Chain;
  Chain.NumTransient = 2 * NumBlocks;
  Chain.NumAbsorbing = NumExits;
  for (std::size_t B = 0; B < NumBlocks; ++B) {
    std::size_t S0 = 2 * B, S1 = 2 * B + 1, Col = (29 * B) % NumExits;
    auto D = static_cast<int64_t>(3 + B % 5);
    Chain.QEntries.push_back({S0, S1, Rational(1, D)});
    Chain.REntries.push_back({S0, Col, Rational(1, D + 1)});
    Chain.QEntries.push_back({S1, S0, Rational(1, 2)});
    if (B % 2 == 1) {
      Chain.QEntries.push_back({S1, S0 - 1, Rational(1, 3)});
      Chain.REntries.push_back({S1, Col, Rational(1, 7)});
    } else {
      Chain.REntries.push_back({S1, Col, Rational(1, 3)});
    }
  }
  return Chain;
}

} // namespace

TEST(SparseRowsTest, WideExitChainMatchesUnblockedReference) {
  AbsorbingChain Chain = wideExitChain(/*NumBlocks=*/70, /*NumExits=*/72);
  ASSERT_GE(Chain.NumAbsorbing, 64u);
  DenseMatrix<Rational> Mono;
  MonolithicStats MonoStats;
  ASSERT_TRUE(solveMonolithic(Chain, Mono, MonoStats));
  // Every state reaches one or two exits; the reference agrees.
  for (std::size_t R = 0; R < Chain.NumTransient; ++R) {
    std::size_t Nonzero = 0;
    for (std::size_t C = 0; C < Chain.NumAbsorbing; ++C)
      Nonzero += !Mono.at(R, C).isZero();
    EXPECT_GE(Nonzero, 1u);
    EXPECT_LE(Nonzero, 2u);
  }
  for (Engine E : AllEngines)
    expectEngineMatches(E, Chain, Mono, 1e-9);
}

TEST(SparseRowsTest, BlockReachingNoExitLeavesEmptyRows) {
  // States 0 and 1 form a block with in-block entries. State 0's two
  // exit entries are nonzero (so pruning keeps the block) but cancel when
  // merged, so the block reaches no exit column and its right-hand side
  // has zero columns: all of its mass drops. State 2 steps into the block
  // and exits into column 1; column 0 is reached by nobody.
  AbsorbingChain Chain;
  Chain.NumTransient = 3;
  Chain.NumAbsorbing = 2;
  Chain.QEntries.push_back({0, 1, Rational(1, 2)});
  Chain.QEntries.push_back({1, 0, Rational(1, 2)});
  Chain.REntries.push_back({0, 0, Rational(1, 4)});
  Chain.REntries.push_back({0, 0, Rational(-1, 4)});
  Chain.QEntries.push_back({2, 0, Rational(1, 2)});
  Chain.REntries.push_back({2, 1, Rational(1, 2)});
  DenseMatrix<Rational> Mono;
  MonolithicStats MonoStats;
  ASSERT_TRUE(solveMonolithic(Chain, Mono, MonoStats));
  EXPECT_EQ(MonoStats.NumSolved, 3u);

  for (Engine E : AllEngines)
    expectEngineMatches(E, Chain, Mono, 1e-12);
  std::vector<AbsorptionRow<Rational>> Rows;
  SolveMetrics Metrics;
  ASSERT_TRUE(solveAbsorptionExact(Chain, Rows, &Metrics,
                                   forced(BlockKernel::Modular)));
  ASSERT_EQ(Rows.size(), 3u);
  EXPECT_TRUE(Rows[0].empty());
  EXPECT_TRUE(Rows[1].empty());
  ASSERT_EQ(Rows[2].size(), 1u);
  EXPECT_EQ(Rows[2][0].first, 1u);
  EXPECT_EQ(Rows[2][0].second, Rational(1, 2));
  // Nothing to reconstruct: the GF(p) kernel spends no prime on a block
  // with no right-hand-side columns.
  EXPECT_EQ(Metrics.NumPrimes, 0u);
  std::vector<AbsorptionRow<double>> Approx;
  for (SolverKind Kind : {SolverKind::Direct, SolverKind::Iterative}) {
    ASSERT_TRUE(solveAbsorptionDouble(Chain, Approx, Kind));
    ASSERT_EQ(Approx.size(), 3u);
    EXPECT_TRUE(Approx[0].empty());
    EXPECT_TRUE(Approx[1].empty());
    EXPECT_EQ(Approx[2].size(), 1u);
  }
}

TEST(SparseRowsTest, RowsAreColumnAscendingWithoutExplicitZeros) {
  // Checked on the raw rows of every engine over the shapes above plus
  // the random and mixed-block families, whose blocks reach exits from
  // both their own R entries and their successors' rows.
  std::mt19937_64 Rng(111);
  std::vector<AbsorbingChain> Chains = {wideExitChain(70, 72),
                                        wideExitChain(9, 64),
                                        gamblersRuin(12, Rational(2, 5))};
  for (int I = 0; I < 4; ++I) {
    Chains.push_back(mixedBlockChain(Rng));
    Chains.push_back(randomChain(Rng));
  }
  for (std::size_t I = 0; I < Chains.size(); ++I) {
    SCOPED_TRACE("chain " + std::to_string(I));
    const AbsorbingChain &Chain = Chains[I];
    for (BlockKernel K : {BlockKernel::Rational, BlockKernel::Modular}) {
      std::vector<AbsorptionRow<Rational>> Rows;
      ASSERT_TRUE(solveAbsorptionExact(Chain, Rows, nullptr, forced(K)));
      EXPECT_TRUE(rowsKeepContract(Rows, Chain));
    }
    for (SolverKind Kind : {SolverKind::Direct, SolverKind::Iterative}) {
      std::vector<AbsorptionRow<double>> Rows;
      ASSERT_TRUE(solveAbsorptionDouble(Chain, Rows, Kind));
      EXPECT_TRUE(rowsKeepContract(Rows, Chain));
    }
  }
}
