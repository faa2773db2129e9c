//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized properties of the fill-reducing ordering layer and the
/// solver kernels it feeds (docs/ARCHITECTURE.md S13): orderings are
/// permutations with exact round-trips, sparse LU under the natural and
/// the RCM numbering agrees with dense elimination, the shared sparse Gauss-Jordan kernel
/// agrees exactly (Rational) with dense elimination, singular blocks are
/// detected by every path, and 1x1/empty blocks are handled.
///
//===----------------------------------------------------------------------===//

#include "linalg/Ordering.h"

#include "linalg/Solve.h"
#include "linalg/SparseLU.h"
#include "markov/Absorbing.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

using namespace mcnk;
using namespace mcnk::linalg;
using markov::detail::eliminateRationalSystem;
using markov::detail::luSolve;

namespace {

/// A random directed pattern over N vertices with roughly Density
/// out-edges per vertex.
AdjacencyList randomPattern(std::mt19937_64 &Rng, std::size_t N,
                            std::size_t Density) {
  AdjacencyList Adj(N);
  std::uniform_int_distribution<std::size_t> Vertex(0, N - 1);
  for (std::size_t U = 0; U < N; ++U)
    for (std::size_t E = 0; E < Density; ++E)
      Adj[U].push_back(Vertex(Rng));
  return Adj;
}

/// A random strictly diagonally dominant sparse system A = I - Q with
/// substochastic Q, as the absorbing-chain engines produce. Returns Q
/// triplets (local indices, +q values) and a matching dense A.
struct RandomSystem {
  std::size_t N;
  std::vector<Triplet> QTriplets;
  DenseMatrix<double> DenseA;
  std::vector<std::map<std::size_t, Rational>> Rows; // I - Q, sparse exact.
  DenseMatrix<Rational> DenseAExact;
};

RandomSystem randomSystem(std::mt19937_64 &Rng, std::size_t N) {
  RandomSystem S;
  S.N = N;
  S.DenseA = DenseMatrix<double>(N, N);
  S.DenseAExact = DenseMatrix<Rational>(N, N);
  S.Rows.resize(N);
  std::uniform_int_distribution<std::size_t> Vertex(0, N - 1);
  std::uniform_int_distribution<int> Den(3, 9);
  for (std::size_t I = 0; I < N; ++I) {
    S.Rows[I][I] = Rational(1);
    S.DenseA.at(I, I) = 1.0;
    S.DenseAExact.at(I, I) = Rational(1);
    int D = Den(Rng);
    // D-1 entries of weight 1/D leave at least 1/D of the row's mass
    // draining, so I - Q stays nonsingular.
    for (int E = 0; E + 1 < D; ++E) {
      std::size_t J = Vertex(Rng);
      Rational W(1, D);
      S.QTriplets.push_back({I, J, W.toDouble()});
      S.DenseA.at(I, J) -= W.toDouble();
      S.DenseAExact.at(I, J) -= W;
      Rational &Cell = S.Rows[I][J];
      Cell -= W;
      if (Cell.isZero())
        S.Rows[I].erase(J);
    }
  }
  return S;
}

/// The numberings the LU kernel is exercised under: the natural one (the
/// kernel-level baseline) and RCM of the symmetrized pattern, as the
/// solver's block plan numbers a block. Each maps an index to its position.
std::vector<std::pair<const char *, std::vector<std::size_t>>>
numberingsFor(std::size_t N, const std::vector<Triplet> &QTriplets) {
  AdjacencyList Adj(N);
  for (const Triplet &E : QTriplets)
    Adj[E.Row].push_back(E.Col);
  std::vector<std::size_t> Natural(N);
  for (std::size_t I = 0; I < N; ++I)
    Natural[I] = I;
  return {{"natural", Natural},
          {"rcm", inversePermutation(
                      reverseCuthillMcKee(symmetrizedPattern(Adj)))}};
}

/// \p QTriplets with every index I renumbered to Pos[I].
std::vector<Triplet> renumbered(const std::vector<Triplet> &QTriplets,
                                const std::vector<std::size_t> &Pos) {
  std::vector<Triplet> Out;
  for (const Triplet &E : QTriplets)
    Out.push_back({Pos[E.Row], Pos[E.Col], E.Value});
  return Out;
}

} // namespace

class OrderingProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(OrderingProperty, OrderingsArePermutationsAndRoundTrip) {
  std::mt19937_64 Rng(GetParam());
  for (int Round = 0; Round < 30; ++Round) {
    std::uniform_int_distribution<std::size_t> Size(1, 60);
    std::size_t N = Size(Rng);
    AdjacencyList Sym = symmetrizedPattern(randomPattern(Rng, N, 3));
    // Symmetrized: every edge present both ways, no self-loops.
    for (std::size_t U = 0; U < N; ++U)
      for (std::size_t V : Sym[U]) {
        EXPECT_NE(U, V);
        EXPECT_TRUE(std::binary_search(Sym[V].begin(), Sym[V].end(), U));
      }
    std::vector<std::size_t> Perm = reverseCuthillMcKee(Sym);
    ASSERT_EQ(Perm.size(), N);
    EXPECT_TRUE(isPermutation(Perm));
    std::vector<std::size_t> Inv = inversePermutation(Perm);
    for (std::size_t K = 0; K < N; ++K) {
      EXPECT_EQ(Inv[Perm[K]], K);
      EXPECT_EQ(Perm[Inv[K]], K);
    }
  }
}

TEST_P(OrderingProperty, SparseLUWithOrderingMatchesDenseElimination) {
  std::mt19937_64 Rng(GetParam() + 1000);
  for (int Round = 0; Round < 25; ++Round) {
    std::uniform_int_distribution<std::size_t> Size(1, 50);
    RandomSystem S = randomSystem(Rng, Size(Rng));
    std::size_t NumRhs = 2;
    DenseMatrix<double> B(S.N, NumRhs);
    std::uniform_real_distribution<double> Val(0.0, 1.0);
    for (std::size_t I = 0; I < S.N; ++I)
      for (std::size_t J = 0; J < NumRhs; ++J)
        B.at(I, J) = Val(Rng);

    DenseMatrix<double> Reference = B;
    DenseMatrix<double> A = S.DenseA;
    ASSERT_TRUE(denseSolveInPlace(A, Reference));

    for (const auto &[Name, Pos] : numberingsFor(S.N, S.QTriplets)) {
      DenseMatrix<double> X(S.N, NumRhs);
      for (std::size_t I = 0; I < S.N; ++I)
        for (std::size_t J = 0; J < NumRhs; ++J)
          X.at(Pos[I], J) = B.at(I, J);
      std::size_t Ops = 0, Fill = 0;
      ASSERT_TRUE(luSolve(S.N, renumbered(S.QTriplets, Pos), X, Ops, Fill))
          << Name;
      for (std::size_t I = 0; I < S.N; ++I)
        for (std::size_t J = 0; J < NumRhs; ++J)
          EXPECT_NEAR(X.at(Pos[I], J), Reference.at(I, J), 1e-9) << Name;
    }
  }
}

TEST_P(OrderingProperty, SparseGaussJordanMatchesDenseExactly) {
  std::mt19937_64 Rng(GetParam() + 2000);
  for (int Round = 0; Round < 20; ++Round) {
    std::uniform_int_distribution<std::size_t> Size(1, 30);
    RandomSystem S = randomSystem(Rng, Size(Rng));
    std::size_t NumRhs = 2;
    DenseMatrix<Rational> B(S.N, NumRhs);
    std::uniform_int_distribution<int> Num(0, 6);
    for (std::size_t I = 0; I < S.N; ++I)
      for (std::size_t J = 0; J < NumRhs; ++J)
        B.at(I, J) = Rational(Num(Rng), 7);
    DenseMatrix<Rational> Rhs = B;

    DenseMatrix<Rational> A = S.DenseAExact;
    ASSERT_TRUE(denseSolveInPlace(A, B));
    std::size_t Ops = 0, Fill = 0;
    ASSERT_TRUE(eliminateRationalSystem(S.Rows, Rhs, Ops, Fill));
    // Exact arithmetic: the two elimination orders produce the *same*
    // rationals, not merely close ones.
    for (std::size_t I = 0; I < S.N; ++I)
      for (std::size_t J = 0; J < NumRhs; ++J)
        EXPECT_EQ(Rhs.at(I, J), B.at(I, J));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderingProperty,
                         ::testing::Values(71u, 72u, 73u, 74u));

TEST(OrderingTest, SingularBlockDetectedByEveryPath) {
  // A 2-cycle with probability one: I - Q = [[1,-1],[-1,1]], singular.
  std::vector<Triplet> QT = {{0, 1, 1.0}, {1, 0, 1.0}};
  DenseMatrix<double> Rhs(2, 1);
  Rhs.at(0, 0) = 1.0;
  std::size_t Ops = 0, Fill = 0;
  for (const auto &[Name, Pos] : numberingsFor(2, QT)) {
    DenseMatrix<double> B = Rhs;
    EXPECT_FALSE(luSolve(2, renumbered(QT, Pos), B, Ops, Fill)) << Name;
  }

  std::vector<std::map<std::size_t, Rational>> Rows(2);
  Rows[0][0] = Rational(1);
  Rows[0][1] = Rational(-1);
  Rows[1][0] = Rational(-1);
  Rows[1][1] = Rational(1);
  DenseMatrix<Rational> RhsR(2, 1);
  RhsR.at(0, 0) = Rational(1);
  EXPECT_FALSE(eliminateRationalSystem(Rows, RhsR, Ops, Fill));

  DenseMatrix<Rational> A(2, 2), B(2, 1);
  A.at(0, 0) = Rational(1);
  A.at(0, 1) = Rational(-1);
  A.at(1, 0) = Rational(-1);
  A.at(1, 1) = Rational(1);
  B.at(0, 0) = Rational(1);
  EXPECT_FALSE(denseSolveInPlace(A, B));
}

TEST(OrderingTest, OneByOneAndEmptyBlocks) {
  // Empty block: nothing to factor, nothing to solve.
  DenseMatrix<double> Empty(0, 3);
  std::size_t Ops = 0, Fill = 0;
  EXPECT_TRUE(luSolve(0, {}, Empty, Ops, Fill));
  EXPECT_EQ(Ops, 0u);
  EXPECT_EQ(Fill, 0u);
  std::vector<std::map<std::size_t, Rational>> NoRows;
  DenseMatrix<Rational> NoRhs;
  EXPECT_TRUE(eliminateRationalSystem(NoRows, NoRhs, Ops, Fill));

  // 1x1 block with a self-loop: (1 - 1/2) x = 1/4 -> x = 1/2.
  std::vector<Triplet> QT = {{0, 0, 0.5}};
  DenseMatrix<double> Rhs(1, 1);
  Rhs.at(0, 0) = 0.25;
  EXPECT_TRUE(luSolve(1, QT, Rhs, Ops, Fill));
  EXPECT_DOUBLE_EQ(Rhs.at(0, 0), 0.5);

  std::vector<std::map<std::size_t, Rational>> Rows(1);
  Rows[0][0] = Rational(1, 2);
  DenseMatrix<Rational> RhsR(1, 1);
  RhsR.at(0, 0) = Rational(1, 4);
  EXPECT_TRUE(eliminateRationalSystem(Rows, RhsR, Ops, Fill));
  EXPECT_EQ(RhsR.at(0, 0), Rational(1, 2));

  // Ordering a singleton / empty graph is the identity.
  EXPECT_TRUE(reverseCuthillMcKee({}).empty());
  EXPECT_EQ(reverseCuthillMcKee(AdjacencyList(1)),
            std::vector<std::size_t>{0});
}

TEST(OrderingTest, RcmReducesBandwidthOnAShuffledPath) {
  // A path graph numbered adversarially (even vertices first) has
  // bandwidth ~N/2; RCM renumbers it back to bandwidth 1.
  constexpr std::size_t N = 40;
  std::vector<std::size_t> Shuffled;
  for (std::size_t I = 0; I < N; I += 2)
    Shuffled.push_back(I);
  for (std::size_t I = 1; I < N; I += 2)
    Shuffled.push_back(I);
  std::vector<std::size_t> PosOf(N);
  for (std::size_t K = 0; K < N; ++K)
    PosOf[Shuffled[K]] = K;
  AdjacencyList Adj(N);
  for (std::size_t I = 0; I + 1 < N; ++I) {
    Adj[PosOf[I]].push_back(PosOf[I + 1]);
    Adj[PosOf[I + 1]].push_back(PosOf[I]);
  }
  std::vector<std::size_t> Perm = reverseCuthillMcKee(Adj);
  std::vector<std::size_t> Inv = inversePermutation(Perm);
  std::size_t Bandwidth = 0;
  for (std::size_t U = 0; U < N; ++U)
    for (std::size_t V : Adj[U]) {
      std::size_t D = Inv[U] > Inv[V] ? Inv[U] - Inv[V] : Inv[V] - Inv[U];
      Bandwidth = std::max(Bandwidth, D);
    }
  EXPECT_EQ(Bandwidth, 1u);
}
