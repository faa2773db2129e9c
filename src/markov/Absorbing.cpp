//===----------------------------------------------------------------------===//
///
/// \file
/// Chain pruning, the Rational and LU block kernels, and the
/// stochasticity check. The block pipeline that drives the kernels lives
/// in BlockSolve.cpp, the exact engine's GF(p) block kernel in
/// ModularSolve.cpp.
///
//===----------------------------------------------------------------------===//

#include "markov/Absorbing.h"

#include "linalg/SparseLU.h"

#include <cassert>
#include <cmath>
#include <map>
#include <set>
#include <vector>

using namespace mcnk;
using namespace mcnk::markov;
using linalg::DenseMatrix;
using linalg::SparseMatrix;
using linalg::Triplet;

ChainPruning markov::pruneUnreachableStates(const AbsorbingChain &Chain) {
  std::size_t NT = Chain.NumTransient;
  // Reverse adjacency over Q.
  std::vector<std::vector<std::size_t>> Preds(NT);
  for (const RationalTriplet &E : Chain.QEntries)
    if (!E.Value.isZero())
      Preds[E.Col].push_back(E.Row);

  ChainPruning Result;
  Result.CanReach.assign(NT, false);
  std::vector<std::size_t> Worklist;
  for (const RationalTriplet &E : Chain.REntries)
    if (!E.Value.isZero() && !Result.CanReach[E.Row]) {
      Result.CanReach[E.Row] = true;
      Worklist.push_back(E.Row);
    }
  while (!Worklist.empty()) {
    std::size_t S = Worklist.back();
    Worklist.pop_back();
    for (std::size_t P : Preds[S])
      if (!Result.CanReach[P]) {
        Result.CanReach[P] = true;
        Worklist.push_back(P);
      }
  }

  Result.Compact.assign(NT, 0);
  for (std::size_t I = 0; I < NT; ++I)
    if (Result.CanReach[I]) {
      Result.Compact[I] = Result.NumKept++;
      Result.Original.push_back(I);
    }
  return Result;
}

bool markov::detail::eliminateRationalSystem(
    std::vector<std::map<std::size_t, Rational>> &Rows,
    DenseMatrix<Rational> &Rhs, std::size_t &EliminationOps,
    std::size_t &FillIn) {
  std::size_t NK = Rows.size();
  std::size_t NA = Rhs.numCols();

  // Sparse Gauss-Jordan with min-degree pivoting on the (always nonzero)
  // diagonal. Network chains are nearly acyclic, so a fill-minimizing
  // order keeps both the sparsity and the rational coefficient growth
  // under control — a dense elimination over bignum rationals is hopeless
  // beyond a few dozen states.
  //
  // Column -> rows currently holding a nonzero in that column.
  std::vector<std::set<std::size_t>> ColRows(NK);
  for (std::size_t K = 0; K < NK; ++K)
    for (const auto &[Col, V] : Rows[K]) {
      (void)V;
      ColRows[Col].insert(K);
    }

  std::vector<bool> Eliminated(NK, false);
  for (std::size_t Step = 0; Step < NK; ++Step) {
    // Min-degree pivot: cheapest (row nnz - 1) * (col nnz - 1) product.
    std::size_t Pivot = SIZE_MAX, BestScore = SIZE_MAX;
    for (std::size_t K = 0; K < NK; ++K) {
      if (Eliminated[K])
        continue;
      if (Rows[K].empty())
        return false; // A row eliminated to zero: singular system.
      std::size_t Score =
          (Rows[K].size() - 1) * (ColRows[K].size() - 1);
      if (Score < BestScore) {
        BestScore = Score;
        Pivot = K;
        if (Score == 0)
          break;
      }
    }
    if (Pivot == SIZE_MAX)
      return false; // No pivotable row left: singular system.
    auto PivIt = Rows[Pivot].find(Pivot);
    if (PivIt == Rows[Pivot].end() || PivIt->second.isZero())
      return false; // Should not happen after pruning.

    // Normalize the pivot row.
    Rational Inv = PivIt->second.reciprocal();
    if (!Inv.isOne()) {
      for (auto &[Col, V] : Rows[Pivot])
        V *= Inv;
      for (std::size_t C = 0; C < NA; ++C)
        if (!Rhs.at(Pivot, C).isZero())
          Rhs.at(Pivot, C) *= Inv;
    }
    Eliminated[Pivot] = true;

    // Substitute into every other row holding the pivot column.
    std::vector<std::size_t> Users(ColRows[Pivot].begin(),
                                   ColRows[Pivot].end());
    for (std::size_t User : Users) {
      if (User == Pivot)
        continue;
      auto It = Rows[User].find(Pivot);
      if (It == Rows[User].end())
        continue;
      Rational Coeff = It->second;
      Rows[User].erase(It);
      ColRows[Pivot].erase(User);
      // Fused in-place axpy on both the row and its right-hand side —
      // the hot kernel of the exact engine (no Rational temporaries on
      // the int64 fast path).
      for (const auto &[Col, V] : Rows[Pivot]) {
        if (Col == Pivot)
          continue;
        Rational &Cell = Rows[User][Col];
        bool WasZero = Cell.isZero();
        Cell.subMul(Coeff, V);
        ++EliminationOps;
        if (Cell.isZero())
          Rows[User].erase(Col);
        else if (WasZero) {
          ColRows[Col].insert(User);
          ++FillIn;
        }
      }
      for (std::size_t C = 0; C < NA; ++C)
        if (!Rhs.at(Pivot, C).isZero()) {
          Rhs.at(User, C).subMul(Coeff, Rhs.at(Pivot, C));
          ++EliminationOps;
        }
    }
  }

  for (std::size_t K = 0; K < NK; ++K) {
    (void)K;
    assert(Rows[K].size() == 1 && Rows[K].count(K) == 1 &&
           "Gauss-Jordan left a non-diagonal entry");
  }
  return true;
}

bool markov::detail::luSolve(std::size_t N,
                             const std::vector<Triplet> &QTriplets,
                             DenseMatrix<double> &Rhs,
                             std::size_t &EliminationOps,
                             std::size_t &FillIn) {
  std::vector<Triplet> Entries;
  Entries.reserve(QTriplets.size() + N);
  for (const Triplet &E : QTriplets)
    Entries.push_back({E.Row, E.Col, -E.Value});
  for (std::size_t I = 0; I < N; ++I)
    Entries.push_back({I, I, 1.0});
  SparseMatrix IminusQ =
      SparseMatrix::fromTriplets(N, N, std::move(Entries));
  linalg::SparseLU LU;
  if (!LU.factor(IminusQ))
    return false;
  EliminationOps += LU.numEliminationOps();
  std::size_t FactorEntries = LU.numFactorEntries();
  std::size_t Assembled = IminusQ.numNonZeros();
  FillIn += FactorEntries > Assembled ? FactorEntries - Assembled : 0;

  std::vector<double> Col(N);
  for (std::size_t J = 0; J < Rhs.numCols(); ++J) {
    for (std::size_t I = 0; I < N; ++I)
      Col[I] = Rhs.at(I, J);
    LU.solve(Col);
    for (std::size_t I = 0; I < N; ++I)
      Rhs.at(I, J) = Col[I];
  }
  return true;
}

bool markov::rowsAreStochastic(const AbsorbingChain &Chain, double Tol) {
  std::vector<double> RowSum(Chain.NumTransient, 0.0);
  for (const RationalTriplet &E : Chain.QEntries)
    RowSum[E.Row] += E.Value.toDouble();
  for (const RationalTriplet &E : Chain.REntries)
    RowSum[E.Row] += E.Value.toDouble();
  for (double Sum : RowSum)
    if (std::fabs(Sum - 1.0) > Tol)
      return false;
  return true;
}
