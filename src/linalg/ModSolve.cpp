//===----------------------------------------------------------------------===//
///
/// \file
/// Mod-p elimination kernels: Gilbert-Peierls sparse LU over GF(p) and
/// the entry point combining it with the dense prime-field path. See
/// linalg/ModSolve.h and docs/ARCHITECTURE.md S14.
///
//===----------------------------------------------------------------------===//

#include "linalg/ModSolve.h"

#include "linalg/Solve.h"

#include <cassert>
#include <limits>

using namespace mcnk;
using namespace mcnk::linalg;

namespace {
constexpr std::size_t NotPivotal = std::numeric_limits<std::size_t>::max();
} // namespace

bool ModSparseLU::factor(std::size_t Dim,
                         const std::vector<ModTriplet> &Entries) {
  N = Dim;
  LCols.assign(N, {});
  UCols.assign(N, {});
  Perm.assign(N, 0);
  NumOps = 0;

  // Column-wise assembly. Duplicate coordinates may stay duplicated here:
  // the symbolic step deduplicates rows via visit stamps and the numeric
  // step accumulates values in the field, so they merge correctly below.
  std::vector<std::vector<Entry>> ACols(N);
  for (const ModTriplet &T : Entries) {
    assert(T.Row < N && T.Col < N && "mod triplet out of range");
    ACols[T.Col].emplace_back(T.Row, T.Value);
  }

  // PInv[origRow] = pivot step at which the row became pivotal.
  std::vector<std::size_t> PInv(N, NotPivotal);
  std::vector<std::uint64_t> X(N, 0);
  std::vector<unsigned> VisitStamp(N, 0);
  unsigned Stamp = 0;
  std::vector<std::size_t> PostOrder;
  std::vector<std::pair<std::size_t, std::size_t>> Stack;

  for (std::size_t J = 0; J < N; ++J) {
    // --- Symbolic step: nodes reachable from the pattern of A(:,J)
    // through the graph of already-computed L columns, in DFS postorder
    // (identical to SparseLU::factor — reachability is value-free).
    ++Stamp;
    PostOrder.clear();
    for (const Entry &Root0 : ACols[J]) {
      std::size_t Root = Root0.first;
      if (VisitStamp[Root] == Stamp)
        continue;
      VisitStamp[Root] = Stamp;
      X[Root] = 0;
      Stack.clear();
      Stack.emplace_back(Root, 0);
      while (!Stack.empty()) {
        auto &[Node, ChildPos] = Stack.back();
        const std::vector<Entry> *Children =
            PInv[Node] != NotPivotal ? &LCols[PInv[Node]] : nullptr;
        std::size_t NumChildren = Children ? Children->size() : 0;
        bool Descended = false;
        while (ChildPos < NumChildren) {
          std::size_t Child = (*Children)[ChildPos].first;
          ++ChildPos;
          if (VisitStamp[Child] != Stamp) {
            VisitStamp[Child] = Stamp;
            X[Child] = 0;
            Stack.emplace_back(Child, 0);
            Descended = true;
            break;
          }
        }
        if (Descended)
          continue;
        PostOrder.push_back(Node);
        Stack.pop_back();
      }
    }

    // --- Numeric step: x = L \ A(:,J) over the reached pattern.
    for (const Entry &E : ACols[J])
      X[E.first] = F.add(X[E.first], E.second);
    for (std::size_t P = PostOrder.size(); P-- > 0;) {
      std::size_t Node = PostOrder[P];
      if (PInv[Node] == NotPivotal)
        continue;
      std::uint64_t XNode = X[Node];
      if (XNode == 0)
        continue;
      NumOps += LCols[PInv[Node]].size();
      for (const Entry &E : LCols[PInv[Node]])
        X[E.first] = F.sub(X[E.first], F.mul(E.second, XNode));
    }

    // --- Pivot: prefer the diagonal, else the first nonzero non-pivotal
    // row of the pattern (any nonzero is exact in a field; the choice
    // only shapes fill, and is deterministic either way).
    std::size_t PivotRow = NotPivotal;
    if (PInv[J] == NotPivotal && VisitStamp[J] == Stamp && X[J] != 0) {
      PivotRow = J;
    } else {
      for (std::size_t Node : PostOrder) {
        if (PInv[Node] != NotPivotal || X[Node] == 0)
          continue;
        PivotRow = Node;
        break;
      }
    }
    if (PivotRow == NotPivotal)
      return false; // Singular mod p: the unlucky-prime signal.

    std::uint64_t PivotValue = X[PivotRow];
    std::uint64_t PivotInv = F.inv(PivotValue);

    // --- Emit U(:,J) (pivotal rows) and L(:,J) (non-pivotal, scaled).
    for (std::size_t Node : PostOrder) {
      if (PInv[Node] != NotPivotal) {
        if (X[Node] != 0)
          UCols[J].emplace_back(PInv[Node], X[Node]);
        continue;
      }
      if (Node == PivotRow)
        continue;
      if (X[Node] != 0)
        LCols[J].emplace_back(Node, F.mul(X[Node], PivotInv));
    }
    UCols[J].emplace_back(J, PivotValue); // Diagonal last, by convention.
    Perm[J] = PivotRow;
    PInv[PivotRow] = J;
  }

  // Remap L's row indices from original space to pivot space.
  for (std::size_t J = 0; J < N; ++J)
    for (Entry &E : LCols[J]) {
      assert(PInv[E.first] != NotPivotal && "unpivoted row after factor");
      E.first = PInv[E.first];
    }
  return true;
}

void ModSparseLU::solve(std::vector<std::uint64_t> &B) {
  assert(B.size() == N && "RHS length mismatch");
  std::vector<std::uint64_t> &Y = Work;
  Y.resize(N);
  for (std::size_t K = 0; K < N; ++K)
    Y[K] = B[Perm[K]];

  // Forward substitution with unit lower-triangular L.
  for (std::size_t J = 0; J < N; ++J) {
    std::uint64_t YJ = Y[J];
    if (YJ == 0)
      continue;
    for (const Entry &E : LCols[J])
      Y[E.first] = F.sub(Y[E.first], F.mul(E.second, YJ));
  }

  // Back substitution with U (diagonal stored last in each column).
  for (std::size_t J = N; J-- > 0;) {
    const std::vector<Entry> &Col = UCols[J];
    assert(!Col.empty() && Col.back().first == J && "missing U diagonal");
    Y[J] = F.mul(Y[J], F.inv(Col.back().second));
    std::uint64_t YJ = Y[J];
    if (YJ == 0)
      continue;
    for (std::size_t K = 0; K + 1 < Col.size(); ++K)
      Y[Col[K].first] = F.sub(Y[Col[K].first], F.mul(Col[K].second, YJ));
  }
  std::swap(B, Y);
}

std::size_t ModSparseLU::numFactorEntries() const {
  std::size_t Count = 0;
  for (const auto &Col : LCols)
    Count += Col.size();
  for (const auto &Col : UCols)
    Count += Col.size();
  return Count;
}

bool linalg::modSolve(const PrimeField &F, std::size_t Dim,
                      const std::vector<ModTriplet> &A,
                      DenseMatrix<std::uint64_t> &B,
                      std::size_t &EliminationOps, std::size_t &FillIn) {
  assert(B.numRows() == Dim && "RHS shape mismatch");
  if (Dim == 0)
    return true;

  if (Dim <= ModDenseCutoff) {
    // Dense path: run the shared elimination loop under the prime-field
    // policy.
    DenseMatrix<std::uint64_t> DA(Dim, Dim);
    for (const ModTriplet &T : A) {
      std::uint64_t &Cell = DA.at(T.Row, T.Col);
      Cell = F.add(Cell, T.Value);
    }
    PrimeFieldOps Ops{F, &EliminationOps};
    return denseSolveInPlaceOps(Ops, DA, B);
  }

  ModSparseLU LU(F);
  if (!LU.factor(Dim, A))
    return false;
  EliminationOps += LU.numEliminationOps();
  std::size_t FactorEntries = LU.numFactorEntries();
  FillIn += FactorEntries > A.size() ? FactorEntries - A.size() : 0;

  std::vector<std::uint64_t> Col(Dim);
  for (std::size_t C = 0; C < B.numCols(); ++C) {
    for (std::size_t I = 0; I < Dim; ++I)
      Col[I] = B.at(I, C);
    LU.solve(Col);
    for (std::size_t I = 0; I < Dim; ++I)
      B.at(I, C) = Col[I];
  }
  return true;
}
