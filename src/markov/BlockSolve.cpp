//===----------------------------------------------------------------------===//
///
/// \file
/// The block plan and the exact and double instances of the block
/// pipeline (docs/ARCHITECTURE.md S13; see BlockSolve.h). Blocks are
/// eliminated in reverse topological order, which block ids from Tarjan
/// pop order make simply increasing id order.
///
//===----------------------------------------------------------------------===//

#include "markov/BlockSolve.h"

#include "linalg/ModSolve.h"
#include "linalg/Ordering.h"
#include "linalg/Solve.h"

#include <algorithm>
#include <cassert>

using namespace mcnk;
using namespace mcnk::markov;
using namespace mcnk::markov::detail;
using linalg::DenseMatrix;
using linalg::Triplet;

namespace {

/// A kept chain entry in compact coordinates.
struct Kept {
  std::size_t Row;
  std::size_t Col;
  const Rational *Value;
};

/// Sorts \p Entries by (row, column) and returns the row starts: row U's
/// entries are Entries[Start[U], Start[U + 1]), duplicates adjacent.
std::vector<std::size_t> sortByRow(std::vector<Kept> &Entries,
                                   std::size_t NumRows) {
  std::sort(Entries.begin(), Entries.end(), [](const Kept &A, const Kept &B) {
    return A.Row != B.Row ? A.Row < B.Row : A.Col < B.Col;
  });
  std::vector<std::size_t> Start(NumRows + 1, 0);
  for (const Kept &E : Entries)
    ++Start[E.Row + 1];
  for (std::size_t U = 0; U < NumRows; ++U)
    Start[U + 1] += Start[U];
  return Start;
}

/// Emits one cell per distinct column of the sorted run
/// Entries[Begin, End), summing duplicate coordinates and skipping cells
/// that sum to zero — the cells of the assembled I - Q or R row.
template <typename Fn>
void mergeRun(const std::vector<Kept> &Entries, std::size_t Begin,
              std::size_t End, Fn Emit) {
  for (std::size_t I = Begin; I < End;) {
    Rational V = *Entries[I].Value;
    std::size_t J = I + 1;
    for (; J < End && Entries[J].Col == Entries[I].Col; ++J)
      V += *Entries[J].Value;
    if (!V.isZero())
      Emit(Entries[I].Col, std::move(V));
    I = J;
  }
}

} // namespace

BlockPlan detail::planBlocks(const AbsorbingChain &Chain,
                             std::size_t MinOrdered) {
  BlockPlan Plan;
  Plan.Pruned = pruneUnreachableStates(Chain);
  Plan.NumAbsorbing = Chain.NumAbsorbing;
  const ChainPruning &P = Plan.Pruned;
  std::size_t NK = P.NumKept;

  std::vector<Kept> Q, R;
  Q.reserve(Chain.QEntries.size());
  R.reserve(Chain.REntries.size());
  std::vector<std::vector<std::size_t>> Adj(NK);
  for (const RationalTriplet &E : Chain.QEntries) {
    assert(E.Row < Chain.NumTransient && E.Col < Chain.NumTransient &&
           "Q entry out of range");
    if (E.Value.isZero() || !P.CanReach[E.Row] || !P.CanReach[E.Col])
      continue;
    Q.push_back({P.Compact[E.Row], P.Compact[E.Col], &E.Value});
    Adj[P.Compact[E.Row]].push_back(P.Compact[E.Col]);
  }
  for (const RationalTriplet &E : Chain.REntries) {
    assert(E.Row < Chain.NumTransient && E.Col < Chain.NumAbsorbing &&
           "R entry out of range");
    if (P.CanReach[E.Row])
      R.push_back({P.Compact[E.Row], E.Col, &E.Value});
  }
  std::vector<std::size_t> QStart = sortByRow(Q, NK);
  std::vector<std::size_t> RStart = sortByRow(R, NK);
  Plan.NumKeptQ = Q.size();
  Plan.Scc = computeScc(NK, Adj);

  std::vector<std::size_t> LocalOf(NK);
  for (const std::vector<std::size_t> &Members : Plan.Scc.Blocks)
    for (std::size_t L = 0; L < Members.size(); ++L)
      LocalOf[Members[L]] = L;

  // Reserve each block's cell lists up front (raw entry counts bound the
  // merged cells): the plan is allocation-bound on large blocks.
  Plan.Blocks.resize(Plan.Scc.NumBlocks);
  std::vector<std::size_t> NumInner(Plan.Scc.NumBlocks, 0);
  for (const Kept &E : Q)
    NumInner[Plan.Scc.BlockOf[E.Row]] +=
        Plan.Scc.BlockOf[E.Row] == Plan.Scc.BlockOf[E.Col];
  for (std::size_t B = 0; B < Plan.Scc.NumBlocks; ++B) {
    PlanBlock &PB = Plan.Blocks[B];
    PB.Members = Plan.Scc.Blocks[B];
    if (PB.Members.size() >= std::max<std::size_t>(MinOrdered, 2)) {
      linalg::AdjacencyList Pattern(PB.Members.size());
      for (std::size_t G : PB.Members)
        for (std::size_t I = QStart[G]; I < QStart[G + 1]; ++I)
          if (Plan.Scc.BlockOf[Q[I].Col] == B)
            Pattern[LocalOf[G]].push_back(LocalOf[Q[I].Col]);
      std::vector<std::size_t> Ascending;
      Ascending.swap(PB.Members);
      for (std::size_t L : linalg::reverseCuthillMcKee(
               linalg::symmetrizedPattern(Pattern)))
        PB.Members.push_back(Ascending[L]);
      for (std::size_t L = 0; L < PB.Members.size(); ++L)
        LocalOf[PB.Members[L]] = L;
    }
    std::size_t NumQ = 0, NumR = 0;
    for (std::size_t G : PB.Members) {
      NumQ += QStart[G + 1] - QStart[G];
      NumR += RStart[G + 1] - RStart[G];
    }
    PB.Inner.reserve(NumInner[B]);
    PB.Outer.reserve(NumQ - NumInner[B]);
    PB.R.reserve(NumR);
    for (std::size_t L = 0; L < PB.Members.size(); ++L) {
      std::size_t G = PB.Members[L];
      PB.NumQEntries += QStart[G + 1] - QStart[G];
      mergeRun(Q, QStart[G], QStart[G + 1], [&](std::size_t Col, Rational V) {
        if (Plan.Scc.BlockOf[Col] == B) {
          PB.Inner.push_back({L, LocalOf[Col], std::move(V)});
          return;
        }
        assert(Plan.Scc.BlockOf[Col] < B && "unsolved successor");
        PB.Outer.push_back({L, Col, std::move(V)});
      });
      mergeRun(R, RStart[G], RStart[G + 1], [&](std::size_t Col, Rational V) {
        PB.R.push_back({L, Col, std::move(V)});
      });
    }
  }
  return Plan;
}

void detail::finishMetrics(SolveMetrics &M, const BlockPlan &Plan,
                           std::vector<BlockMetrics> Blocks) {
  M = SolveMetrics();
  M.NumSolved = Plan.Pruned.NumKept;
  M.NumSolvedQ = Plan.NumKeptQ;
  M.NumBlocks = Plan.Scc.NumBlocks;
  M.Blocks = std::move(Blocks);
  for (std::size_t Id = 0; Id < M.Blocks.size(); ++Id) {
    BlockMetrics &B = M.Blocks[Id];
    B.NumStates = Plan.Blocks[Id].Members.size();
    B.NumQEntries = Plan.Blocks[Id].NumQEntries;
    M.MaxBlockSize = std::max(M.MaxBlockSize, B.NumStates);
    M.EliminationOps += B.EliminationOps;
    M.FillIn += B.FillIn;
    M.NumPrimes += B.NumPrimes;
    M.RetriedPrimes += B.RetriedPrimes;
    M.ReconstructionBits = std::max(M.ReconstructionBits, B.ReconstructionBits);
    M.ModularFallbacks += B.ModularFallbacks;
  }
}

namespace {

/// Rational field: the exact engine. Each block picks its kernel — the
/// GF(p) kernel on blocks of at least ModularMinBlock states (or as
/// Structure forces), Gauss-Jordan elimination over Rational otherwise
/// and wherever the GF(p) kernel gives up.
struct RationalField {
  using Scalar = Rational;
  /// The GF(p) kernel's sparse LU factors in the plan's numbering; its
  /// dense path and min-degree Rational elimination ignore it.
  static constexpr std::size_t MinOrdered = linalg::ModDenseCutoff + 1;
  const SolverStructure &Structure;
  Rational zero() const { return Rational(); }
  bool isZero(const Rational &V) const { return V.isZero(); }
  bool lower(const Rational &V, Rational &Out) const {
    Out = V;
    return true;
  }
  void add(Rational &Acc, const Rational &V) const { Acc += V; }
  void addMul(Rational &Acc, const Rational &A, const Rational &B) const {
    Acc.addMul(A, B);
  }
  bool solveBlock(const PlanBlock &PB, DenseMatrix<Rational> &Rhs,
                  BlockMetrics &BM) const {
    BlockKernel K = Structure.Kernel;
    if (K == BlockKernel::Auto)
      K = PB.Members.size() >= ModularMinBlock ? BlockKernel::Modular
                                               : BlockKernel::Rational;
    if (K == BlockKernel::Modular &&
        solveBlockModular(PB, Rhs, Structure, BM))
      return true;
    std::vector<std::map<std::size_t, Rational>> Rows(PB.Members.size());
    for (std::size_t L = 0; L < Rows.size(); ++L)
      Rows[L][L] = Rational(1);
    for (const PlanCell &E : PB.Inner) {
      Rational &Cell = Rows[E.Row][E.Col];
      Cell -= E.Value;
      if (Cell.isZero())
        Rows[E.Row].erase(E.Col);
    }
    return eliminateRationalSystem(Rows, Rhs, BM.EliminationOps, BM.FillIn);
  }
};

/// Double arithmetic shared by the Direct and Iterative kernels.
struct DoubleField {
  using Scalar = double;
  double zero() const { return 0.0; }
  bool isZero(double V) const { return V == 0.0; }
  bool lower(const Rational &V, double &Out) const {
    Out = V.toDouble();
    return true;
  }
  void add(double &Acc, double V) const { Acc += V; }
  void addMul(double &Acc, double A, double B) const { Acc += A * B; }
  static std::vector<Triplet> innerTriplets(const PlanBlock &PB) {
    std::vector<Triplet> QT;
    QT.reserve(PB.Inner.size());
    for (const PlanCell &E : PB.Inner)
      QT.push_back({E.Row, E.Col, E.Value.toDouble()});
    return QT;
  }
};

/// Direct: sparse LU of I - Q_BB in the plan's RCM numbering.
struct LUField : DoubleField {
  static constexpr std::size_t MinOrdered = 2;
  bool solveBlock(const PlanBlock &PB, DenseMatrix<double> &Rhs,
                  BlockMetrics &BM) const {
    return luSolve(PB.Members.size(), innerTriplets(PB), Rhs,
                   BM.EliminationOps, BM.FillIn);
  }
};

/// Iterative: x = Q_BB x + rhs per absorbing column. Each block converges
/// on its own residual; its RHS already carries the solved successors.
struct NeumannField : DoubleField {
  static constexpr std::size_t MinOrdered = SIZE_MAX;
  bool solveBlock(const PlanBlock &PB, DenseMatrix<double> &Rhs,
                  BlockMetrics &BM) const {
    std::size_t N = PB.Members.size();
    linalg::SparseMatrix Q =
        linalg::SparseMatrix::fromTriplets(N, N, innerTriplets(PB));
    std::vector<double> Col(N), X;
    for (std::size_t J = 0; J < Rhs.numCols(); ++J) {
      for (std::size_t I = 0; I < N; ++I)
        Col[I] = Rhs.at(I, J);
      std::size_t Iterations = linalg::neumannSolve(Q, Col, X);
      if (Iterations == 0)
        return false;
      BM.EliminationOps += Iterations * Q.numNonZeros();
      for (std::size_t I = 0; I < N; ++I)
        Rhs.at(I, J) = X[I];
    }
    return true;
  }
};

/// Plan, solve over \p F, scatter, and report: the whole pipeline for the
/// single-field engines.
template <typename Field>
bool solvePipeline(const AbsorbingChain &Chain, const Field &F,
                   DenseMatrix<typename Field::Scalar> &Out,
                   SolveMetrics *Metrics) {
  BlockPlan Plan = planBlocks(Chain, Field::MinOrdered);
  std::vector<BlockMetrics> Blocks(Plan.Blocks.size());
  DenseMatrix<typename Field::Scalar> X;
  if (!solveBlocks(Plan, F, X, Blocks))
    return false;
  Out = DenseMatrix<typename Field::Scalar>(Chain.NumTransient,
                                            Chain.NumAbsorbing);
  scatterSolution(Plan, X, Out);
  if (Metrics)
    finishMetrics(*Metrics, Plan, std::move(Blocks));
  return true;
}

} // namespace

bool markov::solveAbsorptionExact(const AbsorbingChain &Chain,
                                  DenseMatrix<Rational> &Out,
                                  SolveMetrics *Metrics,
                                  const SolverStructure &Structure) {
  return solvePipeline(Chain, RationalField{Structure}, Out, Metrics);
}

bool markov::solveAbsorptionDouble(const AbsorbingChain &Chain,
                                   DenseMatrix<double> &Out,
                                   SolverKind Kind,
                                   SolveMetrics *Metrics) {
  assert(Kind != SolverKind::Exact && "use solveAbsorptionExact");
  if (Kind == SolverKind::Direct)
    return solvePipeline(Chain, LUField(), Out, Metrics);
  return solvePipeline(Chain, NeumannField(), Out, Metrics);
}
