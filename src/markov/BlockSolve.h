//===----------------------------------------------------------------------===//
///
/// \file
/// The one absorbing-chain pipeline behind every engine
/// (docs/ARCHITECTURE.md S13), private to markov/. planBlocks() prunes the
/// chain and decomposes the kept transient graph into strongly connected
/// blocks once per solve; solveBlocks() then solves
///
///   (I - Q_BB) A_B = R_B + Q_{B,ext} A_ext
///
/// block by block in increasing block id, a reverse topological order of
/// the condensation DAG (ext ranges over states of already solved
/// successor blocks), on the caller's thread, over any scalar field. A
/// field policy supplies the scalar type, the lowering of the plan's
/// Rational coefficients into it, and the in-block kernel:
///
///   struct Field {
///     using Scalar = ...;
///     // Smallest block whose kernel wants the RCM numbering.
///     static constexpr std::size_t MinOrdered = ...;
///     Scalar zero() const;
///     bool isZero(const Scalar &) const;
///     // False when the coefficient has no image (GF(p): p | denominator).
///     bool lower(const Rational &, Scalar &) const;
///     void add(Scalar &Acc, const Scalar &V) const;
///     void addMul(Scalar &Acc, const Scalar &A, const Scalar &B) const;
///     // Solves (I - Q_BB) X = Rhs in place; only called when the block
///     // has in-block entries.
///     bool solveBlock(const PlanBlock &, linalg::DenseMatrix<Scalar> &Rhs,
///                     BlockMetrics &) const;
///   };
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_MARKOV_BLOCKSOLVE_H
#define MCNK_MARKOV_BLOCKSOLVE_H

#include "markov/Absorbing.h"
#include "markov/Scc.h"

namespace mcnk {
namespace markov {
namespace detail {

/// One merged coefficient of the pruned system: duplicate (row, column)
/// triplets of the chain are summed, exactly as assembling I - Q or R
/// would, so every field sees the same values a whole-system solve does.
struct PlanCell {
  std::size_t Row;
  std::size_t Col;
  Rational Value;
};

/// One strongly connected block. Local index L is Members[L].
struct PlanBlock {
  /// Compact states in local order: reverse Cuthill-McKee order of the
  /// in-block pattern for blocks of at least the plan's MinOrdered states
  /// (computed once, so the LU and mod-p kernels of every solve over the
  /// plan factor in it), ascending otherwise.
  std::vector<std::size_t> Members;
  std::vector<PlanCell> Inner; ///< Q_BB: (local row, local column).
  std::vector<PlanCell> Outer; ///< Q_ext: (local row, compact column).
  std::vector<PlanCell> R;     ///< R_B: (local row, absorbing column).
  std::size_t NumQEntries = 0; ///< Kept chain triplets rooted here.
};

/// The pruned chain, decomposed once per solve.
struct BlockPlan {
  ChainPruning Pruned;
  SccDecomposition Scc; ///< Over compact transient indices.
  std::vector<PlanBlock> Blocks;
  std::size_t NumAbsorbing = 0;
  std::size_t NumKeptQ = 0;
};

/// Plans \p Chain, numbering every block with at least \p MinOrdered
/// states (the solving field's MinOrdered) in RCM order.
BlockPlan planBlocks(const AbsorbingChain &Chain, std::size_t MinOrdered);

/// Fills \p M from the plan's structure and the per-block op counts
/// \p Blocks accumulated by the solves (indexed by block id).
void finishMetrics(SolveMetrics &M, const BlockPlan &Plan,
                   std::vector<BlockMetrics> Blocks);

/// Solves the whole plan over \p F, block by block in increasing id order
/// (successors first). \p X receives the absorption rows in compact index
/// order (NumKept x NumAbsorbing); each block's kernel work accumulates
/// into Metrics[block id]. Returns false as soon as a block fails.
template <typename Field>
bool solveBlocks(const BlockPlan &Plan, const Field &F,
                 linalg::DenseMatrix<typename Field::Scalar> &X,
                 std::vector<BlockMetrics> &Metrics) {
  using Scalar = typename Field::Scalar;
  std::size_t NA = Plan.NumAbsorbing;
  X = linalg::DenseMatrix<Scalar>(Plan.Pruned.NumKept, NA);
  Scalar V = F.zero();
  for (std::size_t B = 0; B < Plan.Blocks.size(); ++B) {
    const PlanBlock &PB = Plan.Blocks[B];
    linalg::DenseMatrix<Scalar> Rhs(PB.Members.size(), NA);
    for (const PlanCell &E : PB.R) {
      if (!F.lower(E.Value, V))
        return false;
      F.add(Rhs.at(E.Row, E.Col), V);
    }
    // Back-substitution along condensation edges: successor blocks are
    // solved, so their absorption rows fold into this block's RHS.
    for (const PlanCell &E : PB.Outer) {
      if (!F.lower(E.Value, V))
        return false;
      for (std::size_t C = 0; C < NA; ++C)
        if (!F.isZero(X.at(E.Col, C)))
          F.addMul(Rhs.at(E.Row, C), V, X.at(E.Col, C));
    }
    // Without in-block entries the block's system is the identity.
    if (!PB.Inner.empty() && !F.solveBlock(PB, Rhs, Metrics[B]))
      return false;
    for (std::size_t L = 0; L < PB.Members.size(); ++L)
      for (std::size_t C = 0; C < NA; ++C)
        X.at(PB.Members[L], C) = std::move(Rhs.at(L, C));
  }
  return true;
}

/// The exact engine's GF(p) kernel (ModularSolve.cpp): solves one
/// block's system (I - Q_BB) X = Rhs, where \p Rhs already holds the exact
/// R_B plus the solved successors, modulo word-size primes, and recovers
/// X by CRT, Wang reconstruction and a fresh-prime check. On success Rhs
/// holds X; on false (prime budget exhausted, or singular mod every prime
/// tried) Rhs is untouched and the caller eliminates over Rational. The
/// prime counters accumulate into \p BM.
bool solveBlockModular(const PlanBlock &PB, linalg::DenseMatrix<Rational> &Rhs,
                       const SolverStructure &Structure, BlockMetrics &BM);

/// Scatters the compact solution \p X into \p Out (NumTransient x
/// NumAbsorbing; pruned rows stay zero).
template <typename T>
void scatterSolution(const BlockPlan &Plan, linalg::DenseMatrix<T> &X,
                     linalg::DenseMatrix<T> &Out) {
  for (std::size_t K = 0; K < Plan.Pruned.NumKept; ++K)
    for (std::size_t C = 0; C < Plan.NumAbsorbing; ++C)
      Out.at(Plan.Pruned.Original[K], C) = std::move(X.at(K, C));
}

} // namespace detail
} // namespace markov
} // namespace mcnk

#endif // MCNK_MARKOV_BLOCKSOLVE_H
