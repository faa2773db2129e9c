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
/// successor blocks), on the caller's thread, over any scalar field,
/// leaving one sparse absorption row per state: a block's right-hand side
/// spans only the exit columns it reaches, and nothing transient x exit
/// sized is ever allocated. A field policy supplies the scalar type, the
/// lowering of the plan's Rational coefficients into it, and the in-block
/// kernel:
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
///     // Solves (I - Q_BB) X = Rhs in place, column by column (Rhs has
///     // one column per exit the block reaches, possibly none); only
///     // called when the block has in-block entries.
///     bool solveBlock(const PlanBlock &, linalg::DenseMatrix<Scalar> &Rhs,
///                     BlockMetrics &) const;
///   };
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_MARKOV_BLOCKSOLVE_H
#define MCNK_MARKOV_BLOCKSOLVE_H

#include "markov/Absorbing.h"
#include "markov/Scc.h"

#include <algorithm>
#include <cstdint>

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
/// (successors first). \p Rows receives one sparse absorption row per
/// transient state of the chain (pruned states keep empty rows); each
/// block's kernel work accumulates into Metrics[block id]. Returns false
/// as soon as a block fails.
///
/// A block's right-hand side is dense only over the exit columns the
/// block reaches — its R_B columns and the columns of its solved
/// successors' rows — numbered in ascending exit order through one
/// NumAbsorbing-sized slot array that is reset after the block. The
/// kernels solve column by column, so leaving out columns that are zero
/// throughout changes no other cell, and each kept cell accumulates R_B
/// and then Q_ext in the same order a full-width right-hand side would.
template <typename Field>
bool solveBlocks(const BlockPlan &Plan, const Field &F,
                 std::vector<AbsorptionRow<typename Field::Scalar>> &Rows,
                 std::vector<BlockMetrics> &Metrics) {
  using Scalar = typename Field::Scalar;
  const std::vector<std::size_t> &Original = Plan.Pruned.Original;
  Rows.assign(Plan.Pruned.CanReach.size(), {});
  // Slot[C]: exit column C's index in the current block's right-hand
  // side; SIZE_MAX when the block does not reach C.
  std::vector<std::size_t> Slot(Plan.NumAbsorbing, SIZE_MAX);
  std::vector<std::size_t> Cols;
  Scalar V = F.zero();
  for (std::size_t B = 0; B < Plan.Blocks.size(); ++B) {
    const PlanBlock &PB = Plan.Blocks[B];
    Cols.clear();
    auto Reach = [&](std::size_t C) {
      if (Slot[C] == SIZE_MAX) {
        Slot[C] = 0;
        Cols.push_back(C);
      }
    };
    for (const PlanCell &E : PB.R)
      Reach(E.Col);
    for (const PlanCell &E : PB.Outer)
      for (const auto &Cell : Rows[Original[E.Col]])
        Reach(Cell.first);
    std::sort(Cols.begin(), Cols.end());
    for (std::size_t J = 0; J < Cols.size(); ++J)
      Slot[Cols[J]] = J;

    linalg::DenseMatrix<Scalar> Rhs(PB.Members.size(), Cols.size());
    for (const PlanCell &E : PB.R) {
      if (!F.lower(E.Value, V))
        return false;
      F.add(Rhs.at(E.Row, Slot[E.Col]), V);
    }
    // Back-substitution along condensation edges: successor blocks are
    // solved, so their absorption rows fold into this block's RHS.
    for (const PlanCell &E : PB.Outer) {
      if (!F.lower(E.Value, V))
        return false;
      for (const auto &[C, X] : Rows[Original[E.Col]])
        F.addMul(Rhs.at(E.Row, Slot[C]), V, X);
    }
    for (std::size_t C : Cols)
      Slot[C] = SIZE_MAX;
    // Without in-block entries the block's system is the identity.
    if (!PB.Inner.empty() && !F.solveBlock(PB, Rhs, Metrics[B]))
      return false;
    for (std::size_t L = 0; L < PB.Members.size(); ++L) {
      AbsorptionRow<Scalar> &Row = Rows[Original[PB.Members[L]]];
      std::size_t NumNonzero = 0;
      for (std::size_t J = 0; J < Cols.size(); ++J)
        NumNonzero += !F.isZero(Rhs.at(L, J));
      Row.reserve(NumNonzero);
      for (std::size_t J = 0; J < Cols.size(); ++J)
        if (!F.isZero(Rhs.at(L, J)))
          Row.emplace_back(Cols[J], std::move(Rhs.at(L, J)));
    }
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

} // namespace detail
} // namespace markov
} // namespace mcnk

#endif // MCNK_MARKOV_BLOCKSOLVE_H
