//===----------------------------------------------------------------------===//
///
/// \file
/// Mod-p elimination kernels for the exact engine's GF(p) block kernel
/// (docs/ARCHITECTURE.md S14). Everything here operates on Montgomery-form
/// residues of a support/ModArith.h PrimeField: one uint64 word per value,
/// no allocation in the inner loops. Two kernels are provided behind one
/// entry point:
///
///   - a dense partial-pivot path for small systems, instantiating the
///     shared denseSolveInPlaceOps() loop (linalg/Solve.h) with a
///     prime-field scalar policy, and
///   - ModSparseLU, a left-looking Gilbert-Peierls LU mirroring
///     linalg/SparseLU over GF(p).
///
/// Over a prime field every nonzero pivot is exact, so "pivoting" is purely
/// structural — but a rationally nonsingular system can still hit a zero
/// pivot mod an unlucky prime (p divides the relevant minor). The kernels
/// report that as a false return; the markov-layer driver discards the
/// prime and draws the next one from the deterministic table.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_LINALG_MODSOLVE_H
#define MCNK_LINALG_MODSOLVE_H

#include "linalg/Dense.h"
#include "support/ModArith.h"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mcnk {
namespace linalg {

/// One coordinate-form entry of a mod-p matrix; Value is in Montgomery
/// form. Duplicates are accumulated (field addition) on assembly.
struct ModTriplet {
  std::size_t Row;
  std::size_t Col;
  std::uint64_t Value;
};

/// Scalar policy plugging GF(p) residues into the shared dense
/// elimination loop (linalg/Solve.h denseSolveInPlaceOps). Montgomery
/// zero is the machine zero, so isZero is a word compare; every nonzero
/// pivot is equally exact, so pivotWeight is binary and the loop keeps
/// the first admissible (structurally deterministic) pivot.
struct PrimeFieldOps {
  using Scalar = std::uint64_t;
  const PrimeField &F;
  std::size_t *OpCount = nullptr; ///< Optional multiply-subtract counter.

  std::uint64_t zero() const { return 0; }
  bool isZero(std::uint64_t V) const { return V == 0; }
  double pivotWeight(std::uint64_t V) const { return V == 0 ? 0.0 : 1.0; }
  void addMul(std::uint64_t &Acc, std::uint64_t A, std::uint64_t B) const {
    Acc = F.add(Acc, F.mul(A, B));
  }
  void subMul(std::uint64_t &Acc, std::uint64_t A, std::uint64_t B) const {
    if (OpCount)
      ++*OpCount;
    Acc = F.sub(Acc, F.mul(A, B));
  }
  std::uint64_t div(std::uint64_t A, std::uint64_t B) const {
    return F.mul(A, F.inv(B));
  }
};

/// Left-looking Gilbert-Peierls sparse LU over GF(p): the structure of
/// linalg/SparseLU with Montgomery residues in place of doubles. The
/// pivot search prefers the diagonal and otherwise takes the first
/// nonzero of the reach pattern (deterministic; magnitude is meaningless
/// in a field). factor() returning false means no nonzero pivot existed
/// in some column — mod p the matrix is singular, i.e. the prime is
/// unlucky for a rationally nonsingular system.
class ModSparseLU {
public:
  explicit ModSparseLU(const PrimeField &Field) : F(Field) {}

  /// Factors the Dim x Dim matrix given in coordinate form (duplicate
  /// entries accumulate). Returns false on a zero pivot.
  bool factor(std::size_t Dim, const std::vector<ModTriplet> &Entries);

  /// Solves A x = b in place (Montgomery residues). Requires a successful
  /// factor(); reuses internal scratch, so keep one instance per thread.
  void solve(std::vector<std::uint64_t> &B);

  std::size_t dimension() const { return N; }
  std::size_t numFactorEntries() const;
  /// Multiply-subtract count of the last factor() — the per-prime op
  /// metric, comparable with SparseLU::numEliminationOps().
  std::size_t numEliminationOps() const { return NumOps; }

private:
  using Entry = std::pair<std::size_t, std::uint64_t>; // (row, value)

  const PrimeField &F;
  std::size_t N = 0;
  std::vector<std::vector<Entry>> LCols;
  std::vector<std::vector<Entry>> UCols;
  std::vector<std::size_t> Perm;
  std::vector<std::uint64_t> Work;
  std::size_t NumOps = 0;
};

/// Solves A X = B over GF(p), where \p A is the full Dim x Dim system in
/// coordinate form (Montgomery residues, duplicates accumulated) and \p B
/// is the dense Dim x NumRhs right-hand side, overwritten with the
/// solution. Small systems run the dense kernel; larger ones factor with
/// ModSparseLU in the given numbering (the block plan numbers large blocks
/// in RCM order). \p EliminationOps and \p FillIn accumulate the
/// per-prime work metrics. Returns false on a zero pivot — the
/// unlucky-prime signal.
bool modSolve(const PrimeField &F, std::size_t Dim,
              const std::vector<ModTriplet> &A, DenseMatrix<std::uint64_t> &B,
              std::size_t &EliminationOps, std::size_t &FillIn);

/// Systems at or below this dimension take the dense kernel (pattern
/// bookkeeping costs more than it saves on tiny blocks).
constexpr std::size_t ModDenseCutoff = 16;

} // namespace linalg
} // namespace mcnk

#endif // MCNK_LINALG_MODSOLVE_H
