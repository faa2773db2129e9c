//===----------------------------------------------------------------------===//
///
/// \file
/// Absorbing Markov chain analysis (paper §4). Given the transient-to-
/// transient block Q and transient-to-absorbing block R of an absorbing
/// chain, computes the absorption probabilities A = (I - Q)^{-1} R
/// (Equation 2 / Theorem 4.7). Three engines share one pipeline
/// (docs/ARCHITECTURE.md S13): prune states that cannot reach absorption,
/// decompose the rest into strongly connected blocks, and solve the
/// blocks one at a time on the caller's thread, in reverse topological
/// order of the condensation DAG — absorption out of a block depends only
/// on already solved downstream blocks. Only the per-block kernel depends
/// on the engine:
///   - exact:     sparse Gauss-Jordan elimination over Rational on blocks
///                below ModularMinBlock states, the multi-prime GF(p)
///                kernel with CRT and verified rational reconstruction on
///                larger ones (docs/ARCHITECTURE.md S14)
///   - direct:    sparse LU over double (the paper's UMFPACK configuration)
///   - iterative: Neumann-series iteration over double (PRISM-style approx)
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_MARKOV_ABSORBING_H
#define MCNK_MARKOV_ABSORBING_H

#include "linalg/Dense.h"
#include "linalg/Sparse.h"
#include "support/Rational.h"

#include <cstddef>
#include <map>
#include <vector>

namespace mcnk {
namespace markov {

/// A rational-valued sparse entry of the Q or R block.
struct RationalTriplet {
  std::size_t Row;
  std::size_t Col;
  Rational Value;
};

/// Sparse description of an absorbing chain's transient rows: Q is
/// NumTransient x NumTransient, R is NumTransient x NumAbsorbing. Rows must
/// be substochastic: Q-row sum + R-row sum == 1 for genuine chains.
struct AbsorbingChain {
  std::size_t NumTransient = 0;
  std::size_t NumAbsorbing = 0;
  std::vector<RationalTriplet> QEntries;
  std::vector<RationalTriplet> REntries;
};

/// Solver selection for absorption probabilities.
enum class SolverKind {
  Exact,     ///< Exact rationals; no rounding anywhere (per-block kernel
             ///< choice below, docs/ARCHITECTURE.md S13/S14).
  Direct,    ///< Sparse LU over double (paper's native configuration).
  Iterative, ///< Neumann iteration over double.
  /// Alias of Exact, kept only because e2ebench/src/Workloads.cpp and
  /// e2ebench/src/Harness.cpp still name it.
  ModularExact = Exact,
};

/// Which kernel the exact engine runs on a block with in-block entries.
enum class BlockKernel {
  Auto,     ///< GF(p) from ModularMinBlock states up, Rational below.
  Rational, ///< Sparse Gauss-Jordan over Rational on every block.
  Modular,  ///< The multi-prime GF(p) kernel on every block.
};

/// Smallest block the exact engine hands to the GF(p) kernel under
/// BlockKernel::Auto: the crossover of micro_linalg's BM_DenseBlockKernel
/// sweep (bench/results/BENCH_micro_linalg.json). On its dense random
/// blocks Rational/GF(p) time reads 0.75x at 10 states, 1.18x at 11 and
/// 1.22x at 12 with 8-bit denominators, 1.07x, 1.05x and 1.71x with
/// 30-bit ones; 12 is where GF(p) won at both widths in every run.
constexpr std::size_t ModularMinBlock = 12;

/// Test-only knobs of the exact engine, set through
/// Verifier::setSolverStructure; no CLI flag, serve field or environment
/// variable reaches them. The oracle forces each kernel so both stay
/// cross-checked; tests shrink MaxPrimes to force a block's Rational
/// fallback and shift FirstPrimeIndex to replay an unlucky-prime walk.
struct SolverStructure {
  BlockKernel Kernel = BlockKernel::Auto;
  /// Per-block prime budget: a GF(p) block that has accepted this many
  /// primes without a verified reconstruction falls back to Rational
  /// elimination (BlockMetrics::ModularFallbacks). The modulus only grows
  /// to just past the block's largest answer, so the default is a runaway
  /// guard (~250k bits of answer), not a tuning knob.
  std::size_t MaxPrimes = 4096;
  /// Index into the deterministic modPrime() table where every GF(p)
  /// block starts drawing primes.
  std::size_t FirstPrimeIndex = 0;
};

/// Elimination statistics of one solve block (one strongly connected class
/// of the kept transient states).
struct BlockMetrics {
  std::size_t NumStates = 0;       ///< Transient states in the block.
  std::size_t NumQEntries = 0;     ///< Kept Q entries rooted in the block.
  std::size_t EliminationOps = 0;  ///< Multiply-subtract operations.
  std::size_t FillIn = 0;          ///< Entries created by elimination.
  /// GF(p) kernel only (zero on Rational blocks): primes accepted into
  /// the block's CRT product, unlucky primes discarded, the bit length of
  /// the prime product behind the verified reconstruction, and 1 if the
  /// block exhausted its prime budget and fell back to Rational.
  std::size_t NumPrimes = 0;
  std::size_t RetriedPrimes = 0;
  std::size_t ReconstructionBits = 0;
  std::size_t ModularFallbacks = 0;
};

/// Aggregated solve statistics. Per-block entries always sum to the
/// totals: Σ Blocks[i].NumStates == NumSolved, Σ NumQEntries ==
/// NumSolvedQ, and likewise for EliminationOps / FillIn and the GF(p)
/// counters NumPrimes / RetriedPrimes / ModularFallbacks;
/// ReconstructionBits is the maximum over the blocks.
struct SolveMetrics {
  std::size_t NumSolved = 0;      ///< Transient states kept after pruning.
  std::size_t NumSolvedQ = 0;     ///< Q entries inside the kept subgraph.
  std::size_t NumBlocks = 0;
  std::size_t MaxBlockSize = 0;
  std::size_t EliminationOps = 0;
  std::size_t FillIn = 0;
  /// Exact engine's GF(p) blocks only (see BlockMetrics).
  std::size_t NumPrimes = 0;
  std::size_t RetriedPrimes = 0;
  std::size_t ReconstructionBits = 0;
  std::size_t ModularFallbacks = 0;
  std::vector<BlockMetrics> Blocks; ///< Indexed by block id.
};

/// Transient states that cannot reach any absorbing state, computed by
/// reverse BFS from rows with R mass through Q edges. Mass in such states
/// diverges; the language interprets it as dropped, so their rows of the
/// absorption matrix are zero and the states are pruned from the linear
/// system. After pruning, I - Q is nonsingular (every remaining state
/// reaches a defective row; Lemma B.3 of the paper).
struct ChainPruning {
  std::vector<bool> CanReach;        ///< Indexed by transient state.
  std::vector<std::size_t> Compact;  ///< Old index -> compact index.
  std::vector<std::size_t> Original; ///< Compact index -> old index.
  std::size_t NumKept = 0;
};

ChainPruning pruneUnreachableStates(const AbsorbingChain &Chain);

/// Exact absorption probabilities. Unreachable states (a ProbNetKAT loop
/// diverging on some input) get absorption probability 0 into every
/// absorbing state — the minimal solution, matching the semantics where
/// diverging mass lands on ∅/drop. Returns false only if the pruned
/// system is singular (cannot happen for a well-formed substochastic
/// chain; guards against malformed input). \p Metrics, when non-null,
/// receives the per-block elimination statistics; \p Structure picks the
/// per-block kernel (tests only).
bool solveAbsorptionExact(const AbsorbingChain &Chain,
                          linalg::DenseMatrix<Rational> &Out,
                          SolveMetrics *Metrics = nullptr,
                          const SolverStructure &Structure = {});

/// Floating-point absorption probabilities via sparse LU (Direct) or
/// Neumann iteration (Iterative). Returns false on singularity /
/// non-convergence.
bool solveAbsorptionDouble(const AbsorbingChain &Chain,
                           linalg::DenseMatrix<double> &Out,
                           SolverKind Kind = SolverKind::Direct,
                           SolveMetrics *Metrics = nullptr);

/// Checks that every transient row of the chain sums to one (within \p Tol
/// when evaluated in floating point). Used by tests and assertions.
bool rowsAreStochastic(const AbsorbingChain &Chain, double Tol = 1e-9);

namespace detail {

/// Sparse Gauss-Jordan elimination over Rational with min-degree pivoting
/// — the exact engine's kernel on blocks below ModularMinBlock states. \p Rows holds the square system
/// (Rows[i] maps column -> coefficient, diagonals nonzero on entry for
/// well-formed chains); \p Rhs the dense right-hand-side block. On success
/// Rows is reduced to the identity and Rhs holds the solution in place.
/// \p EliminationOps accumulates multiply-subtract operations and
/// \p FillIn the number of matrix entries created during elimination.
/// Returns false if a zero pivot is hit (singular system).
bool eliminateRationalSystem(
    std::vector<std::map<std::size_t, Rational>> &Rows,
    linalg::DenseMatrix<Rational> &Rhs, std::size_t &EliminationOps,
    std::size_t &FillIn);

/// The Direct engine's per-block kernel: assembles I - Q from
/// \p QTriplets (local indices, values +q), factors it with sparse LU in
/// the given numbering (the block plan numbers large blocks in RCM order),
/// and solves in place for each column of \p Rhs (N x NumAbsorbing).
/// \p EliminationOps accumulates the factorization's multiply-subtract
/// count and \p FillIn the factor entries beyond the assembled pattern.
bool luSolve(std::size_t N, const std::vector<linalg::Triplet> &QTriplets,
             linalg::DenseMatrix<double> &Rhs, std::size_t &EliminationOps,
             std::size_t &FillIn);

} // namespace detail

} // namespace markov
} // namespace mcnk

#endif // MCNK_MARKOV_ABSORBING_H
