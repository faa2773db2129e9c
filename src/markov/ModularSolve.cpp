//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-prime modular exact engine (docs/ARCHITECTURE.md S14): the
/// GF(p) instance of the block pipeline (BlockSolve.h), run once per
/// word-size prime over one block plan, with the residues combined by CRT
/// over the *whole* solution, recovered as Rationals by Wang
/// reconstruction, and verified against fresh primes before being
/// accepted. CRT and reconstruction deliberately never run per block:
/// the GF(p) solve is block-triangular, so det(I - Q) = Π det(I - Q_BB)
/// mod p, and the whole-system prime walk — lucky primes, residues,
/// prime count, reconstruction bits — is exactly that of one monolithic
/// solve, while a per-block walk would pay the CRT/verification overhead
/// once per block (hundreds of times more primes on acyclic chains).
///
//===----------------------------------------------------------------------===//

#include "markov/BlockSolve.h"

#include "linalg/ModSolve.h"
#include "support/ModArith.h"

#include <algorithm>
#include <numeric>

using namespace mcnk;
using namespace mcnk::markov;
using namespace mcnk::markov::detail;
using linalg::DenseMatrix;
using linalg::ModTriplet;

namespace {

/// GF(p) field policy over Montgomery residues: the mod-p sparse/dense
/// kernels per block, in the plan's RCM numbering.
struct ModField {
  using Scalar = std::uint64_t;
  /// Blocks up to the cutoff take the dense kernel; numbering is moot.
  static constexpr std::size_t MinOrdered = linalg::ModDenseCutoff + 1;
  const PrimeField &F;

  std::uint64_t zero() const { return 0; }
  bool isZero(std::uint64_t V) const { return V == 0; }
  /// False when p divides the denominator — the conversion-side
  /// unlucky-prime signal.
  bool lower(const Rational &V, std::uint64_t &Out) const {
    std::uint64_t R;
    if (!rationalMod(V, F, R))
      return false;
    Out = F.encode(R);
    return true;
  }
  void add(std::uint64_t &Acc, std::uint64_t V) const { Acc = F.add(Acc, V); }
  void addMul(std::uint64_t &Acc, std::uint64_t A, std::uint64_t B) const {
    Acc = F.add(Acc, F.mul(A, B));
  }
  bool solveBlock(const PlanBlock &PB, DenseMatrix<std::uint64_t> &Rhs,
                  BlockMetrics &BM) const {
    std::size_t N = PB.Members.size();
    std::vector<ModTriplet> A;
    A.reserve(N + PB.Inner.size());
    for (std::size_t L = 0; L < N; ++L)
      A.push_back({L, L, F.one()});
    for (const PlanCell &E : PB.Inner) {
      std::uint64_t Q;
      if (!lower(E.Value, Q))
        return false;
      A.push_back({E.Row, E.Col, F.neg(Q)});
    }
    return linalg::modSolve(F, N, A, Rhs, BM.EliminationOps, BM.FillIn);
  }
};

/// Checks the reconstructed candidate (compact index order) against one
/// fresh prime q with the GF(q) instance of the pipeline: where I - Q is
/// nonsingular mod q, the candidate satisfies (I - Q)·X ≡ R (mod q) over
/// the whole system exactly when it equals that solution entry for entry.
/// Returns false on a mismatch; \p Unlucky reports that q divides some
/// denominator (candidate or system) or leaves the system singular, in
/// which case nothing was decided and the caller draws another check
/// prime.
bool verifyAgainstPrime(const BlockPlan &Plan,
                        const std::vector<Rational> &Candidate,
                        const PrimeField &F, bool &Unlucky) {
  ModField MF{F};
  DenseMatrix<std::uint64_t> Images;
  std::vector<BlockMetrics> Unused(Plan.Blocks.size());
  Unlucky = !solveBlocks(Plan, MF, Images, Unused);
  std::size_t NA = Plan.NumAbsorbing;
  for (std::size_t E = 0; E < Candidate.size() && !Unlucky; ++E) {
    std::uint64_t C;
    Unlucky = !MF.lower(Candidate[E], C);
    if (!Unlucky && C != Images.at(E / NA, E % NA))
      return false;
  }
  return !Unlucky;
}

/// Reconstruction scan order: rows nearer absorption (BFS distance
/// through the transition structure, absorbing exits as seeds) tend to
/// have the smallest answers, so trying them first lets each attempt
/// retire its whole in-range frontier and stop at the failure cap,
/// instead of burning full-width EGCDs on the hardest rows every time.
std::vector<std::size_t> scanOrder(const BlockPlan &Plan) {
  std::size_t N = Plan.Pruned.NumKept;
  std::vector<std::size_t> Dist(N, SIZE_MAX);
  std::vector<std::vector<std::size_t>> RevAdj(N);
  std::vector<std::size_t> Queue;
  for (const PlanBlock &PB : Plan.Blocks) {
    for (const PlanCell &E : PB.Inner)
      if (E.Row != E.Col)
        RevAdj[PB.Members[E.Col]].push_back(PB.Members[E.Row]);
    for (const PlanCell &E : PB.Outer)
      RevAdj[E.Col].push_back(PB.Members[E.Row]);
    for (const PlanCell &E : PB.R)
      if (Dist[PB.Members[E.Row]] == SIZE_MAX) {
        Dist[PB.Members[E.Row]] = 0;
        Queue.push_back(PB.Members[E.Row]);
      }
  }
  for (std::size_t Head = 0; Head < Queue.size(); ++Head)
    for (std::size_t P : RevAdj[Queue[Head]])
      if (Dist[P] == SIZE_MAX) {
        Dist[P] = Dist[Queue[Head]] + 1;
        Queue.push_back(P);
      }
  std::vector<std::size_t> Order(N);
  std::iota(Order.begin(), Order.end(), std::size_t{0});
  std::stable_sort(Order.begin(), Order.end(),
                   [&](std::size_t A, std::size_t B) {
                     return Dist[A] < Dist[B];
                   });
  return Order;
}

/// The prime loop of the modular engine over a block plan: per prime, the
/// GF(p) instance of the block pipeline; across primes, CRT folding, Wang
/// reconstruction and fresh-prime verification of the whole solution. On
/// success \p X holds the verified exact solution in compact index order.
/// Returns false (the caller falls back to the Rational instance) when the
/// prime budget runs out without a verified reconstruction, or the system
/// is singular mod every prime tried.
bool solvePlanModular(const BlockPlan &Plan, const ModularOptions &Options,
                      DenseMatrix<Rational> &X,
                      std::vector<BlockMetrics> &Blocks,
                      SolveMetrics &Stats) {
  std::size_t N = Plan.Pruned.NumKept;
  std::size_t NA = Plan.NumAbsorbing;
  X = DenseMatrix<Rational>(N, NA);
  if (N == 0 || NA == 0)
    return true; // Nothing to solve; avoid spending primes on it.

  std::size_t PrimeCursor = Options.FirstPrimeIndex;
  // A system singular mod one prime may just be unlucky; singular mod
  // this many distinct primes in a row is a genuinely singular system
  // (denominator factors are finite), so give up and let the Rational
  // kernel produce the authoritative verdict.
  std::size_t RetryBudget = Options.MaxPrimes + 8;

  BigInt M(1); // Product of accepted primes.
  std::vector<std::uint64_t> M64 = M.magnitudeLimbs64();
  // CRT-combined residues in [0, M), kept as raw 64-bit limb vectors so
  // the per-prime fold is a single allocation-free multiply-accumulate
  // pass (support/ModArith.h crtFoldLimbs64); they become BigInts only at
  // reconstruction attempts.
  std::vector<std::vector<std::uint64_t>> Crt(N * NA);
  std::size_t Accepted = 0;
  std::size_t NextAttempt = 1; // Reconstruct at 1, 2, 4, ... primes.
  std::vector<Rational> Candidate(N * NA);
  // Per-entry reconstruction state machine. Answers stabilize at their own
  // size, not the final modulus: an entry whose candidate survives a prime
  // accepted after it was reconstructed (a residue check it had no hand
  // in) is done, and skips all further EGCD and CRT-fold work. The global
  // fresh-prime verification below still covers every entry.
  //   0 = no candidate; 1 = candidate awaiting a fresh-prime check;
  //   2 = candidate confirmed by a fresh prime.
  std::vector<char> State(N * NA, 0);
  std::size_t Restarts = 0;

  std::vector<std::size_t> ScanOrder = scanOrder(Plan);

  while (true) {
    std::size_t Target = std::min(NextAttempt, Options.MaxPrimes);

    // Accumulate primes (in deterministic table order) until the target.
    // Each prime's block solves add their kernel work to Blocks, lucky or
    // not.
    while (Accepted < Target) {
      PrimeField F(modPrime(PrimeCursor++));
      DenseMatrix<std::uint64_t> Images;
      if (!solveBlocks(Plan, ModField{F}, Images, Blocks)) {
        ++Stats.RetriedPrimes;
        if (RetryBudget-- == 0)
          return false; // Singular mod every prime tried: fall back.
        continue;
      }
      std::uint64_t InvM = F.inv(F.encode(M.modU64(F.prime())));
      for (std::size_t E = 0; E < N * NA; ++E) {
        if (State[E] == 2)
          continue; // Confirmed: this entry's answer is already known.
        std::uint64_t Residue = F.decode(Images.at(E / NA, E % NA));
        if (State[E] == 1) {
          std::uint64_t Got;
          if (rationalMod(Candidate[E], F, Got) && Got == Residue) {
            State[E] = 2; // Survived a prime it was not built from.
            continue;
          }
          State[E] = 0; // Refuted (or unlucky prime): reconstruct anew.
        }
        // In-place CRT lift: X += M·((r - X)·M^{-1} mod p).
        std::uint64_t XModP = F.encode(limbs64ModU64(Crt[E], F.prime()));
        std::uint64_t T =
            F.decode(F.mul(F.sub(F.encode(Residue), XModP), InvM));
        crtFoldLimbs64(Crt[E], M64, T);
      }
      M *= BigInt::fromUnsigned(F.prime());
      M64 = M.magnitudeLimbs64();
      ++Accepted;
      ++Stats.NumPrimes;
    }

    // Attempt reconstruction at the Wang bound, then verify against
    // fresh primes — the reconstruction is checked, never trusted.
    // Unconfirmed entries reconstruct even when the attempt as a whole
    // fails: their candidates get checked against the next batch of
    // primes, so entries with small answers retire early instead of
    // re-running EGCD at every larger modulus. A failure cap bounds the
    // wasted work when most entries are still far from their answer.
    BigInt Bound = isqrtBigInt((M - BigInt(1)) / BigInt(2));
    bool Reconstructed = true;
    std::size_t Failures = 0;
    for (std::size_t RI = 0; RI < N && Failures < 8; ++RI)
      for (std::size_t C = 0; C < NA && Failures < 8; ++C) {
        std::size_t E = ScanOrder[RI] * NA + C;
        if (State[E] == 2)
          continue;
        if (rationalReconstruct(BigInt::fromLimbs64(false, Crt[E]), M, Bound,
                                Candidate[E])) {
          State[E] = 1;
        } else {
          Reconstructed = false;
          ++Failures;
        }
      }
    if (Reconstructed) {
      std::size_t Verified = 0;
      bool Mismatch = false;
      while (Verified < Options.CheckPrimes && !Mismatch) {
        PrimeField F(modPrime(PrimeCursor++));
        bool Unlucky = false;
        if (verifyAgainstPrime(Plan, Candidate, F, Unlucky))
          ++Verified;
        else if (Unlucky) {
          ++Stats.RetriedPrimes;
          if (RetryBudget-- == 0)
            return false;
        } else {
          Mismatch = true; // Premature reconstruction: need more primes.
        }
      }
      if (!Mismatch) {
        for (std::size_t K = 0; K < N; ++K)
          for (std::size_t C = 0; C < NA; ++C)
            X.at(K, C) = std::move(Candidate[K * NA + C]);
        Stats.ReconstructionBits = M.bitLength();
        return true;
      }
      // With no confirmed entries the mismatch is just a premature
      // reconstruction — every CRT image is still live, so accumulating
      // more primes repairs it. A *confirmed* entry, though, stopped
      // folding the moment it was confirmed: if it is the wrong one, its
      // CRT image is stale and cannot be repaired incrementally, so
      // restart the accumulation from fresh primes. Needing that twice
      // means the system defeats the residue checks structurally; hand
      // it to the Rational kernel.
      if (std::any_of(State.begin(), State.end(),
                      [](char S) { return S == 2; })) {
        if (++Restarts > 1)
          return false;
        for (std::size_t E = 0; E < N * NA; ++E) {
          State[E] = 0;
          Crt[E].clear();
        }
        M = BigInt(1);
        M64 = M.magnitudeLimbs64();
        Accepted = 0;
      }
    }

    if (Accepted >= Options.MaxPrimes)
      return false; // Prime budget exhausted: Rational fallback.
    // Double while cheap, then grow by quarters: the modulus only needs to
    // clear the largest answer, and overshooting it inflates every
    // remaining EGCD and fold quadratically.
    NextAttempt = Accepted < 16 ? std::max<std::size_t>(1, Accepted * 2)
                                : Accepted + std::max<std::size_t>(4, Accepted / 4);
  }
}

} // namespace

bool markov::solveAbsorptionModular(const AbsorbingChain &Chain,
                                    DenseMatrix<Rational> &Out,
                                    const SolverStructure &Structure,
                                    SolveMetrics *Metrics) {
  BlockPlan Plan = planBlocks(Chain, ModField::MinOrdered);
  std::vector<BlockMetrics> Blocks(Plan.Blocks.size());
  DenseMatrix<Rational> X;
  SolveMetrics Stats;
  if (!solvePlanModular(Plan, Structure.Modular, X, Blocks, Stats)) {
    // Prime budget exhausted (or the system is singular): the Rational
    // instance of the pipeline solves the same plan authoritatively.
    Stats.ModularFallbacks = 1;
    if (!solveBlocksRational(Plan, X, Blocks))
      return false;
  }
  Out = DenseMatrix<Rational>(Chain.NumTransient, Chain.NumAbsorbing);
  scatterSolution(Plan, X, Out);
  if (Metrics) {
    finishMetrics(*Metrics, Plan, std::move(Blocks));
    Metrics->NumPrimes = Stats.NumPrimes;
    Metrics->RetriedPrimes = Stats.RetriedPrimes;
    Metrics->ReconstructionBits = Stats.ReconstructionBits;
    Metrics->ModularFallbacks = Stats.ModularFallbacks;
  }
  return true;
}
