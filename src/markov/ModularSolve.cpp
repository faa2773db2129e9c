//===----------------------------------------------------------------------===//
///
/// \file
/// The exact engine's GF(p) block kernel (docs/ARCHITECTURE.md S14). A
/// block's system (I - Q_BB) X = Rhs is solved modulo word-size primes
/// with the allocation-free linalg/ModSolve.h kernels; the residues are
/// combined by CRT over the block's solution, recovered as Rationals by
/// Wang reconstruction, and checked against fresh primes before being
/// accepted. Rhs is exact on entry — R_B plus the already solved
/// successors — so each block's prime walk stands alone, and only blocks
/// of at least ModularMinBlock states pay for one: a singleton or small
/// block is cheaper to eliminate over Rational than to lift through even
/// a single prime, while a large block with fill is where Rational
/// coefficient growth makes GF(p) win by an order of magnitude.
///
//===----------------------------------------------------------------------===//

#include "markov/BlockSolve.h"

#include "linalg/ModSolve.h"
#include "support/ModArith.h"

#include <algorithm>

using namespace mcnk;
using namespace mcnk::markov;
using namespace mcnk::markov::detail;
using linalg::DenseMatrix;
using linalg::ModTriplet;

namespace {

/// Fresh primes a reconstructed block solution is re-verified against
/// (the block's system solved mod each, compared entry for entry).
constexpr std::size_t CheckPrimes = 2;

/// Solves \p PB's system mod \p F into \p Images (Montgomery residues).
/// False marks an unlucky prime: p divides a denominator of the system or
/// of \p Rhs, or leaves I - Q_BB singular.
bool solveModPrime(const PlanBlock &PB, const DenseMatrix<Rational> &Rhs,
                   const PrimeField &F, DenseMatrix<std::uint64_t> &Images,
                   BlockMetrics &BM) {
  std::size_t N = PB.Members.size();
  std::uint64_t R;
  std::vector<ModTriplet> A;
  A.reserve(N + PB.Inner.size());
  for (std::size_t L = 0; L < N; ++L)
    A.push_back({L, L, F.one()});
  for (const PlanCell &E : PB.Inner) {
    if (!rationalMod(E.Value, F, R))
      return false;
    A.push_back({E.Row, E.Col, F.neg(F.encode(R))});
  }
  Images = DenseMatrix<std::uint64_t>(N, Rhs.numCols());
  for (std::size_t L = 0; L < N; ++L)
    for (std::size_t C = 0; C < Rhs.numCols(); ++C)
      if (!Rhs.at(L, C).isZero()) {
        if (!rationalMod(Rhs.at(L, C), F, R))
          return false;
        Images.at(L, C) = F.encode(R);
      }
  return linalg::modSolve(F, N, A, Images, BM.EliminationOps, BM.FillIn);
}

} // namespace

bool detail::solveBlockModular(const PlanBlock &PB, DenseMatrix<Rational> &Rhs,
                               const SolverStructure &Structure,
                               BlockMetrics &BM) {
  std::size_t NA = Rhs.numCols();
  std::size_t NumEntries = PB.Members.size() * NA;
  if (NumEntries == 0)
    return true; // Nothing to solve; avoid spending primes on it.

  std::size_t PrimeCursor = Structure.FirstPrimeIndex;
  // A system singular mod one prime may just be unlucky; singular mod
  // this many distinct primes in a row is a genuinely singular system
  // (denominator factors are finite), so give up and let the Rational
  // kernel produce the authoritative verdict.
  std::size_t RetryBudget = Structure.MaxPrimes + 8;
  auto GiveUp = [&BM] {
    BM.ModularFallbacks = 1;
    return false;
  };

  BigInt M(1); // Product of accepted primes.
  std::vector<std::uint64_t> M64 = M.magnitudeLimbs64();
  // CRT-combined residues in [0, M), kept as raw 64-bit limb vectors so
  // the per-prime fold is a single allocation-free multiply-accumulate
  // pass (support/ModArith.h crtFoldLimbs64); they become BigInts only at
  // reconstruction attempts. Entry E is Rhs cell (E / NA, E % NA).
  std::vector<std::vector<std::uint64_t>> Crt(NumEntries);
  std::size_t Accepted = 0;
  std::size_t NextAttempt = 1; // Reconstruct at 1, 2, 4, ... primes.
  std::vector<Rational> Candidate(NumEntries);
  // Per-entry reconstruction state machine. Answers stabilize at their own
  // size, not the final modulus: an entry whose candidate survives a prime
  // accepted after it was reconstructed (a residue check it had no hand
  // in) is done, and skips all further EGCD and CRT-fold work. The
  // fresh-prime verification below still covers every entry.
  //   0 = no candidate; 1 = candidate awaiting a fresh-prime check;
  //   2 = candidate confirmed by a fresh prime.
  std::vector<char> State(NumEntries, 0);
  std::size_t Restarts = 0;
  DenseMatrix<std::uint64_t> Images;

  while (true) {
    std::size_t Target = std::min(NextAttempt, Structure.MaxPrimes);

    // Accumulate primes (in deterministic table order) until the target.
    // Every prime's solve adds its kernel work to BM, lucky or not.
    while (Accepted < Target) {
      PrimeField F(modPrime(PrimeCursor++));
      if (!solveModPrime(PB, Rhs, F, Images, BM)) {
        ++BM.RetriedPrimes;
        if (RetryBudget-- == 0)
          return GiveUp(); // Singular mod every prime tried.
        continue;
      }
      std::uint64_t InvM = F.inv(F.encode(M.modU64(F.prime())));
      for (std::size_t E = 0; E < NumEntries; ++E) {
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
      ++BM.NumPrimes;
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
    for (std::size_t E = 0; E < NumEntries && Failures < 8; ++E) {
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
      // Where I - Q_BB is nonsingular mod q, the candidate equals the
      // block's solution mod q entry for entry exactly when it solves the
      // system mod q.
      std::size_t Verified = 0;
      bool Mismatch = false;
      while (Verified < CheckPrimes && !Mismatch) {
        PrimeField F(modPrime(PrimeCursor++));
        bool Unlucky = !solveModPrime(PB, Rhs, F, Images, BM);
        for (std::size_t E = 0; E < NumEntries && !Unlucky && !Mismatch;
             ++E) {
          std::uint64_t Got;
          Unlucky = !rationalMod(Candidate[E], F, Got);
          Mismatch = !Unlucky && F.encode(Got) != Images.at(E / NA, E % NA);
        }
        if (Unlucky) {
          ++BM.RetriedPrimes;
          if (RetryBudget-- == 0)
            return GiveUp();
        } else if (!Mismatch) {
          ++Verified;
        }
      }
      if (!Mismatch) {
        for (std::size_t E = 0; E < NumEntries; ++E)
          Rhs.at(E / NA, E % NA) = std::move(Candidate[E]);
        BM.ReconstructionBits = M.bitLength();
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
          return GiveUp();
        for (std::size_t E = 0; E < NumEntries; ++E) {
          State[E] = 0;
          Crt[E].clear();
        }
        M = BigInt(1);
        M64 = M.magnitudeLimbs64();
        Accepted = 0;
      }
    }

    if (Accepted >= Structure.MaxPrimes)
      return GiveUp(); // Prime budget exhausted.
    // Double while cheap, then grow by quarters: the modulus only needs to
    // clear the largest answer, and overshooting it inflates every
    // remaining EGCD and fold quadratically.
    NextAttempt = Accepted < 16 ? std::max<std::size_t>(1, Accepted * 2)
                                : Accepted + std::max<std::size_t>(4, Accepted / 4);
  }
}
