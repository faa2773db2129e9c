//===----------------------------------------------------------------------===//
///
/// \file
/// Word-size prime-field arithmetic and the rational-recovery toolkit of
/// the modular exact solver (docs/ARCHITECTURE.md S14). The hot loops of
/// SolverKind::ModularExact run over residues modulo 62-bit primes in
/// Montgomery form — one word per value, no allocation — and the exact
/// Rational answer is recovered afterwards by Chinese-remainder
/// combination across primes plus Wang-style rational reconstruction.
///
/// The prime table is deterministic and contains no runtime randomness:
/// primes are drawn in a fixed order (descending from 2^62 - 1, certified
/// by a deterministic Miller-Rabin test), so a solve that discards an
/// unlucky prime retries along a reproducible sequence and any failure
/// replays from its printed seed.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_SUPPORT_MODARITH_H
#define MCNK_SUPPORT_MODARITH_H

#include "support/Rational.h"

#include <cstddef>
#include <cstdint>

namespace mcnk {

/// Arithmetic in GF(p) for an odd prime p < 2^62, values kept in Montgomery
/// form (x·2^64 mod p) so multiplication needs no hardware division. The
/// kernels in linalg/ModSolve.h stay in the Montgomery domain end to end;
/// encode()/decode() convert at the boundary. Construction is cheap enough
/// to build one field per (prime, solve) pair.
class PrimeField {
public:
  /// \p Prime must be an odd prime below 2^62 (the modPrime() table
  /// guarantees this; asserted in debug builds).
  explicit PrimeField(std::uint64_t Prime);

  std::uint64_t prime() const { return P; }

  /// Standard residue (any uint64, reduced mod p) -> Montgomery form.
  std::uint64_t encode(std::uint64_t X) const { return mul(X % P, R2); }
  /// Montgomery form -> standard residue in [0, p).
  std::uint64_t decode(std::uint64_t A) const { return redc(A); }

  /// Montgomery form of 0 and 1 (0 encodes to itself).
  std::uint64_t zero() const { return 0; }
  std::uint64_t one() const { return R1; }

  // Addition and subtraction are domain-agnostic (work on standard and
  // Montgomery residues alike).
  std::uint64_t add(std::uint64_t A, std::uint64_t B) const {
    std::uint64_t S = A + B; // No overflow: operands < p < 2^62.
    return S >= P ? S - P : S;
  }
  std::uint64_t sub(std::uint64_t A, std::uint64_t B) const {
    return A >= B ? A - B : A + P - B;
  }
  std::uint64_t neg(std::uint64_t A) const { return A == 0 ? 0 : P - A; }

  /// Montgomery product: mul(x·R, y·R) = x·y·R.
  std::uint64_t mul(std::uint64_t A, std::uint64_t B) const {
    return redc(static_cast<unsigned __int128>(A) * B);
  }

  /// Montgomery-domain exponentiation by a plain exponent.
  std::uint64_t pow(std::uint64_t A, std::uint64_t E) const;

  /// Montgomery-domain inverse via the extended Euclidean algorithm on the
  /// decoded residue (cheaper than the Fermat p-2 ladder; both are exact).
  /// Asserts A != 0.
  std::uint64_t inv(std::uint64_t A) const;

private:
  /// Montgomery reduction: T < p·2^64 -> T·2^{-64} mod p.
  std::uint64_t redc(unsigned __int128 T) const {
    std::uint64_t M = static_cast<std::uint64_t>(T) * NegPInv;
    std::uint64_t U = static_cast<std::uint64_t>(
        (T + static_cast<unsigned __int128>(M) * P) >> 64);
    return U >= P ? U - P : U;
  }

  std::uint64_t P;       ///< The modulus.
  std::uint64_t NegPInv; ///< -p^{-1} mod 2^64.
  std::uint64_t R1;      ///< 2^64 mod p (Montgomery form of 1).
  std::uint64_t R2;      ///< 2^128 mod p (encode multiplier).
};

/// Deterministic Miller-Rabin primality for any 64-bit integer (the fixed
/// base set {2, 3, 5, 7, ..., 37} is a proven witness set below 2^64).
/// Exposed so the property suite can certify the prime table independently.
bool isPrimeU64(std::uint64_t N);

/// The \p Index-th solver prime: the table walks odd candidates downward
/// from 2^62 - 1 and keeps the Miller-Rabin-certified ones, extending
/// lazily (thread-safe) and identically in every process — no runtime
/// randomness, so unlucky-prime retries are reproducible by construction.
std::uint64_t modPrime(std::size_t Index);

/// First candidate considered by the modPrime() walk (exclusive upper
/// bound on every table entry; keeps a + b < 2^63 overflow-free).
constexpr std::uint64_t ModPrimeCeiling = std::uint64_t(1) << 62;

/// Standard-domain residue of \p Value modulo F.prime(): num · den^{-1}.
/// Returns false — the unlucky-prime signal — when the prime divides the
/// denominator, in which case the caller discards the prime and draws the
/// next one from the table.
bool rationalMod(const Rational &Value, const PrimeField &F,
                 std::uint64_t &Out);

/// Floor of the integer square root; \p V must be non-negative.
BigInt isqrtBigInt(const BigInt &V);

/// One Chinese-remainder step: given X in [0, M) and a residue modulo the
/// fresh prime F.prime() (coprime to M), returns the unique X' in
/// [0, M·p) with X' ≡ X (mod M) and X' ≡ Residue (mod p). \p InvMMont is
/// the Montgomery-domain inverse of M mod p (hoisted by the caller — it is
/// shared across every matrix entry of a prime's fold).
BigInt crtLift(const BigInt &X, const BigInt &M, const PrimeField &F,
               std::uint64_t Residue, std::uint64_t InvMMont);

/// Allocation-free CRT fold on raw little-endian 64-bit limbs (the
/// BigInt interchange format of BigInt::magnitudeLimbs64): X += M·T in
/// one carry-propagating pass, growing X by at most one limb. The
/// per-entry accumulators of the modular solver stay in this format for
/// the whole prime loop; BigInt::fromLimbs64 converts at reconstruction
/// attempts only.
void crtFoldLimbs64(std::vector<std::uint64_t> &X,
                    const std::vector<std::uint64_t> &M64, std::uint64_t T);

/// Wang-style rational reconstruction: finds the unique N/D with
/// |N| <= Bound, 0 < D <= Bound, gcd(N, D) = 1 and N ≡ X·D (mod M), if it
/// exists. Pass Bound = isqrtBigInt((M - 1) / 2) for the symmetric Wang
/// bound (2·Bound² < M guarantees uniqueness). Returns false when no
/// admissible pair exists — the caller's cue to accumulate more primes.
bool rationalReconstruct(const BigInt &X, const BigInt &M,
                         const BigInt &Bound, Rational &Out);

} // namespace mcnk

#endif // MCNK_SUPPORT_MODARITH_H
