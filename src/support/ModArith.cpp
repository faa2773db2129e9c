//===----------------------------------------------------------------------===//
///
/// \file
/// PrimeField (Montgomery arithmetic), the deterministic 62-bit prime
/// table, and the CRT / rational-reconstruction routines of the modular
/// exact solver. See support/ModArith.h and docs/ARCHITECTURE.md S14.
///
//===----------------------------------------------------------------------===//

#include "support/ModArith.h"

#include <cassert>
#include <cmath>
#include <mutex>
#include <vector>

namespace mcnk {

namespace {

/// a·b mod m without overflow (m < 2^64); setup-path helper — the solve
/// loops use Montgomery multiplication instead.
std::uint64_t mulModU64(std::uint64_t A, std::uint64_t B, std::uint64_t M) {
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(A) * B % M);
}

std::uint64_t powModU64(std::uint64_t Base, std::uint64_t Exp,
                        std::uint64_t M) {
  std::uint64_t Result = 1 % M;
  Base %= M;
  for (; Exp != 0; Exp >>= 1) {
    if (Exp & 1)
      Result = mulModU64(Result, Base, M);
    Base = mulModU64(Base, Base, M);
  }
  return Result;
}

} // namespace

//===----------------------------------------------------------------------===//
// PrimeField
//===----------------------------------------------------------------------===//

PrimeField::PrimeField(std::uint64_t Prime) : P(Prime) {
  assert(Prime > 2 && (Prime & 1) != 0 && Prime < ModPrimeCeiling &&
         "PrimeField needs an odd prime below 2^62");
  // -p^{-1} mod 2^64 by Newton iteration: each step doubles the number of
  // correct low bits, and 5 steps from the odd seed p (3 correct bits)
  // cover all 64.
  std::uint64_t Inv = P;
  for (int I = 0; I < 5; ++I)
    Inv *= 2 - P * Inv;
  NegPInv = ~Inv + 1; // Inv == p^{-1} mod 2^64.
  // 2^64 mod p and 2^128 mod p via __int128 remainders (setup only).
  R1 = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(1) << 64) % P);
  R2 = mulModU64(R1, R1, P);
}

std::uint64_t PrimeField::pow(std::uint64_t A, std::uint64_t E) const {
  std::uint64_t Result = one();
  for (; E != 0; E >>= 1) {
    if (E & 1)
      Result = mul(Result, A);
    A = mul(A, A);
  }
  return Result;
}

std::uint64_t PrimeField::inv(std::uint64_t A) const {
  std::uint64_t X = decode(A);
  assert(X != 0 && "inverse of zero");
  // Extended Euclid on (p, x), tracking only the x-coefficient. All
  // Bezout coefficients stay below p < 2^62 in magnitude, so the int64
  // bookkeeping cannot overflow.
  std::uint64_t R0 = P, R1v = X;
  std::int64_t T0 = 0, T1 = 1;
  while (R1v != 0) {
    std::uint64_t Q = R0 / R1v;
    R0 -= Q * R1v;
    std::uint64_t TmpR = R0;
    R0 = R1v;
    R1v = TmpR;
    std::int64_t TmpT = T0 - static_cast<std::int64_t>(Q) * T1;
    T0 = T1;
    T1 = TmpT;
  }
  assert(R0 == 1 && "argument not invertible (modulus not prime?)");
  std::uint64_t Std =
      T0 < 0 ? static_cast<std::uint64_t>(T0 + static_cast<std::int64_t>(P))
             : static_cast<std::uint64_t>(T0);
  return encode(Std);
}

//===----------------------------------------------------------------------===//
// Deterministic prime table
//===----------------------------------------------------------------------===//

bool isPrimeU64(std::uint64_t N) {
  if (N < 2)
    return false;
  for (std::uint64_t Small : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull,
                              19ull, 23ull, 29ull, 31ull, 37ull}) {
    if (N == Small)
      return true;
    if (N % Small == 0)
      return false;
  }
  // Miller-Rabin with the first twelve primes as bases: a proven
  // deterministic witness set for all N < 2^64 (Sorenson & Webster).
  std::uint64_t D = N - 1;
  unsigned S = 0;
  while ((D & 1) == 0) {
    D >>= 1;
    ++S;
  }
  for (std::uint64_t A : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                          23ull, 29ull, 31ull, 37ull}) {
    std::uint64_t X = powModU64(A, D, N);
    if (X == 1 || X == N - 1)
      continue;
    bool Composite = true;
    for (unsigned I = 1; I < S; ++I) {
      X = mulModU64(X, X, N);
      if (X == N - 1) {
        Composite = false;
        break;
      }
    }
    if (Composite)
      return false;
  }
  return true;
}

std::uint64_t modPrime(std::size_t Index) {
  // Lazily extended, mutex-guarded (concurrent serve sessions and any
  // other threads solving modular chains share the table), and
  // identical in every process: the walk below is pure arithmetic.
  static std::mutex TableMutex;
  static std::vector<std::uint64_t> Table;
  static std::uint64_t NextCandidate = ModPrimeCeiling - 1; // Odd.
  std::lock_guard<std::mutex> Lock(TableMutex);
  while (Table.size() <= Index) {
    while (!isPrimeU64(NextCandidate))
      NextCandidate -= 2;
    Table.push_back(NextCandidate);
    NextCandidate -= 2;
  }
  return Table[Index];
}

//===----------------------------------------------------------------------===//
// CRT and rational reconstruction
//===----------------------------------------------------------------------===//

bool rationalMod(const Rational &Value, const PrimeField &F,
                 std::uint64_t &Out) {
  std::uint64_t Den = Value.denominator().modU64(F.prime());
  if (Den == 0)
    return false; // Unlucky prime: p divides the denominator.
  std::uint64_t Num = Value.numerator().modU64(F.prime()); // Magnitude.
  if (Value.isNegative() && Num != 0)
    Num = F.prime() - Num;
  Out = F.decode(F.mul(F.encode(Num), F.inv(F.encode(Den))));
  return true;
}

BigInt isqrtBigInt(const BigInt &V) {
  assert(!V.isNegative() && "isqrt of a negative value");
  if (V.isZero() || V.isOne())
    return V;
  if (V.fitsInt64()) {
    // Word-sized fast path: start from the double estimate, fix up.
    std::uint64_t N = static_cast<std::uint64_t>(V.toInt64());
    std::uint64_t R =
        static_cast<std::uint64_t>(std::sqrt(static_cast<double>(N)));
    while (R > 0 && R > N / R)
      --R;
    while ((R + 1) <= N / (R + 1))
      ++R;
    return BigInt(static_cast<std::int64_t>(R));
  }
  // Newton iteration from an initial value >= sqrt(V) converges
  // monotonically downward; stop at the first non-decreasing step.
  BigInt X = BigInt(1).shl((V.bitLength() + 1) / 2);
  for (;;) {
    BigInt Y = (X + V / X).shr(1);
    if (Y >= X)
      return X;
    X = Y;
  }
}

void crtFoldLimbs64(std::vector<std::uint64_t> &X,
                    const std::vector<std::uint64_t> &M64, std::uint64_t T) {
  if (T == 0)
    return;
  if (X.size() < M64.size() + 1)
    X.resize(M64.size() + 1, 0);
  unsigned __int128 Carry = 0;
  for (std::size_t I = 0; I < M64.size(); ++I) {
    unsigned __int128 Acc =
        Carry + X[I] + static_cast<unsigned __int128>(M64[I]) * T;
    X[I] = static_cast<std::uint64_t>(Acc);
    Carry = Acc >> 64;
  }
  for (std::size_t I = M64.size(); Carry != 0; ++I) {
    unsigned __int128 Acc = Carry + X[I];
    X[I] = static_cast<std::uint64_t>(Acc);
    Carry = Acc >> 64;
  }
  while (!X.empty() && X.back() == 0)
    X.pop_back();
}

BigInt crtLift(const BigInt &X, const BigInt &M, const PrimeField &F,
               std::uint64_t Residue, std::uint64_t InvMMont) {
  // X' = X + M·t with t = (Residue - X) · M^{-1} (mod p).
  std::uint64_t XModP = F.encode(X.modU64(F.prime()));
  std::uint64_t Delta = F.sub(F.encode(Residue), XModP);
  std::uint64_t T = F.decode(F.mul(Delta, InvMMont));
  if (T == 0)
    return X;
  return X + M * BigInt::fromUnsigned(T);
}

bool rationalReconstruct(const BigInt &X, const BigInt &M,
                         const BigInt &Bound, Rational &Out) {
  assert(!M.isZero() && !X.isNegative() && X < M && "need 0 <= X < M");
  if (Bound.isZero())
    return false;
  // Wang's algorithm: run the extended Euclidean remainder sequence on
  // (M, X) tracking the X-coefficient, and stop at the first remainder
  // <= Bound. That convergent is the unique admissible N/D when one
  // exists (2·Bound^2 < M).
  //
  // Batched phase, on raw 64-bit limbs: Lehmer windows take ~40 Euclidean
  // steps per four fused multiply-accumulate passes instead of one full
  // division each. A window's cofactors are below 2^62, so one
  // application shrinks the remainder by at most ~63 bits; stopping 96
  // bits above the boundary guarantees the exact per-step tail below is
  // what crosses it, preserving "first remainder <= Bound" semantics.
  //
  // The cofactors t_k alternate in sign from t_1 on while their
  // magnitudes add, so the T pair is tracked as magnitudes plus explicit
  // signs and only linAddLimbs ever touches it.
  unsigned BoundBits = Bound.bitLength();
  Limbs64 R0L = M.magnitudeLimbs64(), R1L = X.magnitudeLimbs64();
  Limbs64 T0L, T1L{1}; // T0 = 0, T1 = +1.
  bool T0Neg = false, T1Neg = false;
  Limbs64 S0, S1, S2, S3; // Ping-pong scratch, reused across windows.
  while (limbsBitLength(R1L) > BoundBits + 96) {
    unsigned Shift = limbsBitLength(R0L) - 62;
    std::int64_t WA, WB, WC, WD;
    lehmerWindow(limbsWindow(R0L, Shift), limbsWindow(R1L, Shift), WA, WB,
                 WC, WD);
    if (WB == 0) {
      // One exact full-precision step through BigInt (rare stall).
      auto QR = BigInt::divMod(BigInt::fromLimbs64(false, R0L),
                               BigInt::fromLimbs64(false, R1L));
      R0L = std::move(R1L);
      R1L = QR.second.magnitudeLimbs64();
      BigInt T2 = BigInt::fromLimbs64(T0Neg, T0L) -
                  QR.first * BigInt::fromLimbs64(T1Neg, T1L);
      T0L = std::move(T1L);
      T0Neg = T1Neg;
      T1Neg = T2.isNegative();
      T1L = T2.magnitudeLimbs64();
      continue;
    }
    applyRemainderRow(S0, WA, R0L, WB, R1L);
    applyRemainderRow(S1, WC, R0L, WD, R1L);
    // Row (P, Q) applied to (T0, T1): sign(P·T0) == sign(Q·T1) whenever
    // both are nonzero (opposite-sign coefficients, opposite-sign
    // cofactors), so the terms accumulate additively; the result's sign
    // is the sign of either nonzero term.
    linAddLimbs(S2, BigInt::magnitudeOf(WA), T0L, BigInt::magnitudeOf(WB),
                T1L);
    linAddLimbs(S3, BigInt::magnitudeOf(WC), T0L, BigInt::magnitudeOf(WD),
                T1L);
    bool NewT0Neg = (WA != 0 && !T0L.empty()) ? ((WA < 0) != T0Neg)
                                              : ((WB < 0) != T1Neg);
    bool NewT1Neg = (WC != 0 && !T0L.empty()) ? ((WC < 0) != T0Neg)
                                              : ((WD < 0) != T1Neg);
    T0Neg = NewT0Neg;
    T1Neg = NewT1Neg;
    std::swap(R0L, S0);
    std::swap(R1L, S1);
    std::swap(T0L, S2);
    std::swap(T1L, S3);
  }
  BigInt R0 = BigInt::fromLimbs64(false, R0L);
  BigInt R1 = BigInt::fromLimbs64(false, R1L);
  BigInt T0 = BigInt::fromLimbs64(T0Neg, T0L);
  BigInt T1 = BigInt::fromLimbs64(T1Neg, T1L);
  while (R1 > Bound) {
    auto QR = BigInt::divMod(R0, R1);
    R0 = R1;
    R1 = QR.second;
    BigInt T2 = T0 - QR.first * T1;
    T0 = T1;
    T1 = T2;
  }
  // Candidate: N/D = ±R1 / |T1| with the sign of T1 folded into N.
  BigInt D = T1.abs();
  if (D.isZero() || D > Bound)
    return false;
  if (!BigInt::gcd(R1, D).isOne())
    return false;
  // The gcd check just proved the pair reduced; skip Rational's
  // normalizing gcd, which would redo the same multi-limb work.
  BigInt N = T1.isNegative() ? -R1 : R1;
  Out = R1.isZero() ? Rational() : Rational::fromCoprime(N, D);
  return true;
}

} // namespace mcnk
