//===----------------------------------------------------------------------===//
///
/// \file
/// Normalized exact rational arithmetic (gcd-reduced, sign on the
/// numerator). Every operation first attempts a pure int64 fast path —
/// binary GCD normalization, cross-reduction before multiplying, overflow
/// detected with the `__builtin_*_overflow` intrinsics and __int128
/// intermediates — and falls back to BigInt limb arithmetic only when a
/// result leaves the word-sized range, where normalization is the Lehmer
/// gcd of BigInt::gcd.
///
//===----------------------------------------------------------------------===//

#include "support/Rational.h"

#include "support/Error.h"
#include "support/Hashing.h"

#include <cassert>
#include <cmath>

using namespace mcnk;

namespace {

uint64_t magnitudeOf(int64_t Value) { return BigInt::magnitudeOf(Value); }

/// Composes a sign and magnitude into int64 if representable.
bool composeInt64(bool Neg, uint64_t Mag, int64_t &Out) {
  if (Mag <= static_cast<uint64_t>(INT64_MAX)) {
    Out = Neg ? -static_cast<int64_t>(Mag) : static_cast<int64_t>(Mag);
    return true;
  }
  if (Neg && Mag == static_cast<uint64_t>(INT64_MAX) + 1) {
    Out = INT64_MIN;
    return true;
  }
  return false;
}

/// ON/OD = AN/AD ± BN/BD in pure word arithmetic (GMP-style: reduce by
/// gcd(AD, BD) before cross-multiplying, then by gcd(t, g) after). Inputs
/// must be normalized (AD, BD > 0, fractions in lowest terms); the output
/// is normalized. Returns false when any step leaves the int64 range.
bool smallAddSub(int64_t AN, int64_t AD, int64_t BN, int64_t BD, bool Negate,
                 int64_t &ON, int64_t &OD) {
  uint64_t ADu = static_cast<uint64_t>(AD), BDu = static_cast<uint64_t>(BD);
  uint64_t G = BigInt::gcdU64(ADu, BDu);
  // T = AN*(BD/G) ± BN*(AD/G); |T| < 2^127, so the sum is exact.
  __int128 T = static_cast<__int128>(AN) * static_cast<int64_t>(BDu / G);
  __int128 Cross = static_cast<__int128>(BN) * static_cast<int64_t>(ADu / G);
  T = Negate ? T - Cross : T + Cross;
  if (T == 0) {
    ON = 0;
    OD = 1;
    return true;
  }
  bool Neg = T < 0;
  unsigned __int128 MagT = Neg ? ~static_cast<unsigned __int128>(T) + 1
                               : static_cast<unsigned __int128>(T);
  // gcd(T, G) suffices to put T / (AD*(BD/G)) in lowest terms.
  uint64_t G2 =
      G == 1 ? 1 : BigInt::gcdU64(static_cast<uint64_t>(MagT % G), G);
  unsigned __int128 NumMag = MagT / G2;
  if (NumMag > static_cast<uint64_t>(INT64_MAX) + (Neg ? 1u : 0u))
    return false;
  uint64_t DenMag;
  if (__builtin_mul_overflow(ADu / G2, BDu / G, &DenMag))
    return false;
  if (DenMag > static_cast<uint64_t>(INT64_MAX))
    return false;
  OD = static_cast<int64_t>(DenMag);
  return composeInt64(Neg, static_cast<uint64_t>(NumMag), ON);
}

/// ON/OD = (AN/AD) * (BN/BD) with cross-reduction, so the product of two
/// normalized fractions is normalized without a final gcd. Returns false
/// when a product leaves the int64 range.
bool smallMul(int64_t AN, int64_t AD, int64_t BN, int64_t BD, int64_t &ON,
              int64_t &OD) {
  uint64_t G1 = BigInt::gcdU64(magnitudeOf(AN), static_cast<uint64_t>(BD));
  uint64_t G2 = BigInt::gcdU64(magnitudeOf(BN), static_cast<uint64_t>(AD));
  uint64_t NumMag, DenMag;
  if (__builtin_mul_overflow(magnitudeOf(AN) / G1, magnitudeOf(BN) / G2,
                             &NumMag))
    return false;
  if (__builtin_mul_overflow(static_cast<uint64_t>(AD) / G2,
                             static_cast<uint64_t>(BD) / G1, &DenMag))
    return false;
  if (DenMag > static_cast<uint64_t>(INT64_MAX))
    return false;
  bool Neg = (AN < 0) != (BN < 0) && NumMag != 0;
  OD = static_cast<int64_t>(DenMag);
  return composeInt64(Neg, NumMag, ON);
}

} // namespace

Rational::Rational(int64_t Numerator, int64_t Denominator)
    : Num(Numerator), Den(Denominator) {
  assert(Denominator != 0 && "Rational with zero denominator");
  normalize();
}

Rational::Rational(BigInt Numerator, BigInt Denominator)
    : Num(std::move(Numerator)), Den(std::move(Denominator)) {
  assert(!Den.isZero() && "Rational with zero denominator");
  normalize();
}

Rational Rational::fromCoprime(BigInt Numerator, BigInt Denominator) {
  assert(!Denominator.isZero() && !Denominator.isNegative() &&
         "fromCoprime requires a positive denominator");
  assert((!Numerator.isZero() || Denominator.isOne()) &&
         "canonical zero is 0/1");
  assert(BigInt::gcd(Numerator, Denominator).isOne() &&
         "fromCoprime requires a reduced fraction");
  Rational R;
  R.Num = std::move(Numerator);
  R.Den = std::move(Denominator);
  return R;
}

void Rational::normalize() {
  if (isSmallPair()) {
    int64_t N = Num.toInt64(), D = Den.toInt64();
    if (D < 0 && N != INT64_MIN && D != INT64_MIN) {
      N = -N;
      D = -D;
    }
    if (D > 0) {
      if (N == 0) {
        Num = BigInt(0);
        Den = BigInt(1);
        return;
      }
      uint64_t G = BigInt::gcdU64(magnitudeOf(N), static_cast<uint64_t>(D));
      if (G > 1) {
        N /= static_cast<int64_t>(G); // Exact: G divides both.
        D /= static_cast<int64_t>(G);
      }
      Num = BigInt(N);
      Den = BigInt(D);
      return;
    }
    // INT64_MIN corner cases fall through to the sign-safe BigInt path.
  }
  if (Den.isNegative()) {
    Num = -Num;
    Den = -Den;
  }
  if (Num.isZero()) {
    Den = BigInt(1);
    return;
  }
  BigInt G = BigInt::gcd(Num, Den);
  if (!G.isOne()) {
    Num /= G;
    Den /= G;
  }
}

bool Rational::isProbability() const {
  return !Num.isNegative() && Num.compare(Den) <= 0;
}

Rational &Rational::addSubAssign(const Rational &RHS, bool Negate) {
  if (isSmallPair() && RHS.isSmallPair()) {
    int64_t N, D;
    if (smallAddSub(Num.toInt64(), Den.toInt64(), RHS.Num.toInt64(),
                    RHS.Den.toInt64(), Negate, N, D)) {
      Num = BigInt(N);
      Den = BigInt(D);
      return *this;
    }
  }
  // BigInt path, in place: read the cross term before mutating Den so the
  // ordering is safe even when &RHS == this.
  //
  // When either operand is an integer the result is already reduced —
  // gcd(k·d ± n, d) = gcd(n, d) = 1 for canonical n/d — so the (multi-limb
  // gcd) normalization can be skipped. This is the hot case of rebuilding
  // FDD leaves from solved absorption entries, where drop mass is computed
  // as 1 minus a wide exact probability.
  bool AlreadyReduced = Den.isOne() || RHS.Den.isOne();
  BigInt Cross = RHS.Num * Den;
  Num *= RHS.Den;
  if (Negate)
    Num -= Cross;
  else
    Num += Cross;
  Den *= RHS.Den;
  if (AlreadyReduced) {
    // gcd(num, den) = 1 forces den = 1 whenever num = 0, so the result is
    // canonical as-is except for restoring the 0/1 form of zero.
    if (Num.isZero())
      Den = BigInt(1);
    return *this;
  }
  normalize();
  return *this;
}

Rational &Rational::operator*=(const Rational &RHS) {
  if (isSmallPair() && RHS.isSmallPair()) {
    int64_t N, D;
    if (smallMul(Num.toInt64(), Den.toInt64(), RHS.Num.toInt64(),
                 RHS.Den.toInt64(), N, D)) {
      Num = BigInt(N);
      Den = BigInt(D);
      return *this;
    }
  }
  Num *= RHS.Num;
  Den *= RHS.Den;
  normalize();
  return *this;
}

Rational &Rational::operator/=(const Rational &RHS) {
  assert(!RHS.isZero() && "Rational division by zero");
  if (isSmallPair() && RHS.isSmallPair()) {
    int64_t BN = RHS.Num.toInt64(), BD = RHS.Den.toInt64();
    if (BN != INT64_MIN && BN != 0) {
      // Invert RHS (still normalized; the sign moves to the numerator).
      int64_t N, D;
      if (smallMul(Num.toInt64(), Den.toInt64(), BN < 0 ? -BD : BD,
                   BN < 0 ? -BN : BN, N, D)) {
        Num = BigInt(N);
        Den = BigInt(D);
        return *this;
      }
    }
  }
  BigInt NewNum = Num * RHS.Den;
  BigInt NewDen = Den * RHS.Num;
  Num = std::move(NewNum);
  Den = std::move(NewDen);
  normalize();
  return *this;
}

Rational &Rational::mulAccumulate(const Rational &A, const Rational &B,
                                  bool Negate) {
  if (A.isSmallPair() && B.isSmallPair()) {
    int64_t PN, PD;
    if (smallMul(A.Num.toInt64(), A.Den.toInt64(), B.Num.toInt64(),
                 B.Den.toInt64(), PN, PD)) {
      if (isSmallPair()) {
        int64_t N, D;
        if (smallAddSub(Num.toInt64(), Den.toInt64(), PN, PD, Negate, N, D)) {
          Num = BigInt(N);
          Den = BigInt(D);
          return *this;
        }
      }
      Rational P;
      P.Num = BigInt(PN); // Already normalized by smallMul.
      P.Den = BigInt(PD);
      return addSubAssign(P, Negate);
    }
  }
  Rational P = A * B;
  return addSubAssign(P, Negate);
}

Rational Rational::operator-() const {
  Rational Result = *this;
  Result.Num = -Result.Num;
  return Result;
}

Rational Rational::reciprocal() const {
  assert(!isZero() && "reciprocal of zero");
  Rational Result;
  if (isNegative()) {
    Result.Num = -Den;
    Result.Den = -Num;
  } else {
    Result.Num = Den;
    Result.Den = Num;
  }
  return Result;
}

int Rational::compare(const Rational &RHS) const {
  // Denominators are positive, so cross-multiplication preserves order.
  if (isSmallPair() && RHS.isSmallPair()) {
    __int128 Lhs = static_cast<__int128>(Num.toInt64()) * RHS.Den.toInt64();
    __int128 Rhs = static_cast<__int128>(RHS.Num.toInt64()) * Den.toInt64();
    return Lhs < Rhs ? -1 : (Lhs > Rhs ? 1 : 0);
  }
  return (Num * RHS.Den).compare(RHS.Num * Den);
}

double Rational::toDouble() const {
  if (isSmallPair()) {
    int64_t N = Num.toInt64(), D = Den.toInt64();
    // Both operands exactly representable: one correctly-rounded division.
    if (N > -(1LL << 53) && N < (1LL << 53) && D < (1LL << 53))
      return static_cast<double>(N) / static_cast<double>(D);
  }
  if (Num.isZero())
    return 0.0;
  // Scale so the integer quotient carries ~64 significant bits, then divide
  // exactly in BigInt and undo the scaling in the exponent.
  int Scale = static_cast<int>(Den.bitLength()) + 64 -
              static_cast<int>(Num.bitLength());
  BigInt ScaledNum = Scale > 0 ? Num.shl(static_cast<unsigned>(Scale)) : Num;
  BigInt ScaledDen =
      Scale < 0 ? Den.shl(static_cast<unsigned>(-Scale)) : Den;
  BigInt Quot = ScaledNum / ScaledDen;
  return std::ldexp(Quot.toDouble(), -Scale);
}

std::string Rational::toString() const {
  if (Den.isOne())
    return Num.toString();
  return Num.toString() + "/" + Den.toString();
}

bool Rational::fromString(const std::string &Text, Rational &Out) {
  std::size_t Slash = Text.find('/');
  if (Slash == std::string::npos) {
    BigInt N;
    if (!BigInt::fromString(Text, N))
      return false;
    Out = Rational(std::move(N), BigInt(1));
    return true;
  }
  BigInt N, D;
  if (!BigInt::fromString(Text.substr(0, Slash), N) ||
      !BigInt::fromString(Text.substr(Slash + 1), D) || D.isZero())
    return false;
  Out = Rational(std::move(N), std::move(D));
  return true;
}

Rational Rational::fromDouble(double Value) {
  assert(std::isfinite(Value) && "fromDouble requires a finite value");
  if (Value == 0.0)
    return Rational();
  int Exp = 0;
  double Mantissa = std::frexp(Value, &Exp); // Value = Mantissa * 2^Exp.
  // Scale the mantissa to a 53-bit integer (exact), then strip its
  // trailing zeros: an odd numerator over a power of two is already in
  // lowest terms, so no gcd runs.
  int64_t Scaled = static_cast<int64_t>(std::ldexp(Mantissa, 53));
  int Zeros = __builtin_ctzll(static_cast<uint64_t>(Scaled));
  Scaled /= int64_t(1) << Zeros;
  Exp += Zeros - 53;
  if (Exp >= 0)
    return fromCoprime(BigInt(Scaled).shl(static_cast<unsigned>(Exp)),
                       BigInt(1));
  return fromCoprime(BigInt(Scaled),
                     BigInt(1).shl(static_cast<unsigned>(-Exp)));
}

std::size_t Rational::hash() const {
  return hashCombine(Num.hash(), Den.hash());
}
