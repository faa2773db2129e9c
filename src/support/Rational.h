//===----------------------------------------------------------------------===//
///
/// \file
/// Exact rational numbers over BigInt. ProbNetKAT probabilities are rational
/// by definition (Fig 2: r in [0,1] ∩ Q); the FDD backend keeps them exact so
/// program equivalence is decided without floating-point concerns (§5).
///
/// Arithmetic runs on an int64 numerator/denominator fast path (binary GCD
/// normalization, overflow checked with the `__builtin_*_overflow`
/// intrinsics) and falls back to BigInt limb arithmetic only when a result
/// leaves the word-sized range; compound operators mutate in place. Wide
/// values normalize through BigInt::gcd, which is Lehmer's algorithm on
/// multi-limb pairs. See docs/ARCHITECTURE.md S9.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_SUPPORT_RATIONAL_H
#define MCNK_SUPPORT_RATIONAL_H

#include "support/BigInt.h"

#include <cstdint>
#include <string>

namespace mcnk {

/// Normalized rational number: denominator > 0, gcd(|num|, den) == 1, and
/// zero is canonically 0/1 — so operator== compares representations.
class Rational {
public:
  Rational() : Num(0), Den(1) {}
  Rational(int64_t Value) : Num(Value), Den(1) {}
  Rational(int64_t Numerator, int64_t Denominator);
  Rational(BigInt Numerator, BigInt Denominator);

  static Rational zero() { return Rational(); }
  static Rational one() { return Rational(1); }

  /// Builds a rational from a pair that is already canonical: Denominator
  /// > 0 and gcd(|Numerator|, Denominator) == 1 (asserted in debug
  /// builds). Callers that can prove coprimality — rational reconstruction
  /// returns convergents whose gcd check already ran (support/ModArith.h)
  /// — use this to skip the normalizing gcd, which at multi-limb sizes
  /// costs as much as the computation that produced the pair.
  static Rational fromCoprime(BigInt Numerator, BigInt Denominator);

  /// Parses "n", "-n", or "n/d" decimal forms. Returns false on malformed
  /// input or zero denominator.
  static bool fromString(const std::string &Text, Rational &Out);

  /// Exact conversion of a finite double (every finite double is a
  /// dyadic rational), built as odd mantissa over a power of two, so no
  /// gcd runs. The float loop solve builds the same canonical values from
  /// integer units (docs/ARCHITECTURE.md S1).
  static Rational fromDouble(double Value);

  const BigInt &numerator() const { return Num; }
  const BigInt &denominator() const { return Den; }

  bool isZero() const { return Num.isZero(); }
  bool isOne() const { return Num.isOne() && Den.isOne(); }
  bool isNegative() const { return Num.isNegative(); }

  /// True if the value lies in [0, 1] — a valid probability.
  bool isProbability() const;

  Rational operator+(const Rational &RHS) const {
    Rational Result = *this;
    Result += RHS;
    return Result;
  }
  Rational operator-(const Rational &RHS) const {
    Rational Result = *this;
    Result -= RHS;
    return Result;
  }
  Rational operator*(const Rational &RHS) const {
    Rational Result = *this;
    Result *= RHS;
    return Result;
  }
  /// Asserts RHS != 0.
  Rational operator/(const Rational &RHS) const {
    Rational Result = *this;
    Result /= RHS;
    return Result;
  }
  Rational operator-() const;

  /// In-place compound ops: the int64 fast path writes the result directly
  /// into this object; the BigInt path mutates Num/Den without building a
  /// temporary Rational.
  Rational &operator+=(const Rational &RHS) {
    return addSubAssign(RHS, /*Negate=*/false);
  }
  Rational &operator-=(const Rational &RHS) {
    return addSubAssign(RHS, /*Negate=*/true);
  }
  Rational &operator*=(const Rational &RHS);
  Rational &operator/=(const Rational &RHS);

  /// Fused multiply-accumulate: *this += A * B (the axpy kernel of exact
  /// Gaussian elimination and FDD weight accumulation). On the fast path
  /// the product and the accumulation both stay in int64 arithmetic.
  Rational &addMul(const Rational &A, const Rational &B) {
    return mulAccumulate(A, B, /*Negate=*/false);
  }
  /// Fused multiply-subtract: *this -= A * B.
  Rational &subMul(const Rational &A, const Rational &B) {
    return mulAccumulate(A, B, /*Negate=*/true);
  }

  /// Asserts *this != 0.
  Rational reciprocal() const;

  int compare(const Rational &RHS) const;
  bool operator==(const Rational &RHS) const {
    return Num == RHS.Num && Den == RHS.Den;
  }
  bool operator!=(const Rational &RHS) const { return !(*this == RHS); }
  bool operator<(const Rational &RHS) const { return compare(RHS) < 0; }
  bool operator<=(const Rational &RHS) const { return compare(RHS) <= 0; }
  bool operator>(const Rational &RHS) const { return compare(RHS) > 0; }
  bool operator>=(const Rational &RHS) const { return compare(RHS) >= 0; }

  /// Best-effort double approximation (~53 bits of precision regardless of
  /// operand magnitudes).
  double toDouble() const;

  /// "n" when the denominator is 1, otherwise "n/d".
  std::string toString() const;

  std::size_t hash() const;

private:
  /// True when both numerator and denominator are inline int64 values
  /// (the precondition of every fast path).
  bool isSmallPair() const { return Num.isSmallRep() && Den.isSmallRep(); }

  Rational &addSubAssign(const Rational &RHS, bool Negate);
  Rational &mulAccumulate(const Rational &A, const Rational &B, bool Negate);

  void normalize();

  BigInt Num;
  BigInt Den;
};

} // namespace mcnk

template <> struct std::hash<mcnk::Rational> {
  std::size_t operator()(const mcnk::Rational &Value) const {
    return Value.hash();
  }
};

#endif // MCNK_SUPPORT_RATIONAL_H
