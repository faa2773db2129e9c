//===----------------------------------------------------------------------===//
///
/// \file
/// Rational unit and property tests: normalization invariants, field axioms
/// over a randomized sweep, ordering, and double conversion accuracy.
///
//===----------------------------------------------------------------------===//

#include "support/Rational.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

using mcnk::BigInt;
using mcnk::Rational;

TEST(RationalTest, NormalizationInvariants) {
  Rational A(6, 8);
  EXPECT_EQ(A.numerator(), BigInt(3));
  EXPECT_EQ(A.denominator(), BigInt(4));

  Rational B(-6, 8);
  EXPECT_EQ(B.numerator(), BigInt(-3));
  EXPECT_EQ(B.denominator(), BigInt(4));

  // Negative denominators normalize to positive.
  Rational C(6, -8);
  EXPECT_EQ(C.numerator(), BigInt(-3));
  EXPECT_EQ(C.denominator(), BigInt(4));

  Rational Zero(0, 17);
  EXPECT_TRUE(Zero.isZero());
  EXPECT_EQ(Zero.denominator(), BigInt(1));
  EXPECT_EQ(Zero, Rational());
}

TEST(RationalTest, ArithmeticBasics) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
  EXPECT_EQ(-Rational(1, 2), Rational(-1, 2));
  EXPECT_EQ(Rational(1, 3).reciprocal(), Rational(3));
}

TEST(RationalTest, Ordering) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_LT(Rational(-1, 2), Rational(0));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(7, 8), Rational(6, 7));
}

TEST(RationalTest, IsProbability) {
  EXPECT_TRUE(Rational(0).isProbability());
  EXPECT_TRUE(Rational(1).isProbability());
  EXPECT_TRUE(Rational(1, 1000).isProbability());
  EXPECT_FALSE(Rational(-1, 2).isProbability());
  EXPECT_FALSE(Rational(3, 2).isProbability());
}

TEST(RationalTest, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(1, 2).toDouble(), 0.5);
  EXPECT_DOUBLE_EQ(Rational(-1, 4).toDouble(), -0.25);
  EXPECT_DOUBLE_EQ(Rational(1, 3).toDouble(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(Rational(0).toDouble(), 0.0);
  // Huge numerator and denominator whose ratio is modest.
  BigInt Big = BigInt::pow(BigInt(10), 50);
  Rational Ratio(Big * BigInt(3), Big * BigInt(4));
  EXPECT_DOUBLE_EQ(Ratio.toDouble(), 0.75);
  // Tiny probability from a long failure chain: (1/1000)^10.
  Rational Tiny = Rational(1);
  for (int I = 0; I < 10; ++I)
    Tiny *= Rational(1, 1000);
  EXPECT_NEAR(Tiny.toDouble(), 1e-30, 1e-30 * 1e-12);
}

namespace {

/// The value of a finite double built the slow way: its 53-bit mantissa
/// integer over (or times) a power of two, through the normalizing
/// constructor and its gcd.
Rational dyadicReference(double X) {
  int Exp = 0;
  double Mantissa = std::frexp(X, &Exp);
  BigInt M(static_cast<int64_t>(std::ldexp(Mantissa, 53)));
  Exp -= 53;
  if (Exp >= 0)
    return Rational(M.shl(static_cast<unsigned>(Exp)), BigInt(1));
  return Rational(M, BigInt(1).shl(static_cast<unsigned>(-Exp)));
}

/// True when \p R is an odd numerator over a power of two, or an integer.
bool isCanonicalDyadic(const Rational &R) {
  const BigInt &D = R.denominator();
  if (D.isOne())
    return true;
  bool PowerOfTwo = BigInt(1).shl(D.bitLength() - 1) == D;
  return PowerOfTwo && R.numerator().modU64(2) == 1;
}

void expectExactDyadic(double X) {
  Rational R = Rational::fromDouble(X);
  EXPECT_EQ(R.toDouble(), X) << X;
  EXPECT_EQ(R, dyadicReference(X)) << X;
  EXPECT_TRUE(isCanonicalDyadic(R)) << X << " -> " << R.toString();
}

} // namespace

TEST(RationalTest, FromDoubleIsExactAndCanonical) {
  EXPECT_EQ(Rational::fromDouble(0.0), Rational());
  EXPECT_EQ(Rational::fromDouble(-0.0), Rational());
  EXPECT_EQ(Rational::fromDouble(0.1).toString(),
            "3602879701896397/36028797018963968");
  EXPECT_EQ(Rational::fromDouble(-0.75), Rational(-3, 4));
  // Powers of two, both sides of one.
  for (int K = -1074; K <= 1023; K += 7) {
    double X = std::ldexp(1.0, K);
    EXPECT_EQ(Rational::fromDouble(X),
              K >= 0 ? Rational(BigInt(1).shl(static_cast<unsigned>(K)), 1)
                     : Rational(1, BigInt(1).shl(static_cast<unsigned>(-K))))
        << K;
    expectExactDyadic(X);
    expectExactDyadic(-X);
  }
  // Integers at and past 2^53, where the mantissa is shifted left.
  for (double X : {9007199254740992.0, 9007199254740994.0, 1e17, 1e300,
                   std::ldexp(3.0, 70), std::ldexp(1.0, 60) + 1024.0}) {
    expectExactDyadic(X);
    expectExactDyadic(-X);
    EXPECT_TRUE(Rational::fromDouble(X).denominator().isOne()) << X;
  }
  // The snap thresholds of the float loop solve.
  for (double X : {1e-12, 1.0 - 1e-12, 0.1, 1.0 / 3.0, 0.999, 1e-3}) {
    expectExactDyadic(X);
    expectExactDyadic(-X);
  }
  EXPECT_EQ(Rational::fromDouble(1e-12).denominator(), BigInt(1).shl(92));
}

TEST(RationalTest, FromDoubleMatchesTheReferenceOnRandomBits) {
  std::mt19937_64 Rng(21);
  for (int I = 0; I < 20000; ++I) {
    uint64_t Bits = Rng();
    double X;
    std::memcpy(&X, &Bits, sizeof(X));
    if (!std::isfinite(X) || X == 0.0)
      continue;
    expectExactDyadic(X);
  }
}

TEST(RationalTest, StringRoundTrip) {
  EXPECT_EQ(Rational(1, 2).toString(), "1/2");
  EXPECT_EQ(Rational(5).toString(), "5");
  EXPECT_EQ(Rational(-7, 3).toString(), "-7/3");

  Rational Parsed;
  ASSERT_TRUE(Rational::fromString("22/7", Parsed));
  EXPECT_EQ(Parsed, Rational(22, 7));
  ASSERT_TRUE(Rational::fromString("-5", Parsed));
  EXPECT_EQ(Parsed, Rational(-5));
  EXPECT_FALSE(Rational::fromString("1/0", Parsed));
  EXPECT_FALSE(Rational::fromString("a/b", Parsed));
  EXPECT_FALSE(Rational::fromString("", Parsed));
}

/// Field-axiom property sweep on random small rationals.
class RationalFieldProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(RationalFieldProperty, Axioms) {
  std::mt19937_64 Rng(GetParam());
  std::uniform_int_distribution<int64_t> Num(-50, 50);
  std::uniform_int_distribution<int64_t> Den(1, 50);
  auto Random = [&] { return Rational(Num(Rng), Den(Rng)); };

  for (int Round = 0; Round < 50; ++Round) {
    Rational A = Random(), B = Random(), C = Random();
    EXPECT_EQ(A + B, B + A);
    EXPECT_EQ(A * B, B * A);
    EXPECT_EQ((A + B) + C, A + (B + C));
    EXPECT_EQ((A * B) * C, A * (B * C));
    EXPECT_EQ(A * (B + C), A * B + A * C);
    EXPECT_EQ(A + Rational(), A);
    EXPECT_EQ(A * Rational::one(), A);
    EXPECT_EQ(A - A, Rational());
    if (!A.isZero()) {
      EXPECT_EQ(A * A.reciprocal(), Rational::one());
      EXPECT_EQ(B / A * A, B);
    }
    // Ordering is total and consistent with subtraction.
    EXPECT_EQ(A < B, (A - B).isNegative());
    // Hash respects equality.
    EXPECT_EQ((A + B).hash(), (B + A).hash());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RationalFieldProperty,
                         ::testing::Values(11u, 12u, 13u, 14u));

TEST(RationalTest, ConvexCombinationStaysProbability) {
  // p ⊕_r q with probabilities keeps mass in [0,1] — the shape of every
  // FDD leaf operation.
  Rational R(1, 3);
  Rational P(4, 5), Q(1, 8);
  Rational Mix = R * P + (Rational::one() - R) * Q;
  EXPECT_TRUE(Mix.isProbability());
  // 1/3 * 4/5 + 2/3 * 1/8 = 4/15 + 1/12 = 7/20.
  EXPECT_EQ(Mix, Rational(7, 20));
}
