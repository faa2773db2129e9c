//===----------------------------------------------------------------------===//
///
/// \file
/// BigInt unit and property tests. The property suites check BigInt
/// arithmetic against native __int128 as an oracle on a grid of interesting
/// values (including limb boundaries), ring axioms on wide random values
/// where no native oracle exists, and gcd against a plain-Euclid reference.
///
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

using mcnk::BigInt;

namespace {

BigInt fromI128(__int128 Value) {
  bool Neg = Value < 0;
  unsigned __int128 Mag =
      Neg ? ~static_cast<unsigned __int128>(Value) + 1
          : static_cast<unsigned __int128>(Value);
  BigInt Low = BigInt::fromUnsigned(static_cast<uint64_t>(Mag));
  BigInt High = BigInt::fromUnsigned(static_cast<uint64_t>(Mag >> 64));
  BigInt Result = High.shl(64) + Low;
  return Neg ? -Result : Result;
}

std::string i128ToString(__int128 Value) {
  if (Value == 0)
    return "0";
  bool Neg = Value < 0;
  unsigned __int128 Mag =
      Neg ? ~static_cast<unsigned __int128>(Value) + 1
          : static_cast<unsigned __int128>(Value);
  std::string Digits;
  while (Mag) {
    Digits.push_back(static_cast<char>('0' + static_cast<int>(Mag % 10)));
    Mag /= 10;
  }
  if (Neg)
    Digits.push_back('-');
  std::reverse(Digits.begin(), Digits.end());
  return Digits;
}

/// Reference gcd: plain Euclid, one long division per step — the loop
/// whose steps BigInt::gcd's Lehmer windows batch.
BigInt euclidGcd(BigInt X, BigInt Y) {
  X = X.abs();
  Y = Y.abs();
  while (!Y.isZero()) {
    BigInt R = X % Y;
    X = std::move(Y);
    Y = std::move(R);
  }
  return X;
}

/// Checks BigInt::gcd(A, B) against the Euclid reference, its symmetry,
/// and that the cofactors A/G and B/G are coprime — which a common
/// divisor that is not the greatest (the constant 1, say) fails.
void expectGcd(const BigInt &A, const BigInt &B) {
  BigInt G = BigInt::gcd(A, B);
  EXPECT_EQ(G, euclidGcd(A, B)) << "gcd(" << A.toString() << ", "
                                << B.toString() << ")";
  EXPECT_EQ(G, BigInt::gcd(B, A));
  EXPECT_FALSE(G.isNegative());
  if (G.isZero()) {
    EXPECT_TRUE(A.isZero() && B.isZero());
    return;
  }
  EXPECT_EQ(A % G, BigInt(0));
  EXPECT_EQ(B % G, BigInt(0));
  EXPECT_TRUE(euclidGcd(A / G, B / G).isOne());
}

/// Random magnitude of exactly \p Limbs 32-bit limbs (0 for none).
BigInt randomLimbs(std::mt19937_64 &Rng, unsigned Limbs) {
  std::uniform_int_distribution<uint32_t> Limb(1, UINT32_MAX);
  BigInt Value;
  for (unsigned I = 0; I < Limbs; ++I)
    Value = Value.shl(32) + BigInt(static_cast<int64_t>(Limb(Rng)));
  return Value;
}

/// Interesting 64-bit magnitudes around limb and word boundaries.
const std::vector<int64_t> InterestingValues = {
    0,
    1,
    -1,
    2,
    -2,
    7,
    -7,
    42,
    1000000000,
    -1000000000,
    (1LL << 31) - 1,
    1LL << 31,
    (1LL << 32) - 1,
    1LL << 32,
    (1LL << 32) + 1,
    -(1LL << 32),
    (1LL << 52) + 12345,
    (1LL << 62),
    -(1LL << 62),
    INT64_MAX,
    INT64_MIN + 1,
    INT64_MIN,
};

} // namespace

TEST(BigIntTest, ConstructionAndToString) {
  EXPECT_EQ(BigInt(0).toString(), "0");
  EXPECT_EQ(BigInt(-0).toString(), "0");
  EXPECT_EQ(BigInt(123456789).toString(), "123456789");
  EXPECT_EQ(BigInt(-987654321).toString(), "-987654321");
  EXPECT_EQ(BigInt(INT64_MAX).toString(), "9223372036854775807");
  EXPECT_EQ(BigInt(INT64_MIN).toString(), "-9223372036854775808");
}

TEST(BigIntTest, FromStringRoundTrip) {
  for (const char *Text :
       {"0", "1", "-1", "99999999999999999999999999999999999999",
        "-340282366920938463463374607431768211456", "123",
        "18446744073709551616"}) {
    BigInt Value;
    ASSERT_TRUE(BigInt::fromString(Text, Value)) << Text;
    EXPECT_EQ(Value.toString(), Text);
  }
}

TEST(BigIntTest, FromStringRejectsMalformed) {
  BigInt Value;
  EXPECT_FALSE(BigInt::fromString("", Value));
  EXPECT_FALSE(BigInt::fromString("-", Value));
  EXPECT_FALSE(BigInt::fromString("12a3", Value));
  EXPECT_FALSE(BigInt::fromString("0x10", Value));
  EXPECT_FALSE(BigInt::fromString(" 1", Value));
}

TEST(BigIntTest, ZeroIsCanonical) {
  BigInt A(5), B(5);
  BigInt Zero = A - B;
  EXPECT_TRUE(Zero.isZero());
  EXPECT_FALSE(Zero.isNegative());
  EXPECT_EQ(Zero, BigInt(0));
  EXPECT_EQ((-Zero), BigInt(0));
  EXPECT_EQ(Zero.hash(), BigInt(0).hash());
}

TEST(BigIntTest, FitsAndToInt64) {
  for (int64_t V : InterestingValues) {
    BigInt B(V);
    ASSERT_TRUE(B.fitsInt64()) << V;
    EXPECT_EQ(B.toInt64(), V);
  }
  BigInt TooBig = BigInt(INT64_MAX) + BigInt(1);
  EXPECT_FALSE(TooBig.fitsInt64());
  BigInt MinValue = BigInt(INT64_MIN);
  EXPECT_TRUE(MinValue.fitsInt64());
  EXPECT_FALSE((MinValue - BigInt(1)).fitsInt64());
}

TEST(BigIntTest, BitLength) {
  EXPECT_EQ(BigInt(0).bitLength(), 0u);
  EXPECT_EQ(BigInt(1).bitLength(), 1u);
  EXPECT_EQ(BigInt(2).bitLength(), 2u);
  EXPECT_EQ(BigInt(255).bitLength(), 8u);
  EXPECT_EQ(BigInt(256).bitLength(), 9u);
  EXPECT_EQ(BigInt(1).shl(100).bitLength(), 101u);
}

TEST(BigIntTest, ShiftRoundTrip) {
  BigInt Value;
  ASSERT_TRUE(BigInt::fromString("12345678901234567890123456789", Value));
  for (unsigned Bits : {1u, 31u, 32u, 33u, 64u, 65u, 100u}) {
    EXPECT_EQ(Value.shl(Bits).shr(Bits), Value) << Bits;
  }
  EXPECT_EQ(BigInt(5).shr(3), BigInt(0));
  EXPECT_EQ(BigInt(40).shr(3), BigInt(5));
}

TEST(BigIntTest, PowSmallCases) {
  EXPECT_EQ(BigInt::pow(BigInt(2), 0), BigInt(1));
  EXPECT_EQ(BigInt::pow(BigInt(2), 10), BigInt(1024));
  EXPECT_EQ(BigInt::pow(BigInt(10), 20).toString(), "100000000000000000000");
  EXPECT_EQ(BigInt::pow(BigInt(-3), 3), BigInt(-27));
  EXPECT_EQ(BigInt::pow(BigInt(0), 5), BigInt(0));
}

TEST(BigIntTest, GcdBasics) {
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(0)), BigInt(0));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(6)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(13)), BigInt(1));
}

TEST(BigIntTest, ToDoubleAccuracy) {
  EXPECT_DOUBLE_EQ(BigInt(0).toDouble(), 0.0);
  EXPECT_DOUBLE_EQ(BigInt(1).toDouble(), 1.0);
  EXPECT_DOUBLE_EQ(BigInt(-12345).toDouble(), -12345.0);
  BigInt Big = BigInt(1).shl(100);
  EXPECT_DOUBLE_EQ(Big.toDouble(), std::ldexp(1.0, 100));
  BigInt Huge = BigInt::pow(BigInt(10), 30);
  EXPECT_NEAR(Huge.toDouble(), 1e30, 1e30 * 1e-12);
}

/// Pairwise oracle test against __int128 over the interesting-value grid.
class BigIntPairProperty
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(BigIntPairProperty, MatchesInt128Oracle) {
  auto [AV, BV] = GetParam();
  __int128 A128 = AV, B128 = BV;
  BigInt A(AV), B(BV);

  EXPECT_EQ((A + B).toString(), i128ToString(A128 + B128));
  EXPECT_EQ((A - B).toString(), i128ToString(A128 - B128));
  EXPECT_EQ((A * B).toString(), i128ToString(A128 * B128));
  EXPECT_EQ(A.compare(B) < 0, AV < BV);
  EXPECT_EQ(A == B, AV == BV);
  if (BV != 0) {
    auto [Q, R] = BigInt::divMod(A, B);
    EXPECT_EQ(Q.toString(), i128ToString(A128 / B128));
    EXPECT_EQ(R.toString(), i128ToString(A128 % B128));
    // Division identity.
    EXPECT_EQ(Q * B + R, A);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BigIntPairProperty,
    ::testing::Combine(::testing::ValuesIn(InterestingValues),
                       ::testing::ValuesIn(InterestingValues)));

/// Randomized wide-value properties (no native oracle; checks ring axioms
/// and the division identity on multi-limb values).
class BigIntRandomProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(BigIntRandomProperty, RingAxiomsAndDivision) {
  std::mt19937_64 Rng(GetParam());
  std::uniform_int_distribution<uint64_t> Word;
  auto RandomBig = [&](unsigned Words) {
    BigInt Value;
    for (unsigned I = 0; I < Words; ++I)
      Value = Value.shl(64) + BigInt::fromUnsigned(Word(Rng));
    if (Word(Rng) & 1)
      Value = -Value;
    return Value;
  };

  for (int Round = 0; Round < 25; ++Round) {
    BigInt A = RandomBig(1 + Round % 5);
    BigInt B = RandomBig(1 + (Round / 2) % 4);
    BigInt C = RandomBig(1 + (Round / 3) % 3);

    // Commutativity / associativity / distributivity.
    EXPECT_EQ(A + B, B + A);
    EXPECT_EQ(A * B, B * A);
    EXPECT_EQ((A + B) + C, A + (B + C));
    EXPECT_EQ((A * B) * C, A * (B * C));
    EXPECT_EQ(A * (B + C), A * B + A * C);
    EXPECT_EQ(A - A, BigInt(0));

    // Division identity with both wide and narrow divisors.
    if (!B.isZero()) {
      auto [Q, R] = BigInt::divMod(A, B);
      EXPECT_EQ(Q * B + R, A);
      EXPECT_TRUE(R.abs() < B.abs());
      // Remainder sign follows dividend (C++ truncated semantics).
      if (!R.isZero()) {
        EXPECT_EQ(R.isNegative(), A.isNegative());
      }
    }

    // String round trip.
    BigInt Parsed;
    ASSERT_TRUE(BigInt::fromString(A.toString(), Parsed));
    EXPECT_EQ(Parsed, A);

    expectGcd(A, B);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntRandomProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

/// gcd on operands built around a planted common factor: sizes from zero
/// to 64 limbs in every mix (word against multi-limb, equal and lopsided
/// lengths), random signs, and zero cofactors.
class BigIntGcdProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(BigIntGcdProperty, MatchesEuclidReference) {
  std::mt19937_64 Rng(GetParam());
  std::uniform_int_distribution<unsigned> Size(0, 64);
  for (int Round = 0; Round < 40; ++Round) {
    unsigned ALimbs = Size(Rng), BLimbs = Size(Rng);
    unsigned GLimbs = 1 + Size(Rng) % (1 + std::min(ALimbs, BLimbs));
    BigInt G = randomLimbs(Rng, GLimbs);
    BigInt A = G * randomLimbs(Rng, ALimbs > GLimbs ? ALimbs - GLimbs : 0);
    BigInt B = G * randomLimbs(Rng, BLimbs > GLimbs ? BLimbs - GLimbs : 0);
    if (Rng() & 1)
      A = -A;
    if (Rng() & 1)
      B = -B;
    expectGcd(A, B);
    expectGcd(A, randomLimbs(Rng, BLimbs));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntGcdProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(BigIntTest, GcdInt64MinAgainstMultiLimb) {
  // |INT64_MIN| = 2^63 does not fit int64, so a gcd of 2^63 must come
  // back in limb form.
  BigInt Min(INT64_MIN);
  BigInt TwoTo63 = BigInt(1).shl(63);
  for (const BigInt &Big :
       {BigInt(3).shl(64), -BigInt(5).shl(63), BigInt(1).shl(200), TwoTo63}) {
    BigInt G = BigInt::gcd(Min, Big);
    EXPECT_EQ(G, TwoTo63) << Big.toString();
    EXPECT_FALSE(G.isSmallRep());
    EXPECT_EQ(BigInt::gcd(Big, Min), TwoTo63);
  }
  expectGcd(Min, BigInt(3).shl(64) + BigInt(1));
  expectGcd(Min, BigInt::pow(BigInt(6), 40));
}

TEST(BigIntTest, GcdConsecutiveFibonacci) {
  // Consecutive Fibonacci numbers are Euclid's worst case: every quotient
  // is 1, so a Lehmer window certifies the fewest bits per step.
  std::vector<BigInt> Fib = {BigInt(0), BigInt(1)};
  while (Fib.size() <= 2400)
    Fib.push_back(Fib[Fib.size() - 1] + Fib[Fib.size() - 2]);
  BigInt K = BigInt::pow(BigInt(7), 50);
  for (std::size_t N : {93u, 94u, 200u, 1000u, 2399u}) {
    EXPECT_TRUE(BigInt::gcd(Fib[N], Fib[N + 1]).isOne()) << N;
    EXPECT_EQ(BigInt::gcd(Fib[N] * K, Fib[N + 1] * K), K) << N;
    expectGcd(Fib[N + 1], -Fib[N]);
  }
  // gcd(F(m), F(n)) = F(gcd(m, n)).
  EXPECT_EQ(BigInt::gcd(Fib[1800], Fib[2400]), Fib[600]);
  EXPECT_EQ(BigInt::gcd(Fib[2310], Fib[1925]), Fib[385]);
}

TEST(BigIntTest, GcdHugeQuotientTakesExactStep) {
  // A = B·2^256 + C: B's bits start 256 below A's, so the leading window
  // of B is zero, no quotient is certain, and gcd must take one exact
  // division before windows can resume.
  BigInt C = BigInt::pow(BigInt(3), 40);
  BigInt B = BigInt::pow(BigInt(7), 100) * C;
  BigInt A = B.shl(256) + BigInt(1);
  EXPECT_TRUE(BigInt::gcd(A, B).isOne());
  expectGcd(A, B);
  EXPECT_EQ(BigInt::gcd(B.shl(256) + C, B), C);
  expectGcd(B.shl(256) + C, -B);
}

TEST(BigIntTest, KnuthDivisionAddBackCase) {
  // A crafted case exercising the rare "add back" branch of Algorithm D:
  // dividend / divisor chosen so the trial quotient digit overestimates.
  BigInt A = BigInt(1).shl(96) - BigInt(1).shl(64) + BigInt(3);
  BigInt B = BigInt(1).shl(64) - BigInt(1);
  auto [Q, R] = BigInt::divMod(A, B);
  EXPECT_EQ(Q * B + R, A);
  EXPECT_TRUE(R.abs() < B.abs());

  BigInt A2 = fromI128((static_cast<__int128>(0x8000000000000000ULL) << 64));
  BigInt B2 = fromI128((static_cast<__int128>(0x8000000000000001ULL)));
  auto [Q2, R2] = BigInt::divMod(A2, B2);
  EXPECT_EQ(Q2 * B2 + R2, A2);
}

TEST(BigIntTest, HashConsistency) {
  BigInt A = BigInt::pow(BigInt(7), 40);
  BigInt B = BigInt::pow(BigInt(7), 40);
  EXPECT_EQ(A.hash(), B.hash());
  EXPECT_EQ(std::hash<BigInt>{}(A), A.hash());
}
