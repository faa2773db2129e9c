//===----------------------------------------------------------------------===//
///
/// \file
/// BigInt arithmetic: an inline int64 fast path (overflow detected with the
/// `__builtin_*_overflow` intrinsics, widened through __int128 on spill)
/// over sign-magnitude bignum arithmetic on 32-bit limbs — schoolbook
/// multiplication and Knuth Algorithm D division — and the 64-bit limb
/// kernels of Lehmer's gcd. The representation is canonical: values are
/// inline iff they fit int64_t.
///
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"

#include "support/Error.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace mcnk;

namespace {

/// True if the signed value (Neg, Mag) is representable as int64_t.
bool magFitsInt64(bool Neg, uint64_t Mag) {
  return Mag <= static_cast<uint64_t>(INT64_MAX) ||
         (Neg && Mag == static_cast<uint64_t>(INT64_MAX) + 1);
}

int64_t magToInt64(bool Neg, uint64_t Mag) {
  return Neg ? static_cast<int64_t>(~Mag + 1) : static_cast<int64_t>(Mag);
}

void pushMagnitude(std::vector<uint32_t> &Limbs, uint64_t Mag) {
  if (Mag != 0)
    Limbs.push_back(static_cast<uint32_t>(Mag & 0xffffffffULL));
  if (Mag >> 32)
    Limbs.push_back(static_cast<uint32_t>(Mag >> 32));
}

/// Out = A·X - B·Y; the caller guarantees the result is nonnegative.
/// Signed 128-bit borrow propagation.
void linSubLimbs(Limbs64 &Out, uint64_t A, const Limbs64 &X, uint64_t B,
                 const Limbs64 &Y) {
  std::size_t N = std::max(X.size(), Y.size()) + 1;
  Out.resize(N);
  __int128 Carry = 0;
  for (std::size_t I = 0; I < N; ++I) {
    __int128 T = Carry;
    if (I < X.size())
      T += static_cast<__int128>(static_cast<unsigned __int128>(A) * X[I]);
    if (I < Y.size())
      T -= static_cast<__int128>(static_cast<unsigned __int128>(B) * Y[I]);
    Out[I] = static_cast<uint64_t>(T);
    Carry = T >> 64; // Arithmetic shift: floor division by 2^64.
  }
  assert(Carry == 0 && "linSubLimbs produced a negative value");
  while (!Out.empty() && Out.back() == 0)
    Out.pop_back();
}

} // namespace

BigInt BigInt::fromMagnitude(bool Neg, uint64_t Mag) {
  BigInt Result;
  if (magFitsInt64(Neg, Mag)) {
    Result.Small = magToInt64(Neg, Mag);
    return Result;
  }
  Result.SmallRep = false;
  Result.Negative = Neg;
  pushMagnitude(Result.Limbs, Mag);
  return Result;
}

BigInt BigInt::fromInt128(__int128 Value) {
  if (Value >= INT64_MIN && Value <= INT64_MAX)
    return BigInt(static_cast<int64_t>(Value));
  BigInt Result;
  Result.SmallRep = false;
  Result.Negative = Value < 0;
  unsigned __int128 Mag =
      Result.Negative ? ~static_cast<unsigned __int128>(Value) + 1
                      : static_cast<unsigned __int128>(Value);
  while (Mag) {
    Result.Limbs.push_back(static_cast<Limb>(Mag & 0xffffffffULL));
    Mag >>= 32;
  }
  return Result;
}

BigInt BigInt::fromUnsigned(uint64_t Value) {
  return fromMagnitude(false, Value);
}

const std::vector<BigInt::Limb> &
BigInt::magLimbs(std::vector<Limb> &Scratch) const {
  if (!SmallRep)
    return Limbs;
  Scratch.clear();
  pushMagnitude(Scratch, magnitudeOf(Small));
  return Scratch;
}

void BigInt::canonicalize() {
  if (SmallRep)
    return;
  while (!Limbs.empty() && Limbs.back() == 0)
    Limbs.pop_back();
  if (Limbs.size() > 2)
    return;
  uint64_t Mag = 0;
  if (Limbs.size() > 0)
    Mag = Limbs[0];
  if (Limbs.size() > 1)
    Mag |= static_cast<uint64_t>(Limbs[1]) << 32;
  if (!magFitsInt64(Negative, Mag))
    return;
  Small = magToInt64(Negative, Mag);
  SmallRep = true;
  Negative = false;
  Limbs.clear();
}

unsigned BigInt::bitLength() const {
  if (SmallRep) {
    if (Small == 0)
      return 0;
    return 64u - static_cast<unsigned>(__builtin_clzll(magnitudeOf(Small)));
  }
  unsigned TopBits = 32 - __builtin_clz(Limbs.back());
  return static_cast<unsigned>(Limbs.size() - 1) * LimbBits + TopBits;
}

int64_t BigInt::toInt64() const {
  assert(fitsInt64() && "BigInt does not fit in int64_t");
  return Small;
}

uint64_t BigInt::modU64(uint64_t Mod) const {
  assert(Mod != 0 && "modulus must be nonzero");
  if (SmallRep)
    return magnitudeOf(Small) % Mod;
  // Horner over the limbs, most-significant first: r = (r·2^32 + limb) % Mod.
  unsigned __int128 R = 0;
  for (std::size_t I = Limbs.size(); I-- > 0;)
    R = ((R << LimbBits) | Limbs[I]) % Mod;
  return static_cast<uint64_t>(R);
}

std::vector<uint64_t> BigInt::magnitudeLimbs64() const {
  std::vector<uint64_t> Out;
  if (SmallRep) {
    if (uint64_t Mag = magnitudeOf(Small))
      Out.push_back(Mag);
    return Out;
  }
  Out.reserve((Limbs.size() + 1) / 2);
  for (std::size_t I = 0; I < Limbs.size(); I += 2) {
    uint64_t Word = Limbs[I];
    if (I + 1 < Limbs.size())
      Word |= static_cast<uint64_t>(Limbs[I + 1]) << LimbBits;
    Out.push_back(Word);
  }
  return Out;
}

BigInt BigInt::fromLimbs64(bool Negative,
                           const std::vector<uint64_t> &Words) {
  BigInt Result;
  Result.SmallRep = false;
  Result.Negative = Negative;
  Result.Limbs.reserve(Words.size() * 2);
  for (uint64_t Word : Words) {
    Result.Limbs.push_back(static_cast<Limb>(Word));
    Result.Limbs.push_back(static_cast<Limb>(Word >> LimbBits));
  }
  Result.canonicalize();
  return Result;
}

double BigInt::toDouble() const {
  if (SmallRep)
    return static_cast<double>(Small);
  // Sum the top three limbs (>= 65 significant bits, more than a double's
  // mantissa); lower limbs contribute less than half an ulp.
  double Result = 0.0;
  std::size_t Top = Limbs.size();
  std::size_t Stop = Top >= 3 ? Top - 3 : 0;
  for (std::size_t I = Top; I-- > Stop;)
    Result += std::ldexp(static_cast<double>(Limbs[I]),
                         static_cast<int>(I) * static_cast<int>(LimbBits));
  return Negative ? -Result : Result;
}

int BigInt::compareMagnitude(const std::vector<Limb> &A,
                             const std::vector<Limb> &B) {
  if (A.size() != B.size())
    return A.size() < B.size() ? -1 : 1;
  for (std::size_t I = A.size(); I-- > 0;)
    if (A[I] != B[I])
      return A[I] < B[I] ? -1 : 1;
  return 0;
}

std::vector<BigInt::Limb> BigInt::addMagnitude(const std::vector<Limb> &A,
                                               const std::vector<Limb> &B) {
  const std::vector<Limb> &Long = A.size() >= B.size() ? A : B;
  const std::vector<Limb> &Short = A.size() >= B.size() ? B : A;
  std::vector<Limb> Result;
  Result.reserve(Long.size() + 1);
  DoubleLimb Carry = 0;
  for (std::size_t I = 0; I < Long.size(); ++I) {
    DoubleLimb Sum = Carry + Long[I];
    if (I < Short.size())
      Sum += Short[I];
    Result.push_back(static_cast<Limb>(Sum & 0xffffffffULL));
    Carry = Sum >> 32;
  }
  if (Carry)
    Result.push_back(static_cast<Limb>(Carry));
  return Result;
}

void BigInt::addMagnitudeInPlace(std::vector<Limb> &A,
                                 const std::vector<Limb> &B) {
  assert(&A != &B && "aliased in-place add");
  if (B.size() > A.size())
    A.resize(B.size(), 0);
  DoubleLimb Carry = 0;
  for (std::size_t I = 0; I < A.size(); ++I) {
    DoubleLimb Sum = Carry + A[I];
    if (I < B.size())
      Sum += B[I];
    else if (Carry == 0)
      return; // Past B with no carry: the remaining limbs are unchanged.
    A[I] = static_cast<Limb>(Sum & 0xffffffffULL);
    Carry = Sum >> 32;
  }
  if (Carry)
    A.push_back(static_cast<Limb>(Carry));
}

std::vector<BigInt::Limb> BigInt::subMagnitude(const std::vector<Limb> &A,
                                               const std::vector<Limb> &B) {
  assert(compareMagnitude(A, B) >= 0 && "subMagnitude requires |A| >= |B|");
  std::vector<Limb> Result;
  Result.reserve(A.size());
  int64_t Borrow = 0;
  for (std::size_t I = 0; I < A.size(); ++I) {
    int64_t Diff = static_cast<int64_t>(A[I]) - Borrow -
                   (I < B.size() ? static_cast<int64_t>(B[I]) : 0);
    if (Diff < 0) {
      Diff += (1LL << 32);
      Borrow = 1;
    } else {
      Borrow = 0;
    }
    Result.push_back(static_cast<Limb>(Diff));
  }
  assert(Borrow == 0 && "underflow in subMagnitude");
  while (!Result.empty() && Result.back() == 0)
    Result.pop_back();
  return Result;
}

void BigInt::subMagnitudeInPlace(std::vector<Limb> &A,
                                 const std::vector<Limb> &B) {
  assert(&A != &B && "aliased in-place sub");
  assert(compareMagnitude(A, B) >= 0 && "subMagnitude requires |A| >= |B|");
  int64_t Borrow = 0;
  for (std::size_t I = 0; I < A.size(); ++I) {
    if (I >= B.size() && Borrow == 0)
      break; // Past B with no borrow: the remaining limbs are unchanged.
    int64_t Diff = static_cast<int64_t>(A[I]) - Borrow -
                   (I < B.size() ? static_cast<int64_t>(B[I]) : 0);
    if (Diff < 0) {
      Diff += (1LL << 32);
      Borrow = 1;
    } else {
      Borrow = 0;
    }
    A[I] = static_cast<Limb>(Diff);
  }
  assert(Borrow == 0 && "underflow in subMagnitudeInPlace");
  while (!A.empty() && A.back() == 0)
    A.pop_back();
}

std::vector<BigInt::Limb> BigInt::mulMagnitude(const std::vector<Limb> &A,
                                               const std::vector<Limb> &B) {
  if (A.empty() || B.empty())
    return {};
  std::vector<Limb> Result(A.size() + B.size(), 0);
  for (std::size_t I = 0; I < A.size(); ++I) {
    DoubleLimb Carry = 0;
    DoubleLimb AV = A[I];
    for (std::size_t J = 0; J < B.size(); ++J) {
      DoubleLimb Cur = Result[I + J] + AV * B[J] + Carry;
      Result[I + J] = static_cast<Limb>(Cur & 0xffffffffULL);
      Carry = Cur >> 32;
    }
    std::size_t K = I + B.size();
    while (Carry) {
      DoubleLimb Cur = Result[K] + Carry;
      Result[K] = static_cast<Limb>(Cur & 0xffffffffULL);
      Carry = Cur >> 32;
      ++K;
    }
  }
  while (!Result.empty() && Result.back() == 0)
    Result.pop_back();
  return Result;
}

void BigInt::divModMagnitude(const std::vector<Limb> &A,
                             const std::vector<Limb> &B, std::vector<Limb> &Q,
                             std::vector<Limb> &R) {
  assert(!B.empty() && "division by zero");
  Q.clear();
  R.clear();
  if (compareMagnitude(A, B) < 0) {
    R = A;
    return;
  }

  // Fast path: single-limb divisor.
  if (B.size() == 1) {
    DoubleLimb Den = B[0];
    Q.assign(A.size(), 0);
    DoubleLimb Rem = 0;
    for (std::size_t I = A.size(); I-- > 0;) {
      DoubleLimb Cur = (Rem << 32) | A[I];
      Q[I] = static_cast<Limb>(Cur / Den);
      Rem = Cur % Den;
    }
    while (!Q.empty() && Q.back() == 0)
      Q.pop_back();
    if (Rem != 0)
      R.push_back(static_cast<Limb>(Rem));
    return;
  }

  // Knuth TAOCP vol. 2, Algorithm D. Normalize so that the divisor's top
  // limb has its high bit set.
  unsigned Shift = __builtin_clz(B.back());
  std::size_t N = B.size();
  std::size_t M = A.size() - N;

  std::vector<Limb> V(N);
  for (std::size_t I = N; I-- > 0;) {
    V[I] = B[I] << Shift;
    if (Shift && I > 0)
      V[I] |= static_cast<Limb>(static_cast<DoubleLimb>(B[I - 1]) >>
                                (32 - Shift));
  }

  std::vector<Limb> U(A.size() + 1, 0);
  U[A.size()] =
      Shift ? static_cast<Limb>(static_cast<DoubleLimb>(A.back()) >>
                                (32 - Shift))
            : 0;
  for (std::size_t I = A.size(); I-- > 0;) {
    U[I] = A[I] << Shift;
    if (Shift && I > 0)
      U[I] |= static_cast<Limb>(static_cast<DoubleLimb>(A[I - 1]) >>
                                (32 - Shift));
  }

  Q.assign(M + 1, 0);
  const DoubleLimb Base = 1ULL << 32;
  for (std::size_t J = M + 1; J-- > 0;) {
    // Estimate the quotient limb from the top two limbs of the current
    // remainder prefix against the top limb of the divisor.
    DoubleLimb Top = (static_cast<DoubleLimb>(U[J + N]) << 32) | U[J + N - 1];
    DoubleLimb QHat = Top / V[N - 1];
    DoubleLimb RHat = Top % V[N - 1];
    while (QHat >= Base ||
           QHat * V[N - 2] > ((RHat << 32) | U[J + N - 2])) {
      --QHat;
      RHat += V[N - 1];
      if (RHat >= Base)
        break;
    }

    // Multiply-subtract QHat * V from U[J .. J+N].
    int64_t Borrow = 0;
    DoubleLimb Carry = 0;
    for (std::size_t I = 0; I < N; ++I) {
      DoubleLimb Prod = QHat * V[I] + Carry;
      Carry = Prod >> 32;
      int64_t Diff = static_cast<int64_t>(U[I + J]) -
                     static_cast<int64_t>(Prod & 0xffffffffULL) - Borrow;
      if (Diff < 0) {
        Diff += static_cast<int64_t>(Base);
        Borrow = 1;
      } else {
        Borrow = 0;
      }
      U[I + J] = static_cast<Limb>(Diff);
    }
    int64_t TopDiff = static_cast<int64_t>(U[J + N]) -
                      static_cast<int64_t>(Carry) - Borrow;
    if (TopDiff < 0) {
      // QHat was one too large; add the divisor back.
      TopDiff += static_cast<int64_t>(Base);
      --QHat;
      DoubleLimb AddCarry = 0;
      for (std::size_t I = 0; I < N; ++I) {
        DoubleLimb Sum =
            static_cast<DoubleLimb>(U[I + J]) + V[I] + AddCarry;
        U[I + J] = static_cast<Limb>(Sum & 0xffffffffULL);
        AddCarry = Sum >> 32;
      }
      TopDiff += static_cast<int64_t>(AddCarry);
      TopDiff &= static_cast<int64_t>(Base - 1);
    }
    U[J + N] = static_cast<Limb>(TopDiff);
    Q[J] = static_cast<Limb>(QHat);
  }

  while (!Q.empty() && Q.back() == 0)
    Q.pop_back();

  // Denormalize the remainder (low N limbs of U, shifted back).
  R.assign(N, 0);
  for (std::size_t I = 0; I < N; ++I) {
    R[I] = U[I] >> Shift;
    if (Shift && I + 1 < U.size())
      R[I] |= static_cast<Limb>(static_cast<DoubleLimb>(U[I + 1])
                                << (32 - Shift));
  }
  while (!R.empty() && R.back() == 0)
    R.pop_back();
}

BigInt BigInt::operator-() const {
  if (SmallRep) {
    if (Small == INT64_MIN)
      return fromMagnitude(false, magnitudeOf(Small));
    return BigInt(-Small);
  }
  BigInt Result = *this;
  Result.Negative = !Result.Negative;
  Result.canonicalize(); // -(2^63) demotes to INT64_MIN.
  return Result;
}

BigInt BigInt::abs() const {
  if (SmallRep)
    return Small < 0 ? -*this : *this;
  BigInt Result = *this;
  Result.Negative = false;
  return Result; // |big| never fits int64 when the value was positive-wide.
}

void BigInt::addInPlace(const BigInt &RHS, bool NegateRHS) {
  if (SmallRep && RHS.SmallRep) {
    int64_t Result;
    bool Overflow = NegateRHS
                        ? __builtin_sub_overflow(Small, RHS.Small, &Result)
                        : __builtin_add_overflow(Small, RHS.Small, &Result);
    if (!Overflow) {
      Small = Result;
      return;
    }
    __int128 Wide = NegateRHS
                        ? static_cast<__int128>(Small) - RHS.Small
                        : static_cast<__int128>(Small) + RHS.Small;
    *this = fromInt128(Wide);
    return;
  }
  if (this == &RHS) { // Aliased big self-add; take the copying path.
    BigInt Copy = RHS;
    addInPlace(Copy, NegateRHS);
    return;
  }
  bool BNeg = NegateRHS != RHS.isNegative();
  if (!SmallRep) {
    std::vector<Limb> Scratch;
    const std::vector<Limb> &B = RHS.magLimbs(Scratch);
    if (Negative == BNeg) {
      addMagnitudeInPlace(Limbs, B); // Magnitude only grows: stays big.
      return;
    }
    if (compareMagnitude(Limbs, B) >= 0) {
      subMagnitudeInPlace(Limbs, B);
    } else {
      Limbs = subMagnitude(B, Limbs);
      Negative = BNeg;
    }
    canonicalize();
    return;
  }
  // Small += big: the result is dominated by RHS's magnitude.
  *this = addSigned(*this, RHS, NegateRHS);
}

BigInt BigInt::addSigned(const BigInt &A, const BigInt &B, bool NegateB) {
  std::vector<Limb> SA, SB;
  const std::vector<Limb> &AL = A.magLimbs(SA);
  const std::vector<Limb> &BL = B.magLimbs(SB);
  bool ANeg = A.isNegative();
  bool BNeg = NegateB != B.isNegative();
  BigInt Result;
  Result.SmallRep = false;
  if (ANeg == BNeg) {
    Result.Limbs = addMagnitude(AL, BL);
    Result.Negative = ANeg;
  } else if (compareMagnitude(AL, BL) >= 0) {
    Result.Limbs = subMagnitude(AL, BL);
    Result.Negative = ANeg;
  } else {
    Result.Limbs = subMagnitude(BL, AL);
    Result.Negative = BNeg;
  }
  Result.canonicalize();
  return Result;
}

BigInt BigInt::operator+(const BigInt &RHS) const {
  if (SmallRep && RHS.SmallRep) {
    int64_t Result;
    if (!__builtin_add_overflow(Small, RHS.Small, &Result))
      return BigInt(Result);
    return fromInt128(static_cast<__int128>(Small) + RHS.Small);
  }
  return addSigned(*this, RHS, /*NegateB=*/false);
}

BigInt BigInt::operator-(const BigInt &RHS) const {
  if (SmallRep && RHS.SmallRep) {
    int64_t Result;
    if (!__builtin_sub_overflow(Small, RHS.Small, &Result))
      return BigInt(Result);
    return fromInt128(static_cast<__int128>(Small) - RHS.Small);
  }
  return addSigned(*this, RHS, /*NegateB=*/true);
}

BigInt BigInt::operator*(const BigInt &RHS) const {
  if (SmallRep && RHS.SmallRep) {
    int64_t Result;
    if (!__builtin_mul_overflow(Small, RHS.Small, &Result))
      return BigInt(Result);
    return fromInt128(static_cast<__int128>(Small) * RHS.Small);
  }
  std::vector<Limb> SA, SB;
  const std::vector<Limb> &A = magLimbs(SA);
  const std::vector<Limb> &B = RHS.magLimbs(SB);
  BigInt Result;
  Result.SmallRep = false;
  Result.Limbs = mulMagnitude(A, B);
  Result.Negative = isNegative() != RHS.isNegative();
  Result.canonicalize(); // big * 0 or big * ∓1 can land back in int64.
  return Result;
}

BigInt &BigInt::operator*=(const BigInt &RHS) {
  if (SmallRep && RHS.SmallRep) {
    int64_t Result;
    if (!__builtin_mul_overflow(Small, RHS.Small, &Result)) {
      Small = Result;
      return *this;
    }
    return *this = fromInt128(static_cast<__int128>(Small) * RHS.Small);
  }
  // Schoolbook multiplication needs a separate output buffer.
  return *this = *this * RHS;
}

std::pair<BigInt, BigInt> BigInt::divMod(const BigInt &Num,
                                         const BigInt &Den) {
  assert(!Den.isZero() && "BigInt division by zero");
  if (Num.SmallRep && Den.SmallRep) {
    if (Num.Small == INT64_MIN && Den.Small == -1)
      return {fromMagnitude(false, magnitudeOf(INT64_MIN)), BigInt(0)};
    return {BigInt(Num.Small / Den.Small), BigInt(Num.Small % Den.Small)};
  }
  std::vector<Limb> SA, SB;
  const std::vector<Limb> &A = Num.magLimbs(SA);
  const std::vector<Limb> &B = Den.magLimbs(SB);
  BigInt Q, R;
  Q.SmallRep = false;
  R.SmallRep = false;
  divModMagnitude(A, B, Q.Limbs, R.Limbs);
  Q.Negative = !Q.Limbs.empty() && (Num.isNegative() != Den.isNegative());
  R.Negative = !R.Limbs.empty() && Num.isNegative();
  Q.canonicalize();
  R.canonicalize();
  return {std::move(Q), std::move(R)};
}

BigInt BigInt::operator/(const BigInt &RHS) const {
  return divMod(*this, RHS).first;
}

BigInt BigInt::operator%(const BigInt &RHS) const {
  return divMod(*this, RHS).second;
}

BigInt BigInt::shl(unsigned Bits) const {
  if (isZero() || Bits == 0)
    return *this;
  if (SmallRep) {
    uint64_t Mag = magnitudeOf(Small);
    unsigned Len = 64u - static_cast<unsigned>(__builtin_clzll(Mag));
    if (Len + Bits <= 63)
      return fromMagnitude(Small < 0, Mag << Bits);
  }
  std::vector<Limb> Scratch;
  const std::vector<Limb> &A = magLimbs(Scratch);
  unsigned LimbShift = Bits / LimbBits;
  unsigned BitShift = Bits % LimbBits;
  BigInt Result;
  Result.SmallRep = false;
  Result.Negative = isNegative();
  Result.Limbs.assign(A.size() + LimbShift + 1, 0);
  for (std::size_t I = 0; I < A.size(); ++I) {
    DoubleLimb Shifted = static_cast<DoubleLimb>(A[I]) << BitShift;
    Result.Limbs[I + LimbShift] |= static_cast<Limb>(Shifted & 0xffffffffULL);
    Result.Limbs[I + LimbShift + 1] |= static_cast<Limb>(Shifted >> 32);
  }
  Result.canonicalize();
  return Result;
}

BigInt BigInt::shr(unsigned Bits) const {
  if (isZero() || Bits == 0)
    return *this;
  if (SmallRep) {
    uint64_t Mag = magnitudeOf(Small);
    uint64_t Shifted = Bits >= 64 ? 0 : Mag >> Bits;
    return fromMagnitude(Small < 0 && Shifted != 0, Shifted);
  }
  unsigned LimbShift = Bits / LimbBits;
  unsigned BitShift = Bits % LimbBits;
  if (LimbShift >= Limbs.size())
    return BigInt();
  BigInt Result;
  Result.SmallRep = false;
  Result.Negative = Negative;
  Result.Limbs.assign(Limbs.size() - LimbShift, 0);
  for (std::size_t I = 0; I < Result.Limbs.size(); ++I) {
    DoubleLimb Cur = static_cast<DoubleLimb>(Limbs[I + LimbShift]) >> BitShift;
    if (BitShift && I + LimbShift + 1 < Limbs.size())
      Cur |= static_cast<DoubleLimb>(Limbs[I + LimbShift + 1])
             << (32 - BitShift);
    Result.Limbs[I] = static_cast<Limb>(Cur & 0xffffffffULL);
  }
  Result.canonicalize();
  return Result;
}

uint64_t BigInt::gcdU64(uint64_t A, uint64_t B) {
  if (A == 0)
    return B;
  if (B == 0)
    return A;
  unsigned AZeros = static_cast<unsigned>(__builtin_ctzll(A));
  unsigned BZeros = static_cast<unsigned>(__builtin_ctzll(B));
  unsigned CommonShift = AZeros < BZeros ? AZeros : BZeros;
  A >>= AZeros;
  do {
    B >>= __builtin_ctzll(B);
    if (A > B)
      std::swap(A, B);
    B -= A;
  } while (B != 0);
  return A << CommonShift;
}

BigInt BigInt::gcd(const BigInt &A, const BigInt &B) {
  if (A.SmallRep && B.SmallRep)
    return fromMagnitude(false,
                         gcdU64(magnitudeOf(A.Small), magnitudeOf(B.Small)));
  if (A.SmallRep || B.SmallRep) {
    const BigInt &Big = A.SmallRep ? B : A;
    uint64_t Word = magnitudeOf(A.SmallRep ? A.Small : B.Small);
    if (Word == 0)
      return Big.abs();
    return fromMagnitude(false, gcdU64(Big.modU64(Word), Word));
  }
  Limbs64 R0 = A.magnitudeLimbs64(), R1 = B.magnitudeLimbs64();
  if (limbsBitLength(R0) < limbsBitLength(R1))
    std::swap(R0, R1);
  Limbs64 S0, S1; // Ping-pong scratch; capacity persists across windows.
  while (limbsBitLength(R1) > 64) {
    unsigned Shift = limbsBitLength(R0) - 62;
    int64_t WA, WB, WC, WD;
    lehmerWindow(limbsWindow(R0, Shift), limbsWindow(R1, Shift), WA, WB, WC,
                 WD);
    if (WB == 0) {
      // No certain quotient in the window (rare: a huge true quotient);
      // take one exact step instead.
      BigInt Rem = fromLimbs64(false, R0) % fromLimbs64(false, R1);
      R0 = std::move(R1);
      R1 = Rem.magnitudeLimbs64();
      continue;
    }
    applyRemainderRow(S0, WA, R0, WB, R1);
    applyRemainderRow(S1, WC, R0, WD, R1);
    std::swap(R0, S0);
    std::swap(R1, S1);
  }
  if (R1.empty())
    return fromLimbs64(false, R0);
  return fromMagnitude(false, gcdU64(limbs64ModU64(R0, R1[0]), R1[0]));
}

BigInt BigInt::pow(const BigInt &Base, unsigned Exp) {
  // Overflow guard: the result has ~bitLength(Base) * Exp bits; refuse
  // runaway requests instead of allocating until the machine falls over.
  unsigned long long ResultBits =
      static_cast<unsigned long long>(Base.bitLength()) * Exp;
  assert(ResultBits <= MaxPowBits && "BigInt::pow result exceeds MaxPowBits");
  if (ResultBits > MaxPowBits)
    fatalError("BigInt::pow: result would exceed " +
               std::to_string(MaxPowBits) + " bits");
  BigInt Result(1), Acc = Base;
  while (Exp) {
    if (Exp & 1)
      Result *= Acc;
    Exp >>= 1;
    if (Exp)
      Acc *= Acc;
  }
  return Result;
}

int BigInt::compare(const BigInt &RHS) const {
  if (SmallRep && RHS.SmallRep)
    return Small < RHS.Small ? -1 : (Small > RHS.Small ? 1 : 0);
  // Mixed representations: by canonicality the big side's magnitude is
  // outside the int64 range, so its sign decides.
  if (SmallRep)
    return RHS.Negative ? 1 : -1;
  if (RHS.SmallRep)
    return Negative ? -1 : 1;
  if (Negative != RHS.Negative)
    return Negative ? -1 : 1;
  int MagCmp = compareMagnitude(Limbs, RHS.Limbs);
  return Negative ? -MagCmp : MagCmp;
}

bool BigInt::fromString(std::string_view Text, BigInt &Out) {
  std::size_t Pos = 0;
  bool Neg = false;
  if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+')) {
    Neg = Text[Pos] == '-';
    ++Pos;
  }
  if (Pos >= Text.size())
    return false;

  // Small fast path: up to 18 digits always fit int64.
  if (Text.size() - Pos <= 18) {
    int64_t Value = 0;
    for (; Pos < Text.size(); ++Pos) {
      char C = Text[Pos];
      if (C < '0' || C > '9')
        return false;
      Value = Value * 10 + (C - '0');
    }
    Out = BigInt(Neg ? -Value : Value);
    return true;
  }

  BigInt Result;
  const BigInt Chunk(1000000000);
  // Consume digits in 9-digit groups: value = value * 10^k + group.
  while (Pos < Text.size()) {
    std::size_t GroupLen = std::min<std::size_t>(9, Text.size() - Pos);
    int64_t Group = 0, Scale = 1;
    for (std::size_t I = 0; I < GroupLen; ++I) {
      char C = Text[Pos + I];
      if (C < '0' || C > '9')
        return false;
      Group = Group * 10 + (C - '0');
      Scale *= 10;
    }
    Result *= GroupLen == 9 ? Chunk : BigInt(Scale);
    Result += BigInt(Group);
    Pos += GroupLen;
  }
  Out = Neg ? -Result : Result;
  return true;
}

std::string BigInt::toString() const {
  if (SmallRep)
    return std::to_string(Small);
  std::vector<Limb> Mag = Limbs;
  std::string Digits;
  // Peel 9 decimal digits at a time by dividing by 10^9.
  while (!Mag.empty()) {
    DoubleLimb Rem = 0;
    for (std::size_t I = Mag.size(); I-- > 0;) {
      DoubleLimb Cur = (Rem << 32) | Mag[I];
      Mag[I] = static_cast<Limb>(Cur / 1000000000ULL);
      Rem = Cur % 1000000000ULL;
    }
    while (!Mag.empty() && Mag.back() == 0)
      Mag.pop_back();
    for (int I = 0; I < 9; ++I) {
      Digits.push_back(static_cast<char>('0' + Rem % 10));
      Rem /= 10;
    }
  }
  while (Digits.size() > 1 && Digits.back() == '0')
    Digits.pop_back();
  if (Negative)
    Digits.push_back('-');
  std::reverse(Digits.begin(), Digits.end());
  return Digits;
}

std::size_t BigInt::hash() const {
  if (SmallRep)
    return hashCombine(static_cast<std::size_t>(0x42u),
                       static_cast<std::size_t>(static_cast<uint64_t>(Small)));
  std::size_t Seed = Negative ? 0x5bd1e995u : 0x42u;
  for (Limb L : Limbs)
    Seed = hashCombine(Seed, static_cast<std::size_t>(L));
  return Seed;
}

std::size_t BigInt::numLimbs() const {
  if (!SmallRep)
    return Limbs.size();
  uint64_t Mag = magnitudeOf(Small);
  if (Mag == 0)
    return 0;
  return Mag >> 32 ? 2 : 1;
}

unsigned mcnk::limbsBitLength(const Limbs64 &V) {
  if (V.empty())
    return 0;
  return 64 * static_cast<unsigned>(V.size() - 1) +
         (64 - static_cast<unsigned>(__builtin_clzll(V.back())));
}

uint64_t mcnk::limbsWindow(const Limbs64 &V, unsigned Shift) {
  std::size_t I = Shift / 64;
  unsigned Off = Shift % 64;
  if (I >= V.size())
    return 0;
  uint64_t W = V[I] >> Off;
  if (Off != 0 && I + 1 < V.size())
    W |= V[I + 1] << (64 - Off);
  return W;
}

uint64_t mcnk::limbs64ModU64(const Limbs64 &V, uint64_t Mod) {
  assert(Mod != 0 && "modulus must be nonzero");
  unsigned __int128 R = 0;
  for (std::size_t I = V.size(); I-- > 0;)
    R = ((R << 64) | V[I]) % Mod;
  return static_cast<uint64_t>(R);
}

void mcnk::lehmerWindow(uint64_t X, uint64_t Y, int64_t &A, int64_t &B,
                        int64_t &C, int64_t &D) {
  A = 1;
  B = 0;
  C = 0;
  D = 1;
  int64_t SX = static_cast<int64_t>(X);
  int64_t SY = static_cast<int64_t>(Y);
  for (;;) {
    // The true remainders are bracketed by (y+C, y+D); once either bound
    // hits zero the window has no more certain quotients.
    int64_t YC, YD, XA, XB;
    if (__builtin_add_overflow(SY, C, &YC) ||
        __builtin_add_overflow(SY, D, &YD) || YC == 0 || YD == 0 ||
        __builtin_add_overflow(SX, A, &XA) ||
        __builtin_add_overflow(SX, B, &XB))
      return;
    int64_t Q = XA / YC;
    if (Q != XB / YD)
      return;
    int64_t T, QT;
    if (__builtin_mul_overflow(Q, C, &QT) ||
        __builtin_sub_overflow(A, QT, &T))
      return;
    A = C;
    C = T;
    if (__builtin_mul_overflow(Q, D, &QT) ||
        __builtin_sub_overflow(B, QT, &T))
      return;
    B = D;
    D = T;
    if (__builtin_mul_overflow(Q, SY, &QT) ||
        __builtin_sub_overflow(SX, QT, &T))
      return;
    SX = SY;
    SY = T;
  }
}

void mcnk::linAddLimbs(Limbs64 &Out, uint64_t A, const Limbs64 &X, uint64_t B,
                       const Limbs64 &Y) {
  // The 128-bit accumulator absorbs both products and the running carry.
  std::size_t N = std::max(X.size(), Y.size()) + 1;
  Out.resize(N);
  unsigned __int128 Carry = 0;
  for (std::size_t I = 0; I < N; ++I) {
    unsigned __int128 T = Carry;
    if (I < X.size())
      T += static_cast<unsigned __int128>(A) * X[I];
    if (I < Y.size())
      T += static_cast<unsigned __int128>(B) * Y[I];
    Out[I] = static_cast<uint64_t>(T);
    Carry = T >> 64;
  }
  assert(Carry == 0 && "linAddLimbs overflowed its output limb");
  while (!Out.empty() && Out.back() == 0)
    Out.pop_back();
}

void mcnk::applyRemainderRow(Limbs64 &Out, int64_t P, const Limbs64 &U,
                             int64_t Q, const Limbs64 &V) {
  // A window row has one coefficient >= 0 and the other <= 0.
  if (P >= 0 && Q >= 0)
    linAddLimbs(Out, static_cast<uint64_t>(P), U, static_cast<uint64_t>(Q),
                V);
  else if (P >= 0)
    linSubLimbs(Out, static_cast<uint64_t>(P), U, static_cast<uint64_t>(-Q),
                V);
  else
    linSubLimbs(Out, static_cast<uint64_t>(Q), V, static_cast<uint64_t>(-P),
                U);
}
