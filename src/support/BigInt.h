//===----------------------------------------------------------------------===//
///
/// \file
/// Arbitrary-precision signed integers. McNetKAT's frontend and FDD backend
/// use exact rational arithmetic (paper §5); BigInt is the magnitude type
/// underlying Rational. Small values — the overwhelmingly common case for
/// probability numerators and denominators — live inline in an int64_t with
/// no heap allocation; only values outside the int64_t range spill into a
/// sign-magnitude little-endian 32-bit limb vector (schoolbook
/// multiplication, Knuth Algorithm D division, Lehmer gcd over the 64-bit
/// limb kernels that rational reconstruction shares). See
/// docs/ARCHITECTURE.md S9.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_SUPPORT_BIGINT_H
#define MCNK_SUPPORT_BIGINT_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mcnk {

/// Arbitrary-precision signed integer with a small-value fast path.
///
/// Representation invariant (canonicality): a value is stored inline
/// (`SmallRep == true`, in `Small`) if and only if it fits in int64_t;
/// otherwise it is stored as sign-magnitude limbs with no trailing
/// (most-significant) zero limbs. Every value therefore has exactly one
/// representation and operator== can compare representations directly.
///
/// Arithmetic detects int64 overflow with the `__builtin_*_overflow`
/// intrinsics and falls back to the limb algorithms only then; compound
/// operators mutate in place instead of rebuilding both operands.
class BigInt {
public:
  BigInt() = default;
  BigInt(int64_t Value) : Small(Value) {}
  static BigInt fromUnsigned(uint64_t Value);

  /// Parses a decimal string with optional leading '-'. Returns false on
  /// malformed input (empty string, non-digit characters).
  static bool fromString(std::string_view Text, BigInt &Out);

  bool isZero() const { return SmallRep && Small == 0; }
  bool isNegative() const { return SmallRep ? Small < 0 : Negative; }
  bool isOne() const { return SmallRep && Small == 1; }

  /// Number of significant bits in the magnitude (0 for zero).
  unsigned bitLength() const;

  /// True if the value is representable as int64_t (equivalently: the value
  /// is held in the inline small representation).
  bool fitsInt64() const { return SmallRep; }

  /// True if the value is held inline (no heap limbs). By canonicality this
  /// is the same as fitsInt64(); exposed separately so tests can assert the
  /// representation invariant rather than the value range.
  bool isSmallRep() const { return SmallRep; }

  /// Value as int64_t; asserts fitsInt64().
  int64_t toInt64() const;

  /// Magnitude modulo a word-sized modulus (sign ignored; asserts
  /// Mod != 0). The workhorse of the modular solver's CRT fold
  /// (support/ModArith.h): one Horner pass over the limbs, no allocation.
  uint64_t modU64(uint64_t Mod) const;

  /// Magnitude as little-endian 64-bit limbs (empty for zero). The Lehmer
  /// kernels (gcd, rational reconstruction) run on raw 64-bit words; these
  /// two hops convert at entry and exit.
  std::vector<uint64_t> magnitudeLimbs64() const;
  /// Rebuilds a value from 64-bit limbs (trailing zeros allowed; the
  /// result is canonicalized).
  static BigInt fromLimbs64(bool Negative, const std::vector<uint64_t> &Words);

  /// Best-effort conversion to double (rounds; may overflow to +/-inf).
  double toDouble() const;

  std::string toString() const;

  BigInt operator-() const;
  BigInt abs() const;

  BigInt operator+(const BigInt &RHS) const;
  BigInt operator-(const BigInt &RHS) const;
  BigInt operator*(const BigInt &RHS) const;
  /// Quotient truncated toward zero (C++ semantics). Asserts RHS != 0.
  BigInt operator/(const BigInt &RHS) const;
  /// Remainder with the sign of the dividend (C++ semantics).
  BigInt operator%(const BigInt &RHS) const;

  /// In-place compound ops: the small path mutates the inline word; the
  /// limb path adds/subtracts magnitudes into the existing allocation
  /// whenever the result fits the sign structure (no rebuild of *this).
  BigInt &operator+=(const BigInt &RHS) {
    addInPlace(RHS, /*NegateRHS=*/false);
    return *this;
  }
  BigInt &operator-=(const BigInt &RHS) {
    addInPlace(RHS, /*NegateRHS=*/true);
    return *this;
  }
  BigInt &operator*=(const BigInt &RHS);
  BigInt &operator/=(const BigInt &RHS) { return *this = *this / RHS; }

  /// Computes quotient and remainder in one pass.
  static std::pair<BigInt, BigInt> divMod(const BigInt &Num,
                                          const BigInt &Den);

  /// Logical shifts of the magnitude (sign preserved).
  BigInt shl(unsigned Bits) const;
  BigInt shr(unsigned Bits) const;

  /// Greatest common divisor of magnitudes; gcd(0,0) == 0. Word-sized
  /// operands take gcdU64; multi-limb pairs run Lehmer windows down to one
  /// word, then finish with one modU64 and gcdU64.
  static BigInt gcd(const BigInt &A, const BigInt &B);

  /// Binary GCD on word-sized magnitudes (public so Rational's int64 fast
  /// path can normalize without promoting to BigInt).
  static uint64_t gcdU64(uint64_t A, uint64_t B);

  /// Magnitude of an int64 as uint64, INT64_MIN-safe (shared with
  /// Rational's fast path for the same reason as gcdU64).
  static uint64_t magnitudeOf(int64_t Value) {
    return Value < 0 ? ~static_cast<uint64_t>(Value) + 1
                     : static_cast<uint64_t>(Value);
  }

  /// Integer exponentiation. Guarded against runaway growth: aborts via
  /// fatalError when the result's bit length (bitLength(Base) * Exp) would
  /// exceed MaxPowBits.
  static BigInt pow(const BigInt &Base, unsigned Exp);

  /// Hard cap on pow results (bits). ~4 Mbit ≈ 1.26M decimal digits —
  /// far beyond any probability computation, small enough to fail fast
  /// instead of consuming the machine.
  static constexpr unsigned long long MaxPowBits = 1ull << 22;

  /// Three-way comparison: negative/zero/positive as *this <=> RHS.
  int compare(const BigInt &RHS) const;

  bool operator==(const BigInt &RHS) const {
    if (SmallRep != RHS.SmallRep)
      return false; // Canonical: different representations, different values.
    if (SmallRep)
      return Small == RHS.Small;
    return Negative == RHS.Negative && Limbs == RHS.Limbs;
  }
  bool operator!=(const BigInt &RHS) const { return !(*this == RHS); }
  bool operator<(const BigInt &RHS) const { return compare(RHS) < 0; }
  bool operator<=(const BigInt &RHS) const { return compare(RHS) <= 0; }
  bool operator>(const BigInt &RHS) const { return compare(RHS) > 0; }
  bool operator>=(const BigInt &RHS) const { return compare(RHS) >= 0; }

  /// Allocation-free hash (mixes the inline word directly on the small
  /// path; equal values hash equally because the representation is
  /// canonical).
  std::size_t hash() const;

  /// Number of 32-bit limbs the magnitude occupies (for pivot heuristics,
  /// tests, and capacity diagnostics). Small values report the limb count
  /// their magnitude would need (0, 1, or 2).
  std::size_t numLimbs() const;

private:
  using Limb = uint32_t;
  using DoubleLimb = uint64_t;
  static constexpr unsigned LimbBits = 32;

  /// Builds the canonical value with the given sign and magnitude.
  static BigInt fromMagnitude(bool Neg, uint64_t Mag);
  /// Builds the canonical value of a 128-bit signed integer.
  static BigInt fromInt128(__int128 Value);

  /// Returns the limb view of the magnitude: `Limbs` for big values, the
  /// filled \p Scratch for small ones.
  const std::vector<Limb> &magLimbs(std::vector<Limb> &Scratch) const;

  /// Core of += / -=.
  void addInPlace(const BigInt &RHS, bool NegateRHS);
  /// Core of the binary + / - slow path (builds a fresh result).
  static BigInt addSigned(const BigInt &A, const BigInt &B, bool NegateB);

  /// Magnitude comparison ignoring sign.
  static int compareMagnitude(const std::vector<Limb> &A,
                              const std::vector<Limb> &B);
  static std::vector<Limb> addMagnitude(const std::vector<Limb> &A,
                                        const std::vector<Limb> &B);
  /// A += B without reallocating beyond the carry limb.
  static void addMagnitudeInPlace(std::vector<Limb> &A,
                                  const std::vector<Limb> &B);
  /// Requires |A| >= |B|.
  static std::vector<Limb> subMagnitude(const std::vector<Limb> &A,
                                        const std::vector<Limb> &B);
  /// A -= B in place; requires |A| >= |B|.
  static void subMagnitudeInPlace(std::vector<Limb> &A,
                                  const std::vector<Limb> &B);
  static std::vector<Limb> mulMagnitude(const std::vector<Limb> &A,
                                        const std::vector<Limb> &B);
  /// Knuth Algorithm D on magnitudes; quotient in Q, remainder in R.
  static void divModMagnitude(const std::vector<Limb> &A,
                              const std::vector<Limb> &B, std::vector<Limb> &Q,
                              std::vector<Limb> &R);

  /// Strips trailing zero limbs and demotes to the inline representation
  /// when the value fits int64_t (restores canonicality after limb ops).
  void canonicalize();

  // Small form: SmallRep == true, value in Small (Negative/Limbs unused).
  // Big form: SmallRep == false, sign-magnitude in Negative/Limbs.
  bool SmallRep = true;
  bool Negative = false;
  int64_t Small = 0;
  std::vector<Limb> Limbs; // little-endian
};

/// The magnitudeLimbs64 interchange format. The Lehmer kernels below fuse
/// each 2x2 window-matrix row into one carry-propagating pass over
/// caller-owned buffers, instead of allocating BigInt temporaries.
using Limbs64 = std::vector<uint64_t>;

/// Number of significant bits of \p V (0 for empty).
unsigned limbsBitLength(const Limbs64 &V);

/// Bits [Shift, Shift+62) of \p V. Callers align Shift to the top of the
/// larger operand, so no value has bits at or above Shift+62.
uint64_t limbsWindow(const Limbs64 &V, unsigned Shift);

/// Magnitude of \p V modulo \p Mod (asserts Mod != 0): the limb-format
/// counterpart of BigInt::modU64.
uint64_t limbs64ModU64(const Limbs64 &V, uint64_t Mod);

/// One Lehmer window (Knuth 4.5.2 Algorithm L): simulate the Euclidean
/// remainder sequence of (R0, R1) on their leading 62 bits \p X, \p Y
/// with word-size cofactors, advancing only while the double-quotient
/// agreement test proves the simulated quotient equals the true one. On
/// return, (R0', R1') = (A·R0 + B·R1, C·R0 + D·R1) holds for the simulated
/// number of true Euclidean steps; B == 0 means no step was certain and
/// the caller must take one full-precision division instead.
void lehmerWindow(uint64_t X, uint64_t Y, int64_t &A, int64_t &B, int64_t &C,
                  int64_t &D);

/// Out = A·X + B·Y (magnitudes; A, B < 2^63).
void linAddLimbs(Limbs64 &Out, uint64_t A, const Limbs64 &X, uint64_t B,
                 const Limbs64 &Y);

/// Out = P·U + Q·V for a lehmerWindow matrix row applied to a
/// (nonnegative) remainder pair: the result is a true remainder, hence
/// nonnegative.
void applyRemainderRow(Limbs64 &Out, int64_t P, const Limbs64 &U, int64_t Q,
                       const Limbs64 &V);

} // namespace mcnk

template <> struct std::hash<mcnk::BigInt> {
  std::size_t operator()(const mcnk::BigInt &Value) const {
    return Value.hash();
  }
};

#endif // MCNK_SUPPORT_BIGINT_H
