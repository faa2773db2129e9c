//===----------------------------------------------------------------------===//
///
/// \file
/// Hash-combination utilities used by the hash-consing tables in the FDD
/// manager and by interned AST nodes.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_SUPPORT_HASHING_H
#define MCNK_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

namespace mcnk {

/// Mixes \p Value into \p Seed (boost::hash_combine-style with a 64-bit
/// golden-ratio constant).
inline std::size_t hashCombine(std::size_t Seed, std::size_t Value) {
  Seed ^= Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2);
  return Seed;
}

template <typename T>
std::size_t hashCombine(std::size_t Seed, const T &Value) {
  return hashCombine(Seed, std::hash<T>{}(Value));
}

/// Hashes the range [First, Last) into an accumulated seed.
template <typename It> std::size_t hashRange(It First, It Last) {
  std::size_t Seed = 0x42ULL;
  for (; First != Last; ++First)
    Seed = hashCombine(Seed, *First);
  return Seed;
}

/// Hashes a fixed sequence of values of arbitrary types into one seed.
/// The building block for hashing small aggregates (cache keys, interned
/// node fields) without a hand-rolled functor per struct.
template <typename... Ts> std::size_t hashValues(const Ts &...Values) {
  std::size_t Seed = 0x42ULL;
  ((Seed = hashCombine(Seed, Values)), ...);
  return Seed;
}

/// Generic hasher for std::pair, usable as the Hash parameter of unordered
/// containers keyed on pairs.
struct PairHash {
  template <typename A, typename B>
  std::size_t operator()(const std::pair<A, B> &P) const {
    return hashValues(P.first, P.second);
  }
};

/// Generic hasher for any container with begin()/end() (e.g. a vector used
/// as an unordered_map key).
struct RangeHash {
  template <typename C> std::size_t operator()(const C &Container) const {
    return hashRange(Container.begin(), Container.end());
  }
};

} // namespace mcnk

#endif // MCNK_SUPPORT_HASHING_H
