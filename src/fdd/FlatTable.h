//===----------------------------------------------------------------------===//
///
/// \file
/// The flat open-addressing tables behind FddManager's hash-consing and
/// operation caches (docs/ARCHITECTURE.md S2). Each table is one contiguous
/// slot array: power-of-two capacity, linear probing from a 64-bit
/// finalizer of the key's hash, doubling at load 1/2. Entries are never
/// erased one at a time; gc() rebuilds a table wholesale.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_FDD_FLATTABLE_H
#define MCNK_FDD_FLATTABLE_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mcnk {
namespace fdd {

/// The murmur3 fmix64 finalizer: every input bit affects the low bits.
inline uint64_t mixHash(uint64_t X) {
  X = (X ^ (X >> 33)) * 0xff51afd7ed558ccdULL;
  X = (X ^ (X >> 33)) * 0xc4ceb9fe1a85ec53ULL;
  return X ^ (X >> 33);
}

/// The smallest power-of-two capacity, at least 16, that holds \p Entries
/// at load at most 1/2.
inline std::size_t flatCapacity(std::size_t Entries) {
  std::size_t Capacity = 16;
  while (Capacity < 2 * Entries)
    Capacity *= 2;
  return Capacity;
}

/// The slot array both tables share. A default-constructed Slot is empty;
/// Slot provides empty() and hash() (the mixed hash of its key).
template <typename Slot> class FlatSlots {
public:
  std::size_t size() const { return Count; }
  void clear() {
    Slots = {};
    Count = 0;
  }

protected:
  /// The slot holding an entry \p Match accepts, or else the empty slot
  /// where that entry belongs. Requires a non-empty array.
  template <typename MatchFn>
  std::size_t probe(std::size_t Hash, MatchFn Match) const {
    std::size_t Mask = Slots.size() - 1, I = Hash & Mask;
    while (!Slots[I].empty() && !Match(Slots[I]))
      I = (I + 1) & Mask;
    return I;
  }
  /// probe() after making room for one more entry.
  template <typename MatchFn> Slot &slotFor(std::size_t Hash, MatchFn Match) {
    if (2 * (Count + 1) > Slots.size())
      rehash(Slots.empty() ? 16 : 2 * Slots.size());
    return Slots[probe(Hash, Match)];
  }
  /// Moves every non-empty slot into a fresh array of \p Capacity slots.
  void rehash(std::size_t Capacity) {
    std::vector<Slot> Old = std::exchange(Slots, std::vector<Slot>(Capacity));
    for (const Slot &S : Old)
      if (!S.empty())
        Slots[probe(S.hash(), [](const Slot &) { return false; })] = S;
  }

  std::vector<Slot> Slots;
  std::size_t Count = 0;
};

constexpr uint32_t EmptySlot = UINT32_MAX;

/// An IndexSet slot: 32 bits of the element's mixed hash as a tag, which
/// picks the probe start and filters mismatches, plus its pool index.
struct IndexSlot {
  uint32_t Tag = 0;
  uint32_t Index = EmptySlot;
  bool empty() const { return Index == EmptySlot; }
  std::size_t hash() const { return Tag; }
};

/// A hash set of indices into an external pool (the manager's leaf, inner
/// node, action and weight vectors), compared against the pool itself.
class IndexSet : public FlatSlots<IndexSlot> {
public:
  /// The index of the element of \p Pool equal to \p Value, or else the
  /// index \p Value gets when appended (moved when it is an rvalue).
  /// Equal elements must have equal \p Hash.
  template <typename T, typename U>
  uint32_t intern(std::vector<T> &Pool, std::size_t Hash, U &&Value) {
    uint32_t Tag = tagOf(Hash);
    IndexSlot &S = slotFor(Tag, [&](const IndexSlot &Other) {
      return Other.Tag == Tag && Pool[Other.Index] == Value;
    });
    if (S.empty()) {
      S = {Tag, static_cast<uint32_t>(Pool.size())};
      ++Count;
      Pool.push_back(std::forward<U>(Value));
    }
    return S.Index;
  }

  /// Re-indexes every element of \p Pool (all distinct) after compaction.
  template <typename T, typename HashFn>
  void reindex(const std::vector<T> &Pool, HashFn Hash) {
    Slots.assign(flatCapacity(Pool.size()), IndexSlot());
    Count = Pool.size();
    for (std::size_t I = 0; I < Pool.size(); ++I) {
      uint32_t Tag = tagOf(Hash(Pool[I]));
      Slots[probe(Tag, [](const IndexSlot &) { return false; })] = {
          Tag, static_cast<uint32_t>(I)};
    }
  }

private:
  static uint32_t tagOf(std::size_t Hash) {
    return static_cast<uint32_t>(mixHash(Hash) >> 32);
  }
};

/// The memo of FddManager::weightedSum: operand tuples of one width, each
/// stored back to back with its result in one array. Slots hold the
/// tuple's hash tag and index, as IndexSet's do. One table serves every
/// call: reset() empties it and keeps both arrays, the slots sized to what
/// the previous call needed, so a call rehashes only when it outgrows the
/// one before.
class TupleMemo : public FlatSlots<IndexSlot> {
  uint32_t tagOf(const uint32_t *Key) const {
    uint64_t H = 0;
    for (std::size_t I = 0; I < Width; ++I)
      H = H * 0x9e3779b97f4a7c15ULL + Key[I];
    return static_cast<uint32_t>(mixHash(H) >> 32);
  }
  const uint32_t *entry(uint32_t Index) const {
    return Entries.data() + Index * (Width + 1);
  }
  auto equalTo(const uint32_t *Key, uint32_t Tag) const {
    return [this, Key, Tag](const IndexSlot &S) {
      return S.Tag == Tag && std::equal(Key, Key + Width, entry(S.Index));
    };
  }

  std::size_t Width = 0;
  /// Per tuple: its Width refs, then its result.
  std::vector<uint32_t> Entries;

public:
  /// Empties the table for tuples of \p TupleWidth refs.
  void reset(std::size_t TupleWidth) {
    Width = TupleWidth;
    Slots.assign(flatCapacity(Count), IndexSlot());
    Count = 0;
    Entries.clear();
  }

  /// The recorded result for the tuple at \p Key, or nullptr.
  const uint32_t *find(const uint32_t *Key) const {
    if (Slots.empty())
      return nullptr;
    uint32_t Tag = tagOf(Key);
    const IndexSlot &S = Slots[probe(Tag, equalTo(Key, Tag))];
    return S.empty() ? nullptr : entry(S.Index) + Width;
  }

  /// Records the tuple at \p Key -> \p Value unless it has a result.
  void insert(const uint32_t *Key, uint32_t Value) {
    uint32_t Tag = tagOf(Key);
    IndexSlot &S = slotFor(Tag, equalTo(Key, Tag));
    if (S.empty()) {
      S = {Tag, static_cast<uint32_t>(Count++)};
      Entries.insert(Entries.end(), Key, Key + Width);
      Entries.push_back(Value);
    }
  }
};

/// A MemoTable slot: the operands and the result, UINT32_MAX when empty.
template <std::size_t N> struct MemoSlot {
  std::array<uint32_t, N> K{};
  uint32_t Value = EmptySlot;
  bool empty() const { return Value == EmptySlot; }
  std::size_t hash() const { return hashOf(K); }
  static std::size_t hashOf(const std::array<uint32_t, N> &Key) {
    uint64_t H = 0;
    for (uint32_t Operand : Key)
      H = H * 0x9e3779b97f4a7c15ULL + Operand;
    return static_cast<std::size_t>(mixHash(H));
  }
};

/// A memo table from N uint32_t operands (FddRefs, action or weight ids)
/// to one uint32_t result. Results must not be UINT32_MAX; FddRefs never
/// are.
template <std::size_t N> class MemoTable : public FlatSlots<MemoSlot<N>> {
  using Slot = MemoSlot<N>;

public:
  using Key = std::array<uint32_t, N>;

  /// The recorded result for \p K, or nullptr; valid until the next insert.
  const uint32_t *find(const Key &K) const {
    if (this->Slots.empty())
      return nullptr;
    const Slot &S = this->Slots[this->probe(Slot::hashOf(K), equalTo(K))];
    return S.empty() ? nullptr : &S.Value;
  }

  /// Records K -> \p Value unless K already has a result.
  void insert(const Key &K, uint32_t Value) {
    Slot &S = this->slotFor(Slot::hashOf(K), equalTo(K));
    if (S.empty()) {
      S = {K, Value};
      ++this->Count;
    }
  }

  /// \p Keep sees each key and result by reference, may rewrite both
  /// (keys must stay distinct), and returns whether the entry stays.
  template <typename KeepFn> void rebuild(KeepFn Keep) {
    this->Count = 0;
    for (Slot &S : this->Slots) {
      if (S.empty())
        continue;
      if (Keep(S.K, S.Value))
        ++this->Count;
      else
        S = Slot();
    }
    this->rehash(flatCapacity(this->Count));
  }

private:
  static auto equalTo(const Key &K) {
    return [&K](const Slot &S) { return S.K == K; };
  }
};

} // namespace fdd
} // namespace mcnk

#endif // MCNK_FDD_FLATTABLE_H
