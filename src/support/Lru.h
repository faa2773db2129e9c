//===----------------------------------------------------------------------===//
///
/// \file
/// The one bounded, thread-safe LRU behind both of the daemon's caches:
/// the S12 compile cache (fdd/CompileCache.h) and serve's front-end memo
/// (docs/ARCHITECTURE.md S16). Values are immutable and shared, so a hit
/// hands out a reference count instead of copying under the lock, and
/// concurrent users contend only for the recency splice.
///
/// A key inserted twice keeps its first value: both caches hold pure
/// functions of their keys, so the two values are equal, and the second
/// insert (two workers raced on one miss) only refreshes recency. An
/// optional insert observer sees each genuinely new entry exactly once,
/// outside the lock, which is how the persistent store appends every
/// entry once no matter how many workers raced on it.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_SUPPORT_LRU_H
#define MCNK_SUPPORT_LRU_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

namespace mcnk {

/// The default weight of a cached value: nothing is summed.
struct NoWeight {
  template <class V> std::size_t operator()(const V &) const { return 0; }
};

/// Thread-safe LRU map from \p Key to shared immutable \p Value, bounded
/// by entry count. \p Weigh maps a value to the size summed into
/// Stats::Weight over the resident entries.
template <class Key, class Value, class Hash = std::hash<Key>,
          class Weigh = NoWeight>
class LruCache {
public:
  using ValuePtr = std::shared_ptr<const Value>;
  /// Called once per genuinely new entry, after the lock is released. It
  /// must not call back into the cache.
  using InsertObserver = std::function<void(const Key &, const ValuePtr &)>;

  /// Counters since construction (or the last clear()). Insertions -
  /// Evictions == Entries, Insertions + DuplicateInserts == insert()
  /// calls, and Weight sums exactly the resident entries.
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Insertions = 0;
    uint64_t Evictions = 0;
    uint64_t DuplicateInserts = 0;
    std::size_t Entries = 0;
    std::size_t Weight = 0;
  };

  /// \p MaxEntries is the maximum entry count (minimum 1); the
  /// least-recently-used entry is evicted on overflow.
  explicit LruCache(std::size_t MaxEntries)
      : Capacity(std::max<std::size_t>(MaxEntries, 1)) {}

  /// The resident value of \p K with its recency refreshed, or null.
  ValuePtr lookup(const Key &K) {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Index.find(K);
    if (It == Index.end()) {
      ++Counters.Misses;
      return nullptr;
    }
    ++Counters.Hits;
    Lru.splice(Lru.begin(), Lru, It->second);
    return It->second->second;
  }

  /// Stores \p V under \p K and returns the resident value: \p V when the
  /// key was new, the first value otherwise.
  ValuePtr insert(Key K, ValuePtr V) {
    std::shared_ptr<const InsertObserver> Notify;
    std::optional<Key> Observed;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      auto It = Index.find(K);
      if (It != Index.end()) {
        ++Counters.DuplicateInserts;
        Lru.splice(Lru.begin(), Lru, It->second);
        return It->second->second;
      }
      ++Counters.Insertions;
      Counters.Weight += Weigh()(*V);
      Lru.emplace_front(std::move(K), V);
      Index.emplace(Lru.front().first, Lru.begin());
      if (Observer) {
        Notify = Observer;
        Observed.emplace(Lru.front().first);
      }
      while (Lru.size() > Capacity) {
        Counters.Weight -= Weigh()(*Lru.back().second);
        ++Counters.Evictions;
        Index.erase(Lru.back().first);
        Lru.pop_back();
      }
    }
    // Outside the lock: the observer may do file I/O. The entry may
    // already be evicted by a racing insert; it was still new.
    if (Notify)
      (*Notify)(*Observed, V);
    return V;
  }

  /// Installs \p O (null disarms). Install it before the cache is shared.
  void setInsertObserver(InsertObserver O) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Observer = O ? std::make_shared<const InsertObserver>(std::move(O))
                 : nullptr;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stats S = Counters;
    S.Entries = Lru.size();
    return S;
  }

  /// Drops every entry and zeroes the counters; capacity is unchanged.
  void clear() {
    std::lock_guard<std::mutex> Lock(Mutex);
    Lru.clear();
    Index.clear();
    Counters = Stats();
  }

  std::size_t capacity() const { return Capacity; }

private:
  using Entry = std::pair<Key, ValuePtr>;
  using Iterator = typename std::list<Entry>::iterator;

  const std::size_t Capacity;
  mutable std::mutex Mutex;
  /// Most-recently-used at the front; the index points into it.
  std::list<Entry> Lru;
  std::unordered_map<Key, Iterator, Hash> Index;
  Stats Counters;
  /// Behind a shared_ptr so insert() copies the handle under the lock and
  /// calls it outside.
  std::shared_ptr<const InsertObserver> Observer;
};

} // namespace mcnk

#endif // MCNK_SUPPORT_LRU_H
