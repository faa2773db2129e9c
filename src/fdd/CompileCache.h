//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-compile memoization cache (docs/ARCHITECTURE.md S12): maps a
/// structural program fingerprint plus solver kind to the compiled FDD in
/// portable (Export) form. Because canonical FDDs make equivalence
/// reference equality, importing a cached diagram into any manager is
/// guaranteed to produce the exact ref a fresh compile would — so a
/// failure-parameter sweep over a family of networks only recompiles the
/// sub-programs that actually changed, and the cache can outlive any
/// particular FddManager (reset()/gc() never invalidate it).
///
/// Entries are keyed on (ProgramHash, SolverKind): loop solutions depend
/// on the configured solver, so Exact/Direct/Iterative results never mix.
/// Eviction is LRU by entry count (support/Lru.h, shared with serve's
/// front-end memo). All operations are thread-safe; the daemon's
/// concurrent sessions consult one shared cache.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_FDD_COMPILECACHE_H
#define MCNK_FDD_COMPILECACHE_H

#include "ast/Hash.h"
#include "fdd/Export.h"
#include "markov/Absorbing.h"
#include "support/Lru.h"

#include <cstdint>
#include <functional>
#include <memory>

namespace mcnk {
namespace fdd {

/// Thread-safe LRU cache of compiled sub-programs in portable form, one
/// instance of the daemon's LruCache (support/Lru.h). Stored diagrams are
/// immutable (canonicity makes re-inserts identical), so hits hand out
/// shared ownership instead of deep-copying inside the lock.
class CompileCache {
  struct Key {
    ast::ProgramHash Hash;
    markov::SolverKind Solver;
    bool operator==(const Key &R) const {
      return Hash == R.Hash && Solver == R.Solver;
    }
  };
  struct KeyHasher {
    std::size_t operator()(const Key &K) const {
      return ast::ProgramHashHasher()(K.Hash) * 31 +
             static_cast<std::size_t>(K.Solver);
    }
  };
  struct NodeCount {
    std::size_t operator()(const PortableFdd &D) const {
      return D.Nodes.size();
    }
  };
  using Lru = LruCache<Key, PortableFdd, KeyHasher, NodeCount>;

public:
  /// \p Capacity is the maximum number of entries (minimum 1); the
  /// least-recently-used entry is evicted on overflow.
  explicit CompileCache(std::size_t Capacity = 1u << 12) : Entries(Capacity) {}

  /// Looks up (\p Hash, \p Solver); on hit points \p Out at the stored
  /// (immutable, shared) diagram, refreshes recency, and returns true.
  bool lookup(const ast::ProgramHash &Hash, markov::SolverKind Solver,
              std::shared_ptr<const PortableFdd> &Out) {
    std::shared_ptr<const PortableFdd> Hit = Entries.lookup({Hash, Solver});
    if (!Hit)
      return false;
    Out = std::move(Hit);
    return true;
  }

  /// Stores a compiled diagram under (\p Hash, \p Solver). Re-inserting
  /// an existing key refreshes recency and keeps the first value
  /// (canonicity guarantees both are identical); duplicate inserts — the
  /// common case when concurrent compiles miss on the same fingerprint and
  /// race to fill it — are counted separately and never touch the size
  /// accounting.
  void insert(const ast::ProgramHash &Hash, markov::SolverKind Solver,
              PortableFdd Diagram) {
    Entries.insert({Hash, Solver},
                   std::make_shared<const PortableFdd>(std::move(Diagram)));
  }

  /// Called once per *genuinely new* entry, after the cache's lock has
  /// been released — never for the duplicate-insert dedup path, so a
  /// persistence layer (fdd::CacheStore) appending from this hook writes
  /// each entry exactly once no matter how many workers raced on the key.
  using InsertObserver = std::function<void(
      const ast::ProgramHash &, markov::SolverKind,
      const std::shared_ptr<const PortableFdd> &)>;
  /// Installs \p Observer (null disarms). Must not be changed while other
  /// threads are inserting; install it before the cache is shared. The
  /// observer must not call back into this cache.
  void setInsertObserver(InsertObserver Observer) {
    if (!Observer) {
      Entries.setInsertObserver(nullptr);
      return;
    }
    Entries.setInsertObserver(
        [Observer = std::move(Observer)](
            const Key &K, const std::shared_ptr<const PortableFdd> &D) {
          Observer(K.Hash, K.Solver, D);
        });
  }

  /// Counters since construction (or the last clear()). Invariants the
  /// regression suite pins: Insertions - Evictions == Entries,
  /// Insertions + DuplicateInserts == total insert() calls, and
  /// StoredNodes is the node sum of exactly the resident entries.
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Insertions = 0;
    uint64_t Evictions = 0;
    /// insert() calls that found the key already resident (kept the first
    /// value, refreshed recency, changed no size accounting).
    uint64_t DuplicateInserts = 0;
    std::size_t Entries = 0;     ///< Current entry count.
    std::size_t StoredNodes = 0; ///< Total portable nodes currently held.
  };
  Stats stats() const {
    Lru::Stats S = Entries.stats();
    return {S.Hits,      S.Misses,           S.Insertions,
            S.Evictions, S.DuplicateInserts, S.Entries,
            S.Weight};
  }

  /// Drops every entry and zeroes the counters; capacity is unchanged.
  void clear() { Entries.clear(); }

  std::size_t capacity() const { return Entries.capacity(); }

private:
  Lru Entries;
};

} // namespace fdd
} // namespace mcnk

#endif // MCNK_FDD_COMPILECACHE_H
