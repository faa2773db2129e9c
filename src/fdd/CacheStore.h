//===----------------------------------------------------------------------===//
///
/// \file
/// Persistent on-disk backing for the S12 CompileCache: an append-only,
/// length-prefixed, checksummed record file mapping (program fingerprint,
/// solver kind) to a portable FDD (docs/ARCHITECTURE.md S16). Fingerprints
/// are salt-stable and portable FDDs are manager-independent, so entries
/// written by one process warm the cache of the next — compiled artifacts
/// outlive the process, which is where the paper's compile-once /
/// query-many amortization pays off for a long-lived verification daemon.
///
/// Durability model: records are appended atomically-enough for a
/// single-writer process (one internal mutex); a crash mid-append leaves a
/// *torn tail*, which open() detects (short record or checksum mismatch)
/// and truncates rather than trusts. A versioned header makes format
/// changes fail loudly instead of misparsing. Superseded records (same key
/// appended again, e.g. across eviction/recompile cycles) stay in the file
/// until the dead-record ratio crosses a threshold, when compact()
/// rewrites the file keeping the newest record per key.
///
/// Every byte read from disk is treated as untrusted: decoding is fully
/// bounds-checked and decoded diagrams pass fdd::validateFdd before they
/// are handed to any manager. Malformed input yields a clean error, never
/// UB or an abort.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_FDD_CACHESTORE_H
#define MCNK_FDD_CACHESTORE_H

#include "fdd/CompileCache.h"

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace mcnk {
namespace fdd {

/// One decoded store record (exposed for the record codec's tests).
struct CacheRecord {
  ast::ProgramHash Key;
  markov::SolverKind Solver = markov::SolverKind::Exact;
  PortableFdd Diagram;
};

/// Serializes one record to the store's payload encoding (little-endian,
/// explicit byte layout — files written on any host load on any other).
std::vector<uint8_t> encodeCacheRecord(const CacheRecord &Record);

/// Bounds-checked decode of one payload. Returns false with a diagnostic
/// in \p Error (when non-null) on any malformed input — truncation,
/// trailing garbage, counts that overrun the buffer, invalid solver kinds,
/// zero denominators, or a diagram that fails validateFdd.
bool decodeCacheRecord(const uint8_t *Data, std::size_t Size,
                       CacheRecord &Out, std::string *Error = nullptr);

/// The append-only record file. Thread-safe: append() may be called from
/// many threads (typically via CompileCache::setInsertObserver, so every
/// cache miss lands on disk exactly once).
class CacheStore {
public:
  struct Options {
    /// maybeCompact() rewrites the file when superseded records make up
    /// more than this fraction of all records...
    double CompactDeadRatio = 0.5;
    /// ...but never below this record count (tiny files aren't worth it).
    std::size_t CompactMinRecords = 64;
  };

  struct Stats {
    std::size_t LiveRecords = 0;  ///< Distinct keys in the file.
    std::size_t DeadRecords = 0;  ///< Superseded duplicates awaiting gc.
    std::size_t FileBytes = 0;    ///< Current file size.
    std::size_t TornBytesDropped = 0; ///< Truncated at open (crash tail).
    std::size_t CorruptRecordsDropped = 0; ///< Checksum/decode rejects.
    std::size_t Appends = 0;      ///< Records appended by this process.
    std::size_t Compactions = 0;  ///< compact() rewrites this lifetime.
  };

  /// Opens (creating if absent) the store at \p Path, scanning and
  /// validating every record. A torn tail is truncated in place; a
  /// version/magic mismatch or I/O failure returns null with a diagnostic
  /// in \p Error. Loaded records are held until warm() or discardLoaded().
  static std::unique_ptr<CacheStore> open(const std::string &Path,
                                          std::string *Error,
                                          const Options &Opts);
  static std::unique_ptr<CacheStore> open(const std::string &Path,
                                          std::string *Error) {
    return open(Path, Error, Options());
  }

  /// Moves every loaded record (newest per key) into \p Cache and drops
  /// the loaded copy. Returns the number of entries inserted. Call before
  /// installing an insert observer that appends back to this store, or
  /// warming would re-append every entry it just read.
  std::size_t warm(CompileCache &Cache);

  /// Drops the records held since open() without inserting them anywhere.
  void discardLoaded();

  /// Appends one record. Thread-safe; returns false on I/O failure.
  bool append(const ast::ProgramHash &Key, markov::SolverKind Solver,
              const PortableFdd &Diagram, std::string *Error = nullptr);

  /// Rewrites the file keeping only the newest record per key (read back
  /// from disk, checksums re-verified), then atomically renames it into
  /// place. Returns false on I/O failure (the original file is kept).
  bool compact(std::string *Error = nullptr);

  /// compact() if the dead-record ratio exceeds the configured threshold.
  /// Returns false only on a compaction that was attempted and failed.
  bool maybeCompact(std::string *Error = nullptr);

  Stats stats() const;
  const std::string &path() const { return Path; }

  /// The store format version written and required by this build.
  /// Version 2 dropped solver byte 3 (the former modular engine), so a
  /// version-1 store is refused at open rather than truncated at its
  /// first such record.
  static constexpr uint32_t FormatVersion = 2;

private:
  CacheStore(std::string P, Options O) : Path(std::move(P)), Opts(O) {}

  bool appendLocked(const std::vector<uint8_t> &Payload, std::string *Error);

  const std::string Path;
  const Options Opts;

  mutable std::mutex Mutex;
  /// Newest record per key, in file order; populated by open(), consumed
  /// by warm()/discardLoaded().
  std::vector<CacheRecord> Loaded;
  /// Per-(fingerprint, solver) record counts in the file — the dead-record
  /// accounting behind maybeCompact(). Indexed by solver kind (3 kinds).
  std::unordered_map<ast::ProgramHash, std::array<uint32_t, 3>,
                     ast::ProgramHashHasher>
      FileKeys;
  std::size_t TotalRecords = 0;
  Stats Counters;
};

} // namespace fdd
} // namespace mcnk

#endif // MCNK_FDD_CACHESTORE_H
