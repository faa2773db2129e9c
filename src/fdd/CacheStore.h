//===----------------------------------------------------------------------===//
///
/// \file
/// Persistent on-disk backing for the daemon's caches: an append-only,
/// length-prefixed, checksummed file of typed records (docs/ARCHITECTURE.md
/// S16). Compile records map (program fingerprint, solver kind) to a
/// portable FDD and warm the S12 CompileCache; lint and sliced records are
/// serve's front-end memo, which this layer frames, checksums and keys as
/// typed opaque payloads while serve (serve/Memo.h) owns their layout.
/// Fingerprints are salt-stable and portable FDDs are manager-independent,
/// so records written by one process warm the caches of the next —
/// compiled artifacts and front-end results outlive the process, which is
/// where the paper's compile-once / query-many amortization pays off for a
/// long-lived verification daemon.
///
/// Durability model: records are appended atomically-enough for a
/// single-writer process (one internal mutex); a crash mid-append leaves a
/// *torn tail*, which open() detects (short record or checksum mismatch)
/// and truncates rather than trusts. A versioned header makes format
/// changes fail loudly instead of misparsing. Every record carries its key,
/// and the newest record per key wins. Superseded records (same key
/// appended again, e.g. across eviction/recompile cycles) stay in the file
/// until the dead-record ratio crosses a threshold, when compact()
/// rewrites the file keeping the newest record per key.
///
/// Every byte read from disk is treated as untrusted: decoding is fully
/// bounds-checked (RecordReader) and decoded diagrams pass
/// fdd::validateFdd before they are handed to any manager. Malformed input
/// yields a clean error, never UB or an abort.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_FDD_CACHESTORE_H
#define MCNK_FDD_CACHESTORE_H

#include "fdd/CompileCache.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace mcnk {
namespace fdd {

/// The kind byte that starts every record payload. Compile records are
/// this layer's; Lint and Sliced are serve's front-end memo records.
enum class RecordKind : uint8_t { Compile = 0, Lint = 1, Sliced = 2 };

/// Builds one record payload: u8 kind | u32 key length | key | value, all
/// integers little-endian and written byte by byte, so files written on
/// any host load on any other. The constructor writes the kind; the key
/// follows until endKey(), then the value.
class RecordWriter {
public:
  explicit RecordWriter(RecordKind Kind);
  void u8(uint8_t V) { Bytes.push_back(V); }
  void u32(uint32_t V);
  void u64(uint64_t V);
  /// u32 length, then the bytes.
  void string(const std::string &V);
  /// The portable diagram codec (layout in CacheStore.cpp).
  void diagram(const PortableFdd &D);
  /// Ends the key: patches its length into the header.
  void endKey();
  std::vector<uint8_t> take() { return std::move(Bytes); }

private:
  std::vector<uint8_t> Bytes;
};

/// Bounds-checked cursor over one untrusted payload: every read checks
/// the remaining length first and fails cleanly, with a diagnostic in the
/// caller's error string, instead of reading past the end.
class RecordReader {
public:
  RecordReader(const uint8_t *Bytes, std::size_t Length, std::string *Err)
      : Data(Bytes), Size(Length), Error(Err) {}

  /// Reads the kind and key length; false on an unknown kind or a key
  /// longer than the payload.
  bool header(RecordKind &Kind);
  /// False unless the key read so far spans exactly its stated length.
  bool endKey();
  bool u8(uint8_t &V, const char *What);
  bool u32(uint32_t &V, const char *What);
  bool u64(uint64_t &V, const char *What);
  /// A u32 element count, rejected when \p MinBytesEach bytes per element
  /// would overrun the payload (so callers may reserve() it).
  bool count(uint32_t &N, std::size_t MinBytesEach, const char *What);
  /// A u32 length checked against the bytes left, then the bytes.
  bool string(std::string &V, const char *What);
  /// Decodes a diagram and checks it with validateFdd.
  bool diagram(PortableFdd &D);
  /// False unless every byte was consumed.
  bool finish();
  /// Records "truncated or malformed record (What)" and returns false.
  bool fail(const char *What);

private:
  bool bigInt(BigInt &V, const char *What);

  const uint8_t *Data;
  std::size_t Size;
  std::size_t Pos = 0;
  std::size_t KeyEnd = 0;
  std::string *Error;
};

/// One decoded compile record (exposed for the record codec's tests).
struct CacheRecord {
  ast::ProgramHash Key;
  markov::SolverKind Solver = markov::SolverKind::Exact;
  PortableFdd Diagram;
};

/// Serializes one compile record: its key is u64 hash.lo | u64 hash.hi |
/// u8 solver and its value the diagram.
std::vector<uint8_t> encodeCacheRecord(const CacheRecord &Record);

/// Bounds-checked decode of one compile-record payload. Returns false with
/// a diagnostic in \p Error (when non-null) on any malformed input — a
/// kind other than Compile, truncation, trailing garbage, counts that
/// overrun the buffer, invalid solver kinds, zero denominators, or a
/// diagram that fails validateFdd.
bool decodeCacheRecord(const uint8_t *Data, std::size_t Size,
                       CacheRecord &Out, std::string *Error = nullptr);

/// The append-only record file. Thread-safe: append() may be called from
/// many threads (typically from cache insert observers, so every cache
/// miss lands on disk exactly once).
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

  /// Decodes one Lint or Sliced payload for open(), which calls it in
  /// file order; returning false rejects the record, and the file is
  /// truncated from it like a record that fails its checksum.
  using RecordDecoder =
      std::function<bool(const uint8_t *Payload, std::size_t Size)>;

  /// Opens (creating if absent) the store at \p Path, scanning and
  /// validating every record. Compile records are decoded and held until
  /// warm(); the others go to \p Decode, or are kept in
  /// the file unread when it is null. A torn tail is truncated in place; a
  /// version/magic mismatch or I/O failure returns null with a diagnostic
  /// in \p Error.
  static std::unique_ptr<CacheStore> open(const std::string &Path,
                                          std::string *Error,
                                          const Options &Opts,
                                          const RecordDecoder &Decode = {});
  static std::unique_ptr<CacheStore> open(const std::string &Path,
                                          std::string *Error) {
    return open(Path, Error, Options());
  }

  /// Moves every loaded compile record (newest per key) into \p Cache and
  /// drops the loaded copy. Returns the number of entries inserted. Call
  /// before installing an insert observer that appends back to this
  /// store, or warming would re-append every entry it just read.
  std::size_t warm(CompileCache &Cache);

  /// Appends one compile record. Thread-safe; returns false on I/O
  /// failure.
  bool append(const ast::ProgramHash &Key, markov::SolverKind Solver,
              const PortableFdd &Diagram, std::string *Error = nullptr);
  /// Appends one payload built by a RecordWriter. Thread-safe; returns
  /// false on I/O failure or a payload without a well-formed header.
  bool append(const std::vector<uint8_t> &Payload,
              std::string *Error = nullptr);

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
  /// first such record. Version 3 typed the records (a kind byte and a
  /// length-prefixed key before each value) to hold serve's memo; compile
  /// records keep version 2's key and diagram bytes after that header.
  static constexpr uint32_t FormatVersion = 3;

private:
  CacheStore(std::string P, Options O) : Path(std::move(P)), Opts(O) {}

  const std::string Path;
  const Options Opts;

  mutable std::mutex Mutex;
  /// Newest compile record per key, in file order; populated by open(),
  /// consumed by warm().
  std::vector<CacheRecord> Loaded;
  /// Per-key record counts in the file, keyed by a hash of each payload's
  /// kind and key — the dead-record accounting behind maybeCompact().
  std::unordered_map<uint64_t, uint32_t> FileKeys;
  std::size_t TotalRecords = 0;
  Stats Counters;
};

} // namespace fdd
} // namespace mcnk

#endif // MCNK_FDD_CACHESTORE_H
