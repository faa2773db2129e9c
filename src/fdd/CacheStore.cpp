//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk FDD store (docs/ARCHITECTURE.md S16). File layout:
///
///   Header (16 bytes):  magic "MCNKFDDS" | u32 version | u32 endian tag
///   Record:             u32 payload length | u64 FNV-1a-64(payload) | payload
///
/// Payload:  u64 hash.lo | u64 hash.hi | u8 solver | u32 root | u32 #nodes
///           then per node:
///             u8 0 (inner) | u32 field | u32 value | u32 hi | u32 lo
///             u8 1 (leaf)  | u32 #entries, each:
///                u8 0 (drop) / 1 (mods: u32 #mods, (u32 field, u32 value)*)
///                rational:  u8 sign | u32 #limbs | u64* (numerator)
///                           u32 #limbs | u64*          (denominator)
///
/// All integers little-endian, written byte by byte — the file is
/// host-independent. Decoding never trusts a count before checking it
/// against the remaining bytes, and decoded diagrams pass validateFdd
/// before anyone imports them.
///
//===----------------------------------------------------------------------===//

#include "fdd/CacheStore.h"

#include "fdd/Export.h"

#include <cstdio>
#include <cstring>

using namespace mcnk;
using namespace mcnk::fdd;

namespace {

constexpr char Magic[8] = {'M', 'C', 'N', 'K', 'F', 'D', 'D', 'S'};
constexpr uint32_t EndianTag = 0x01020304;
constexpr std::size_t HeaderBytes = 16;
constexpr std::size_t RecordPrefixBytes = 12; // u32 length + u64 checksum.
/// Sanity cap on one record's payload (64 MiB): a flipped length byte must
/// not make the loader try to slurp gigabytes before the checksum check.
constexpr uint32_t MaxPayloadBytes = 64u << 20;

uint64_t fnv1a64(const uint8_t *Data, std::size_t Size) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (std::size_t I = 0; I < Size; ++I) {
    Hash ^= Data[I];
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

void putU8(std::vector<uint8_t> &Out, uint8_t V) { Out.push_back(V); }
void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  for (unsigned I = 0; I < 4; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}
void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  for (unsigned I = 0; I < 8; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void putBigInt(std::vector<uint8_t> &Out, const BigInt &V) {
  putU8(Out, V.isNegative() ? 1 : 0);
  std::vector<uint64_t> Limbs = V.magnitudeLimbs64();
  putU32(Out, static_cast<uint32_t>(Limbs.size()));
  for (uint64_t L : Limbs)
    putU64(Out, L);
}

/// Bounds-checked cursor over untrusted bytes: every take* checks the
/// remaining length first and fails cleanly instead of reading past the
/// end.
struct ByteReader {
  const uint8_t *Data;
  std::size_t Size;
  std::size_t Pos = 0;
  std::string *Error;

  bool fail(const char *What) {
    if (Error)
      *Error = std::string("truncated or malformed record (") + What + ")";
    return false;
  }
  bool takeU8(uint8_t &V, const char *What) {
    if (Size - Pos < 1)
      return fail(What);
    V = Data[Pos++];
    return true;
  }
  bool takeU32(uint32_t &V, const char *What) {
    if (Size - Pos < 4)
      return fail(What);
    V = 0;
    for (unsigned I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos + I]) << (8 * I);
    Pos += 4;
    return true;
  }
  bool takeU64(uint64_t &V, const char *What) {
    if (Size - Pos < 8)
      return fail(What);
    V = 0;
    for (unsigned I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos + I]) << (8 * I);
    Pos += 8;
    return true;
  }
  /// Validates a decoded element count against the bytes actually left:
  /// each element consumes at least \p MinBytesEach, so a count larger
  /// than remaining/MinBytesEach is lying — reject before any reserve().
  bool checkCount(uint32_t Count, std::size_t MinBytesEach,
                  const char *What) {
    if (Count > (Size - Pos) / MinBytesEach)
      return fail(What);
    return true;
  }
  bool takeBigInt(BigInt &V, const char *What) {
    uint8_t Neg = 0;
    uint32_t NumLimbs = 0;
    if (!takeU8(Neg, What))
      return false;
    if (Neg > 1)
      return fail(What);
    if (!takeU32(NumLimbs, What) || !checkCount(NumLimbs, 8, What))
      return false;
    std::vector<uint64_t> Limbs(NumLimbs);
    for (uint32_t I = 0; I < NumLimbs; ++I)
      if (!takeU64(Limbs[I], What))
        return false;
    V = BigInt::fromLimbs64(Neg == 1, Limbs);
    // "-0" has no canonical encoding; an encoder never writes it.
    if (Neg == 1 && V.isZero())
      return fail(What);
    return true;
  }
};

} // namespace

std::vector<uint8_t> fdd::encodeCacheRecord(const CacheRecord &Record) {
  std::vector<uint8_t> Out;
  putU64(Out, Record.Key.Lo);
  putU64(Out, Record.Key.Hi);
  putU8(Out, static_cast<uint8_t>(Record.Solver));
  putU32(Out, Record.Diagram.Root);
  putU32(Out, static_cast<uint32_t>(Record.Diagram.Nodes.size()));
  for (const PortableFdd::Node &Node : Record.Diagram.Nodes) {
    putU8(Out, Node.IsLeaf ? 1 : 0);
    if (!Node.IsLeaf) {
      putU32(Out, Node.Field);
      putU32(Out, Node.Value);
      putU32(Out, Node.Hi);
      putU32(Out, Node.Lo);
      continue;
    }
    putU32(Out, static_cast<uint32_t>(Node.Dist.size()));
    for (const auto &[Act, Weight] : Node.Dist) {
      if (Act.isDrop()) {
        putU8(Out, 0);
      } else {
        putU8(Out, 1);
        putU32(Out, static_cast<uint32_t>(Act.mods().size()));
        for (const auto &[F, V] : Act.mods()) {
          putU32(Out, F);
          putU32(Out, V);
        }
      }
      putBigInt(Out, Weight.numerator());
      putBigInt(Out, Weight.denominator());
    }
  }
  return Out;
}

bool fdd::decodeCacheRecord(const uint8_t *Data, std::size_t Size,
                            CacheRecord &Out, std::string *Error) {
  ByteReader R{Data, Size, 0, Error};
  uint8_t Solver = 0;
  uint32_t NumNodes = 0;
  if (!R.takeU64(Out.Key.Lo, "key") || !R.takeU64(Out.Key.Hi, "key") ||
      !R.takeU8(Solver, "solver") || !R.takeU32(Out.Diagram.Root, "root") ||
      !R.takeU32(NumNodes, "node count"))
    return false;
  if (Solver > static_cast<uint8_t>(markov::SolverKind::Iterative))
    return R.fail("solver kind");
  Out.Solver = static_cast<markov::SolverKind>(Solver);
  // Every node costs at least the 1-byte tag.
  if (!R.checkCount(NumNodes, 1, "node count"))
    return false;
  Out.Diagram.Nodes.clear();
  Out.Diagram.Nodes.reserve(NumNodes);
  for (uint32_t I = 0; I < NumNodes; ++I) {
    PortableFdd::Node Node;
    uint8_t Tag = 0;
    if (!R.takeU8(Tag, "node tag"))
      return false;
    if (Tag > 1)
      return R.fail("node tag");
    Node.IsLeaf = Tag == 1;
    if (!Node.IsLeaf) {
      uint32_t Field = 0;
      if (!R.takeU32(Field, "inner node") ||
          !R.takeU32(Node.Value, "inner node") ||
          !R.takeU32(Node.Hi, "inner node") ||
          !R.takeU32(Node.Lo, "inner node"))
        return false;
      if (Field >= FieldTable::NotFound)
        return R.fail("field id");
      Node.Field = static_cast<FieldId>(Field);
      Out.Diagram.Nodes.push_back(std::move(Node));
      continue;
    }
    uint32_t NumEntries = 0;
    if (!R.takeU32(NumEntries, "leaf entry count") ||
        !R.checkCount(NumEntries, 1, "leaf entry count"))
      return false;
    Node.Dist.reserve(NumEntries);
    for (uint32_t E = 0; E < NumEntries; ++E) {
      uint8_t ActTag = 0;
      if (!R.takeU8(ActTag, "action tag"))
        return false;
      Action Act;
      if (ActTag == 0) {
        Act = Action::drop();
      } else if (ActTag == 1) {
        uint32_t NumMods = 0;
        if (!R.takeU32(NumMods, "mod count") ||
            !R.checkCount(NumMods, 8, "mod count"))
          return false;
        std::vector<Action::Mod> Mods;
        Mods.reserve(NumMods);
        for (uint32_t M = 0; M < NumMods; ++M) {
          uint32_t F = 0, V = 0;
          if (!R.takeU32(F, "mod") || !R.takeU32(V, "mod"))
            return false;
          if (F >= FieldTable::NotFound)
            return R.fail("field id");
          Mods.emplace_back(static_cast<FieldId>(F), V);
        }
        // Action::modify sorts and dedups, so whatever order the bytes
        // claimed, the in-memory Action is canonical.
        Act = Action::modify(std::move(Mods));
      } else {
        return R.fail("action tag");
      }
      BigInt Num, Den;
      if (!R.takeBigInt(Num, "weight numerator") ||
          !R.takeBigInt(Den, "weight denominator"))
        return false;
      if (Den.isZero() || Den.isNegative())
        return R.fail("weight denominator");
      Node.Dist.emplace_back(std::move(Act),
                             Rational(std::move(Num), std::move(Den)));
    }
    Out.Diagram.Nodes.push_back(std::move(Node));
  }
  if (R.Pos != Size)
    return R.fail("trailing bytes");
  // Structural validation — the same gate importFdd enforces, but
  // returning an error instead of aborting the process.
  std::string Why;
  if (!validateFdd(Out.Diagram, &Why)) {
    if (Error)
      *Error = "invalid diagram: " + Why;
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// CacheStore
//===----------------------------------------------------------------------===//

namespace {

struct FileCloser {
  void operator()(std::FILE *F) const {
    if (F)
      std::fclose(F);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool writeAll(std::FILE *F, const uint8_t *Data, std::size_t Size) {
  return std::fwrite(Data, 1, Size, F) == Size;
}

std::vector<uint8_t> headerBytes() {
  std::vector<uint8_t> H(Magic, Magic + sizeof(Magic));
  putU32(H, CacheStore::FormatVersion);
  putU32(H, EndianTag);
  return H;
}

void writeRecordTo(std::vector<uint8_t> &Out,
                   const std::vector<uint8_t> &Payload) {
  putU32(Out, static_cast<uint32_t>(Payload.size()));
  putU64(Out, fnv1a64(Payload.data(), Payload.size()));
  Out.insert(Out.end(), Payload.begin(), Payload.end());
}

/// Reads the whole file; false on I/O error (a missing file is reported
/// as success with Existed = false).
bool readFile(const std::string &Path, std::vector<uint8_t> &Out,
              bool &Existed) {
  FilePtr F(std::fopen(Path.c_str(), "rb"));
  if (!F) {
    Existed = false;
    Out.clear();
    return true;
  }
  Existed = true;
  Out.clear();
  uint8_t Buffer[1 << 16];
  std::size_t N = 0;
  while ((N = std::fread(Buffer, 1, sizeof(Buffer), F.get())) > 0)
    Out.insert(Out.end(), Buffer, Buffer + N);
  return std::ferror(F.get()) == 0;
}

} // namespace

std::unique_ptr<CacheStore> CacheStore::open(const std::string &Path,
                                             std::string *Error,
                                             const Options &Opts) {
  std::unique_ptr<CacheStore> Store(new CacheStore(Path, Opts));

  std::vector<uint8_t> Bytes;
  bool Existed = false;
  if (!readFile(Path, Bytes, Existed)) {
    if (Error)
      *Error = "cannot read cache store '" + Path + "'";
    return nullptr;
  }

  if (!Existed || Bytes.empty()) {
    // Fresh store: write the header now so a later concurrent reader never
    // sees a half-formed file without one.
    FilePtr F(std::fopen(Path.c_str(), "wb"));
    std::vector<uint8_t> H = headerBytes();
    if (!F || !writeAll(F.get(), H.data(), H.size()) ||
        std::fflush(F.get()) != 0) {
      if (Error)
        *Error = "cannot create cache store '" + Path + "'";
      return nullptr;
    }
    Store->Counters.FileBytes = H.size();
    return Store;
  }

  // Version gate: loudly refuse files from a different format rather than
  // misparse them. (A future version bump migrates explicitly.)
  if (Bytes.size() < HeaderBytes ||
      std::memcmp(Bytes.data(), Magic, sizeof(Magic)) != 0) {
    if (Error)
      *Error = "'" + Path + "' is not a McNetKAT FDD cache store";
    return nullptr;
  }
  uint32_t Version = 0, Endian = 0;
  for (unsigned I = 0; I < 4; ++I) {
    Version |= static_cast<uint32_t>(Bytes[8 + I]) << (8 * I);
    Endian |= static_cast<uint32_t>(Bytes[12 + I]) << (8 * I);
  }
  if (Version != FormatVersion || Endian != EndianTag) {
    if (Error)
      *Error = "cache store '" + Path + "' has format version " +
               std::to_string(Version) + "; this build requires " +
               std::to_string(FormatVersion);
    return nullptr;
  }

  // Scan records. Anything that does not parse cleanly from here on is a
  // torn tail (crash mid-append) or corruption; truncate at the last good
  // record rather than trust a byte of it.
  std::size_t Pos = HeaderBytes;
  std::size_t GoodEnd = Pos;
  // Newest record per key wins; remember the slot to overwrite.
  std::unordered_map<ast::ProgramHash, std::array<int64_t, 3>,
                     ast::ProgramHashHasher>
      Slot;
  while (Pos < Bytes.size()) {
    if (Bytes.size() - Pos < RecordPrefixBytes)
      break; // Short prefix: torn tail.
    uint32_t Len = 0;
    uint64_t Sum = 0;
    for (unsigned I = 0; I < 4; ++I)
      Len |= static_cast<uint32_t>(Bytes[Pos + I]) << (8 * I);
    for (unsigned I = 0; I < 8; ++I)
      Sum |= static_cast<uint64_t>(Bytes[Pos + 4 + I]) << (8 * I);
    if (Len > MaxPayloadBytes || Bytes.size() - Pos - RecordPrefixBytes < Len)
      break; // Length overruns the file: torn tail.
    const uint8_t *Payload = Bytes.data() + Pos + RecordPrefixBytes;
    if (fnv1a64(Payload, Len) != Sum)
      break; // Bit rot or torn write: do not trust this or anything after.
    CacheRecord Record;
    if (!decodeCacheRecord(Payload, Len, Record)) {
      // Checksum matched but the content is malformed — written by a buggy
      // or hostile producer. Count it, stop trusting the rest.
      Store->Counters.CorruptRecordsDropped++;
      break;
    }
    Pos += RecordPrefixBytes + Len;
    GoodEnd = Pos;
    ++Store->TotalRecords;
    auto &Counts = Store->FileKeys[Record.Key];
    auto &Slots = Slot[Record.Key];
    std::size_t SolverIdx = static_cast<std::size_t>(Record.Solver);
    if (Counts[SolverIdx]++ == 0) {
      Slots[SolverIdx] = static_cast<int64_t>(Store->Loaded.size());
      Store->Loaded.push_back(std::move(Record));
    } else {
      Store->Loaded[static_cast<std::size_t>(Slots[SolverIdx])] =
          std::move(Record);
    }
  }

  if (GoodEnd < Bytes.size()) {
    // Torn tail: truncate in place so the next append starts from a clean
    // boundary instead of extending garbage.
    Store->Counters.TornBytesDropped = Bytes.size() - GoodEnd;
    FilePtr F(std::fopen(Path.c_str(), "wb"));
    if (!F || !writeAll(F.get(), Bytes.data(), GoodEnd) ||
        std::fflush(F.get()) != 0) {
      if (Error)
        *Error = "cannot truncate torn tail of cache store '" + Path + "'";
      return nullptr;
    }
    Store->Counters.FileBytes = GoodEnd;
  } else {
    Store->Counters.FileBytes = Bytes.size();
  }
  return Store;
}

std::size_t CacheStore::warm(CompileCache &Cache) {
  std::vector<CacheRecord> Records;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Records.swap(Loaded);
  }
  for (CacheRecord &R : Records)
    Cache.insert(R.Key, R.Solver, std::move(R.Diagram));
  return Records.size();
}

void CacheStore::discardLoaded() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Loaded.clear();
  Loaded.shrink_to_fit();
}

bool CacheStore::appendLocked(const std::vector<uint8_t> &Payload,
                              std::string *Error) {
  FilePtr F(std::fopen(Path.c_str(), "ab"));
  std::vector<uint8_t> Framed;
  Framed.reserve(RecordPrefixBytes + Payload.size());
  writeRecordTo(Framed, Payload);
  // One fwrite of the whole frame: a crash tears at most this record, and
  // the torn tail is exactly what open() truncates.
  if (!F || !writeAll(F.get(), Framed.data(), Framed.size()) ||
      std::fflush(F.get()) != 0) {
    if (Error)
      *Error = "cannot append to cache store '" + Path + "'";
    return false;
  }
  Counters.FileBytes += Framed.size();
  ++Counters.Appends;
  ++TotalRecords;
  return true;
}

bool CacheStore::append(const ast::ProgramHash &Key,
                        markov::SolverKind Solver, const PortableFdd &Diagram,
                        std::string *Error) {
  CacheRecord Record;
  Record.Key = Key;
  Record.Solver = Solver;
  Record.Diagram = Diagram;
  std::vector<uint8_t> Payload = encodeCacheRecord(Record);
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!appendLocked(Payload, Error))
    return false;
  FileKeys[Key][static_cast<std::size_t>(Solver)]++;
  return true;
}

bool CacheStore::compact(std::string *Error) {
  std::lock_guard<std::mutex> Lock(Mutex);
  // Re-read the file under the lock (no appends can interleave) and keep
  // the newest record bytes per key — no decode/re-encode round trip, the
  // checksummed payloads are copied verbatim.
  std::vector<uint8_t> Bytes;
  bool Existed = false;
  if (!readFile(Path, Bytes, Existed) || !Existed) {
    if (Error)
      *Error = "cannot read cache store '" + Path + "' for compaction";
    return false;
  }
  struct Span {
    std::size_t Offset;
    std::size_t Size;
  };
  std::unordered_map<ast::ProgramHash, std::array<int64_t, 3>,
                     ast::ProgramHashHasher>
      Newest;
  std::vector<std::pair<ast::ProgramHash, uint8_t>> Order;
  std::vector<Span> Spans;
  std::size_t Pos = HeaderBytes;
  while (Pos + RecordPrefixBytes <= Bytes.size()) {
    uint32_t Len = 0;
    for (unsigned I = 0; I < 4; ++I)
      Len |= static_cast<uint32_t>(Bytes[Pos + I]) << (8 * I);
    if (Len > MaxPayloadBytes || Bytes.size() - Pos - RecordPrefixBytes < Len)
      break;
    uint64_t Sum = 0;
    for (unsigned I = 0; I < 8; ++I)
      Sum |= static_cast<uint64_t>(Bytes[Pos + 4 + I]) << (8 * I);
    const uint8_t *Payload = Bytes.data() + Pos + RecordPrefixBytes;
    if (fnv1a64(Payload, Len) != Sum)
      break;
    CacheRecord Record;
    if (!decodeCacheRecord(Payload, Len, Record))
      break;
    auto Found = Newest.find(Record.Key);
    if (Found == Newest.end()) {
      auto &Slots = Newest[Record.Key];
      Slots.fill(-1);
      Found = Newest.find(Record.Key);
    }
    std::size_t SolverIdx = static_cast<std::size_t>(Record.Solver);
    if (Found->second[SolverIdx] < 0) {
      Found->second[SolverIdx] = static_cast<int64_t>(Spans.size());
      Order.emplace_back(Record.Key, static_cast<uint8_t>(SolverIdx));
      Spans.push_back({Pos, RecordPrefixBytes + Len});
    } else {
      Spans[static_cast<std::size_t>(Found->second[SolverIdx])] = {
          Pos, RecordPrefixBytes + Len};
    }
    Pos += RecordPrefixBytes + Len;
  }

  std::string TmpPath = Path + ".compact.tmp";
  {
    FilePtr F(std::fopen(TmpPath.c_str(), "wb"));
    std::vector<uint8_t> H = headerBytes();
    if (!F || !writeAll(F.get(), H.data(), H.size())) {
      if (Error)
        *Error = "cannot write '" + TmpPath + "'";
      return false;
    }
    for (const Span &S : Spans)
      if (!writeAll(F.get(), Bytes.data() + S.Offset, S.Size)) {
        if (Error)
          *Error = "cannot write '" + TmpPath + "'";
        std::remove(TmpPath.c_str());
        return false;
      }
    if (std::fflush(F.get()) != 0) {
      if (Error)
        *Error = "cannot flush '" + TmpPath + "'";
      std::remove(TmpPath.c_str());
      return false;
    }
  }
  if (std::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    if (Error)
      *Error = "cannot rename '" + TmpPath + "' over '" + Path + "'";
    std::remove(TmpPath.c_str());
    return false;
  }

  // Rebuild the accounting from what survived.
  FileKeys.clear();
  TotalRecords = Spans.size();
  std::size_t NewBytes = HeaderBytes;
  for (const Span &S : Spans)
    NewBytes += S.Size;
  for (const auto &[Key, SolverIdx] : Order)
    FileKeys[Key][SolverIdx] = 1;
  Counters.FileBytes = NewBytes;
  ++Counters.Compactions;
  return true;
}

bool CacheStore::maybeCompact(std::string *Error) {
  std::size_t Live = 0, Total = 0;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Total = TotalRecords;
    for (const auto &[Key, Counts] : FileKeys) {
      (void)Key;
      for (uint32_t C : Counts)
        Live += C > 0 ? 1 : 0;
    }
  }
  if (Total < Opts.CompactMinRecords || Total == 0)
    return true;
  double DeadRatio =
      static_cast<double>(Total - Live) / static_cast<double>(Total);
  if (DeadRatio <= Opts.CompactDeadRatio)
    return true;
  return compact(Error);
}

CacheStore::Stats CacheStore::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  Stats S = Counters;
  std::size_t Live = 0;
  for (const auto &[Key, Counts] : FileKeys) {
    (void)Key;
    for (uint32_t C : Counts)
      Live += C > 0 ? 1 : 0;
  }
  S.LiveRecords = Live;
  S.DeadRecords = TotalRecords - Live;
  return S;
}
