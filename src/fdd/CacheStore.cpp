//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk store (docs/ARCHITECTURE.md S16). File layout:
///
///   Header (16 bytes):  magic "MCNKFDDS" | u32 version | u32 endian tag
///   Record:             u32 payload length | u64 FNV-1a-64(payload) | payload
///   Payload:            u8 kind | u32 key length | key | value
///
/// A compile record's key is u64 hash.lo | u64 hash.hi | u8 solver and its
/// value a diagram:
///
///   u32 root | u32 #nodes, then per node:
///     u8 0 (inner) | u32 field | u32 value | u32 hi | u32 lo
///     u8 1 (leaf)  | u32 #entries, each:
///        u8 0 (drop) / 1 (mods: u32 #mods, (u32 field, u32 value)*)
///        rational:  u8 sign | u32 #limbs | u64* (numerator)
///                   u32 #limbs | u64*          (denominator)
///
/// Lint and Sliced payloads are serve's (serve/Memo.cpp). All integers
/// little-endian, written byte by byte — the file is host-independent.
/// Decoding never trusts a count before checking it against the remaining
/// bytes, and decoded diagrams pass validateFdd before anyone imports
/// them.
///
//===----------------------------------------------------------------------===//

#include "fdd/CacheStore.h"

#include "fdd/Export.h"

#include <array>
#include <cstdio>
#include <cstring>

#include <unistd.h>

using namespace mcnk;
using namespace mcnk::fdd;

namespace {

constexpr char Magic[8] = {'M', 'C', 'N', 'K', 'F', 'D', 'D', 'S'};
constexpr uint32_t EndianTag = 0x01020304;
constexpr std::size_t HeaderBytes = 16;
constexpr std::size_t RecordPrefixBytes = 12; // u32 length + u64 checksum.
/// The payload's kind byte and key length.
constexpr std::size_t PayloadHeaderBytes = 5;
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

uint32_t loadU32(const uint8_t *Data) {
  uint32_t V = 0;
  for (unsigned I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(Data[I]) << (8 * I);
  return V;
}

void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  for (unsigned I = 0; I < 4; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}
void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  for (unsigned I = 0; I < 8; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

/// The length of a payload's identity — its kind byte, key length and
/// key — or 0 when the header is malformed. The dead-record accounting
/// keys records by a 64-bit hash of these bytes: a collision merely
/// miscounts one live record, and compaction and the newest-record rule
/// compare the keys themselves.
std::size_t identityBytes(const uint8_t *Data, std::size_t Size) {
  if (Size < PayloadHeaderBytes ||
      Data[0] > static_cast<uint8_t>(RecordKind::Sliced))
    return 0;
  uint32_t KeyLen = loadU32(Data + 1);
  if (KeyLen > Size - PayloadHeaderBytes)
    return 0;
  return PayloadHeaderBytes + KeyLen;
}

} // namespace

//===----------------------------------------------------------------------===//
// Record codec
//===----------------------------------------------------------------------===//

RecordWriter::RecordWriter(RecordKind Kind) {
  u8(static_cast<uint8_t>(Kind));
  u32(0); // The key length, patched by endKey().
}

void RecordWriter::u32(uint32_t V) { putU32(Bytes, V); }

void RecordWriter::u64(uint64_t V) { putU64(Bytes, V); }

void RecordWriter::string(const std::string &V) {
  u32(static_cast<uint32_t>(V.size()));
  Bytes.insert(Bytes.end(), V.begin(), V.end());
}

void RecordWriter::endKey() {
  auto KeyLen = static_cast<uint32_t>(Bytes.size() - PayloadHeaderBytes);
  for (unsigned I = 0; I < 4; ++I)
    Bytes[1 + I] = static_cast<uint8_t>(KeyLen >> (8 * I));
}

void RecordWriter::diagram(const PortableFdd &D) {
  auto PutBigInt = [this](const BigInt &V) {
    u8(V.isNegative() ? 1 : 0);
    std::vector<uint64_t> Limbs = V.magnitudeLimbs64();
    u32(static_cast<uint32_t>(Limbs.size()));
    for (uint64_t L : Limbs)
      u64(L);
  };
  u32(D.Root);
  u32(static_cast<uint32_t>(D.Nodes.size()));
  for (const PortableFdd::Node &Node : D.Nodes) {
    u8(Node.IsLeaf ? 1 : 0);
    if (!Node.IsLeaf) {
      u32(Node.Field);
      u32(Node.Value);
      u32(Node.Hi);
      u32(Node.Lo);
      continue;
    }
    u32(static_cast<uint32_t>(Node.Dist.size()));
    for (const auto &[Act, Weight] : Node.Dist) {
      if (Act.isDrop()) {
        u8(0);
      } else {
        u8(1);
        u32(static_cast<uint32_t>(Act.mods().size()));
        for (const auto &[F, V] : Act.mods()) {
          u32(F);
          u32(V);
        }
      }
      PutBigInt(Weight.numerator());
      PutBigInt(Weight.denominator());
    }
  }
}

bool RecordReader::fail(const char *What) {
  if (Error)
    *Error = std::string("truncated or malformed record (") + What + ")";
  return false;
}

bool RecordReader::header(RecordKind &Kind) {
  uint8_t K = 0;
  uint32_t KeyLen = 0;
  if (!u8(K, "record kind") || !u32(KeyLen, "key length"))
    return false;
  if (K > static_cast<uint8_t>(RecordKind::Sliced))
    return fail("record kind");
  if (KeyLen > Size - Pos)
    return fail("key length");
  Kind = static_cast<RecordKind>(K);
  KeyEnd = Pos + KeyLen;
  return true;
}

bool RecordReader::endKey() { return Pos == KeyEnd || fail("key length"); }

bool RecordReader::u8(uint8_t &V, const char *What) {
  if (Size - Pos < 1)
    return fail(What);
  V = Data[Pos++];
  return true;
}

bool RecordReader::u32(uint32_t &V, const char *What) {
  if (Size - Pos < 4)
    return fail(What);
  V = loadU32(Data + Pos);
  Pos += 4;
  return true;
}

bool RecordReader::u64(uint64_t &V, const char *What) {
  if (Size - Pos < 8)
    return fail(What);
  V = 0;
  for (unsigned I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(Data[Pos + I]) << (8 * I);
  Pos += 8;
  return true;
}

bool RecordReader::string(std::string &V, const char *What) {
  uint32_t Len = 0;
  if (!count(Len, 1, What))
    return false;
  V.assign(reinterpret_cast<const char *>(Data + Pos), Len);
  Pos += Len;
  return true;
}

bool RecordReader::finish() { return Pos == Size || fail("trailing bytes"); }

bool RecordReader::count(uint32_t &Count, std::size_t MinBytesEach,
                         const char *What) {
  if (!u32(Count, What))
    return false;
  // Each element consumes at least MinBytesEach, so a count larger than
  // remaining/MinBytesEach is lying — reject before any reserve().
  if (Count > (Size - Pos) / MinBytesEach)
    return fail(What);
  return true;
}

bool RecordReader::bigInt(BigInt &V, const char *What) {
  uint8_t Neg = 0;
  uint32_t NumLimbs = 0;
  if (!u8(Neg, What))
    return false;
  if (Neg > 1)
    return fail(What);
  if (!count(NumLimbs, 8, What))
    return false;
  std::vector<uint64_t> Limbs(NumLimbs);
  for (uint32_t I = 0; I < NumLimbs; ++I)
    if (!u64(Limbs[I], What))
      return false;
  V = BigInt::fromLimbs64(Neg == 1, Limbs);
  // "-0" has no canonical encoding; an encoder never writes it.
  if (Neg == 1 && V.isZero())
    return fail(What);
  return true;
}

bool RecordReader::diagram(PortableFdd &D) {
  uint32_t NumNodes = 0;
  // Every node costs at least the 1-byte tag.
  if (!u32(D.Root, "root") || !count(NumNodes, 1, "node count"))
    return false;
  D.Nodes.clear();
  D.Nodes.reserve(NumNodes);
  for (uint32_t I = 0; I < NumNodes; ++I) {
    PortableFdd::Node Node;
    uint8_t Tag = 0;
    if (!u8(Tag, "node tag"))
      return false;
    if (Tag > 1)
      return fail("node tag");
    Node.IsLeaf = Tag == 1;
    if (!Node.IsLeaf) {
      uint32_t Field = 0;
      if (!u32(Field, "inner node") || !u32(Node.Value, "inner node") ||
          !u32(Node.Hi, "inner node") || !u32(Node.Lo, "inner node"))
        return false;
      if (Field >= FieldTable::NotFound)
        return fail("field id");
      Node.Field = static_cast<FieldId>(Field);
      D.Nodes.push_back(std::move(Node));
      continue;
    }
    uint32_t NumEntries = 0;
    if (!count(NumEntries, 1, "leaf entry count"))
      return false;
    Node.Dist.reserve(NumEntries);
    for (uint32_t E = 0; E < NumEntries; ++E) {
      uint8_t ActTag = 0;
      if (!u8(ActTag, "action tag"))
        return false;
      Action Act;
      if (ActTag == 0) {
        Act = Action::drop();
      } else if (ActTag == 1) {
        uint32_t NumMods = 0;
        if (!count(NumMods, 8, "mod count"))
          return false;
        std::vector<Action::Mod> Mods;
        Mods.reserve(NumMods);
        for (uint32_t M = 0; M < NumMods; ++M) {
          uint32_t F = 0, V = 0;
          if (!u32(F, "mod") || !u32(V, "mod"))
            return false;
          if (F >= FieldTable::NotFound)
            return fail("field id");
          Mods.emplace_back(static_cast<FieldId>(F), V);
        }
        // Action::modify sorts and dedups, so whatever order the bytes
        // claimed, the in-memory Action is canonical.
        Act = Action::modify(std::move(Mods));
      } else {
        return fail("action tag");
      }
      BigInt Num, Den;
      if (!bigInt(Num, "weight numerator") ||
          !bigInt(Den, "weight denominator"))
        return false;
      if (Den.isZero() || Den.isNegative())
        return fail("weight denominator");
      Node.Dist.emplace_back(std::move(Act),
                             Rational(std::move(Num), std::move(Den)));
    }
    D.Nodes.push_back(std::move(Node));
  }
  // Structural validation — the same gate importFdd enforces, but
  // returning an error instead of aborting the process.
  std::string Why;
  if (!validateFdd(D, &Why)) {
    if (Error)
      *Error = "invalid diagram: " + Why;
    return false;
  }
  return true;
}

std::vector<uint8_t> fdd::encodeCacheRecord(const CacheRecord &Record) {
  RecordWriter W(RecordKind::Compile);
  W.u64(Record.Key.Lo);
  W.u64(Record.Key.Hi);
  W.u8(static_cast<uint8_t>(Record.Solver));
  W.endKey();
  W.diagram(Record.Diagram);
  return W.take();
}

bool fdd::decodeCacheRecord(const uint8_t *Data, std::size_t Size,
                            CacheRecord &Out, std::string *Error) {
  RecordReader R(Data, Size, Error);
  RecordKind Kind = RecordKind::Compile;
  uint8_t Solver = 0;
  if (!R.header(Kind))
    return false;
  if (Kind != RecordKind::Compile)
    return R.fail("record kind");
  if (!R.u64(Out.Key.Lo, "key") || !R.u64(Out.Key.Hi, "key") ||
      !R.u8(Solver, "solver"))
    return false;
  if (Solver > static_cast<uint8_t>(markov::SolverKind::Iterative))
    return R.fail("solver kind");
  Out.Solver = static_cast<markov::SolverKind>(Solver);
  return R.endKey() && R.diagram(Out.Diagram) && R.finish();
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
                                             const Options &Opts,
                                             const RecordDecoder &Decode) {
  std::unique_ptr<CacheStore> Store(new CacheStore(Path, Opts));
  auto Fail = [&](const std::string &Message) {
    if (Error)
      *Error = Message;
    return nullptr;
  };

  // Records are read one at a time, so opening never holds the whole file.
  FilePtr F(std::fopen(Path.c_str(), "rb"));
  std::size_t FileSize = 0;
  if (F) {
    if (std::fseek(F.get(), 0, SEEK_END) != 0)
      return Fail("cannot read cache store '" + Path + "'");
    long End = std::ftell(F.get());
    if (End < 0 || std::fseek(F.get(), 0, SEEK_SET) != 0)
      return Fail("cannot read cache store '" + Path + "'");
    FileSize = static_cast<std::size_t>(End);
  }
  if (FileSize == 0) {
    // Fresh store: write the header now so a later concurrent reader never
    // sees a half-formed file without one.
    F.reset(std::fopen(Path.c_str(), "wb"));
    std::vector<uint8_t> H = headerBytes();
    if (!F || !writeAll(F.get(), H.data(), H.size()) ||
        std::fflush(F.get()) != 0)
      return Fail("cannot create cache store '" + Path + "'");
    Store->Counters.FileBytes = H.size();
    return Store;
  }

  // Version gate: loudly refuse files from a different format rather than
  // misparse them. (A future version bump migrates explicitly.)
  uint8_t Header[HeaderBytes];
  if (FileSize < HeaderBytes ||
      std::fread(Header, 1, HeaderBytes, F.get()) != HeaderBytes ||
      std::memcmp(Header, Magic, sizeof(Magic)) != 0)
    return Fail("'" + Path + "' is not a McNetKAT FDD cache store");
  uint32_t Version = loadU32(Header + 8);
  if (Version != FormatVersion || loadU32(Header + 12) != EndianTag)
    return Fail("cache store '" + Path + "' has format version " +
                std::to_string(Version) + "; this build requires " +
                std::to_string(FormatVersion));

  // Scan records. Anything that does not parse cleanly from here on is a
  // torn tail (crash mid-append) or corruption; truncate at the last good
  // record rather than trust a byte of it.
  std::size_t GoodEnd = HeaderBytes;
  // Newest compile record per key wins; remember the slot to overwrite.
  std::unordered_map<ast::ProgramHash, std::array<std::size_t, 3>,
                     ast::ProgramHashHasher>
      Slot;
  std::vector<uint8_t> Payload;
  uint8_t Prefix[RecordPrefixBytes];
  while (FileSize - GoodEnd >= RecordPrefixBytes &&
         std::fread(Prefix, 1, RecordPrefixBytes, F.get()) ==
             RecordPrefixBytes) {
    uint32_t Len = loadU32(Prefix);
    uint64_t Sum = 0;
    for (unsigned I = 0; I < 8; ++I)
      Sum |= static_cast<uint64_t>(Prefix[4 + I]) << (8 * I);
    if (Len > MaxPayloadBytes || FileSize - GoodEnd - RecordPrefixBytes < Len)
      break; // Length overruns the file: torn tail.
    Payload.resize(Len);
    if (std::fread(Payload.data(), 1, Len, F.get()) != Len ||
        fnv1a64(Payload.data(), Len) != Sum)
      break; // Bit rot or torn write: do not trust this or anything after.
    // Checksum matched, so a record that does not decode was written by a
    // buggy or hostile producer: count it and stop trusting the rest.
    std::size_t IdLen = identityBytes(Payload.data(), Len);
    if (IdLen == 0) {
      Store->Counters.CorruptRecordsDropped++;
      break;
    }
    if (static_cast<RecordKind>(Payload[0]) == RecordKind::Compile) {
      CacheRecord Record;
      if (!decodeCacheRecord(Payload.data(), Len, Record)) {
        Store->Counters.CorruptRecordsDropped++;
        break;
      }
      auto [It, Fresh] = Slot.try_emplace(Record.Key);
      if (Fresh)
        It->second.fill(SIZE_MAX);
      std::size_t &Index = It->second[static_cast<std::size_t>(Record.Solver)];
      if (Index == SIZE_MAX) {
        Index = Store->Loaded.size();
        Store->Loaded.push_back(std::move(Record));
      } else {
        Store->Loaded[Index] = std::move(Record);
      }
    } else if (Decode && !Decode(Payload.data(), Len)) {
      Store->Counters.CorruptRecordsDropped++;
      break;
    }
    GoodEnd += RecordPrefixBytes + Len;
    ++Store->TotalRecords;
    ++Store->FileKeys[fnv1a64(Payload.data(), IdLen)];
  }
  if (std::ferror(F.get()))
    return Fail("cannot read cache store '" + Path + "'");
  F.reset();

  if (GoodEnd < FileSize) {
    // Torn tail: truncate in place so the next append starts from a clean
    // boundary instead of extending garbage.
    Store->Counters.TornBytesDropped = FileSize - GoodEnd;
    if (::truncate(Path.c_str(), static_cast<off_t>(GoodEnd)) != 0)
      return Fail("cannot truncate torn tail of cache store '" + Path + "'");
  }
  Store->Counters.FileBytes = GoodEnd;
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

bool CacheStore::append(const std::vector<uint8_t> &Payload,
                        std::string *Error) {
  std::size_t IdLen = identityBytes(Payload.data(), Payload.size());
  if (IdLen == 0 || Payload.size() > MaxPayloadBytes) {
    if (Error)
      *Error = "malformed record payload";
    return false;
  }
  std::vector<uint8_t> Framed;
  Framed.reserve(RecordPrefixBytes + Payload.size());
  writeRecordTo(Framed, Payload);
  std::lock_guard<std::mutex> Lock(Mutex);
  FilePtr F(std::fopen(Path.c_str(), "ab"));
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
  ++FileKeys[fnv1a64(Payload.data(), IdLen)];
  return true;
}

bool CacheStore::append(const ast::ProgramHash &Key,
                        markov::SolverKind Solver, const PortableFdd &Diagram,
                        std::string *Error) {
  CacheRecord Record;
  Record.Key = Key;
  Record.Solver = Solver;
  Record.Diagram = Diagram;
  return append(encodeCacheRecord(Record), Error);
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
  std::unordered_map<std::string, std::size_t> Newest;
  std::vector<Span> Spans;
  std::size_t Pos = HeaderBytes;
  while (Pos + RecordPrefixBytes <= Bytes.size()) {
    uint32_t Len = loadU32(Bytes.data() + Pos);
    if (Len > MaxPayloadBytes || Bytes.size() - Pos - RecordPrefixBytes < Len)
      break;
    uint64_t Sum = 0;
    for (unsigned I = 0; I < 8; ++I)
      Sum |= static_cast<uint64_t>(Bytes[Pos + 4 + I]) << (8 * I);
    const uint8_t *Payload = Bytes.data() + Pos + RecordPrefixBytes;
    if (fnv1a64(Payload, Len) != Sum)
      break;
    std::size_t IdLen = identityBytes(Payload, Len);
    if (IdLen == 0)
      break;
    auto [It, Fresh] = Newest.emplace(
        std::string(reinterpret_cast<const char *>(Payload), IdLen),
        Spans.size());
    if (Fresh)
      Spans.push_back({Pos, RecordPrefixBytes + Len});
    else
      Spans[It->second] = {Pos, RecordPrefixBytes + Len};
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
  for (auto &[Identity, Index] : Newest) {
    (void)Index;
    FileKeys[fnv1a64(reinterpret_cast<const uint8_t *>(Identity.data()),
                     Identity.size())] = 1;
  }
  Counters.FileBytes = NewBytes;
  ++Counters.Compactions;
  return true;
}

bool CacheStore::maybeCompact(std::string *Error) {
  std::size_t Live = 0, Total = 0;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Total = TotalRecords;
    Live = FileKeys.size();
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
  S.LiveRecords = FileKeys.size();
  S.DeadRecords = TotalRecords - FileKeys.size();
  return S;
}
