//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the serving layer (ARCHITECTURE S16): the on-disk cache
/// store (record codec, round-trip, torn-tail recovery, version gating,
/// adversarial decode), the line-protocol JSON, the Session request loop,
/// and concurrent sessions over one shared Service (the TSan target).
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "fdd/CacheStore.h"
#include "fdd/Export.h"
#include "parser/Parser.h"
#include "serve/Json.h"
#include "serve/Server.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace mcnk;

namespace {

/// A unique path under the test temp dir (no file created yet).
std::string tempPath(const std::string &Name) {
  static int Counter = 0;
  return testing::TempDir() + "serve_test_" + Name + "_" +
         std::to_string(Counter++) + ".mcnkfdd";
}

/// Compiles a source program and exports its diagram (helper for codec
/// tests that want realistic multi-node diagrams).
fdd::PortableFdd compileToPortable(const std::string &Source) {
  ast::Context Ctx;
  parser::ParseResult R = parser::parseProgram(Source, Ctx);
  EXPECT_TRUE(R.ok());
  analysis::Verifier V;
  return fdd::exportFdd(V.manager(), V.compile(R.Program));
}

/// A program big enough (>= 16 AST nodes) that the compile cache's
/// CacheMinNodes gate admits its top-level fingerprint.
const char *BigProgram =
    "if sw=1 then pt:=2 ; sw:=2 ; hops:=1 "
    "else if sw=2 then ((pt:=3 ; sw:=3 ; hops:=2) +[1/2] drop) "
    "else drop";

std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good());
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path,
                    const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good());
}

//===----------------------------------------------------------------------===//
// Record codec
//===----------------------------------------------------------------------===//

TEST(CacheRecordCodec, RoundTripsRealDiagrams) {
  for (const char *Source :
       {"sw:=1", "drop", "if sw=1 then pt:=2 else drop",
        "while sw=1 do (sw:=2 +[1/3] sw:=1)", BigProgram}) {
    for (markov::SolverKind Solver :
         {markov::SolverKind::Exact, markov::SolverKind::Direct,
          markov::SolverKind::Iterative}) {
      fdd::CacheRecord Record;
      Record.Key = {0x0123456789abcdefULL, 0xfedcba9876543210ULL};
      Record.Solver = Solver;
      Record.Diagram = compileToPortable(Source);

      std::vector<uint8_t> Bytes = fdd::encodeCacheRecord(Record);
      fdd::CacheRecord Back;
      std::string Error;
      ASSERT_TRUE(fdd::decodeCacheRecord(Bytes.data(), Bytes.size(), Back,
                                         &Error))
          << Source << ": " << Error;
      EXPECT_EQ(Back.Key, Record.Key);
      EXPECT_EQ(Back.Solver, Record.Solver);
      ASSERT_EQ(Back.Diagram.Nodes.size(), Record.Diagram.Nodes.size());
      EXPECT_EQ(Back.Diagram.Root, Record.Diagram.Root);
      for (std::size_t I = 0; I < Back.Diagram.Nodes.size(); ++I) {
        const fdd::PortableFdd::Node &A = Back.Diagram.Nodes[I];
        const fdd::PortableFdd::Node &B = Record.Diagram.Nodes[I];
        EXPECT_EQ(A.IsLeaf, B.IsLeaf);
        if (A.IsLeaf) {
          EXPECT_EQ(A.Dist, B.Dist);
        } else {
          EXPECT_EQ(A.Field, B.Field);
          EXPECT_EQ(A.Value, B.Value);
          EXPECT_EQ(A.Hi, B.Hi);
          EXPECT_EQ(A.Lo, B.Lo);
        }
      }
    }
  }
  // Solver byte 3 (the former modular engine, gone since format version
  // 2) is no kind any more.
  fdd::CacheRecord Record;
  Record.Diagram = compileToPortable("sw:=1");
  std::vector<uint8_t> Bytes = fdd::encodeCacheRecord(Record);
  Bytes[21] = 3; // After the 5-byte record header and the 16-byte hash.
  fdd::CacheRecord Back;
  std::string Error;
  EXPECT_FALSE(fdd::decodeCacheRecord(Bytes.data(), Bytes.size(), Back,
                                      &Error));
  EXPECT_NE(Error.find("solver kind"), std::string::npos) << Error;
}

TEST(CacheRecordCodec, EveryTruncationFailsCleanly) {
  fdd::CacheRecord Record;
  Record.Key = {1, 2};
  Record.Diagram = compileToPortable(BigProgram);
  std::vector<uint8_t> Bytes = fdd::encodeCacheRecord(Record);
  for (std::size_t Len = 0; Len < Bytes.size(); ++Len) {
    fdd::CacheRecord Out;
    std::string Error;
    EXPECT_FALSE(fdd::decodeCacheRecord(Bytes.data(), Len, Out, &Error))
        << "truncation to " << Len << " bytes decoded successfully";
    EXPECT_FALSE(Error.empty());
  }
  // Trailing garbage must be rejected too, not silently ignored.
  std::vector<uint8_t> Longer = Bytes;
  Longer.push_back(0);
  fdd::CacheRecord Out;
  EXPECT_FALSE(fdd::decodeCacheRecord(Longer.data(), Longer.size(), Out));
}

TEST(CacheRecordCodec, BitFlipsNeverCrashAndNeverYieldInvalidDiagrams) {
  fdd::CacheRecord Record;
  Record.Key = {42, 7};
  Record.Diagram =
      compileToPortable("if sw=1 then (pt:=2 +[1/3] drop) else pt:=1");
  std::vector<uint8_t> Bytes = fdd::encodeCacheRecord(Record);
  // Every single-bit corruption: decode must either fail cleanly or
  // produce a diagram that still passes full validation — those are the
  // only two outcomes that keep a hostile store from corrupting a
  // manager. (ASan/UBSan configurations of this suite make "no UB" a
  // checked property, not a hope.)
  for (std::size_t I = 0; I < Bytes.size(); ++I) {
    for (int Bit = 0; Bit < 8; ++Bit) {
      std::vector<uint8_t> Mutated = Bytes;
      Mutated[I] ^= static_cast<uint8_t>(1u << Bit);
      fdd::CacheRecord Out;
      std::string Error;
      if (fdd::decodeCacheRecord(Mutated.data(), Mutated.size(), Out,
                                 &Error))
        EXPECT_TRUE(fdd::validateFdd(Out.Diagram));
      else
        EXPECT_FALSE(Error.empty());
    }
  }
}

TEST(CacheRecordCodec, RejectsHostileCounts) {
  // A record whose node count claims 2^31 nodes but carries 4 bytes: the
  // count sanity check must reject it without attempting the reserve.
  fdd::CacheRecord Record;
  Record.Key = {1, 1};
  Record.Diagram = compileToPortable("sw:=1");
  std::vector<uint8_t> Bytes = fdd::encodeCacheRecord(Record);
  // Layout: 1 kind + 4 key length + 8 key.lo + 8 key.hi + 1 solver +
  // 4 root, then 4 node count.
  const std::size_t CountOffset = 1 + 4 + 8 + 8 + 1 + 4;
  ASSERT_GT(Bytes.size(), CountOffset + 4);
  for (unsigned I = 0; I < 4; ++I)
    Bytes[CountOffset + I] = 0xff;
  fdd::CacheRecord Out;
  std::string Error;
  EXPECT_FALSE(
      fdd::decodeCacheRecord(Bytes.data(), Bytes.size(), Out, &Error));
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// CacheStore
//===----------------------------------------------------------------------===//

TEST(CacheStore, RoundTripsAcrossReopen) {
  std::string Path = tempPath("roundtrip");
  fdd::PortableFdd Diagram = compileToPortable(BigProgram);
  {
    std::string Error;
    auto Store = fdd::CacheStore::open(Path, &Error);
    ASSERT_TRUE(Store) << Error;
    fdd::CompileCache Fresh(8);
    EXPECT_EQ(Store->warm(Fresh), 0u); // Fresh file: nothing to warm.
    ASSERT_TRUE(Store->append({1, 2}, markov::SolverKind::Exact, Diagram,
                              &Error))
        << Error;
    ASSERT_TRUE(Store->append({3, 4}, markov::SolverKind::Direct, Diagram,
                              &Error))
        << Error;
    EXPECT_EQ(Store->stats().LiveRecords, 2u);
  }
  {
    std::string Error;
    auto Store = fdd::CacheStore::open(Path, &Error);
    ASSERT_TRUE(Store) << Error;
    fdd::CompileCache Cache(8);
    EXPECT_EQ(Store->warm(Cache), 2u);
    std::shared_ptr<const fdd::PortableFdd> Hit;
    EXPECT_TRUE(Cache.lookup({1, 2}, markov::SolverKind::Exact, Hit));
    ASSERT_TRUE(Hit);
    EXPECT_EQ(Hit->Nodes.size(), Diagram.Nodes.size());
    // Same fingerprint, different solver kind: distinct entry.
    EXPECT_TRUE(Cache.lookup({3, 4}, markov::SolverKind::Direct, Hit));
    EXPECT_FALSE(Cache.lookup({3, 4}, markov::SolverKind::Exact, Hit));
  }
  std::remove(Path.c_str());
}

TEST(CacheStore, NewestRecordPerKeyWinsAndCompactionDropsTheDead) {
  std::string Path = tempPath("compact");
  fdd::PortableFdd Old = compileToPortable("sw:=1");
  fdd::PortableFdd New = compileToPortable("if sw=1 then pt:=2 else drop");
  std::string Error;
  auto Store = fdd::CacheStore::open(Path, &Error);
  ASSERT_TRUE(Store) << Error;
  for (int I = 0; I < 5; ++I)
    ASSERT_TRUE(Store->append({9, 9}, markov::SolverKind::Exact,
                              I == 4 ? New : Old));
  fdd::CacheStore::Stats S = Store->stats();
  EXPECT_EQ(S.LiveRecords, 1u);
  EXPECT_EQ(S.DeadRecords, 4u);
  std::size_t BytesBefore = S.FileBytes;
  ASSERT_TRUE(Store->compact(&Error)) << Error;
  S = Store->stats();
  EXPECT_EQ(S.LiveRecords, 1u);
  EXPECT_EQ(S.DeadRecords, 0u);
  EXPECT_LT(S.FileBytes, BytesBefore);
  EXPECT_EQ(S.Compactions, 1u);
  // The surviving record is the newest one.
  auto Reopened = fdd::CacheStore::open(Path, &Error);
  ASSERT_TRUE(Reopened) << Error;
  fdd::CompileCache Cache(8);
  ASSERT_EQ(Reopened->warm(Cache), 1u);
  std::shared_ptr<const fdd::PortableFdd> Hit;
  ASSERT_TRUE(Cache.lookup({9, 9}, markov::SolverKind::Exact, Hit));
  EXPECT_EQ(Hit->Nodes.size(), New.Nodes.size());
  std::remove(Path.c_str());
}

TEST(CacheStore, TornTailIsTruncatedNotTrusted) {
  std::string Path = tempPath("torn");
  fdd::PortableFdd Diagram = compileToPortable("sw:=1 ; pt:=2");
  std::string Error;
  {
    auto Store = fdd::CacheStore::open(Path, &Error);
    ASSERT_TRUE(Store) << Error;
    ASSERT_TRUE(Store->append({5, 6}, markov::SolverKind::Exact, Diagram));
  }
  // Simulate a crash mid-append: a record prefix promising more bytes
  // than the file holds.
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  std::size_t IntactSize = Bytes.size();
  for (uint8_t B : {0x40, 0x00, 0x00, 0x00, 0xde, 0xad})
    Bytes.push_back(B);
  writeFileBytes(Path, Bytes);
  {
    auto Store = fdd::CacheStore::open(Path, &Error);
    ASSERT_TRUE(Store) << Error;
    EXPECT_EQ(Store->stats().TornBytesDropped, 6u);
    EXPECT_EQ(Store->stats().LiveRecords, 1u);
    // The truncation happened on disk, so appends restart cleanly...
    ASSERT_TRUE(Store->append({7, 8}, markov::SolverKind::Exact, Diagram));
  }
  // ...and a third open sees both records and no torn bytes.
  auto Store = fdd::CacheStore::open(Path, &Error);
  ASSERT_TRUE(Store) << Error;
  EXPECT_EQ(Store->stats().TornBytesDropped, 0u);
  EXPECT_EQ(Store->stats().LiveRecords, 2u);
  EXPECT_GT(readFileBytes(Path).size(), IntactSize);
  std::remove(Path.c_str());
}

TEST(CacheStore, ChecksumMismatchDropsTheTail) {
  std::string Path = tempPath("checksum");
  fdd::PortableFdd Diagram = compileToPortable("sw:=1");
  std::string Error;
  std::size_t OneRecordSize = 0;
  {
    auto Store = fdd::CacheStore::open(Path, &Error);
    ASSERT_TRUE(Store) << Error;
    ASSERT_TRUE(Store->append({1, 1}, markov::SolverKind::Exact, Diagram));
    OneRecordSize = Store->stats().FileBytes;
    ASSERT_TRUE(Store->append({2, 2}, markov::SolverKind::Exact, Diagram));
  }
  // Flip one payload byte of the second record: its checksum no longer
  // matches, so open() must keep record one and drop the rest.
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  Bytes[OneRecordSize + 20] ^= 0xff;
  writeFileBytes(Path, Bytes);
  auto Store = fdd::CacheStore::open(Path, &Error);
  ASSERT_TRUE(Store) << Error;
  EXPECT_EQ(Store->stats().LiveRecords, 1u);
  EXPECT_GT(Store->stats().TornBytesDropped, 0u);
  fdd::CompileCache Cache(8);
  EXPECT_EQ(Store->warm(Cache), 1u);
  std::shared_ptr<const fdd::PortableFdd> Hit;
  EXPECT_TRUE(Cache.lookup({1, 1}, markov::SolverKind::Exact, Hit));
  EXPECT_FALSE(Cache.lookup({2, 2}, markov::SolverKind::Exact, Hit));
  std::remove(Path.c_str());
}

TEST(CacheStore, VersionMismatchFailsLoudly) {
  std::string Path = tempPath("version");
  std::string Error;
  {
    auto Store = fdd::CacheStore::open(Path, &Error);
    ASSERT_TRUE(Store) << Error;
  }
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  ASSERT_GE(Bytes.size(), 16u);
  Bytes[8] = 0x7f; // Bump the format version field.
  writeFileBytes(Path, Bytes);
  auto Store = fdd::CacheStore::open(Path, &Error);
  EXPECT_FALSE(Store);
  EXPECT_NE(Error.find("format version"), std::string::npos) << Error;
  // Not-a-store files are rejected too (no magic).
  writeFileBytes(Path, {'h', 'e', 'l', 'l', 'o', ' ', 'w', 'o', 'r', 'l',
                        'd', '!', '!', '!', '!', '!'});
  Store = fdd::CacheStore::open(Path, &Error);
  EXPECT_FALSE(Store);
  std::remove(Path.c_str());
}

/// Rewrites the format version field of the store at \p Path.
void setStoreVersion(const std::string &Path, uint8_t Version) {
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  ASSERT_GE(Bytes.size(), 16u);
  Bytes[8] = Version; // The little-endian format version field.
  Bytes[9] = Bytes[10] = Bytes[11] = 0;
  writeFileBytes(Path, Bytes);
}

TEST(CacheStore, VersionOneStoreIsRefused) {
  // Version 1 stores may hold records of the former modular solver kind;
  // the current build refuses the whole file at open instead of
  // truncating it at the first such record.
  std::string Path = tempPath("version1");
  std::string Error;
  {
    auto Store = fdd::CacheStore::open(Path, &Error);
    ASSERT_TRUE(Store) << Error;
  }
  setStoreVersion(Path, 1);
  auto Store = fdd::CacheStore::open(Path, &Error);
  EXPECT_FALSE(Store);
  EXPECT_NE(Error.find("has format version 1; this build requires 3"),
            std::string::npos)
      << Error;
  std::remove(Path.c_str());
}

TEST(CacheStore, VersionTwoStoreIsRefused) {
  // Version 2 records have no kind byte or key length, so this build
  // refuses such a file whole rather than misread its first record.
  std::string Path = tempPath("version2");
  std::string Error;
  {
    auto Store = fdd::CacheStore::open(Path, &Error);
    ASSERT_TRUE(Store) << Error;
    ASSERT_TRUE(Store->append({1, 2}, markov::SolverKind::Exact,
                              compileToPortable("sw:=1"), &Error))
        << Error;
  }
  setStoreVersion(Path, 2);
  std::size_t Size = readFileBytes(Path).size();
  auto Store = fdd::CacheStore::open(Path, &Error);
  EXPECT_FALSE(Store);
  EXPECT_NE(Error.find("has format version 2; this build requires 3"),
            std::string::npos)
      << Error;
  // Refused, not truncated: the file is left as it was.
  EXPECT_EQ(readFileBytes(Path).size(), Size);
  serve::Service::Options Opts;
  Opts.StorePath = Path;
  EXPECT_FALSE(serve::Service::create(Opts, &Error));
  EXPECT_NE(Error.find("format version 2"), std::string::npos) << Error;
  std::remove(Path.c_str());
}

/// Frames \p Payload as one store record (u32 length, u64 FNV-1a-64) and
/// appends it to the file at \p Path, bypassing CacheStore::append.
void appendRawRecord(const std::string &Path,
                     const std::vector<uint8_t> &Payload) {
  uint64_t Sum = 0xcbf29ce484222325ULL;
  for (uint8_t B : Payload) {
    Sum ^= B;
    Sum *= 0x100000001b3ULL;
  }
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  for (unsigned I = 0; I < 4; ++I)
    Bytes.push_back(static_cast<uint8_t>(Payload.size() >> (8 * I)));
  for (unsigned I = 0; I < 8; ++I)
    Bytes.push_back(static_cast<uint8_t>(Sum >> (8 * I)));
  Bytes.insert(Bytes.end(), Payload.begin(), Payload.end());
  writeFileBytes(Path, Bytes);
}

TEST(CacheStore, UnknownRecordKindTruncatesTheTail) {
  std::string Path = tempPath("unknownkind");
  std::string Error;
  std::size_t GoodSize = 0;
  {
    auto Store = fdd::CacheStore::open(Path, &Error);
    ASSERT_TRUE(Store) << Error;
    ASSERT_TRUE(Store->append({1, 1}, markov::SolverKind::Exact,
                              compileToPortable("sw:=1")));
    GoodSize = Store->stats().FileBytes;
  }
  // A well-checksummed record of kind 7, then a good record after it:
  // nothing from the unknown record on is trusted.
  std::vector<uint8_t> Unknown = {7, 0, 0, 0, 0, 'x'};
  appendRawRecord(Path, Unknown);
  fdd::CacheRecord After;
  After.Key = {2, 2};
  After.Diagram = compileToPortable("sw:=2");
  appendRawRecord(Path, fdd::encodeCacheRecord(After));
  auto Store = fdd::CacheStore::open(Path, &Error);
  ASSERT_TRUE(Store) << Error;
  EXPECT_EQ(Store->stats().CorruptRecordsDropped, 1u);
  EXPECT_EQ(Store->stats().LiveRecords, 1u);
  EXPECT_EQ(readFileBytes(Path).size(), GoodSize);
  // A payload without a well-formed header is never appended.
  EXPECT_FALSE(Store->append(Unknown, &Error));
  EXPECT_FALSE(Store->append(std::vector<uint8_t>{1, 9, 0, 0, 0}, &Error));
  EXPECT_EQ(readFileBytes(Path).size(), GoodSize);
  std::remove(Path.c_str());
}

TEST(CacheStore, MaybeCompactHonorsThresholds) {
  std::string Path = tempPath("maybe");
  fdd::PortableFdd Diagram = compileToPortable("sw:=1");
  fdd::CacheStore::Options Opts;
  Opts.CompactDeadRatio = 0.5;
  Opts.CompactMinRecords = 4;
  std::string Error;
  auto Store = fdd::CacheStore::open(Path, &Error, Opts);
  ASSERT_TRUE(Store) << Error;
  // 2 records, 1 dead: below the minimum record count, no compaction.
  ASSERT_TRUE(Store->append({1, 1}, markov::SolverKind::Exact, Diagram));
  ASSERT_TRUE(Store->append({1, 1}, markov::SolverKind::Exact, Diagram));
  ASSERT_TRUE(Store->maybeCompact(&Error)) << Error;
  EXPECT_EQ(Store->stats().Compactions, 0u);
  // 6 records, 5 dead: over both thresholds, compaction fires.
  for (int I = 0; I < 4; ++I)
    ASSERT_TRUE(Store->append({1, 1}, markov::SolverKind::Exact, Diagram));
  ASSERT_TRUE(Store->maybeCompact(&Error)) << Error;
  EXPECT_EQ(Store->stats().Compactions, 1u);
  EXPECT_EQ(Store->stats().DeadRecords, 0u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Front-end memo records
//===----------------------------------------------------------------------===//

/// A lint entry and two sliced entries with realistic values.
std::vector<std::pair<serve::MemoKey, serve::MemoValue>> sampleMemoEntries() {
  std::vector<std::pair<serve::MemoKey, serve::MemoValue>> Entries(3);
  auto &[LintKey, LintValue] = Entries[0];
  LintKey.Program = "meter:=7; (if sw=1 then skip else drop)";
  LintKey.Query = "lint";
  LintValue.Findings = {{1, 1, "write-only-field", "\"meter\" is never read"},
                        {0, 0, "dead-assignment", ""}};
  auto &[DeliveryKey, DeliveryValue] = Entries[1];
  DeliveryKey.Program = "if sw=1 then (pt:=2 +[1/3] drop) else pt:=1";
  DeliveryKey.Query = "delivery";
  DeliveryKey.Solver = markov::SolverKind::Direct;
  DeliveryValue.Slice = {1, 9, 7, 2, 1};
  DeliveryValue.Diagram = std::make_shared<const fdd::PortableFdd>(
      compileToPortable(DeliveryKey.Program));
  auto &[HopKey, HopValue] = Entries[2];
  HopKey.Program = BigProgram;
  HopKey.Query = "hop-stats";
  HopKey.HopField = "hops";
  HopValue.Slice = {0, 30, 30, 3, 3};
  HopValue.Diagram =
      std::make_shared<const fdd::PortableFdd>(compileToPortable(BigProgram));
  return Entries;
}

TEST(MemoRecordCodec, LintAndSlicedRecordsRoundTrip) {
  for (const auto &[Key, Value] : sampleMemoEntries()) {
    std::vector<uint8_t> Bytes = serve::encodeMemoRecord(Key, Value);
    EXPECT_EQ(Bytes[0], static_cast<uint8_t>(Key.Query == "lint"
                                                 ? fdd::RecordKind::Lint
                                                 : fdd::RecordKind::Sliced));
    serve::MemoKey BackKey;
    serve::MemoValue BackValue;
    std::string Error;
    ASSERT_TRUE(serve::decodeMemoRecord(Bytes.data(), Bytes.size(), BackKey,
                                        BackValue, &Error))
        << Key.Query << ": " << Error;
    EXPECT_TRUE(BackKey == Key) << Key.Query;
    ASSERT_EQ(BackValue.Findings.size(), Value.Findings.size());
    for (std::size_t I = 0; I < Value.Findings.size(); ++I) {
      EXPECT_EQ(BackValue.Findings[I].Line, Value.Findings[I].Line);
      EXPECT_EQ(BackValue.Findings[I].Col, Value.Findings[I].Col);
      EXPECT_EQ(BackValue.Findings[I].Check, Value.Findings[I].Check);
      EXPECT_EQ(BackValue.Findings[I].Message, Value.Findings[I].Message);
    }
    EXPECT_EQ(BackValue.Diagram != nullptr, Value.Diagram != nullptr);
    // The value's remaining fields (slice statistics, diagram) compare
    // through the encoding: decoding then encoding again gives the bytes.
    EXPECT_EQ(serve::encodeMemoRecord(BackKey, BackValue), Bytes)
        << Key.Query;
  }
}

TEST(MemoRecordCodec, EveryTruncationFailsCleanly) {
  for (const auto &[Key, Value] : sampleMemoEntries()) {
    std::vector<uint8_t> Bytes = serve::encodeMemoRecord(Key, Value);
    for (std::size_t Len = 0; Len < Bytes.size(); ++Len) {
      serve::MemoKey OutKey;
      serve::MemoValue OutValue;
      std::string Error;
      EXPECT_FALSE(serve::decodeMemoRecord(Bytes.data(), Len, OutKey,
                                           OutValue, &Error))
          << Key.Query << ": truncation to " << Len << " bytes decoded";
      EXPECT_FALSE(Error.empty());
    }
    std::vector<uint8_t> Longer = Bytes;
    Longer.push_back(0);
    serve::MemoKey OutKey;
    serve::MemoValue OutValue;
    EXPECT_FALSE(serve::decodeMemoRecord(Longer.data(), Longer.size(), OutKey,
                                         OutValue));
  }
}

/// Decodes \p Bytes as a memo record and returns the error (empty when
/// the decode succeeded).
std::string memoDecodeError(const std::vector<uint8_t> &Bytes) {
  serve::MemoKey Key;
  serve::MemoValue Value;
  std::string Error;
  if (serve::decodeMemoRecord(Bytes.data(), Bytes.size(), Key, Value, &Error))
    return "";
  EXPECT_FALSE(Error.empty());
  return Error;
}

/// A diagram whose only leaf sums to 1/2, which fails validateFdd.
fdd::PortableFdd halfLeafDiagram() {
  fdd::PortableFdd D;
  D.Nodes.resize(1);
  D.Nodes[0].IsLeaf = true;
  D.Nodes[0].Dist.emplace_back(fdd::Action(), Rational(1, 2));
  return D;
}

TEST(MemoRecordCodec, RejectsHostileRecords) {
  auto Entries = sampleMemoEntries();
  const std::vector<uint8_t> Lint =
      serve::encodeMemoRecord(Entries[0].first, Entries[0].second);
  const std::vector<uint8_t> Sliced =
      serve::encodeMemoRecord(Entries[1].first, Entries[1].second);
  auto Poke = [](std::vector<uint8_t> Bytes, std::size_t At,
                 std::vector<uint8_t> With) {
    std::copy(With.begin(), With.end(), Bytes.begin() + At);
    return Bytes;
  };
  const std::vector<uint8_t> Huge = {0xff, 0xff, 0xff, 0x7f};
  // Unknown record kinds, and the compile kind, are not memo records.
  EXPECT_NE(memoDecodeError(Poke(Lint, 0, {7})).find("record kind"),
            std::string::npos);
  EXPECT_NE(memoDecodeError(Poke(Lint, 0, {0})).find("record kind"),
            std::string::npos);
  // Overlong lengths: the key, the program text (after the 5-byte
  // header) and the finding count (after the text).
  EXPECT_NE(memoDecodeError(Poke(Lint, 1, Huge)).find("key length"),
            std::string::npos);
  EXPECT_NE(memoDecodeError(Poke(Lint, 5, Huge)).find("program text"),
            std::string::npos);
  const std::size_t CountAt = 5 + 4 + Entries[0].first.Program.size();
  EXPECT_NE(memoDecodeError(Poke(Lint, CountAt, Huge)).find("finding count"),
            std::string::npos);
  // A sliced key is query | solver | hop field | text: an unknown query,
  // an unknown solver, and a delivery entry naming a hop field.
  EXPECT_NE(memoDecodeError(Poke(Sliced, 5, {2})).find("query"),
            std::string::npos);
  EXPECT_NE(memoDecodeError(Poke(Sliced, 6, {3})).find("solver kind"),
            std::string::npos);
  EXPECT_NE(memoDecodeError(Poke(Sliced, 7, Huge)).find("hop field"),
            std::string::npos);
  serve::MemoKey Delivery = Entries[1].first;
  Delivery.HopField = "hops";
  EXPECT_NE(memoDecodeError(serve::encodeMemoRecord(Delivery,
                                                    Entries[1].second))
                .find("hop field"),
            std::string::npos);
  // A diagram that fails validateFdd.
  serve::MemoValue Invalid = Entries[1].second;
  Invalid.Diagram = std::make_shared<const fdd::PortableFdd>(halfLeafDiagram());
  EXPECT_NE(memoDecodeError(serve::encodeMemoRecord(Entries[1].first, Invalid))
                .find("invalid diagram"),
            std::string::npos);
}

TEST(MemoRecordCodec, BitFlipsNeverCrash) {
  auto Entries = sampleMemoEntries();
  for (const auto &[Key, Value] : Entries) {
    std::vector<uint8_t> Bytes = serve::encodeMemoRecord(Key, Value);
    for (std::size_t I = 0; I < Bytes.size(); ++I)
      for (int Bit = 0; Bit < 8; ++Bit) {
        std::vector<uint8_t> Mutated = Bytes;
        Mutated[I] ^= static_cast<uint8_t>(1u << Bit);
        serve::MemoKey OutKey;
        serve::MemoValue OutValue;
        if (serve::decodeMemoRecord(Mutated.data(), Mutated.size(), OutKey,
                                    OutValue) &&
            OutValue.Diagram) {
          EXPECT_TRUE(fdd::validateFdd(*OutValue.Diagram));
        }
      }
  }
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

TEST(ServeJson, RoundTripsProtocolShapes) {
  serve::Json V;
  std::string Error;
  ASSERT_TRUE(serve::parseJson(
      "{\"verb\":\"query\",\"id\":7,\"inputs\":[{\"sw\":1},{\"sw\":2}],"
      "\"flag\":true,\"nothing\":null,\"tol\":0.5,\"s\":\"a\\\\b\\n\"}",
      V, &Error))
      << Error;
  ASSERT_TRUE(V.isObject());
  EXPECT_EQ(V.find("verb")->asString(), "query");
  EXPECT_EQ(V.find("id")->asInt(), 7);
  EXPECT_EQ(V.find("inputs")->elements().size(), 2u);
  EXPECT_TRUE(V.find("flag")->asBool());
  EXPECT_TRUE(V.find("nothing")->isNull());
  EXPECT_EQ(V.find("s")->asString(), "a\\b\n");
  // dump() -> parse() is the identity on protocol values.
  serve::Json Back;
  ASSERT_TRUE(serve::parseJson(V.dump(), Back, &Error)) << Error;
  EXPECT_EQ(Back.dump(), V.dump());
}

TEST(ServeJson, StringEscapesArePinned) {
  // Every byte below 0x20, the quote and the backslash are escaped; all
  // other bytes (DEL and UTF-8 included) pass through unchanged.
  std::string Raw = "plain \"q\" \\ ";
  for (int C = 0; C < 0x20; ++C)
    Raw += static_cast<char>(C);
  Raw += "\x7f\xc3\xa9 tail";
  EXPECT_EQ(serve::Json::string(Raw).dump(),
            "\"plain \\\"q\\\" \\\\ "
            "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
            "\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f"
            "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
            "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
            "\x7f\xc3\xa9 tail\"");
  EXPECT_EQ(serve::Json::string("").dump(), "\"\"");
  EXPECT_EQ(serve::Json::string("\\").dump(), "\"\\\\\"");
  EXPECT_EQ(serve::Json::string("no escapes at all").dump(),
            "\"no escapes at all\"");
  serve::Json Back;
  std::string Error;
  ASSERT_TRUE(serve::parseJson(serve::Json::string(Raw).dump(), Back, &Error))
      << Error;
  EXPECT_EQ(Back.asString(), Raw);
}

TEST(ServeJson, MalformedInputsFailCleanly) {
  const char *Bad[] = {
      "",          "{",         "[1,",        "{\"a\":}",  "tru",
      "\"unterm",  "{\"a\" 1}", "[1 2]",      "nul",       "{1:2}",
      "\"\\q\"",   "\"\\u12\"", "\"\\ud800\"", "01x",      "[]extra",
      "999999999999999999999999999",
  };
  for (const char *Text : Bad) {
    serve::Json V;
    std::string Error;
    EXPECT_FALSE(serve::parseJson(Text, V, &Error)) << Text;
    EXPECT_FALSE(Error.empty()) << Text;
  }
}

TEST(ServeJson, DeepNestingExhaustsACounterNotTheStack) {
  std::string Deep(100000, '[');
  serve::Json V;
  std::string Error;
  EXPECT_FALSE(serve::parseJson(Deep, V, &Error));
  EXPECT_NE(Error.find("nesting"), std::string::npos) << Error;
}

//===----------------------------------------------------------------------===//
// Session protocol
//===----------------------------------------------------------------------===//

/// Sends one request line and parses the response object.
serve::Json roundTrip(serve::Session &S, const std::string &Line,
                      bool *Shutdown = nullptr) {
  serve::Json Response;
  std::string Error;
  EXPECT_TRUE(serve::parseJson(S.handleLine(Line, Shutdown), Response,
                               &Error))
      << Error;
  return Response;
}

bool okOf(const serve::Json &R) {
  const serve::Json *Ok = R.find("ok");
  return Ok && Ok->isBool() && Ok->asBool();
}

TEST(Session, AnswersDeliveryQueriesExactly) {
  auto Svc = serve::Service::create({}, nullptr);
  ASSERT_TRUE(Svc);
  serve::Session S(*Svc);
  serve::Json R = roundTrip(
      S, "{\"verb\":\"query\",\"query\":\"delivery\",\"id\":3,"
         "\"program\":\"if sw=1 then (pt:=2 +[1/3] drop) else pt:=1\","
         "\"inputs\":[{\"sw\":1},{\"sw\":0}]}");
  ASSERT_TRUE(okOf(R)) << R.dump();
  EXPECT_EQ(R.find("id")->asInt(), 3);
  ASSERT_EQ(R.find("results")->elements().size(), 2u);
  EXPECT_EQ(R.find("results")->elements()[0].asString(), "1/3");
  EXPECT_EQ(R.find("results")->elements()[1].asString(), "1");
  EXPECT_EQ(R.find("average")->asString(), "2/3");
}

TEST(Session, ReusesTheCompiledProgramAcrossABatch) {
  auto Svc = serve::Service::create({}, nullptr);
  ASSERT_TRUE(Svc);
  serve::Session S(*Svc);
  std::string Compile = std::string("{\"verb\":\"compile\",\"program\":\"") +
                        BigProgram + "\"}";
  serve::Json First = roundTrip(S, Compile);
  ASSERT_TRUE(okOf(First)) << First.dump();
  EXPECT_FALSE(First.find("sessionCached")->asBool());
  serve::Json Second = roundTrip(S, Compile);
  ASSERT_TRUE(okOf(Second));
  EXPECT_TRUE(Second.find("sessionCached")->asBool());
}

TEST(Session, AnswersHopStatsAndComparisons) {
  auto Svc = serve::Service::create({}, nullptr);
  ASSERT_TRUE(Svc);
  serve::Session S(*Svc);
  serve::Json R = roundTrip(
      S, "{\"verb\":\"query\",\"query\":\"hop-stats\",\"hopField\":\"h\","
         "\"program\":\"if sw=1 then h:=1 else drop\","
         "\"inputs\":[{\"sw\":1},{\"sw\":2}]}");
  ASSERT_TRUE(okOf(R)) << R.dump();
  EXPECT_EQ(R.find("delivered")->asString(), "1/2");
  EXPECT_EQ(R.find("histogram")->find("1")->asString(), "1/2");

  serve::Json Eq = roundTrip(
      S, "{\"verb\":\"query\",\"query\":\"equivalent\","
         "\"program\":\"sw:=1 ; sw:=2\",\"program2\":\"sw:=2\"}");
  ASSERT_TRUE(okOf(Eq)) << Eq.dump();
  EXPECT_TRUE(Eq.find("holds")->asBool());
  serve::Json Ref = roundTrip(
      S, "{\"verb\":\"query\",\"query\":\"refines\","
         "\"program\":\"drop\",\"program2\":\"sw:=1\"}");
  ASSERT_TRUE(okOf(Ref)) << Ref.dump();
  EXPECT_TRUE(Ref.find("holds")->asBool());
}

TEST(Session, LintVerbReportsAndClearsFindings) {
  auto Svc = serve::Service::create({}, nullptr);
  ASSERT_TRUE(Svc);
  serve::Session S(*Svc);
  serve::Json R = roundTrip(
      S, "{\"verb\":\"lint\",\"program\":"
         "\"meter:=7; (if sw=1 then skip else drop)\"}");
  ASSERT_TRUE(okOf(R)) << R.dump();
  EXPECT_FALSE(R.find("clean")->asBool());
  const serve::Json *Fs = R.find("findings");
  ASSERT_NE(Fs, nullptr);
  ASSERT_FALSE(Fs->elements().empty());
  const serve::Json &First = Fs->elements()[0];
  EXPECT_EQ(First.find("check")->asString(), "write-only-field");
  EXPECT_EQ(First.find("line")->asInt(), 1);
  EXPECT_NE(First.find("message")->asString().find("meter"),
            std::string::npos);

  serve::Json Clean = roundTrip(
      S, "{\"verb\":\"lint\",\"program\":\"(if sw=1 then pt:=1 else pt:=2);"
         " (if pt=1 then skip else drop)\"}");
  ASSERT_TRUE(okOf(Clean)) << Clean.dump();
  EXPECT_TRUE(Clean.find("clean")->asBool());
  EXPECT_TRUE(Clean.find("findings")->elements().empty());
}

TEST(Session, SlicedQueriesMatchUnslicedAndCountInStats) {
  auto Svc = serve::Service::create({}, nullptr);
  ASSERT_TRUE(Svc);
  serve::Session S(*Svc);
  // The meter writes are invisible to delivery, so the sliced compile must
  // drop them yet answer with the same exact rationals.
  const char *Query = "\"verb\":\"query\",\"query\":\"delivery\","
                      "\"program\":\"meter:=7; (if sw=1 then (pt:=2 +[1/3] "
                      "drop) else meter:=1)\","
                      "\"inputs\":[{\"sw\":1},{\"sw\":0}]";
  serve::Json Plain = roundTrip(S, std::string("{") + Query + "}");
  ASSERT_TRUE(okOf(Plain)) << Plain.dump();
  serve::Json Sliced =
      roundTrip(S, std::string("{") + Query + ",\"slice\":true}");
  ASSERT_TRUE(okOf(Sliced)) << Sliced.dump();
  EXPECT_EQ(Sliced.find("results")->dump(), Plain.find("results")->dump());
  EXPECT_EQ(Sliced.find("average")->asString(),
            Plain.find("average")->asString());
  const serve::Json *Sl = Sliced.find("slice");
  ASSERT_NE(Sl, nullptr) << Sliced.dump();
  EXPECT_GE(Sl->find("assignmentsRemoved")->asInt(), 2);
  EXPECT_LT(Sl->find("nodesAfter")->asInt(),
            Sl->find("nodesBefore")->asInt());
  // Unsliced responses carry no slice report.
  EXPECT_EQ(Plain.find("slice"), nullptr);

  serve::Json Stats = roundTrip(S, "{\"verb\":\"stats\"}");
  ASSERT_TRUE(okOf(Stats)) << Stats.dump();
  const serve::Json *Agg = Stats.find("slice");
  ASSERT_NE(Agg, nullptr);
  EXPECT_EQ(Agg->find("requests")->asInt(), 1);
  EXPECT_GE(Agg->find("assignmentsRemoved")->asInt(), 2);
}

//===----------------------------------------------------------------------===//
// The front-end memo (lint findings and sliced results per program text)
//===----------------------------------------------------------------------===//

/// One counter of the stats verb's "memo" object.
int64_t memoStat(serve::Session &S, const char *Counter) {
  serve::Json Stats = roundTrip(S, "{\"verb\":\"stats\"}");
  const serve::Json *Memo = Stats.find("memo");
  EXPECT_NE(Memo, nullptr) << Stats.dump();
  return Memo ? Memo->find(Counter)->asInt() : -1;
}

/// A program with both lint findings (the meter writes are never read)
/// and something for a delivery or hop-counter slice to remove.
const char *MemoProgram =
    "meter:=7; (if sw=1 then (pt:=2 ; h:=1 +[1/3] drop) "
    "else (meter:=1 ; h:=2))";

std::string slicedQuery(const std::string &Query, const char *Solver) {
  std::string Line = std::string("{\"verb\":\"query\",\"query\":\"") +
                     Query + "\",\"solver\":\"" + Solver +
                     "\",\"slice\":true,\"program\":\"" + MemoProgram +
                     "\",\"inputs\":[{\"sw\":1},{\"sw\":0}]";
  if (Query == "hop-stats")
    Line += ",\"hopField\":\"h\"";
  return Line + "}";
}

std::string lintRequest(const std::string &Program, const std::string &File) {
  return "{\"verb\":\"lint\",\"program\":\"" + Program + "\",\"file\":\"" +
         File + "\"}";
}

TEST(FrontEndMemo, LintHitAppliesTheNewFileLabel) {
  auto Svc = serve::Service::create({}, nullptr);
  ASSERT_TRUE(Svc);
  serve::Session S(*Svc);
  serve::Json First = roundTrip(S, lintRequest(MemoProgram, "a.pnk"));
  ASSERT_TRUE(okOf(First)) << First.dump();
  ASSERT_FALSE(First.find("findings")->elements().empty());
  serve::Json Second = roundTrip(S, lintRequest(MemoProgram, "b.pnk"));
  ASSERT_TRUE(okOf(Second)) << Second.dump();
  EXPECT_EQ(memoStat(S, "hits"), 1);
  EXPECT_EQ(memoStat(S, "misses"), 1);
  EXPECT_EQ(memoStat(S, "entries"), 1);

  // Same findings, relabelled: exactly the first response with every
  // "a.pnk" replaced.
  const auto &A = First.find("findings")->elements();
  const auto &B = Second.find("findings")->elements();
  ASSERT_EQ(A.size(), B.size());
  for (std::size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].find("file")->asString(), "a.pnk");
    EXPECT_EQ(B[I].find("file")->asString(), "b.pnk");
    serve::Json Relabelled = A[I];
    Relabelled.set("file", serve::Json::string("b.pnk"));
    EXPECT_EQ(Relabelled.dump(), B[I].dump());
  }
  EXPECT_EQ(First.find("clean")->dump(), Second.find("clean")->dump());
}

TEST(FrontEndMemo, SlicedHitsAreByteIdentical) {
  auto Svc = serve::Service::create({}, nullptr);
  ASSERT_TRUE(Svc);
  serve::Session S(*Svc);
  for (const char *Query : {"delivery", "hop-stats"}) {
    std::string Line = slicedQuery(Query, "exact");
    std::string First = S.handleLine(Line);
    serve::Json R;
    ASSERT_TRUE(serve::parseJson(First, R, nullptr));
    ASSERT_TRUE(okOf(R)) << First;
    ASSERT_NE(R.find("slice"), nullptr) << First;
    EXPECT_GE(R.find("slice")->find("assignmentsRemoved")->asInt(), 1);
    for (int Repeat = 0; Repeat < 3; ++Repeat)
      EXPECT_EQ(S.handleLine(Line), First) << Query;
  }
  EXPECT_EQ(memoStat(S, "misses"), 2);
  EXPECT_EQ(memoStat(S, "hits"), 6);
  EXPECT_EQ(memoStat(S, "entries"), 2);
  // The slice counters still count every sliced request, hits included.
  EXPECT_EQ(Svc->sliceRequests(), 8u);

  // A fresh session on the same service answers from the memo too, and a
  // fresh service without a store (a restart with nothing to warm from)
  // recomputes the same bytes.
  serve::Session Other(*Svc);
  std::string Line = slicedQuery("delivery", "exact");
  std::string Hit = Other.handleLine(Line);
  EXPECT_EQ(memoStat(Other, "hits"), 7);
  auto Restarted = serve::Service::create({}, nullptr);
  ASSERT_TRUE(Restarted);
  serve::Session Cold(*Restarted);
  EXPECT_EQ(Cold.handleLine(Line), Hit);
  EXPECT_EQ(memoStat(Cold, "hits"), 0);
  EXPECT_EQ(memoStat(Cold, "entries"), 1);
}

TEST(FrontEndMemo, ParseErrorsAndUnguardedProgramsAreNeverMemoized) {
  auto Svc = serve::Service::create({}, nullptr);
  ASSERT_TRUE(Svc);
  serve::Session S(*Svc);
  const std::string Bad[] = {
      lintRequest("sw:=", "x.pnk"),
      "{\"verb\":\"query\",\"query\":\"delivery\",\"slice\":true,"
      "\"program\":\"sw:=\",\"inputs\":[{\"sw\":1}]}",
      "{\"verb\":\"query\",\"query\":\"delivery\",\"slice\":true,"
      "\"program\":\"(sw:=1)*\",\"inputs\":[{\"sw\":1}]}",
      "{\"verb\":\"query\",\"query\":\"hop-stats\",\"slice\":true,"
      "\"program\":\"(sw:=1)*\",\"inputs\":[{\"sw\":1}],\"hopField\":\"sw\"}",
  };
  for (const std::string &Line : Bad) {
    std::string First = S.handleLine(Line);
    serve::Json R;
    ASSERT_TRUE(serve::parseJson(First, R, nullptr));
    EXPECT_FALSE(okOf(R)) << Line << " -> " << First;
    for (int Repeat = 0; Repeat < 2; ++Repeat)
      EXPECT_EQ(S.handleLine(Line), First) << Line;
  }
  EXPECT_EQ(memoStat(S, "entries"), 0);
  EXPECT_EQ(memoStat(S, "hits"), 0);
  // Only the lint requests reach the memo before failing (the sliced path
  // parses and checks guardedness first); each of them missed.
  EXPECT_EQ(memoStat(S, "misses"), 3);
}

TEST(FrontEndMemo, SolverKindsGetDistinctEntries) {
  auto Svc = serve::Service::create({}, nullptr);
  ASSERT_TRUE(Svc);
  serve::Session S(*Svc);
  const char *Solvers[] = {"exact", "direct", "iterative"};
  std::vector<std::string> First;
  for (const char *Solver : Solvers)
    First.push_back(S.handleLine(slicedQuery("delivery", Solver)));
  EXPECT_EQ(memoStat(S, "entries"), 3);
  EXPECT_EQ(memoStat(S, "hits"), 0);
  for (std::size_t I = 0; I < 3; ++I)
    EXPECT_EQ(S.handleLine(slicedQuery("delivery", Solvers[I])), First[I]);
  EXPECT_EQ(memoStat(S, "hits"), 3);
  // "modular-exact" is a synonym of "exact": it shares the exact entry
  // and gets the exact answer.
  EXPECT_EQ(S.handleLine(slicedQuery("delivery", "modular-exact")),
            First[0]);
  EXPECT_EQ(memoStat(S, "entries"), 3);
  EXPECT_EQ(memoStat(S, "hits"), 4);
}

TEST(FrontEndMemo, EvictsAtCapacityAndStillAnswersIdentically) {
  serve::Service::Options Opts;
  Opts.CacheCapacity = 2;
  auto Svc = serve::Service::create(Opts, nullptr);
  ASSERT_TRUE(Svc);
  serve::Session S(*Svc);
  const std::string Lines[] = {
      lintRequest(MemoProgram, "m.pnk"),
      slicedQuery("delivery", "exact"),
      slicedQuery("hop-stats", "exact"),
      lintRequest("sw:=1 ; pt:=2", "n.pnk"),
  };
  std::vector<std::string> First;
  for (const std::string &Line : Lines)
    First.push_back(S.handleLine(Line));
  for (int Round = 0; Round < 3; ++Round)
    for (std::size_t I = 0; I < 4; ++I)
      EXPECT_EQ(S.handleLine(Lines[I]), First[I]) << Lines[I];
  EXPECT_EQ(memoStat(S, "entries"), 2);
  // Four keys cycling through two slots: LRU evicts each before its turn
  // comes round again, so every request missed.
  EXPECT_EQ(memoStat(S, "hits"), 0);
  EXPECT_EQ(memoStat(S, "misses"), 16);
  // The two most recent keys are resident, so repeating them hits.
  EXPECT_EQ(S.handleLine(Lines[3]), First[3]);
  EXPECT_EQ(S.handleLine(Lines[2]), First[2]);
  EXPECT_EQ(memoStat(S, "hits"), 2);
}

TEST(Session, RejectsBadRequestsWithoutDying) {
  auto Svc = serve::Service::create({}, nullptr);
  ASSERT_TRUE(Svc);
  serve::Session S(*Svc);
  const char *Bad[] = {
      "not json at all",
      "[1,2,3]",
      "{\"noVerb\":1}",
      "{\"verb\":\"frobnicate\"}",
      "{\"verb\":\"compile\"}",
      "{\"verb\":\"compile\",\"program\":\"sw:=\"}",
      "{\"verb\":\"compile\",\"program\":\"(sw:=1)*\"}",
      "{\"verb\":\"compile\",\"program\":\"sw:=1\",\"solver\":\"quantum\"}",
      "{\"verb\":\"query\",\"program\":\"sw:=1\",\"query\":\"delivery\"}",
      "{\"verb\":\"query\",\"program\":\"sw:=1\",\"query\":\"delivery\","
      "\"inputs\":[{\"nosuch\":1}]}",
      "{\"verb\":\"query\",\"program\":\"sw:=1\",\"query\":\"hop-stats\","
      "\"inputs\":[{\"sw\":1}],\"hopField\":\"missing\"}",
      "{\"verb\":\"query\",\"program\":\"sw:=1\",\"query\":\"nope\","
      "\"inputs\":[{\"sw\":1}]}",
  };
  for (const char *Line : Bad) {
    serve::Json R = roundTrip(S, Line);
    EXPECT_FALSE(okOf(R)) << Line << " -> " << R.dump();
    ASSERT_NE(R.find("error"), nullptr);
    EXPECT_FALSE(R.find("error")->asString().empty());
  }
  // The session is still healthy after the error barrage.
  serve::Json R = roundTrip(S, "{\"verb\":\"query\",\"query\":\"delivery\","
                               "\"program\":\"sw:=1\","
                               "\"inputs\":[{\"sw\":5}]}");
  EXPECT_TRUE(okOf(R)) << R.dump();
  EXPECT_EQ(Svc->errors(), sizeof(Bad) / sizeof(Bad[0]));
}

TEST(Session, TooManyFieldNamesIsAParseErrorNotAnAbort) {
  // One name more than the field table holds must be a parse error, not
  // a fatalError that would take every session down.
  std::string Program;
  for (std::size_t I = 0; I <= FieldTable::MaxFields; ++I)
    Program += (I ? " ; f" : "f") + std::to_string(I) + "=1";
  auto Svc = serve::Service::create({}, nullptr);
  ASSERT_TRUE(Svc);
  serve::Session S(*Svc);
  for (const char *Verb : {"parse", "compile"}) {
    serve::Json R = roundTrip(S, std::string("{\"verb\":\"") + Verb +
                                     "\",\"program\":\"" + Program + "\"}");
    EXPECT_FALSE(okOf(R)) << Verb;
    ASSERT_NE(R.find("error"), nullptr) << Verb;
    EXPECT_NE(R.find("error")->asString().find("too many distinct field names"),
              std::string::npos)
        << R.find("error")->asString();
  }
  // The session answers the next request.
  serve::Json R = roundTrip(S, "{\"verb\":\"query\",\"query\":\"delivery\","
                               "\"program\":\"sw:=1\","
                               "\"inputs\":[{\"sw\":5}]}");
  EXPECT_TRUE(okOf(R)) << R.dump();
}

TEST(Session, OverLongDecimalProbabilityIsAParseErrorNotAnAbort) {
  // A decimal literal whose scale 10^digits passes BigInt::pow's bit cap
  // must be a parse error, not a fatalError that would take every session
  // down.
  std::string Program =
      "pt:=1 +[0." + std::string(1100000, '0') + "1] pt:=2";
  auto Svc = serve::Service::create({}, nullptr);
  ASSERT_TRUE(Svc);
  serve::Session S(*Svc);
  serve::Json R = roundTrip(S, "{\"verb\":\"compile\",\"program\":\"" +
                                   Program + "\"}");
  EXPECT_FALSE(okOf(R));
  ASSERT_NE(R.find("error"), nullptr);
  EXPECT_EQ(R.find("error")->asString(),
            "1:9: probability literal has a 1100001-digit number (the "
            "limit is 8192)");
  // The session answers the next request.
  R = roundTrip(S, "{\"verb\":\"query\",\"query\":\"delivery\","
                   "\"program\":\"sw:=1\","
                   "\"inputs\":[{\"sw\":5}]}");
  EXPECT_TRUE(okOf(R)) << R.dump();
}

TEST(Session, DeepChainsAnswerOnASessionThread) {
  // A 200k-element `sw=1 ; pt:=0 ; sw=1 ; pt:=1 ; …` chain parses to a
  // 200k-deep `;` spine. Every pass these verbs run over socket input
  // must walk it with an explicit stack: a recursive walk overflows the
  // session thread's stack and takes the daemon down with it.
  std::string Chain = "sw=1";
  for (unsigned I = 1; I < 200000; ++I)
    Chain += I % 2 ? (I % 4 == 1 ? " ; pt:=0" : " ; pt:=1") : " ; sw=1";
  const std::string Lines[] = {
      "{\"verb\":\"parse\",\"program\":\"" + Chain + "\"}",
      lintRequest(Chain, "deep.pnk"),
      "{\"verb\":\"query\",\"query\":\"delivery\",\"slice\":true,"
      "\"program\":\"" + Chain + "\",\"inputs\":[{\"sw\":1},{\"sw\":2}]}",
      "{\"verb\":\"query\",\"query\":\"delivery\",\"program\":\"sw:=1\","
      "\"inputs\":[{\"sw\":5}]}",
  };
  auto Svc = serve::Service::create({}, nullptr);
  ASSERT_TRUE(Svc);
  std::vector<std::string> Responses;
  std::thread Worker([&] {
    serve::Session S(*Svc);
    for (const std::string &Line : Lines)
      Responses.push_back(S.handleLine(Line));
  });
  Worker.join();
  ASSERT_EQ(Responses.size(), 4u);
  std::vector<serve::Json> R(4);
  for (std::size_t I = 0; I < 4; ++I) {
    std::string Error;
    ASSERT_TRUE(serve::parseJson(Responses[I], R[I], &Error)) << Error;
    const serve::Json *Message = R[I].find("error");
    EXPECT_TRUE(okOf(R[I]) || (Message && Message->isString()))
        << "response " << I << " is neither ok nor a structured error";
  }
  ASSERT_TRUE(okOf(R[0])) << R[0].dump();
  EXPECT_EQ(R[0].find("depth")->asInt(), 200000);
  EXPECT_TRUE(R[0].find("guarded")->asBool());
  if (okOf(R[2])) {
    EXPECT_EQ(R[2].find("results")->dump(), "[\"1\",\"0\"]");
  }
  // The session is still healthy afterwards.
  EXPECT_TRUE(okOf(R[3])) << R[3].dump();
}

TEST(Session, StatsGcAndShutdownVerbsWork) {
  auto Svc = serve::Service::create({}, nullptr);
  ASSERT_TRUE(Svc);
  serve::Session S(*Svc);
  roundTrip(S, std::string("{\"verb\":\"compile\",\"program\":\"") +
                   BigProgram + "\"}");
  serve::Json Stats = roundTrip(S, "{\"verb\":\"stats\"}");
  ASSERT_TRUE(okOf(Stats)) << Stats.dump();
  ASSERT_NE(Stats.find("cache"), nullptr);
  EXPECT_GE(Stats.find("cache")->find("insertions")->asInt(), 1);
  serve::Json Gc = roundTrip(S, "{\"verb\":\"gc\"}");
  EXPECT_TRUE(okOf(Gc)) << Gc.dump();
  bool Shutdown = false;
  serve::Json Bye = roundTrip(S, "{\"verb\":\"shutdown\"}", &Shutdown);
  EXPECT_TRUE(okOf(Bye));
  EXPECT_TRUE(Shutdown);
}

TEST(Session, StdioLoopServesUntilShutdown) {
  auto Svc = serve::Service::create({}, nullptr);
  ASSERT_TRUE(Svc);
  std::istringstream In(
      "{\"verb\":\"parse\",\"program\":\"sw:=1 ; pt:=2\"}\n"
      "\n"
      "{\"verb\":\"shutdown\"}\n"
      "{\"verb\":\"stats\"}\n"); // After shutdown: must not be served.
  std::ostringstream Out;
  EXPECT_EQ(serve::runStdio(*Svc, In, Out), 2u);
  std::istringstream Lines(Out.str());
  std::string Line;
  ASSERT_TRUE(std::getline(Lines, Line));
  serve::Json R;
  std::string Error;
  ASSERT_TRUE(serve::parseJson(Line, R, &Error)) << Error;
  EXPECT_TRUE(okOf(R));
  EXPECT_EQ(R.find("nodes")->asInt(), 3);
  EXPECT_TRUE(R.find("guarded")->asBool());
}

//===----------------------------------------------------------------------===//
// Persistence through the Service (cold -> warm restart)
//===----------------------------------------------------------------------===//

TEST(Service, RestartAnswersFromTheDiskStore) {
  std::string Path = tempPath("service");
  std::string Query =
      std::string("{\"verb\":\"query\",\"query\":\"delivery\",\"program\":"
                  "\"") +
      BigProgram + "\",\"inputs\":[{\"sw\":1},{\"sw\":2}]}";
  std::string ColdDump, WarmDump;
  {
    serve::Service::Options Opts;
    Opts.StorePath = Path;
    std::string Error;
    auto Svc = serve::Service::create(Opts, &Error);
    ASSERT_TRUE(Svc) << Error;
    EXPECT_EQ(Svc->warmedEntries(), 0u);
    serve::Session S(*Svc);
    serve::Json R = roundTrip(S, Query);
    ASSERT_TRUE(okOf(R)) << R.dump();
    ColdDump = R.find("results")->dump();
    // The compile's cache misses were appended to disk by the observer.
    ASSERT_TRUE(Svc->store());
    EXPECT_GE(Svc->store()->stats().Appends, 1u);
  }
  {
    serve::Service::Options Opts;
    Opts.StorePath = Path;
    std::string Error;
    auto Svc = serve::Service::create(Opts, &Error);
    ASSERT_TRUE(Svc) << Error;
    // Restart is warm: the store loaded at least the top-level entry.
    EXPECT_GE(Svc->warmedEntries(), 1u);
    serve::Session S(*Svc);
    serve::Json R = roundTrip(S, Query);
    ASSERT_TRUE(okOf(R)) << R.dump();
    WarmDump = R.find("results")->dump();
    // The warm compile hit the cache instead of recompiling.
    EXPECT_GE(Svc->cache().stats().Hits, 1u);
    // Nothing new was appended: the entries were already on disk.
    EXPECT_EQ(Svc->store()->stats().Appends, 0u);
  }
  EXPECT_EQ(ColdDump, WarmDump);
  std::remove(Path.c_str());
}

TEST(Service, RejectedMemoRecordTruncatesTheStoreTail) {
  std::string Path = tempPath("memo_reject");
  serve::Service::Options Opts;
  Opts.StorePath = Path;
  std::string Error;
  std::size_t GoodSize = 0;
  {
    auto Svc = serve::Service::create(Opts, &Error);
    ASSERT_TRUE(Svc) << Error;
    serve::Session S(*Svc);
    ASSERT_TRUE(okOf(roundTrip(S, "{\"verb\":\"lint\",\"program\":"
                                  "\"meter:=7; sw:=1\"}")));
    GoodSize = Svc->store()->stats().FileBytes;
  }
  // A checksummed sliced record whose diagram fails validation, then a
  // good lint record: the store keeps neither.
  auto Entries = sampleMemoEntries();
  serve::MemoValue Invalid = Entries[1].second;
  Invalid.Diagram = std::make_shared<const fdd::PortableFdd>(halfLeafDiagram());
  appendRawRecord(Path, serve::encodeMemoRecord(Entries[1].first, Invalid));
  appendRawRecord(Path,
                  serve::encodeMemoRecord(Entries[0].first, Entries[0].second));
  auto Svc = serve::Service::create(Opts, &Error);
  ASSERT_TRUE(Svc) << Error;
  EXPECT_EQ(Svc->warmedMemoEntries(), 1u);
  EXPECT_EQ(Svc->memoEntries(), 1u);
  EXPECT_EQ(Svc->store()->stats().CorruptRecordsDropped, 1u);
  EXPECT_GT(Svc->store()->stats().TornBytesDropped, 0u);
  EXPECT_EQ(readFileBytes(Path).size(), GoodSize);
  // Opened without a decoder, the store keeps memo records unread.
  Svc.reset();
  auto Plain = fdd::CacheStore::open(Path, &Error);
  ASSERT_TRUE(Plain) << Error;
  EXPECT_EQ(Plain->stats().LiveRecords, 1u);
  EXPECT_EQ(Plain->stats().TornBytesDropped, 0u);
  std::remove(Path.c_str());
}

TEST(Service, RestartAnswersLintAndSlicedQueriesFromTheStore) {
  std::string Path = tempPath("memo_restart");
  serve::Service::Options Opts;
  Opts.StorePath = Path;
  const std::string Lines[] = {
      lintRequest(MemoProgram, "a.pnk"),
      slicedQuery("delivery", "exact"),
      slicedQuery("hop-stats", "exact"),
      slicedQuery("delivery", "direct"),
  };
  std::vector<std::string> Cold;
  std::string Error;
  {
    auto Svc = serve::Service::create(Opts, &Error);
    ASSERT_TRUE(Svc) << Error;
    EXPECT_EQ(Svc->warmedMemoEntries(), 0u);
    serve::Session S(*Svc);
    for (const std::string &Line : Lines)
      Cold.push_back(S.handleLine(Line));
    EXPECT_EQ(memoStat(S, "misses"), 4);
  }
  auto Svc = serve::Service::create(Opts, &Error);
  ASSERT_TRUE(Svc) << Error;
  EXPECT_EQ(Svc->warmedMemoEntries(), 4u);
  serve::Session S(*Svc);
  for (std::size_t I = 0; I < 4; ++I)
    EXPECT_EQ(S.handleLine(Lines[I]), Cold[I]) << Lines[I];
  // The stored findings take the new request's label.
  serve::Json First, Relabelled;
  ASSERT_TRUE(serve::parseJson(Cold[0], First, nullptr));
  Relabelled = roundTrip(S, lintRequest(MemoProgram, "b.pnk"));
  ASSERT_TRUE(okOf(Relabelled)) << Relabelled.dump();
  serve::Json Findings = *First.find("findings");
  ASSERT_FALSE(Findings.elements().empty());
  serve::Json Want = serve::Json::array();
  for (serve::Json F : Findings.elements()) {
    F.set("file", serve::Json::string("b.pnk"));
    Want.push(std::move(F));
  }
  EXPECT_EQ(Relabelled.find("findings")->dump(), Want.dump());
  // No lint or slice ran and nothing was appended.
  EXPECT_EQ(memoStat(S, "misses"), 0);
  EXPECT_EQ(memoStat(S, "hits"), 5);
  EXPECT_EQ(Svc->store()->stats().Appends, 0u);
  EXPECT_EQ(Svc->sliceRequests(), 3u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Concurrent sessions (the TSan target)
//===----------------------------------------------------------------------===//

TEST(Service, ConcurrentSessionsShareOneCacheAndStore) {
  std::string Path = tempPath("concurrent");
  serve::Service::Options Opts;
  Opts.StorePath = Path;
  std::string Error;
  auto Svc = serve::Service::create(Opts, &Error);
  ASSERT_TRUE(Svc) << Error;

  // Each thread runs its own session (sessions are single-owner; the
  // Service is the shared surface): same program family, so every thread
  // races on the same cache keys and the same store file.
  constexpr unsigned NumThreads = 8;
  constexpr unsigned Rounds = 6;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&Svc, &Failures] {
      serve::Session S(*Svc);
      for (unsigned I = 0; I < Rounds; ++I) {
        std::string Query =
            std::string("{\"verb\":\"query\",\"query\":\"delivery\","
                        "\"program\":\"") +
            BigProgram + "\",\"inputs\":[{\"sw\":1}]}";
        serve::Json R;
        std::string ParseError;
        if (!serve::parseJson(S.handleLine(Query), R, &ParseError) ||
            !okOf(R) ||
            R.find("results")->elements()[0].asString() != "1")
          ++Failures;
        if (!okOf(roundTrip(S, "{\"verb\":\"stats\"}")))
          ++Failures;
        if (!okOf(roundTrip(S, "{\"verb\":\"gc\"}")))
          ++Failures;
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(Svc->errors(), 0u);
  // Exactly-once persistence under racing sessions: every record on disk
  // is a distinct (fingerprint, solver) — duplicate inserts never reach
  // the observer, so the only dead records would come from recompiles,
  // of which there are none here.
  EXPECT_EQ(Svc->store()->stats().DeadRecords, 0u);
  std::remove(Path.c_str());
}

TEST(Service, ConcurrentSessionsSharePooledBlockSolves) {
  // Concurrent sessions each run serial exact loop solves on their own
  // thread, half of them requested under the "modular-exact" synonym.
  // Each request's program is distinct, so no solve is answered from the
  // shared compile cache.
  std::string Error;
  auto Svc = serve::Service::create({}, &Error);
  ASSERT_TRUE(Svc) << Error;

  constexpr unsigned NumThreads = 4;
  constexpr unsigned Rounds = 4;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&Svc, &Failures, T] {
      serve::Session S(*Svc);
      for (unsigned I = 0; I < Rounds; ++I) {
        // sw=4 feeds the strongly connected pair {sw=1, sw=2}, so the
        // chain has two blocks. From sw=1 the packet reaches sw=3 with
        // probability p = 1/2 + p/(2K), i.e. K/(2K-1).
        int64_t K = 2 + T * Rounds + I;
        std::string Program =
            "while !sw=3 do (if sw=1 then (sw:=2 +[1/2] sw:=3) else "
            "if sw=2 then (sw:=1 +[1/" +
            std::to_string(K) + "] drop) else sw:=1)";
        std::string Query =
            std::string("{\"verb\":\"query\",\"query\":\"delivery\","
                        "\"solver\":\"") +
            (I % 2 ? "modular-exact" : "exact") + "\",\"program\":\"" +
            Program + "\",\"inputs\":[{\"sw\":1},{\"sw\":4}]}";
        serve::Json R;
        std::string ParseError;
        std::string Want = Rational(K, 2 * K - 1).toString();
        if (!serve::parseJson(S.handleLine(Query), R, &ParseError) ||
            !okOf(R) || R.find("results")->elements().size() != 2 ||
            R.find("results")->elements()[0].asString() != Want ||
            R.find("results")->elements()[1].asString() != Want)
          ++Failures;
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(Svc->errors(), 0u);
}

TEST(Service, ConcurrentSessionsShareTheFrontEndMemo) {
  // Four sessions send the same lint and sliced requests at once: they
  // race on the same memo keys (lookups, duplicate inserts, recency
  // splices), the TSan target for the memo. Every response must equal
  // the one a lone session on a separate service gives.
  const std::string Lines[] = {
      lintRequest(MemoProgram, "c.pnk"),
      slicedQuery("delivery", "exact"),
      slicedQuery("hop-stats", "exact"),
      slicedQuery("delivery", "direct"),
  };
  std::vector<std::string> Want;
  {
    auto Reference = serve::Service::create({}, nullptr);
    ASSERT_TRUE(Reference);
    serve::Session S(*Reference);
    for (const std::string &Line : Lines)
      Want.push_back(S.handleLine(Line));
  }

  auto Svc = serve::Service::create({}, nullptr);
  ASSERT_TRUE(Svc);
  constexpr unsigned NumThreads = 4;
  constexpr unsigned Rounds = 5;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&] {
      serve::Session S(*Svc);
      for (unsigned I = 0; I < Rounds; ++I)
        for (std::size_t L = 0; L < 4; ++L)
          if (S.handleLine(Lines[L]) != Want[L])
            ++Failures;
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(Svc->errors(), 0u);
  EXPECT_EQ(Svc->memoEntries(), 4u);
  EXPECT_EQ(Svc->memoHits() + Svc->memoMisses(),
            uint64_t{NumThreads} * Rounds * 4);
  // Racing sessions can each miss a key before the first insert lands,
  // but every repeat after that hits.
  EXPECT_GE(Svc->memoHits(), uint64_t{NumThreads} * (Rounds - 1) * 4);
}

TEST(Service, ConcurrentSessionsShareTheRestoredMemo) {
  // A cold service fills the store; after a restart four sessions send
  // the same lint and sliced requests at once. Every answer comes from the
  // warmed memo, byte-identical to the cold one, and nothing is appended.
  std::string Path = tempPath("memo_concurrent");
  serve::Service::Options Opts;
  Opts.StorePath = Path;
  const std::string Lines[] = {
      lintRequest(MemoProgram, "c.pnk"),
      slicedQuery("delivery", "exact"),
      slicedQuery("hop-stats", "exact"),
      slicedQuery("delivery", "iterative"),
  };
  std::vector<std::string> Want;
  std::string Error;
  {
    auto Cold = serve::Service::create(Opts, &Error);
    ASSERT_TRUE(Cold) << Error;
    serve::Session S(*Cold);
    for (const std::string &Line : Lines)
      Want.push_back(S.handleLine(Line));
  }

  auto Svc = serve::Service::create(Opts, &Error);
  ASSERT_TRUE(Svc) << Error;
  constexpr unsigned NumThreads = 4;
  constexpr unsigned Rounds = 5;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&] {
      serve::Session S(*Svc);
      for (unsigned I = 0; I < Rounds; ++I)
        for (std::size_t L = 0; L < 4; ++L)
          if (S.handleLine(Lines[L]) != Want[L])
            ++Failures;
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(Svc->errors(), 0u);
  EXPECT_EQ(Svc->memoMisses(), 0u);
  EXPECT_EQ(Svc->memoHits(), uint64_t{NumThreads} * Rounds * 4);
  EXPECT_EQ(Svc->store()->stats().Appends, 0u);
  std::remove(Path.c_str());
}

TEST(TcpServer, ServesLoopbackClients) {
  auto Svc = serve::Service::create({}, nullptr);
  ASSERT_TRUE(Svc);
  serve::TcpServer Server(*Svc);
  std::string Error;
  ASSERT_TRUE(Server.start(0, &Error)) << Error;
  ASSERT_NE(Server.port(), 0);
  // A tiny blocking client: connect, send two requests, read two lines.
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Server.port());
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);
  std::string Request =
      "{\"verb\":\"query\",\"query\":\"delivery\",\"program\":\"sw:=1\","
      "\"inputs\":[{\"sw\":3}]}\n{\"verb\":\"shutdown\"}\n";
  ASSERT_EQ(::write(Fd, Request.data(), Request.size()),
            static_cast<ssize_t>(Request.size()));
  std::string Received;
  char Chunk[4096];
  ssize_t N = 0;
  while ((N = ::read(Fd, Chunk, sizeof(Chunk))) > 0)
    Received.append(Chunk, static_cast<std::size_t>(N));
  ::close(Fd);
  Server.stop();
  // Two response lines, the first carrying the exact answer.
  std::istringstream Lines(Received);
  std::string First, Second;
  ASSERT_TRUE(std::getline(Lines, First));
  ASSERT_TRUE(std::getline(Lines, Second));
  serve::Json R;
  ASSERT_TRUE(serve::parseJson(First, R, &Error)) << Error;
  ASSERT_TRUE(okOf(R)) << R.dump();
  EXPECT_EQ(R.find("results")->elements()[0].asString(), "1");
}

} // namespace
