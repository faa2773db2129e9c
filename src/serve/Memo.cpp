//===----------------------------------------------------------------------===//
///
/// \file
/// The front-end memo's store records. After the store's u8 kind | u32 key
/// length header (fdd/CacheStore.cpp), with strings as u32 length + bytes:
///
///   Lint:    key   string text
///            value u32 #findings, each: u32 line | u32 col |
///                  string check | string message
///   Sliced:  key   u8 query (0 delivery, 1 hop-stats) | u8 solver |
///                  string hop field (empty for delivery) | string text
///            value u64 assignments removed | u64 nodes before |
///                  u64 nodes after | u64 fields before |
///                  u64 fields relevant | diagram
///
//===----------------------------------------------------------------------===//

#include "serve/Memo.h"

#include "fdd/CacheStore.h"

using namespace mcnk;
using namespace mcnk::serve;

std::size_t MemoKeyHasher::operator()(const MemoKey &K) const {
  std::hash<std::string> H;
  std::size_t Seed = H(K.Program);
  Seed = Seed * 31 + H(K.Query);
  Seed = Seed * 31 + static_cast<std::size_t>(K.Solver);
  return Seed * 31 + H(K.HopField);
}

std::vector<uint8_t> serve::encodeMemoRecord(const MemoKey &Key,
                                             const MemoValue &Value) {
  if (Key.Query == "lint") {
    fdd::RecordWriter W(fdd::RecordKind::Lint);
    W.string(Key.Program);
    W.endKey();
    W.u32(static_cast<uint32_t>(Value.Findings.size()));
    for (const LintEntry &E : Value.Findings) {
      W.u32(E.Line);
      W.u32(E.Col);
      W.string(E.Check);
      W.string(E.Message);
    }
    return W.take();
  }
  fdd::RecordWriter W(fdd::RecordKind::Sliced);
  W.u8(Key.Query == "hop-stats" ? 1 : 0);
  W.u8(static_cast<uint8_t>(Key.Solver));
  W.string(Key.HopField);
  W.string(Key.Program);
  W.endKey();
  const ast::SliceStats &S = Value.Slice;
  for (std::size_t N : {S.AssignmentsRemoved, S.NodesBefore, S.NodesAfter,
                        S.FieldsBefore, S.FieldsRelevant})
    W.u64(N);
  W.diagram(*Value.Diagram);
  return W.take();
}

bool serve::decodeMemoRecord(const uint8_t *Data, std::size_t Size,
                             MemoKey &Key, MemoValue &Value,
                             std::string *Error) {
  fdd::RecordReader R(Data, Size, Error);
  fdd::RecordKind Kind = fdd::RecordKind::Compile;
  if (!R.header(Kind))
    return false;
  Key = MemoKey();
  Value = MemoValue();
  if (Kind == fdd::RecordKind::Lint) {
    Key.Query = "lint";
    uint32_t Count = 0;
    // A finding is at least its two positions and two string lengths.
    if (!R.string(Key.Program, "program text") || !R.endKey() ||
        !R.count(Count, 16, "finding count"))
      return false;
    Value.Findings.resize(Count);
    for (LintEntry &E : Value.Findings)
      if (!R.u32(E.Line, "finding") || !R.u32(E.Col, "finding") ||
          !R.string(E.Check, "finding") || !R.string(E.Message, "finding"))
        return false;
    return R.finish();
  }
  if (Kind != fdd::RecordKind::Sliced)
    return R.fail("record kind");
  uint8_t Query = 0, Solver = 0;
  if (!R.u8(Query, "query") || !R.u8(Solver, "solver") ||
      !R.string(Key.HopField, "hop field") ||
      !R.string(Key.Program, "program text") || !R.endKey())
    return false;
  if (Query > 1)
    return R.fail("query");
  if (Solver > static_cast<uint8_t>(markov::SolverKind::Iterative))
    return R.fail("solver kind");
  // Only hop-stats observes a counter field, and it always names one.
  if (Key.HopField.empty() != (Query == 0))
    return R.fail("hop field");
  Key.Query = Query == 1 ? "hop-stats" : "delivery";
  Key.Solver = static_cast<markov::SolverKind>(Solver);
  ast::SliceStats &S = Value.Slice;
  for (std::size_t *N : {&S.AssignmentsRemoved, &S.NodesBefore,
                         &S.NodesAfter, &S.FieldsBefore, &S.FieldsRelevant}) {
    uint64_t V = 0;
    if (!R.u64(V, "slice stats"))
      return false;
    *N = static_cast<std::size_t>(V);
  }
  auto Diagram = std::make_shared<fdd::PortableFdd>();
  if (!R.diagram(*Diagram) || !R.finish())
    return false;
  Value.Diagram = std::move(Diagram);
  return true;
}
