//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's front-end memo (docs/ARCHITECTURE.md S16): lint findings
/// and sliced query results per program text, held in one LruCache
/// (support/Lru.h) and persisted as the CacheStore's Lint and Sliced
/// records, so a restarted daemon answers texts it has seen without
/// rerunning the AST passes. This file owns those records' layout; the
/// store only frames and checksums them.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_SERVE_MEMO_H
#define MCNK_SERVE_MEMO_H

#include "ast/Slice.h"
#include "fdd/Export.h"
#include "markov/Absorbing.h"
#include "serve/Lint.h"
#include "support/Lru.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mcnk {
namespace serve {

/// Front-end memo key. Always the exact program text: lint findings carry
/// source positions, which a structural fingerprint ignores. Lint entries
/// leave the rest at their defaults; sliced entries add the solver kind
/// and the query (plus the hop field for hop-stats), which fix the
/// observation set and the loop solutions.
struct MemoKey {
  std::string Program;
  /// "lint", "delivery" or "hop-stats".
  std::string Query;
  markov::SolverKind Solver = markov::SolverKind::Exact;
  std::string HopField;
  bool operator==(const MemoKey &R) const {
    return Solver == R.Solver && Query == R.Query &&
           HopField == R.HopField && Program == R.Program;
  }
};

struct MemoKeyHasher {
  std::size_t operator()(const MemoKey &K) const;
};

/// A memoized front-end result: the findings of a lint entry, or the
/// slice statistics and sliced root diagram of a sliced entry.
struct MemoValue {
  std::vector<LintEntry> Findings;
  ast::SliceStats Slice;
  std::shared_ptr<const fdd::PortableFdd> Diagram;
};

using FrontEndMemo = LruCache<MemoKey, MemoValue, MemoKeyHasher>;

/// One entry as a store payload: a Lint record (key: the text; value: the
/// findings) or a Sliced record (key: query, solver, hop field and text;
/// value: the slice statistics and the diagram).
std::vector<uint8_t> encodeMemoRecord(const MemoKey &Key,
                                      const MemoValue &Value);

/// Bounds-checked decode of one Lint or Sliced payload read from disk.
/// Returns false with a diagnostic in \p Error (when non-null) on any
/// malformed input: another record kind, truncation, trailing bytes,
/// lengths that overrun the payload, an unknown query or solver, or a
/// diagram that fails fdd::validateFdd.
bool decodeMemoRecord(const uint8_t *Data, std::size_t Size, MemoKey &Key,
                      MemoValue &Value, std::string *Error = nullptr);

} // namespace serve
} // namespace mcnk

#endif // MCNK_SERVE_MEMO_H
