//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived verification daemon (docs/ARCHITECTURE.md S16). The
/// paper's pipeline pays a large one-time compilation cost per program and
/// then answers queries against the compiled FDD almost for free; a
/// short-lived CLI throws that investment away on every invocation. This
/// layer keeps it: a Service owns the shared S12 CompileCache (warmed from
/// and persisted to an on-disk CacheStore), and each client connection
/// gets a Session, on its own thread, that multiplexes over it. A
/// request's loop solves run serially on its session's thread.
///
/// Protocol: line-delimited JSON. One request object per '\n'-terminated
/// line, one response object per line, strictly in order. Verbs:
///
///   {"verb":"parse",   "program":"..."}
///   {"verb":"compile", "program":"...", "solver":"exact"}
///   {"verb":"lint",    "program":"...", "file":"<label>"}   // diagnostics
///   {"verb":"query",   "program":"...", "query":"delivery",
///    "inputs":[{"sw":1,"pt":0}, ...]}                  // batched
///   {"verb":"query",   "program":"...", "query":"hop-stats",
///    "inputs":[...], "hopField":"hops"}
///   {"verb":"query",   "program":"...", "program2":"...",
///    "query":"equivalent" | "refines"}
///   {"verb":"stats"}   {"verb":"gc"}   {"verb":"shutdown"}
///
/// `lint` runs the S15 analyzer plus the S17 field-dependency checks and
/// answers {"ok":true, "findings":[{file,line,col,check,message}, ...]} —
/// the same objects `mcnk_cli lint --json` prints (serve/Lint.h is the
/// shared pipeline). Query verbs accept "slice": true to run S17
/// query-directed cone-of-influence slicing before compiling: delivery
/// slices for the delivery observation, hop-stats for its counter field,
/// equivalent/refines for the all-fields observation. Sliced packet
/// queries bypass the session's program slot (the sliced diagram depends
/// on the query, not just the program) and the response carries a "slice"
/// stats object; answers are identical with and without slicing, a
/// contract the oracle's CheckSlice lane enforces. The Service's
/// front-end memo answers a repeated lint request, or a repeated sliced
/// delivery / hop-stats query, without rerunning the AST passes (see
/// Service::lookupMemo).
///
/// Every request may carry an "id", echoed in the response. Responses are
/// {"ok":true, ...} or {"ok":false, "error":"..."}; exact probabilities
/// travel as rational strings ("3/8"), never floats. Malformed requests
/// get an error response — the daemon treats socket bytes as untrusted
/// and must never abort on them.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_SERVE_SERVER_H
#define MCNK_SERVE_SERVER_H

#include "analysis/Verifier.h"
#include "ast/Context.h"
#include "fdd/CacheStore.h"
#include "fdd/CompileCache.h"
#include "serve/Json.h"
#include "serve/Lint.h"

#include <algorithm>
#include <atomic>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace mcnk {
namespace serve {

/// Process-wide shared state: one compile cache (optionally backed by a
/// persistent CacheStore), one front-end memo, request counters.
/// Thread-safe; shared by every Session.
class Service {
public:
  struct Options {
    /// Path of the persistent FDD store; empty disables persistence.
    std::string StorePath;
    /// Compile-cache capacity (entries); also bounds the front-end memo.
    std::size_t CacheCapacity = 1u << 12;
    /// Ignored: loop solves always run serially on the session's thread.
    /// Kept only because the e2ebench harness (e2ebench/src/Harness.cpp)
    /// still assigns it.
    unsigned Threads = 0;
    fdd::CacheStore::Options Store;
  };

  /// Builds the service: opens the store (failing loudly on a version
  /// mismatch or unreadable file), warms the cache from it, then installs
  /// the insert observer so every future cache miss is appended to disk —
  /// in that order, or warming would re-append every record it just read.
  static std::unique_ptr<Service> create(const Options &Opts,
                                         std::string *Error);

  fdd::CompileCache &cache() { return Cache; }
  /// Null when persistence is disabled.
  fdd::CacheStore *store() { return Store.get(); }
  const Options &options() const { return Opts; }

  /// Disk-cache entries loaded into the compile cache at startup.
  std::size_t warmedEntries() const { return Warmed; }

  void countRequest(bool Ok) {
    ++Requests;
    if (!Ok)
      ++Errors;
  }
  uint64_t requests() const { return Requests.load(); }
  uint64_t errors() const { return Errors.load(); }

  /// Aggregates one sliced compile into the service-wide S17 counters
  /// (reported by the stats verb).
  void countSlice(const ast::SliceStats &S) {
    ++SliceRequests;
    SliceAssignmentsRemoved += S.AssignmentsRemoved;
    SliceNodesBefore += S.NodesBefore;
    SliceNodesAfter += S.NodesAfter;
  }
  uint64_t sliceRequests() const { return SliceRequests.load(); }
  uint64_t sliceAssignmentsRemoved() const {
    return SliceAssignmentsRemoved.load();
  }
  uint64_t sliceNodesBefore() const { return SliceNodesBefore.load(); }
  uint64_t sliceNodesAfter() const { return SliceNodesAfter.load(); }

  /// Front-end memo key (docs/ARCHITECTURE.md S16). Always the exact
  /// program text: lint findings carry source positions, which a
  /// structural fingerprint ignores. Lint entries leave the rest at their
  /// defaults; sliced entries add the solver kind and the query (plus the
  /// hop field for hop-stats), which fix the observation set and the loop
  /// solutions.
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
  /// A memoized front-end result: the findings of a lint entry, or the
  /// slice statistics and sliced root diagram of a sliced entry.
  struct MemoValue {
    std::vector<LintEntry> Findings;
    ast::SliceStats Slice;
    std::shared_ptr<const fdd::PortableFdd> Diagram;
  };

  /// Looks \p Key up in the front-end memo, an LRU bounded by
  /// Options::CacheCapacity entries and held in memory only (a restarted
  /// service starts empty). Returns the shared, immutable value and
  /// refreshes its recency on a hit; null on a miss.
  std::shared_ptr<const MemoValue> lookupMemo(const MemoKey &Key);
  /// Stores a result the caller computed after a miss and returns the
  /// resident value. Only successful results go in: parse errors and
  /// unguarded programs are never memoized. A key already present (two
  /// sessions raced on one miss) keeps, and returns, its first value.
  std::shared_ptr<const MemoValue> insertMemo(MemoKey Key, MemoValue Value);
  uint64_t memoHits() const { return MemoHits.load(); }
  uint64_t memoMisses() const { return MemoMisses.load(); }
  std::size_t memoEntries() const;

private:
  explicit Service(const Options &O)
      : Opts(O), Cache(O.CacheCapacity),
        MemoCapacity(std::max<std::size_t>(O.CacheCapacity, 1)) {}

  struct MemoKeyHasher {
    std::size_t operator()(const MemoKey &K) const;
  };
  using MemoEntry = std::pair<MemoKey, std::shared_ptr<const MemoValue>>;

  Options Opts;
  fdd::CompileCache Cache;
  std::unique_ptr<fdd::CacheStore> Store;
  std::size_t Warmed = 0;
  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> Errors{0};
  std::atomic<uint64_t> SliceRequests{0};
  std::atomic<uint64_t> SliceAssignmentsRemoved{0};
  std::atomic<uint64_t> SliceNodesBefore{0};
  std::atomic<uint64_t> SliceNodesAfter{0};

  const std::size_t MemoCapacity;
  mutable std::mutex MemoMutex;
  /// Most-recently-used at the front; the index points into it.
  std::list<MemoEntry> MemoLru;
  std::unordered_map<MemoKey, std::list<MemoEntry>::iterator, MemoKeyHasher>
      MemoIndex;
  std::atomic<uint64_t> MemoHits{0};
  std::atomic<uint64_t> MemoMisses{0};
};

/// One client's worker state. NOT thread-safe — each connection (or the
/// stdio loop) owns exactly one Session and calls handleLine serially,
/// which is what lets it hold per-solver FddManagers (themselves not
/// thread-safe) while all cross-session sharing goes through the
/// Service's thread-safe cache and store.
///
/// The session keeps the last compiled program per solver kind, so a
/// batch of queries against one program compiles once and the manager is
/// gc'd only when the program changes.
class Session {
public:
  explicit Session(Service &Service_) : Svc(Service_) {}

  /// Handles one request line, returns one response line (no trailing
  /// newline). Never aborts on malformed input. Sets \p Shutdown (when
  /// non-null) if the request asked the connection to close.
  std::string handleLine(const std::string &Line, bool *Shutdown = nullptr);

private:
  /// Per-solver-kind compile state: its own Verifier (hence FddManager)
  /// plus the source text and root of the last compiled program.
  struct Slot {
    std::unique_ptr<analysis::Verifier> V;
    std::unique_ptr<ast::Context> Ctx;
    std::string ProgramText;
    fdd::FddRef Root = 0;
    bool HasProgram = false;
  };

  Json dispatch(const Json &Request, bool *Shutdown);
  Json handleParse(const Json &Request);
  Json handleCompile(const Json &Request);
  Json handleLint(const Json &Request);
  Json handleQuery(const Json &Request);
  Json handleSlicedQuery(const Json &Request, const std::string &Program,
                         const std::string &Query, markov::SolverKind Kind);
  Json handleStats();
  Json handleGc();

  Slot &slotFor(markov::SolverKind Kind);
  /// Compiles \p Program into the slot (or reuses the cached compile when
  /// the text matches). Returns false with \p Error set on parse or
  /// guardedness failure. \p WasCached reports session-level reuse.
  bool ensureCompiled(Slot &S, markov::SolverKind Kind,
                      const std::string &Program, std::string &Error,
                      bool &WasCached);

  Service &Svc;
  Slot Slots[4];
};

/// Serves one Session over stdin/stdout-style streams: reads request
/// lines from \p In until EOF or a shutdown verb, writing each response
/// line to \p Out (flushed per line — clients block on responses).
/// Returns the number of requests served.
std::size_t runStdio(Service &Svc, std::istream &In, std::ostream &Out);

/// Line-protocol TCP server on 127.0.0.1 (loopback only — the protocol is
/// unauthenticated by design; remote access is out of scope). One thread
/// and one Session per connection, all sharing the Service.
class TcpServer {
public:
  explicit TcpServer(Service &Service_) : Svc(Service_) {}
  ~TcpServer() { stop(); }

  /// Binds and starts accepting. \p Port 0 picks an ephemeral port (see
  /// port()). Returns false with \p Error set on failure.
  bool start(uint16_t Port, std::string *Error);
  /// The bound port (valid after start()).
  uint16_t port() const { return BoundPort; }
  /// Stops accepting, closes every connection, joins all threads.
  /// Idempotent.
  void stop();

private:
  void acceptLoop();
  void serveConnection(int Fd);

  Service &Svc;
  int ListenFd = -1;
  uint16_t BoundPort = 0;
  std::atomic<bool> Stopping{false};
  std::thread Acceptor;
  std::mutex ConnMutex;
  std::vector<int> ConnFds;
  std::vector<std::thread> ConnThreads;
};

/// Maps "exact" / "direct" / "iterative" to a solver kind, and
/// "modular-exact" to the exact engine (a synonym older clients still
/// send); returns false on unknown names. solverKindName is the inverse.
bool parseSolverKind(const std::string &Name, markov::SolverKind &Out);
const char *solverKindName(markov::SolverKind Kind);

} // namespace serve
} // namespace mcnk

#endif // MCNK_SERVE_SERVER_H
