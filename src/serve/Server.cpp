//===----------------------------------------------------------------------===//
///
/// \file
/// Verification daemon implementation: Service wiring (store → warm →
/// observer, in that order), the per-connection Session request loop, the
/// stdio driver, and a small loopback TCP front end.
///
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "ast/Printer.h"
#include "ast/Traversal.h"
#include "fdd/Export.h"
#include "parser/Parser.h"
#include "serve/Lint.h"

#include <istream>
#include <ostream>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace mcnk;
using namespace mcnk::serve;

bool serve::parseSolverKind(const std::string &Name,
                            markov::SolverKind &Out) {
  if (Name == "exact")
    Out = markov::SolverKind::Exact;
  else if (Name == "direct")
    Out = markov::SolverKind::Direct;
  else if (Name == "iterative")
    Out = markov::SolverKind::Iterative;
  else if (Name == "modular-exact") // Synonym kept for older clients.
    Out = markov::SolverKind::Exact;
  else
    return false;
  return true;
}

const char *serve::solverKindName(markov::SolverKind Kind) {
  switch (Kind) {
  case markov::SolverKind::Exact:
    return "exact";
  case markov::SolverKind::Direct:
    return "direct";
  case markov::SolverKind::Iterative:
    return "iterative";
  }
  return "exact";
}

//===----------------------------------------------------------------------===//
// Service
//===----------------------------------------------------------------------===//

std::unique_ptr<Service> Service::create(const Options &Opts,
                                         std::string *Error) {
  std::unique_ptr<Service> Svc(new Service(Opts));
  if (!Opts.StorePath.empty()) {
    Svc->Store = fdd::CacheStore::open(Opts.StorePath, Error, Opts.Store);
    if (!Svc->Store)
      return nullptr;
    // Warm BEFORE installing the observer: the observer appends every new
    // cache entry to the store, and the warmed entries came *from* the
    // store.
    Svc->Warmed = Svc->Store->warm(Svc->Cache);
    fdd::CacheStore *Store = Svc->Store.get();
    Svc->Cache.setInsertObserver(
        [Store](const ast::ProgramHash &Key, markov::SolverKind Solver,
                const std::shared_ptr<const fdd::PortableFdd> &Diagram) {
          // Best-effort persistence: an I/O failure loses durability for
          // this entry, not correctness — the in-memory cache still has it.
          Store->append(Key, Solver, *Diagram);
        });
  }
  return Svc;
}

std::size_t Service::MemoKeyHasher::operator()(const MemoKey &K) const {
  std::hash<std::string> H;
  std::size_t Seed = H(K.Program);
  Seed = Seed * 31 + H(K.Query);
  Seed = Seed * 31 + static_cast<std::size_t>(K.Solver);
  return Seed * 31 + H(K.HopField);
}

std::shared_ptr<const Service::MemoValue>
Service::lookupMemo(const MemoKey &Key) {
  std::lock_guard<std::mutex> Lock(MemoMutex);
  auto It = MemoIndex.find(Key);
  if (It == MemoIndex.end()) {
    ++MemoMisses;
    return nullptr;
  }
  ++MemoHits;
  MemoLru.splice(MemoLru.begin(), MemoLru, It->second);
  return It->second->second;
}

std::shared_ptr<const Service::MemoValue>
Service::insertMemo(MemoKey Key, MemoValue Value) {
  auto Stored = std::make_shared<const MemoValue>(std::move(Value));
  std::lock_guard<std::mutex> Lock(MemoMutex);
  auto It = MemoIndex.find(Key);
  if (It != MemoIndex.end()) {
    MemoLru.splice(MemoLru.begin(), MemoLru, It->second);
    return It->second->second;
  }
  MemoLru.emplace_front(std::move(Key), Stored);
  MemoIndex.emplace(MemoLru.front().first, MemoLru.begin());
  if (MemoLru.size() > MemoCapacity) {
    MemoIndex.erase(MemoLru.back().first);
    MemoLru.pop_back();
  }
  return Stored;
}

std::size_t Service::memoEntries() const {
  std::lock_guard<std::mutex> Lock(MemoMutex);
  return MemoLru.size();
}

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

namespace {

Json errorResponse(const std::string &Message) {
  Json R = Json::object();
  R.set("ok", Json::boolean(false));
  R.set("error", Json::string(Message));
  return R;
}

Json okResponse() {
  Json R = Json::object();
  R.set("ok", Json::boolean(true));
  return R;
}

/// Pulls a required string member; null return means the error response
/// has been written to \p Err.
const std::string *stringMember(const Json &Request, const char *Key,
                                Json &Err) {
  const Json *V = Request.find(Key);
  if (!V || !V->isString()) {
    Err = errorResponse(std::string("missing or non-string \"") + Key +
                        "\" member");
    return nullptr;
  }
  return &V->asString();
}

markov::SolverKind requestSolver(const Json &Request, bool &Ok, Json &Err) {
  Ok = true;
  const Json *V = Request.find("solver");
  if (!V)
    return markov::SolverKind::Exact;
  markov::SolverKind Kind;
  if (!V->isString() || !parseSolverKind(V->asString(), Kind)) {
    Ok = false;
    Err = errorResponse("unknown solver (expected \"exact\", \"direct\" or "
                        "\"iterative\")");
    return markov::SolverKind::Exact;
  }
  return Kind;
}

/// Decodes one {"field": value, ...} input object against the program's
/// field table. Every field the program mentions must be assigned; fields
/// absent from the object default to 0 (matching the examples' harnesses).
bool decodeInput(const Json &Obj, const FieldTable &Fields, Packet &Out,
                 std::string &Error) {
  if (!Obj.isObject()) {
    Error = "each input must be an object of field: value pairs";
    return false;
  }
  Out = Packet(Fields.numFields());
  for (const auto &[Name, Value] : Obj.members()) {
    FieldId Id = Fields.lookup(Name);
    if (Id == FieldTable::NotFound) {
      Error = "input mentions field \"" + Name +
              "\" which the program never uses";
      return false;
    }
    if (!Value.isInt() || Value.asInt() < 0 ||
        Value.asInt() > static_cast<int64_t>(UINT32_MAX)) {
      Error = "input field \"" + Name + "\" must be a non-negative integer";
      return false;
    }
    Out.set(Id, static_cast<FieldValue>(Value.asInt()));
  }
  return true;
}

/// The per-compile S17 slice statistics as the response's "slice" object.
Json sliceStatsJson(const ast::SliceStats &S) {
  Json O = Json::object();
  O.set("assignmentsRemoved",
        Json::integer(static_cast<int64_t>(S.AssignmentsRemoved)));
  O.set("nodesBefore", Json::integer(static_cast<int64_t>(S.NodesBefore)));
  O.set("nodesAfter", Json::integer(static_cast<int64_t>(S.NodesAfter)));
  O.set("fieldsBefore", Json::integer(static_cast<int64_t>(S.FieldsBefore)));
  O.set("fieldsRelevant",
        Json::integer(static_cast<int64_t>(S.FieldsRelevant)));
  return O;
}

} // namespace

Session::Slot &Session::slotFor(markov::SolverKind Kind) {
  return Slots[static_cast<std::size_t>(Kind)];
}

bool Session::ensureCompiled(Slot &S, markov::SolverKind Kind,
                             const std::string &Program, std::string &Error,
                             bool &WasCached) {
  if (S.HasProgram && S.ProgramText == Program) {
    WasCached = true;
    return true;
  }
  WasCached = false;
  auto Ctx = std::make_unique<ast::Context>();
  parser::ParseResult Parsed = parser::parseProgram(Program, *Ctx);
  if (!Parsed.ok()) {
    Error = Parsed.Diagnostics.empty() ? "parse error"
                                       : Parsed.Diagnostics.front().render();
    return false;
  }
  if (!ast::isGuarded(Parsed.Program)) {
    Error = "program is outside the guarded fragment (contains `*` or a "
            "union of non-predicates)";
    return false;
  }
  if (!S.V)
    S.V = std::make_unique<analysis::Verifier>(Kind);
  fdd::CompileOptions Options;
  Options.Cache = &Svc.cache();
  fdd::FddRef NewRoot = fdd::compile(S.V->manager(), Parsed.Program, Options);
  bool Replacing = S.HasProgram;
  S.Ctx = std::move(Ctx);
  S.ProgramText = Program;
  S.Root = NewRoot;
  S.HasProgram = true;
  // The previous program's diagram is garbage now; reclaim it before the
  // next request rather than let a long-lived session accrete every
  // program it ever saw (gc remaps S.Root in place).
  if (Replacing)
    S.V->manager().gc({&S.Root});
  return true;
}

Json Session::handleParse(const Json &Request) {
  Json Err;
  const std::string *Program = stringMember(Request, "program", Err);
  if (!Program)
    return Err;
  ast::Context Ctx;
  parser::ParseResult Parsed = parser::parseProgram(*Program, Ctx);
  if (!Parsed.ok())
    return errorResponse(Parsed.Diagnostics.empty()
                             ? "parse error"
                             : Parsed.Diagnostics.front().render());
  Json R = okResponse();
  R.set("nodes",
        Json::integer(static_cast<int64_t>(ast::countNodes(Parsed.Program))));
  R.set("depth",
        Json::integer(static_cast<int64_t>(ast::depth(Parsed.Program))));
  R.set("guarded", Json::boolean(ast::isGuarded(Parsed.Program)));
  Json Fields = Json::array();
  for (std::size_t I = 0; I < Ctx.fields().numFields(); ++I)
    Fields.push(Json::string(Ctx.fields().name(static_cast<FieldId>(I))));
  R.set("fields", std::move(Fields));
  Json Warnings = Json::array();
  for (const parser::Diagnostic &W : Parsed.Warnings)
    Warnings.push(Json::string(W.render()));
  R.set("warnings", std::move(Warnings));
  return R;
}

Json Session::handleCompile(const Json &Request) {
  Json Err;
  const std::string *Program = stringMember(Request, "program", Err);
  if (!Program)
    return Err;
  bool SolverOk = false;
  markov::SolverKind Kind = requestSolver(Request, SolverOk, Err);
  if (!SolverOk)
    return Err;
  Slot &S = slotFor(Kind);
  std::string Error;
  bool WasCached = false;
  if (!ensureCompiled(S, Kind, *Program, Error, WasCached))
    return errorResponse(Error);
  Json R = okResponse();
  R.set("solver", Json::string(solverKindName(Kind)));
  R.set("sessionCached", Json::boolean(WasCached));
  R.set("fddNodes", Json::integer(static_cast<int64_t>(
                        S.V->manager().diagramSize(S.Root))));
  return R;
}

Json Session::handleLint(const Json &Request) {
  Json Err;
  const std::string *Program = stringMember(Request, "program", Err);
  if (!Program)
    return Err;
  // Optional display label for the findings' "file" member (clients
  // linting editor buffers pass their path); defaults to "<program>".
  std::string File = "<program>";
  if (const Json *F = Request.find("file")) {
    if (!F->isString())
      return errorResponse("\"file\" must be a string");
    File = F->asString();
  }
  // The findings depend on the text alone (the label is applied below),
  // so a hit skips the parse as well as the analyses.
  Service::MemoKey Key;
  Key.Program = *Program;
  Key.Query = "lint";
  std::shared_ptr<const Service::MemoValue> Memo = Svc.lookupMemo(Key);
  if (!Memo) {
    ast::Context Ctx;
    parser::ParseResult Parsed = parser::parseProgram(*Program, Ctx);
    if (!Parsed.ok())
      return errorResponse(Parsed.Diagnostics.empty()
                               ? "parse error"
                               : Parsed.Diagnostics.front().render());
    Service::MemoValue Value;
    Value.Findings = lintProgram(Ctx, Parsed.Program, Parsed.Warnings);
    Memo = Svc.insertMemo(std::move(Key), std::move(Value));
  }
  Json R = okResponse();
  R.set("clean", Json::boolean(Memo->Findings.empty()));
  R.set("findings", lintJson(File, Memo->Findings));
  return R;
}

/// The sliced query path (S17): parse into a fresh context, decode the
/// inputs against its field table, and answer from a transient verifier
/// holding the sliced diagram. The diagram comes from the service's
/// front-end memo when this (text, solver, query, hop field) was answered
/// before; otherwise it is compiled with a SliceHook for the query's
/// observation set and memoized. It never enters the session's program
/// slot: the sliced diagram depends on the query, not just the program
/// text, so caching it under the text would poison unsliced queries.
Json Session::handleSlicedQuery(const Json &Request,
                                const std::string &Program,
                                const std::string &Query,
                                markov::SolverKind Kind) {
  Json Err;
  ast::Context Ctx;
  parser::ParseResult Parsed = parser::parseProgram(Program, Ctx);
  if (!Parsed.ok())
    return errorResponse(Parsed.Diagnostics.empty()
                             ? "parse error"
                             : Parsed.Diagnostics.front().render());
  if (!ast::isGuarded(Parsed.Program))
    return errorResponse("program is outside the guarded fragment");

  Service::MemoKey Key;
  Key.Program = Program;
  Key.Query = Query;
  Key.Solver = Kind;
  ast::ObservationSet Obs = ast::ObservationSet::delivery();
  FieldId Hop = FieldTable::NotFound;
  if (Query == "hop-stats") {
    const std::string *HopField = stringMember(Request, "hopField", Err);
    if (!HopField)
      return Err;
    Hop = Ctx.fields().lookup(*HopField);
    if (Hop == FieldTable::NotFound)
      return errorResponse("hop field \"" + *HopField +
                           "\" is not used by the program");
    Obs = ast::ObservationSet::fields({Hop});
    Key.HopField = *HopField;
  } else if (Query != "delivery") {
    return errorResponse("unknown query \"" + Query +
                         "\" (expected \"delivery\", \"hop-stats\", "
                         "\"equivalent\" or \"refines\")");
  }

  const Json *Inputs = Request.find("inputs");
  if (!Inputs || !Inputs->isArray() || Inputs->elements().empty())
    return errorResponse("\"" + Query +
                         "\" needs a non-empty \"inputs\" array");
  std::string Error;
  std::vector<Packet> Packets;
  Packets.reserve(Inputs->elements().size());
  for (const Json &Obj : Inputs->elements()) {
    Packet P;
    if (!decodeInput(Obj, Ctx.fields(), P, Error))
      return errorResponse(Error);
    Packets.push_back(std::move(P));
  }

  analysis::Verifier V(Kind);
  fdd::FddRef Root;
  // Parsing the same text interns the same field ids, so the memoized
  // diagram imports as the ref a fresh sliced compile would build.
  std::shared_ptr<const Service::MemoValue> Memo = Svc.lookupMemo(Key);
  if (Memo) {
    Root = fdd::importFdd(V.manager(), *Memo->Diagram);
  } else {
    fdd::CompileOptions Options;
    Options.Cache = &Svc.cache();
    Service::MemoValue Value;
    fdd::SliceHook Hook;
    Hook.Ctx = &Ctx;
    Hook.Observed = Obs;
    Hook.Stats = &Value.Slice;
    Options.Slice = &Hook;
    Root = fdd::compile(V.manager(), Parsed.Program, Options);
    Value.Diagram = std::make_shared<const fdd::PortableFdd>(
        fdd::exportFdd(V.manager(), Root));
    Memo = Svc.insertMemo(std::move(Key), std::move(Value));
  }
  const ast::SliceStats &Stats = Memo->Slice;
  Svc.countSlice(Stats);

  Json R = okResponse();
  if (Query == "delivery") {
    Json Results = Json::array();
    Rational Total;
    for (const Packet &P : Packets) {
      Rational Prob = V.deliveryProbability(Root, P);
      Total += Prob;
      Results.push(Json::string(Prob.toString()));
    }
    R.set("results", std::move(Results));
    R.set("average",
          Json::string(
              (Total / Rational(static_cast<int64_t>(Packets.size())))
                  .toString()));
  } else {
    analysis::HopStats HS = V.hopStats(Root, Packets, Hop);
    R.set("delivered", Json::string(HS.Delivered.toString()));
    Json Histogram = Json::object();
    for (const auto &[Hops, Mass] : HS.Histogram)
      Histogram.set(std::to_string(Hops), Json::string(Mass.toString()));
    R.set("histogram", std::move(Histogram));
    R.set("expectedGivenDelivered",
          Json::number(HS.expectedGivenDelivered()));
  }
  R.set("slice", sliceStatsJson(Stats));
  return R;
}

Json Session::handleQuery(const Json &Request) {
  Json Err;
  const std::string *Program = stringMember(Request, "program", Err);
  if (!Program)
    return Err;
  const std::string *Query = stringMember(Request, "query", Err);
  if (!Query)
    return Err;
  bool SolverOk = false;
  markov::SolverKind Kind = requestSolver(Request, SolverOk, Err);
  if (!SolverOk)
    return Err;
  bool Slice = false;
  if (const Json *S = Request.find("slice")) {
    if (!S->isBool())
      return errorResponse("\"slice\" must be a boolean");
    Slice = S->asBool();
  }

  if (*Query == "equivalent" || *Query == "refines") {
    const std::string *Program2 = stringMember(Request, "program2", Err);
    if (!Program2)
      return Err;
    // Two-program queries are self-contained: both sides parse into ONE
    // fresh context (field ids are interning order and the FDD variable
    // order follows them, so they must agree) and compile into one
    // transient manager (equivalence is reference equality *within* a
    // manager). Nothing touches the session slot, so a long-lived session
    // doesn't accrete one arena's worth of AST per comparison — the
    // shared compile cache still makes repeats cheap.
    ast::Context Ctx;
    parser::ParseResult Parsed1 = parser::parseProgram(*Program, Ctx);
    if (!Parsed1.ok())
      return errorResponse(Parsed1.Diagnostics.empty()
                               ? "parse error"
                               : Parsed1.Diagnostics.front().render());
    parser::ParseResult Parsed2 = parser::parseProgram(*Program2, Ctx);
    if (!Parsed2.ok())
      return errorResponse(Parsed2.Diagnostics.empty()
                               ? "parse error in \"program2\""
                               : Parsed2.Diagnostics.front().render());
    if (!ast::isGuarded(Parsed1.Program))
      return errorResponse("program is outside the guarded fragment");
    if (!ast::isGuarded(Parsed2.Program))
      return errorResponse("\"program2\" is outside the guarded fragment");
    analysis::Verifier V(Kind);
    fdd::CompileOptions Options;
    Options.Cache = &Svc.cache();
    // With "slice": true, both sides slice for the all-fields observation
    // (the comparison observes whole output packets, so this is a
    // verified no-op rewrite). fdd::compile consumes the hook from its
    // private options copy, so re-pointing Slice between compiles is
    // safe.
    ast::SliceStats Stats1, Stats2;
    fdd::SliceHook Hook1, Hook2;
    if (Slice) {
      Hook1.Ctx = &Ctx;
      Hook1.Observed = ast::ObservationSet::all();
      Hook1.Stats = &Stats1;
      Options.Slice = &Hook1;
    }
    fdd::FddRef P = fdd::compile(V.manager(), Parsed1.Program, Options);
    if (Slice) {
      Hook2.Ctx = &Ctx;
      Hook2.Observed = ast::ObservationSet::all();
      Hook2.Stats = &Stats2;
      Options.Slice = &Hook2;
    }
    fdd::FddRef Q = fdd::compile(V.manager(), Parsed2.Program, Options);
    bool Holds =
        *Query == "equivalent" ? V.equivalent(P, Q) : V.refines(P, Q);
    Json R = okResponse();
    R.set("holds", Json::boolean(Holds));
    if (Slice) {
      Svc.countSlice(Stats1);
      Svc.countSlice(Stats2);
      R.set("slice", sliceStatsJson(Stats1));
      R.set("slice2", sliceStatsJson(Stats2));
    }
    return R;
  }

  if (Slice)
    // Sliced packet queries compile a query-specific diagram; keep them
    // out of the session's (program-text-keyed) slot.
    return handleSlicedQuery(Request, *Program, *Query, Kind);

  Slot &S = slotFor(Kind);
  std::string Error;
  bool WasCached = false;
  if (!ensureCompiled(S, Kind, *Program, Error, WasCached))
    return errorResponse(Error);

  // The packet-level queries: decode the (batched) inputs once.
  const Json *Inputs = Request.find("inputs");
  if (!Inputs || !Inputs->isArray() || Inputs->elements().empty())
    return errorResponse("\"" + *Query +
                         "\" needs a non-empty \"inputs\" array");
  std::vector<Packet> Packets;
  Packets.reserve(Inputs->elements().size());
  for (const Json &Obj : Inputs->elements()) {
    Packet P;
    if (!decodeInput(Obj, S.Ctx->fields(), P, Error))
      return errorResponse(Error);
    Packets.push_back(std::move(P));
  }

  if (*Query == "delivery") {
    Json Results = Json::array();
    Rational Total;
    for (const Packet &P : Packets) {
      Rational Prob = S.V->deliveryProbability(S.Root, P);
      Total += Prob;
      Results.push(Json::string(Prob.toString()));
    }
    Json R = okResponse();
    R.set("results", std::move(Results));
    R.set("average",
          Json::string(
              (Total / Rational(static_cast<int64_t>(Packets.size())))
                  .toString()));
    return R;
  }

  if (*Query == "hop-stats") {
    const std::string *HopField = stringMember(Request, "hopField", Err);
    if (!HopField)
      return Err;
    FieldId Hop = S.Ctx->fields().lookup(*HopField);
    if (Hop == FieldTable::NotFound)
      return errorResponse("hop field \"" + *HopField +
                           "\" is not used by the program");
    analysis::HopStats Stats = S.V->hopStats(S.Root, Packets, Hop);
    Json R = okResponse();
    R.set("delivered", Json::string(Stats.Delivered.toString()));
    Json Histogram = Json::object();
    for (const auto &[Hops, Mass] : Stats.Histogram)
      Histogram.set(std::to_string(Hops), Json::string(Mass.toString()));
    R.set("histogram", std::move(Histogram));
    R.set("expectedGivenDelivered",
          Json::number(Stats.expectedGivenDelivered()));
    return R;
  }

  return errorResponse("unknown query \"" + *Query +
                       "\" (expected \"delivery\", \"hop-stats\", "
                       "\"equivalent\" or \"refines\")");
}

Json Session::handleStats() {
  Json R = okResponse();
  fdd::CompileCache::Stats C = Svc.cache().stats();
  Json Cache = Json::object();
  Cache.set("entries", Json::integer(static_cast<int64_t>(C.Entries)));
  Cache.set("hits", Json::integer(static_cast<int64_t>(C.Hits)));
  Cache.set("misses", Json::integer(static_cast<int64_t>(C.Misses)));
  Cache.set("insertions", Json::integer(static_cast<int64_t>(C.Insertions)));
  Cache.set("duplicateInserts",
            Json::integer(static_cast<int64_t>(C.DuplicateInserts)));
  Cache.set("evictions", Json::integer(static_cast<int64_t>(C.Evictions)));
  Cache.set("storedNodes",
            Json::integer(static_cast<int64_t>(C.StoredNodes)));
  R.set("cache", std::move(Cache));
  if (fdd::CacheStore *Store = Svc.store()) {
    fdd::CacheStore::Stats St = Store->stats();
    Json S = Json::object();
    S.set("path", Json::string(Store->path()));
    S.set("liveRecords", Json::integer(static_cast<int64_t>(St.LiveRecords)));
    S.set("deadRecords", Json::integer(static_cast<int64_t>(St.DeadRecords)));
    S.set("fileBytes", Json::integer(static_cast<int64_t>(St.FileBytes)));
    S.set("tornBytesDropped",
          Json::integer(static_cast<int64_t>(St.TornBytesDropped)));
    S.set("appends", Json::integer(static_cast<int64_t>(St.Appends)));
    S.set("compactions",
          Json::integer(static_cast<int64_t>(St.Compactions)));
    R.set("store", std::move(S));
  }
  R.set("warmedEntries",
        Json::integer(static_cast<int64_t>(Svc.warmedEntries())));
  R.set("requests", Json::integer(static_cast<int64_t>(Svc.requests())));
  R.set("errors", Json::integer(static_cast<int64_t>(Svc.errors())));
  Json Sl = Json::object();
  Sl.set("requests",
         Json::integer(static_cast<int64_t>(Svc.sliceRequests())));
  Sl.set("assignmentsRemoved",
         Json::integer(static_cast<int64_t>(Svc.sliceAssignmentsRemoved())));
  Sl.set("nodesBefore",
         Json::integer(static_cast<int64_t>(Svc.sliceNodesBefore())));
  Sl.set("nodesAfter",
         Json::integer(static_cast<int64_t>(Svc.sliceNodesAfter())));
  R.set("slice", std::move(Sl));
  Json Memo = Json::object();
  Memo.set("hits", Json::integer(static_cast<int64_t>(Svc.memoHits())));
  Memo.set("misses", Json::integer(static_cast<int64_t>(Svc.memoMisses())));
  Memo.set("entries",
           Json::integer(static_cast<int64_t>(Svc.memoEntries())));
  R.set("memo", std::move(Memo));
  return R;
}

Json Session::handleGc() {
  std::size_t FreedInners = 0, FreedLeaves = 0;
  for (Slot &S : Slots) {
    if (!S.V)
      continue;
    std::vector<fdd::FddRef *> Roots;
    if (S.HasProgram)
      Roots.push_back(&S.Root);
    fdd::GcStats G = S.V->manager().gc(Roots);
    FreedInners += G.FreedInners;
    FreedLeaves += G.FreedLeaves;
  }
  Json R = okResponse();
  R.set("freedInners", Json::integer(static_cast<int64_t>(FreedInners)));
  R.set("freedLeaves", Json::integer(static_cast<int64_t>(FreedLeaves)));
  if (fdd::CacheStore *Store = Svc.store()) {
    std::string Error;
    if (!Store->maybeCompact(&Error))
      return errorResponse("store compaction failed: " + Error);
    R.set("storeCompactions",
          Json::integer(static_cast<int64_t>(Store->stats().Compactions)));
  }
  return R;
}

Json Session::dispatch(const Json &Request, bool *Shutdown) {
  if (!Request.isObject())
    return errorResponse("request must be a JSON object");
  Json Err;
  const std::string *Verb = stringMember(Request, "verb", Err);
  if (!Verb)
    return Err;
  if (*Verb == "parse")
    return handleParse(Request);
  if (*Verb == "compile")
    return handleCompile(Request);
  if (*Verb == "lint")
    return handleLint(Request);
  if (*Verb == "query")
    return handleQuery(Request);
  if (*Verb == "stats")
    return handleStats();
  if (*Verb == "gc")
    return handleGc();
  if (*Verb == "shutdown") {
    if (Shutdown)
      *Shutdown = true;
    return okResponse();
  }
  return errorResponse("unknown verb \"" + *Verb +
                       "\" (expected parse, compile, lint, query, stats, gc "
                       "or shutdown)");
}

std::string Session::handleLine(const std::string &Line, bool *Shutdown) {
  Json Request;
  std::string ParseError;
  Json Response;
  if (!parseJson(Line, Request, &ParseError)) {
    Response = errorResponse("malformed JSON: " + ParseError);
  } else {
    Response = dispatch(Request, Shutdown);
  }
  // Echo the request id (if any) so pipelined clients can match responses.
  if (Request.isObject()) {
    if (const Json *Id = Request.find("id"))
      Response.set("id", *Id);
  }
  const Json *Ok = Response.find("ok");
  Svc.countRequest(Ok && Ok->isBool() && Ok->asBool());
  return Response.dump();
}

//===----------------------------------------------------------------------===//
// stdio driver
//===----------------------------------------------------------------------===//

std::size_t serve::runStdio(Service &Svc, std::istream &In,
                            std::ostream &Out) {
  Session S(Svc);
  std::string Line;
  std::size_t Served = 0;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    bool Shutdown = false;
    Out << S.handleLine(Line, &Shutdown) << "\n";
    Out.flush();
    ++Served;
    if (Shutdown)
      break;
  }
  return Served;
}

//===----------------------------------------------------------------------===//
// TCP front end
//===----------------------------------------------------------------------===//

bool TcpServer::start(uint16_t Port, std::string *Error) {
  ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    if (Error)
      *Error = "cannot create socket";
    return false;
  }
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
          0 ||
      ::listen(ListenFd, 16) < 0) {
    if (Error)
      *Error = "cannot bind 127.0.0.1:" + std::to_string(Port);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  socklen_t Len = sizeof(Addr);
  if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len) ==
      0)
    BoundPort = ntohs(Addr.sin_port);
  Stopping = false;
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void TcpServer::acceptLoop() {
  while (!Stopping) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (Stopping)
        break;
      continue;
    }
    std::lock_guard<std::mutex> Lock(ConnMutex);
    ConnFds.push_back(Fd);
    ConnThreads.emplace_back([this, Fd] { serveConnection(Fd); });
  }
}

void TcpServer::serveConnection(int Fd) {
  Session S(Svc);
  std::string Buffer;
  char Chunk[4096];
  bool Shutdown = false;
  while (!Shutdown && !Stopping) {
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N <= 0)
      break;
    Buffer.append(Chunk, static_cast<std::size_t>(N));
    std::size_t Start = 0;
    for (std::size_t NL; !Shutdown &&
                         (NL = Buffer.find('\n', Start)) != std::string::npos;
         Start = NL + 1) {
      std::string Line = Buffer.substr(Start, NL - Start);
      if (Line.empty())
        continue;
      std::string Response = S.handleLine(Line, &Shutdown) + "\n";
      std::size_t Sent = 0;
      while (Sent < Response.size()) {
        ssize_t W =
            ::write(Fd, Response.data() + Sent, Response.size() - Sent);
        if (W <= 0) {
          Shutdown = true;
          break;
        }
        Sent += static_cast<std::size_t>(W);
      }
    }
    Buffer.erase(0, Start);
  }
  ::close(Fd);
}

void TcpServer::stop() {
  if (Stopping.exchange(true))
    return;
  // shutdown() wakes the blocked accept(); the descriptor is closed and
  // reset only once the acceptor, which reads it, has been joined.
  if (ListenFd >= 0)
    ::shutdown(ListenFd, SHUT_RDWR);
  if (Acceptor.joinable())
    Acceptor.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  std::vector<std::thread> Threads;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (int Fd : ConnFds)
      ::shutdown(Fd, SHUT_RDWR);
    ConnFds.clear();
    Threads.swap(ConnThreads);
  }
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
}
