//===----------------------------------------------------------------------===//
///
/// \file
/// Inline verdict rounds, served cold/warm replays and their checks.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ast/Hash.h"
#include "ast/Printer.h"
#include "ast/Slice.h"
#include "parser/Parser.h"
#include "serve/Lint.h"
#include "serve/Server.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <tuple>
#include <sys/stat.h>

namespace e2ebench {

const char *verbName(Verb V) {
  switch (V) {
  case Verb::Parse:
    return "parse";
  case Verb::Lint:
    return "lint";
  case Verb::Compile:
    return "compile";
  case Verb::Delivery:
    return "delivery";
  case Verb::HopStats:
    return "hop-stats";
  case Verb::Equivalent:
    return "equivalent";
  case Verb::Refines:
    return "refines";
  }
  return "?";
}

void Tally::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  if (++Failed <= 20)
    std::fprintf(stderr, "check failed: %s\n", What.c_str());
}

double median(std::vector<double> V) { return percentile(std::move(V), 0.5); }

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t Rank = static_cast<std::size_t>(std::ceil(Q * V.size()));
  return V[Rank == 0 ? 0 : Rank - 1];
}

void finishPrograms(Workload &W) {
  for (Program &P : W.Programs) {
    P.Text = ast::print(P.Ast, P.Ctx->fields());
    if (P.HopField != FieldTable::NotFound)
      P.HopFieldName = P.Ctx->fields().name(P.HopField);
    // The daemon interns only the fields the text mentions and rejects
    // inputs naming any other, which cannot influence an answer anyway.
    ast::Context Served;
    parser::parseProgram(P.Text, Served);
    P.InputsJson.clear();
    for (const Packet &In : P.Inputs) {
      serve::Json Obj = serve::Json::object();
      for (std::size_t F = 0; F < Served.fields().numFields(); ++F) {
        const std::string &Name = Served.fields().name(static_cast<FieldId>(F));
        FieldId Id = P.Ctx->fields().lookup(Name);
        if (Id != FieldTable::NotFound && Id < In.numFields())
          Obj.set(Name, serve::Json::integer(In.get(Id)));
      }
      P.InputsJson.push_back(std::move(Obj));
    }
  }
}

std::vector<std::string> requestLines(const Workload &W) {
  using serve::Json;
  std::vector<std::string> Lines;
  Lines.reserve(W.Stream.size());
  for (const Request &R : W.Stream) {
    const Program &P = W.Programs[R.P];
    Json J = Json::object();
    bool IsQuery = R.V == Verb::Delivery || R.V == Verb::HopStats ||
                   R.V == Verb::Equivalent || R.V == Verb::Refines;
    J.set("verb", Json::string(IsQuery ? "query" : verbName(R.V)));
    J.set("program", Json::string(P.Text));
    if (R.V == Verb::Lint)
      J.set("file", Json::string(P.Name));
    if (R.V != Verb::Parse && R.V != Verb::Lint)
      J.set("solver", Json::string(serve::solverKindName(P.Solver)));
    if (IsQuery)
      J.set("query", Json::string(verbName(R.V)));
    if (R.V == Verb::Equivalent || R.V == Verb::Refines)
      J.set("program2", Json::string(W.Programs[R.Q].Text));
    if (R.V == Verb::Delivery || R.V == Verb::HopStats) {
      Json Inputs = Json::array();
      for (const Json &In : P.InputsJson)
        Inputs.push(In);
      J.set("inputs", std::move(Inputs));
    }
    if (R.V == Verb::HopStats)
      J.set("hopField", Json::string(P.HopFieldName));
    if (R.Slice)
      J.set("slice", Json::boolean(true));
    Lines.push_back(J.dump());
  }
  return Lines;
}

namespace {

void addLoopStats(const fdd::LoopSolveStats &S, LayerSample &L) {
  L.Transient += S.NumTransient;
  L.Solved += S.NumSolved;
  L.QEntries += S.NumQEntries;
  L.Blocks += S.NumBlocks;
  L.MaxBlock = std::max<double>(L.MaxBlock, S.MaxBlockSize);
  L.ElimOps += S.EliminationOps;
  L.FillIn += S.FillIn;
  L.Primes += S.NumPrimes;
  L.RetriedPrimes += S.RetriedPrimes;
  L.ReconBits += S.ReconstructionBits;
  L.Fallbacks += S.ModularFallbacks;
}

} // namespace

Answers inlineRound(const Workload &W, LayerSample *Layers) {
  Answers A;
  A.Programs.resize(W.Programs.size());
  std::map<int, std::vector<int>> Groups;
  for (std::size_t I = 0; I < W.Programs.size(); ++I)
    Groups[W.Programs[I].Group].push_back(static_cast<int>(I));
  std::set<std::pair<int, int>> EqPairs, RefPairs;
  for (const Request &R : W.Stream) {
    if (R.V == Verb::Equivalent)
      EqPairs.insert({R.P, R.Q});
    else if (R.V == Verb::Refines)
      RefPairs.insert({R.P, R.Q});
  }

  // Timing a call costs two clock reads; untraced rounds skip even that.
  auto Timed = [Layers](double LayerSample::*Field, auto &&Body) {
    if (!Layers)
      return Body();
    WallTimer T;
    auto Result = Body();
    Layers->*Field += T.elapsed();
    return Result;
  };

  for (const auto &[Group, Members] : Groups) {
    analysis::Verifier V(W.Programs[Members.front()].Solver);
    std::map<int, fdd::FddRef> Refs;
    for (int I : Members) {
      const Program &P = W.Programs[I];
      Refs[I] = Timed(&LayerSample::CompileS, [&] { return V.compile(P.Ast); });
      if (Layers && P.LoopBearing)
        addLoopStats(V.manager().lastLoopStats(), *Layers);
    }
    if (Layers) {
      Layers->InnerNodes += V.manager().numInnerNodes();
      Layers->Leaves += V.manager().numLeaves();
    }
    for (int I : Members) {
      const Program &P = W.Programs[I];
      if (P.Inputs.empty())
        continue;
      ProgramAnswers &PA = A.Programs[I];
      Timed(&LayerSample::QueryS, [&] {
        for (const Packet &In : P.Inputs)
          PA.Delivery.push_back(V.deliveryProbability(Refs[I], In));
        PA.Average = V.averageDeliveryProbability(Refs[I], P.Inputs);
        if (P.HopField != FieldTable::NotFound) {
          PA.HasHops = true;
          PA.Hops = V.hopStats(Refs[I], P.Inputs, P.HopField);
        }
        return 0;
      });
    }
    for (auto [Pairs, Map, IsEq] :
         {std::make_tuple(&EqPairs, &A.Equivalent, true),
          std::make_tuple(&RefPairs, &A.Refines, false)})
      for (const auto &[P, Q] : *Pairs) {
        if (W.Programs[P].Group != Group)
          continue;
        (*Map)[{P, Q}] = Timed(&LayerSample::DecideS, [&] {
          return IsEq ? V.equivalent(Refs[P], Refs[Q])
                      : V.refines(Refs[P], Refs[Q]);
        });
      }
  }
  return A;
}

void checkAnswers(const Workload &W, const Answers &A, Tally &T) {
  for (std::size_t I = 0; I < W.Programs.size(); ++I) {
    const Program &P = W.Programs[I];
    if (P.ClosedForm.empty())
      continue;
    const std::vector<Rational> &D = A.Programs[I].Delivery;
    bool Ok = !D.empty();
    for (const Rational &R : D)
      Ok = Ok && R.toString() == P.ClosedForm;
    T.check(Ok, P.Name + " delivery equals its closed form");
  }
  if (W.CheckAnswers)
    W.CheckAnswers(W, A, T);
}

namespace {

std::unique_ptr<serve::Service> openService(const std::string &StorePath,
                                            Tally &T) {
  serve::Service::Options Opts;
  Opts.StorePath = StorePath;
  Opts.Threads = 1; // Single-threaded: the benchmark measures the program,
                    // not the scheduler.
  std::string Error;
  std::unique_ptr<serve::Service> Svc = serve::Service::create(Opts, &Error);
  T.check(Svc != nullptr, "service start: " + Error);
  return Svc;
}

/// Sends every line through one Session, timing each request.
std::vector<std::string> replay(serve::Service &Svc,
                                const std::vector<std::string> &Lines,
                                std::vector<double> &LatencyMs,
                                double &TotalS) {
  serve::Session Sess(Svc);
  std::vector<std::string> Responses;
  Responses.reserve(Lines.size());
  LatencyMs.reserve(Lines.size());
  WallTimer Total;
  for (const std::string &Line : Lines) {
    WallTimer T;
    Responses.push_back(Sess.handleLine(Line));
    LatencyMs.push_back(T.elapsed() * 1e3);
  }
  TotalS = Total.elapsed();
  return Responses;
}

} // namespace

ServedRound servedRound(const std::vector<std::string> &Lines,
                        const std::string &StorePath, unsigned Restarts,
                        Tally &T) {
  ServedRound R;
  std::remove(StorePath.c_str());
  {
    std::unique_ptr<serve::Service> Svc = openService(StorePath, T);
    if (!Svc)
      return R;
    R.ColdResponses = replay(*Svc, Lines, R.ColdLatencyMs, R.ColdS);
    fdd::CompileCache::Stats C = Svc->cache().stats();
    R.ColdHits = C.Hits;
    R.ColdMisses = C.Misses;
    R.StoreAppends = Svc->store()->stats().Appends;
    T.check(Svc->errors() == 0, "cold phase answered every request");
  }
  struct stat St;
  if (::stat(StorePath.c_str(), &St) == 0)
    R.StoreBytes = static_cast<std::size_t>(St.st_size);

  // Restarts: only the last service answers the warm phase; the others
  // sample the store open + validate + warm cost.
  std::unique_ptr<serve::Service> Svc;
  for (unsigned I = 0; I < Restarts; ++I) {
    Svc.reset();
    WallTimer Open;
    Svc = openService(StorePath, T);
    R.RestartS.push_back(Open.elapsed());
    if (!Svc)
      return R;
  }
  R.Warmed = Svc->warmedEntries();
  R.WarmResponses = replay(*Svc, Lines, R.WarmLatencyMs, R.WarmS);
  fdd::CompileCache::Stats C = Svc->cache().stats();
  R.WarmHits = C.Hits;
  R.WarmMisses = C.Misses;
  T.check(Svc->errors() == 0, "warm phase answered every request");
  T.check(R.Warmed > 0 && Svc->store()->stats().Appends == 0,
          "warm phase answered from the store without appending");
  return R;
}

namespace {

/// Exact engines must reproduce the inline answer digit for digit; the
/// floating-point engines only to 1e-9, since the served program is
/// compiled from its printed (or sliced) form, whose field order changes
/// the order of floating-point operations.
bool sameProbability(const std::string &Got, const Rational &Want,
                     bool Exact) {
  if (Exact)
    return Got == Want.toString();
  Rational G;
  return Rational::fromString(Got, G) &&
         std::fabs(G.toDouble() - Want.toDouble()) <= 1e-9;
}

bool probabilityMember(const serve::Json &J, const char *Key,
                       const Rational &Want, bool Exact) {
  const serve::Json *M = J.find(Key);
  return M && M->isString() && sameProbability(M->asString(), Want, Exact);
}

bool responseMatches(const Workload &W, const Answers &A, const Request &R,
                     const serve::Json &J) {
  const serve::Json *Ok = J.find("ok");
  if (!Ok || !Ok->isBool() || !Ok->asBool())
    return false;
  const ProgramAnswers &PA = A.Programs[R.P];
  const markov::SolverKind Solver = W.Programs[R.P].Solver;
  const bool Exact = Solver == markov::SolverKind::Exact ||
                     Solver == markov::SolverKind::ModularExact;
  switch (R.V) {
  case Verb::Parse: {
    const serve::Json *G = J.find("guarded");
    return G && G->isBool() && G->asBool();
  }
  case Verb::Lint:
    return J.find("findings") != nullptr;
  case Verb::Compile:
    return J.find("fddNodes") != nullptr;
  case Verb::Delivery: {
    const serve::Json *Results = J.find("results");
    if (!Results || !Results->isArray() ||
        Results->elements().size() != PA.Delivery.size())
      return false;
    for (std::size_t I = 0; I < PA.Delivery.size(); ++I)
      if (!Results->elements()[I].isString() ||
          !sameProbability(Results->elements()[I].asString(), PA.Delivery[I],
                           Exact))
        return false;
    return probabilityMember(J, "average", PA.Average, Exact);
  }
  case Verb::HopStats: {
    if (!PA.HasHops ||
        !probabilityMember(J, "delivered", PA.Hops.Delivered, Exact))
      return false;
    const serve::Json *H = J.find("histogram");
    if (!H || !H->isObject() || H->members().size() != PA.Hops.Histogram.size())
      return false;
    for (const auto &[Hops, Mass] : PA.Hops.Histogram)
      if (!probabilityMember(*H, std::to_string(Hops).c_str(), Mass, Exact))
        return false;
    return true;
  }
  case Verb::Equivalent:
  case Verb::Refines: {
    const auto &Map = R.V == Verb::Equivalent ? A.Equivalent : A.Refines;
    auto It = Map.find({R.P, R.Q});
    const serve::Json *Holds = J.find("holds");
    return It != Map.end() && Holds && Holds->isBool() &&
           Holds->asBool() == It->second;
  }
  }
  return false;
}

} // namespace

void checkResponses(const Workload &W, const Answers &A,
                    const std::vector<std::string> &Cold,
                    const std::vector<std::string> &Warm, Tally &T) {
  T.check(Cold.size() == W.Stream.size() && Warm.size() == Cold.size(),
          "one response per request");
  // Streams repeat requests; a response already verified for the same
  // request is not parsed again (rendering rationals with thousands of
  // digits dominates the check otherwise).
  std::map<std::tuple<Verb, int, int, bool>,
           std::pair<const std::string *, bool>>
      Verified;
  for (std::size_t I = 0; I < Cold.size() && I < W.Stream.size(); ++I) {
    const Request &R = W.Stream[I];
    const std::string What = std::string(verbName(R.V)) + " " +
                             W.Programs[R.P].Name + " (request " +
                             std::to_string(I) + ")";
    auto Key = std::make_tuple(R.V, R.P, R.Q, R.Slice);
    auto It = Verified.find(Key);
    bool Ok;
    if (It != Verified.end() && *It->second.first == Cold[I]) {
      Ok = It->second.second;
    } else {
      serve::Json J;
      std::string Error;
      Ok = serve::parseJson(Cold[I], J, &Error) &&
           responseMatches(W, A, R, J);
      Verified[Key] = {&Cold[I], Ok};
    }
    T.check(Ok, "served answer equals inline verifier: " + What + ": " +
                    Cold[I].substr(0, 200));
    if (I < Warm.size())
      T.check(Warm[I] == Cold[I], "warm response byte-identical: " + What);
  }
}

FrontEndSample frontEndPass(const Workload &W,
                            const std::vector<std::string> &Lines,
                            const std::vector<std::string> &Responses) {
  FrontEndSample S;
  std::vector<bool> Linted(W.Programs.size(), false);
  for (const Request &R : W.Stream)
    if (R.V == Verb::Lint)
      Linted[R.P] = true;
  for (std::size_t I = 0; I < W.Programs.size(); ++I) {
    const Program &P = W.Programs[I];
    ast::Context Ctx;
    WallTimer Parse;
    parser::ParseResult Parsed = parser::parseProgram(P.Text, Ctx);
    S.ParseS += Parse.elapsed();
    S.Bytes += P.Text.size();
    if (!Parsed.ok())
      continue;
    WallTimer Hash;
    ast::ProgramHash H = ast::programHash(Parsed.Program);
    S.FingerprintS += Hash.elapsed();
    (void)H;
    if (Linted[I]) {
      WallTimer Lint;
      serve::lintProgram(Ctx, Parsed.Program, Parsed.Warnings);
      S.LintS += Lint.elapsed();
    }
    WallTimer Slice;
    ast::SliceResult Sliced =
        ast::slice(Ctx, Parsed.Program, ast::ObservationSet::delivery());
    S.SliceS += Slice.elapsed();
    S.SliceRemoved += Sliced.Stats.AssignmentsRemoved;
  }
  WallTimer Json;
  std::size_t Dumped = 0;
  for (const auto *Batch : {&Lines, &Responses})
    for (const std::string &Line : *Batch) {
      serve::Json J;
      std::string Error;
      if (serve::parseJson(Line, J, &Error))
        Dumped += J.dump().size();
    }
  S.JsonS = Json.elapsed();
  (void)Dumped;
  return S;
}

} // namespace e2ebench
