//===----------------------------------------------------------------------===//
///
/// \file
/// Serving-layer throughput (docs/ARCHITECTURE.md S16): replays the
/// scenario registry through an in-process daemon Session twice — a
/// *cold* run against a fresh persistent store, then a *warm* run after a
/// simulated restart (new Service, same store file) — and reports
/// requests/second for each. The warm run must answer from the disk
/// store: the bench asserts entries were warmed, compile requests hit the
/// cache, nothing new was appended, and every response line is
/// byte-identical to the cold run's. A third row replays the front-end
/// verbs, `lint` and sliced (`"slice":true`) delivery, each request
/// repeated, through one in-memory service: every repeat must answer
/// byte-identically, and the row records how many the daemon's front-end
/// memo answered. Knobs:
///   MCNK_SERVE_STORE   store file path (default /tmp/mcnk_serve_tp.store)
///   MCNK_SERVE_REPEAT  query, lint and sliced-query repeats per
///                      scenario                          (default 4)
///   MCNK_SERVE_JSON    write the trajectory point here
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "ast/Printer.h"
#include "gen/Scenario.h"
#include "parser/Parser.h"
#include "serve/Server.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

using namespace mcnk;

namespace {

/// One scenario's request lines. Replay: compile once, then the batched
/// queries. FrontEnd: lint and sliced delivery, \p Repeat times each.
struct ScenarioLines {
  std::vector<std::string> Replay;
  std::vector<std::string> FrontEnd;
};

ScenarioLines requestLines(ast::Context &Ctx, const gen::Scenario &S,
                           unsigned Repeat) {
  ScenarioLines Out;
  std::vector<std::string> &Lines = Out.Replay;
  const std::string Printed = ast::print(S.Program, Ctx.fields());

  // Inputs travel by field NAME, restricted to fields the printed
  // program mentions — the served side interns only those, rejects
  // unknown names, and an unmentioned field cannot influence an answer.
  ast::Context ServedCtx;
  parser::ParseResult Parsed = parser::parseProgram(Printed, ServedCtx);
  if (!Parsed.ok())
    return Out;
  serve::Json Inputs = serve::Json::array();
  for (const Packet &In : S.Inputs) {
    serve::Json Obj = serve::Json::object();
    for (std::size_t F = 0; F < ServedCtx.fields().numFields(); ++F) {
      const std::string &Name =
          ServedCtx.fields().name(static_cast<FieldId>(F));
      FieldId Id = Ctx.fields().lookup(Name);
      if (Id != FieldTable::NotFound && Id < In.numFields())
        Obj.set(Name, serve::Json::integer(In.get(Id)));
    }
    Inputs.push(std::move(Obj));
  }

  serve::Json Compile = serve::Json::object();
  Compile.set("verb", serve::Json::string("compile"));
  Compile.set("program", serve::Json::string(Printed));
  Compile.set("solver", serve::Json::string("exact"));
  Lines.push_back(Compile.dump());

  serve::Json Delivery = serve::Json::object();
  Delivery.set("verb", serve::Json::string("query"));
  Delivery.set("program", serve::Json::string(Printed));
  Delivery.set("query", serve::Json::string("delivery"));
  Delivery.set("inputs", Inputs);
  for (unsigned R = 0; R < Repeat; ++R)
    Lines.push_back(Delivery.dump());

  if (S.HopField != FieldTable::NotFound) {
    serve::Json Hop = serve::Json::object();
    Hop.set("verb", serve::Json::string("query"));
    Hop.set("program", serve::Json::string(Printed));
    Hop.set("query", serve::Json::string("hop-stats"));
    Hop.set("inputs", Inputs);
    Hop.set("hopField",
            serve::Json::string(Ctx.fields().name(S.HopField)));
    Lines.push_back(Hop.dump());
  }

  serve::Json Lint = serve::Json::object();
  Lint.set("verb", serve::Json::string("lint"));
  Lint.set("program", serve::Json::string(Printed));
  serve::Json Sliced = Delivery;
  Sliced.set("slice", serve::Json::boolean(true));
  for (unsigned R = 0; R < Repeat; ++R) {
    Out.FrontEnd.push_back(Lint.dump());
    Out.FrontEnd.push_back(Sliced.dump());
  }
  return Out;
}

struct PhaseResult {
  double Seconds = 0;
  std::size_t Requests = 0;
  std::size_t WarmedEntries = 0;
  std::size_t StoreAppends = 0;
  uint64_t CacheHits = 0;
  std::vector<std::string> Responses;
  bool Ok = false;
};

/// Runs every request line through one fresh Service + Session over the
/// given store file. The Service dies at the end, as in a restart.
PhaseResult runPhase(const std::string &StorePath,
                     const std::vector<std::string> &Lines) {
  PhaseResult Out;
  serve::Service::Options Opts;
  Opts.StorePath = StorePath;
  std::string Error;
  std::unique_ptr<serve::Service> Svc =
      serve::Service::create(Opts, &Error);
  if (!Svc) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return Out;
  }
  Out.WarmedEntries = Svc->warmedEntries();

  serve::Session Sess(*Svc);
  Out.Responses.reserve(Lines.size());
  WallTimer Timer;
  for (const std::string &Line : Lines)
    Out.Responses.push_back(Sess.handleLine(Line));
  Out.Seconds = Timer.elapsed();
  Out.Requests = Lines.size();
  Out.StoreAppends = Svc->store() ? Svc->store()->stats().Appends : 0;
  Out.CacheHits = Svc->cache().stats().Hits;
  Out.Ok = Svc->errors() == 0;
  if (!Out.Ok)
    std::fprintf(stderr,
                 "error: %llu request(s) failed in this phase\n",
                 static_cast<unsigned long long>(Svc->errors()));
  return Out;
}

struct FrontEndResult {
  double Seconds = 0;
  int64_t MemoHits = 0;
  bool Ok = false;
};

/// Runs the front-end lines through one fresh in-memory Service + Session
/// and checks that every repeat of a request answers byte-identically to
/// its first answer. MemoHits comes from the stats verb's "memo" object
/// (0 when the daemon reports none).
FrontEndResult runFrontEnd(const std::vector<std::string> &Lines) {
  FrontEndResult Out;
  serve::Service::Options Opts;
  std::string Error;
  std::unique_ptr<serve::Service> Svc =
      serve::Service::create(Opts, &Error);
  if (!Svc) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return Out;
  }
  serve::Session Sess(*Svc);
  std::vector<std::string> Responses;
  Responses.reserve(Lines.size());
  WallTimer Timer;
  for (const std::string &Line : Lines)
    Responses.push_back(Sess.handleLine(Line));
  Out.Seconds = Timer.elapsed();

  std::map<std::string, std::string> FirstAnswer;
  bool Identical = true;
  for (std::size_t I = 0; I < Lines.size(); ++I)
    Identical &= FirstAnswer.emplace(Lines[I], Responses[I])
                     .first->second == Responses[I];
  if (!Identical)
    std::fprintf(stderr, "error: a repeated front-end request answered "
                         "differently\n");
  serve::Json Stats;
  if (serve::parseJson(Sess.handleLine("{\"verb\":\"stats\"}"), Stats,
                        nullptr)) {
    if (const serve::Json *Memo = Stats.find("memo"))
      Out.MemoHits = Memo->find("hits")->asInt();
  }
  if (Svc->errors() != 0)
    std::fprintf(stderr, "error: %llu front-end request(s) failed\n",
                 static_cast<unsigned long long>(Svc->errors()));
  Out.Ok = Identical && Svc->errors() == 0;
  return Out;
}

} // namespace

int main() {
  const char *StoreEnv = std::getenv("MCNK_SERVE_STORE");
  const std::string StorePath =
      StoreEnv && *StoreEnv ? StoreEnv : "/tmp/mcnk_serve_tp.store";
  const unsigned Repeat = bench::envUnsigned("MCNK_SERVE_REPEAT", 4);

  // A fresh store: cold means cold.
  std::remove(StorePath.c_str());

  std::vector<gen::ScenarioSpec> Registry = gen::buildRegistry();
  std::vector<std::unique_ptr<ast::Context>> Contexts;
  std::vector<std::string> Lines, FrontEndLines;
  std::size_t NumScenarios = 0;
  for (const gen::ScenarioSpec &Spec : Registry) {
    Contexts.push_back(std::make_unique<ast::Context>());
    gen::Scenario S = Spec.Build(*Contexts.back());
    ScenarioLines L = requestLines(*Contexts.back(), S, Repeat);
    Lines.insert(Lines.end(), L.Replay.begin(), L.Replay.end());
    FrontEndLines.insert(FrontEndLines.end(), L.FrontEnd.begin(),
                         L.FrontEnd.end());
    ++NumScenarios;
  }

  std::printf("=== mcnk_serve throughput (registry replay, exact "
              "solver) ===\n\n");
  std::printf("%zu scenarios, %zu requests per phase, store %s\n\n",
              NumScenarios, Lines.size(), StorePath.c_str());

  PhaseResult Cold = runPhase(StorePath, Lines);
  PhaseResult Warm = runPhase(StorePath, Lines);
  FrontEndResult Front = runFrontEnd(FrontEndLines);
  if (!Cold.Ok || !Warm.Ok || !Front.Ok)
    return 1;

  // The restart contract: the warm service loaded the cold run's
  // compiles from disk, answered from them, and wrote nothing new.
  bool Warmed = Warm.WarmedEntries > 0 && Warm.CacheHits > 0 &&
                Warm.StoreAppends == 0 && Cold.StoreAppends > 0;
  bool Identical = Cold.Responses == Warm.Responses;
  if (!Warmed)
    std::fprintf(stderr,
                 "error: warm phase did not answer from the disk store "
                 "(warmed %zu, hits %llu, appends %zu)\n",
                 Warm.WarmedEntries,
                 static_cast<unsigned long long>(Warm.CacheHits),
                 Warm.StoreAppends);
  if (!Identical)
    std::fprintf(stderr,
                 "error: warm responses differ from cold responses\n");

  double ColdRps = Cold.Seconds > 0 ? Cold.Requests / Cold.Seconds : 0;
  double WarmRps = Warm.Seconds > 0 ? Warm.Requests / Warm.Seconds : 0;
  std::printf("cold: %8.3f s  %10.1f req/s  (%zu store appends)\n",
              Cold.Seconds, ColdRps, Cold.StoreAppends);
  std::printf("warm: %8.3f s  %10.1f req/s  (%zu entries warmed, "
              "%llu cache hits, %zu appends)\n",
              Warm.Seconds, WarmRps, Warm.WarmedEntries,
              static_cast<unsigned long long>(Warm.CacheHits),
              Warm.StoreAppends);
  std::printf("restart speedup %.2fx; responses %s\n",
              Warm.Seconds > 0 ? Cold.Seconds / Warm.Seconds : 0.0,
              Identical ? "byte-identical" : "MISMATCH");
  double FrontRps =
      Front.Seconds > 0 ? FrontEndLines.size() / Front.Seconds : 0;
  std::printf("front-end (lint + sliced delivery, x%u each): %8.3f s  "
              "%10.1f req/s  (%lld memo hits of %zu requests)\n",
              Repeat, Front.Seconds, FrontRps,
              static_cast<long long>(Front.MemoHits),
              FrontEndLines.size());

  if (const char *Path = std::getenv("MCNK_SERVE_JSON"); Path && *Path) {
    if (std::FILE *F = std::fopen(Path, "w")) {
      std::fprintf(
          F,
          "{\n"
          "  \"name\": \"serve_throughput\",\n"
          "  \"model\": \"scenario-registry replay through one daemon "
          "session, exact solver, x%u query repeats\",\n"
          "  \"engine\": \"mcnk_serve Session over CompileCache + "
          "persistent CacheStore\",\n",
          Repeat);
      bench::writeRunInfo(F, 1);
      std::fprintf(
          F,
          "  \"scenarios\": %zu,\n"
          "  \"requests_per_phase\": %zu,\n"
          "  \"cold_seconds\": %.6f,\n"
          "  \"cold_requests_per_second\": %.1f,\n"
          "  \"cold_store_appends\": %zu,\n"
          "  \"warm_seconds\": %.6f,\n"
          "  \"warm_requests_per_second\": %.1f,\n"
          "  \"warm_entries_warmed\": %zu,\n"
          "  \"warm_cache_hits\": %llu,\n"
          "  \"warm_store_appends\": %zu,\n"
          "  \"restart_speedup\": %.3f,\n"
          "  \"responses_identical\": %s,\n"
          "  \"frontend_requests\": %zu,\n"
          "  \"frontend_seconds\": %.6f,\n"
          "  \"frontend_requests_per_second\": %.1f,\n"
          "  \"frontend_memo_hits\": %lld\n"
          "}\n",
          NumScenarios, Lines.size(), Cold.Seconds, ColdRps,
          Cold.StoreAppends, Warm.Seconds, WarmRps, Warm.WarmedEntries,
          static_cast<unsigned long long>(Warm.CacheHits),
          Warm.StoreAppends,
          Warm.Seconds > 0 ? Cold.Seconds / Warm.Seconds : 0.0,
          Identical ? "true" : "false", FrontEndLines.size(),
          Front.Seconds, FrontRps, static_cast<long long>(Front.MemoHits));
      std::fclose(F);
      std::printf("wrote %s\n", Path);
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", Path);
      return 1;
    }
  }

  return Warmed && Identical ? 0 : 1;
}
