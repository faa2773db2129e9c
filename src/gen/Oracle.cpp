//===----------------------------------------------------------------------===//
///
/// \file
/// Differential-oracle implementation. One crossCheckProgram call fans a
/// guarded program out to every engine and funnels the answers back
/// through exact-rational (or toleranced) comparisons; scenario checks
/// layer teleport verdicts, closed forms, hop statistics, and
/// LoopSolveStats sanity on top. Disagreement strings always embed the
/// case label (which embeds the seed), so any red run reproduces.
///
//===----------------------------------------------------------------------===//

#include "gen/Oracle.h"

#include "analysis/Verifier.h"
#include "ast/Deps.h"
#include "ast/Printer.h"
#include "ast/Simplify.h"
#include "ast/Slice.h"
#include "ast/Traversal.h"
#include "baseline/Exhaustive.h"
#include "fdd/CompileCache.h"
#include "fdd/Export.h"
#include "parser/Parser.h"
#include "prism/Checker.h"
#include "prism/Translate.h"
#include "semantics/SetSemantics.h"
#include "serve/Lint.h"
#include "serve/Server.h"
#include "support/Error.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_map>

using namespace mcnk;
using namespace mcnk::gen;
using ast::Context;
using ast::Node;

void OracleReport::merge(const OracleReport &Other) {
  NumCases += Other.NumCases;
  NumChecks += Other.NumChecks;
  Disagreements.insert(Disagreements.end(), Other.Disagreements.begin(),
                       Other.Disagreements.end());
}

std::string OracleReport::summary() const {
  return std::to_string(NumCases) + " cases, " +
         std::to_string(NumChecks) + " checks, " +
         std::to_string(Disagreements.size()) + " disagreements";
}

namespace {

std::string hexSeed(uint64_t Seed) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "0x%llx",
                static_cast<unsigned long long>(Seed));
  return Buffer;
}

std::string renderPacket(const Context &Ctx, const Packet &P) {
  std::string Out = "{";
  for (std::size_t F = 0; F < P.numFields(); ++F) {
    if (F)
      Out += ", ";
    Out += Ctx.fields().name(static_cast<FieldId>(F)) + "=" +
           std::to_string(P.get(static_cast<FieldId>(F)));
  }
  return Out + "}";
}

/// Bundles the report with the case label so every check is one line.
struct Checker {
  OracleReport &Report;
  const std::string &Label;

  void check(bool Ok, const std::string &Message) {
    ++Report.NumChecks;
    if (!Ok)
      Report.Disagreements.push_back(Label + ": " + Message);
  }
  void fail(const std::string &Message) {
    Report.Disagreements.push_back(Label + ": " + Message);
  }
};

/// Replays \p Ref with every modification to an out-of-cone field
/// stripped from the leaves — the observable part of the diagram under
/// the cone. Out-of-cone *tests* are kept whenever their projected
/// children still differ: a sound slice leaves no such test behind, so a
/// dependency the analysis missed fails the reference-equality check
/// instead of being projected away with it.
fdd::FddRef projectFdd(fdd::FddManager &M, fdd::FddRef Ref,
                       const std::vector<bool> &Relevant,
                       std::unordered_map<fdd::FddRef, fdd::FddRef> &Memo) {
  auto It = Memo.find(Ref);
  if (It != Memo.end())
    return It->second;
  fdd::FddRef Out;
  if (fdd::isLeafRef(Ref)) {
    std::vector<std::pair<fdd::Action, Rational>> Entries;
    for (const auto &[A, W] : M.leafDist(Ref).entries()) {
      fdd::Action Projected = A;
      if (!A.isDrop())
        for (const auto &[F, V] : A.mods())
          if (F < Relevant.size() && !Relevant[F])
            Projected = Projected.dropMod(F);
      Entries.emplace_back(std::move(Projected), W);
    }
    Out = M.leaf(fdd::ActionDist::fromEntries(std::move(Entries)));
  } else {
    const fdd::FddManager::InnerNode &N = M.innerNode(Ref);
    fdd::FddRef Hi = projectFdd(M, N.Hi, Relevant, Memo);
    fdd::FddRef Lo = projectFdd(M, N.Lo, Relevant, Memo);
    Out = M.inner(N.Field, N.Value, Hi, Lo); // Collapses when Hi == Lo.
  }
  Memo.emplace(Ref, Out);
  return Out;
}

/// Pr[F Done] of \p Program on \p In through the prismlite pipeline.
/// Returns false (with a disagreement already recorded) on any pipeline
/// error — a translation the checker rejects is itself a bug.
bool prismDelivery(Context &Ctx, const Node *Program, const Packet &In,
                   markov::SolverKind Solver, Checker &C, Rational &Out) {
  prism::Translation T = prism::translate(Ctx, Program, In);
  prism::Model Model;
  prism::GuardExpr Goal;
  std::string Error;
  if (!prism::parseModel(T.Source, Model, Error)) {
    C.fail("prism translation failed to parse: " + Error);
    return false;
  }
  if (!prism::parseGuard(T.DoneGuard, Model, Goal, Error)) {
    C.fail("prism done-guard failed to parse: " + Error);
    return false;
  }
  prism::CheckResult CR;
  if (!prism::checkReachability(Model, Goal, Solver, CR, Error)) {
    C.fail("prismlite rejected the translated model: " + Error);
    return false;
  }
  Out = CR.Probability;
  return true;
}

} // namespace

OracleReport gen::crossCheckProgram(Context &Ctx, const Node *Program,
                                    const std::vector<Packet> &Inputs,
                                    const OracleOptions &O,
                                    const std::string &Label,
                                    analysis::Verifier *ExactVerifier) {
  OracleReport R;
  R.NumCases = 1;
  Checker C{R, Label};

  // --- Compile under every solver ----------------------------------------
  std::unique_ptr<analysis::Verifier> OwnedExact;
  if (!ExactVerifier) {
    OwnedExact =
        std::make_unique<analysis::Verifier>(markov::SolverKind::Exact);
    ExactVerifier = OwnedExact.get();
  }
  analysis::Verifier &VExact = *ExactVerifier;
  markov::SolverStructure ForcedModular;
  ForcedModular.Kernel = markov::BlockKernel::Modular;
  analysis::Verifier VDirect(markov::SolverKind::Direct);
  analysis::Verifier VIter(markov::SolverKind::Iterative);
  fdd::FddRef E = VExact.compile(Program);
  fdd::FddRef D = VDirect.compile(Program);
  fdd::FddRef I = VIter.compile(Program);

  // --- Per-input delivery / distribution agreement ----------------------
  for (std::size_t Idx = 0; Idx < Inputs.size(); ++Idx) {
    const Packet &In = Inputs[Idx];
    const std::string Where = " on input " + renderPacket(Ctx, In);
    Rational DelExact = VExact.deliveryProbability(E, In);
    double Expected = DelExact.toDouble();

    double DelDirect = VDirect.deliveryProbability(D, In).toDouble();
    C.check(std::fabs(DelDirect - Expected) <= O.Tolerance,
            "direct(float) delivery " + std::to_string(DelDirect) +
                " != exact " + DelExact.toString() + Where);
    double DelIter = VIter.deliveryProbability(I, In).toDouble();
    C.check(std::fabs(DelIter - Expected) <= O.Tolerance,
            "iterative delivery " + std::to_string(DelIter) + " != exact " +
                DelExact.toString() + Where);

    if (O.CheckBaseline) {
      baseline::InferenceOptions BO;
      BO.LoopBound = O.BaselineLoopBound;
      BO.PathBudget = O.BaselinePathBudget;
      baseline::InferenceResult BR = baseline::infer(Program, In, BO);
      if (!BR.BudgetExhausted) {
        if (BR.Residual.isZero()) {
          // Complete enumeration: the whole output distribution must
          // match the native exact backend, point for point.
          auto Out = VExact.manager().outputDistribution(E, In);
          C.check(Out.Outputs == BR.Outputs && Out.Dropped == BR.Dropped,
                  "exhaustive baseline output distribution != native" +
                      Where);
        } else {
          Rational Gap = DelExact - BR.deliveredMass();
          C.check(!Gap.isNegative() && Gap <= BR.Residual,
                  "exhaustive baseline delivery outside the residual "
                  "envelope" +
                      Where);
        }
      }
    }

    if (O.CheckPrism && Idx < O.MaxPrismInputs) {
      Rational PrismExact;
      if (prismDelivery(Ctx, Program, In, markov::SolverKind::Exact, C,
                        PrismExact))
        C.check(PrismExact == DelExact,
                "prismlite exact delivery " + PrismExact.toString() +
                    " != native " + DelExact.toString() + Where);
      Rational PrismIter;
      if (prismDelivery(Ctx, Program, In, markov::SolverKind::Iterative, C,
                        PrismIter))
        C.check(std::fabs(PrismIter.toDouble() - Expected) <= O.Tolerance,
                "prismlite iterative delivery != native" + Where);
    }
  }

  // --- Syntax and portable-FDD round-trips ------------------------------
  if (O.CheckRoundTrips) {
    std::string Printed = ast::print(Program, Ctx.fields());
    parser::ParseResult PR = parser::parseProgram(Printed, Ctx);
    if (!PR.ok()) {
      C.fail("printed program failed to reparse (" +
             PR.Diagnostics.front().render() + "): " + Printed);
    } else {
      C.check(ast::isGuarded(PR.Program),
              "reparsed program left the guarded fragment");
      C.check(ast::structurallyEqual(Program, PR.Program),
              "print -> parse round-trip is not structurally identical: " +
                  Printed);
      C.check(VExact.compile(PR.Program) == E,
              "reparsed program compiles to a different diagram");
    }

    fdd::PortableFdd Portable = fdd::exportFdd(VExact.manager(), E);
    C.check(fdd::importFdd(VExact.manager(), Portable) == E,
            "same-manager export -> import is not the identity");
    fdd::FddManager Fresh(markov::SolverKind::Exact);
    fdd::FddRef Imported = fdd::importFdd(Fresh, Portable);
    fdd::PortableFdd Reexported = fdd::exportFdd(Fresh, Imported);
    C.check(fdd::importFdd(VExact.manager(), Reexported) == E,
            "cross-manager export -> import -> export round-trip lost "
            "reference equality");
  }

  // --- Verified-simplifier cross-checks (ARCHITECTURE S15) --------------
  // The simplifier only applies rewrites the abstract interpretation
  // proves pointwise semantics-preserving over the full input space, and
  // FDD compilation is canonical — so the simplified program must compile
  // to the reference-identical exact diagram, on every conformance
  // scenario and fuzz case the oracle ever sees. Idempotence is held to
  // the same standard.
  if (O.CheckSimplify) {
    const Node *Simplified = ast::simplify(Ctx, Program);
    C.check(VExact.compile(Simplified) == E,
            "simplified program compiles to a different diagram than the "
            "original");
    const Node *Again = ast::simplify(Ctx, Simplified);
    C.check(Again == Simplified ||
                ast::structurallyEqual(Again, Simplified),
            "simplify is not idempotent");
  }

  // --- Query-directed slicing cross-checks (ARCHITECTURE S17) -----------
  // Slicing for the delivery observation deletes assignments to fields
  // outside the delivery cone of influence. Its soundness contract is
  // checked in both directions: the sliced diagram must equal the
  // unsliced one projected onto the cone (reference equality, so a missed
  // dependency cannot hide), and every engine configuration must answer
  // delivery queries identically on the sliced program.
  if (O.CheckSlice) {
    ast::SliceResult SR =
        ast::slice(Ctx, Program, ast::ObservationSet::delivery());
    C.check(ast::slice(Ctx, SR.Program, ast::ObservationSet::delivery())
                .Program == SR.Program,
            "slice is not idempotent");

    analysis::Verifier VS(markov::SolverKind::Exact);
    fdd::FddRef SE = VS.compile(SR.Program);
    fdd::PortableFdd Unsliced = fdd::exportFdd(VExact.manager(), E);
    std::unordered_map<fdd::FddRef, fdd::FddRef> Memo;
    C.check(projectFdd(VS.manager(),
                       fdd::importFdd(VS.manager(), Unsliced), SR.Relevant,
                       Memo) == SE,
            "delivery-sliced compile is not reference-equal to the "
            "cone projection of the unsliced diagram");
    for (const Packet &In : Inputs)
      C.check(VS.deliveryProbability(SE, In).toString() ==
                  VExact.deliveryProbability(E, In).toString(),
              "sliced delivery != unsliced delivery on input " +
                  renderPacket(Ctx, In));

    // The all-fields observation (what equivalence/refinement queries
    // observe) must make slicing a verified no-op on the diagram.
    const Node *AllFields =
        ast::slice(Ctx, Program, ast::ObservationSet::all()).Program;
    analysis::Verifier VA(markov::SolverKind::Exact);
    C.check(fdd::importFdd(VA.manager(), Unsliced) == VA.compile(AllFields),
            "all-fields slice changed the compiled diagram");

    fdd::PortableFdd Sliced = fdd::exportFdd(VS.manager(), SE);
    if (O.CheckModular) {
      analysis::Verifier VM(markov::SolverKind::Exact);
      VM.setSolverStructure(ForcedModular);
      C.check(fdd::importFdd(VM.manager(), Sliced) == VM.compile(SR.Program),
              "sliced GF(p)-kernel compile is not reference-equal to the "
              "sliced exact compile");
    }
    if (O.CheckCompileCache) {
      std::unique_ptr<fdd::CompileCache> Local;
      fdd::CompileCache *Cache = O.Cache;
      if (!Cache) {
        Local = std::make_unique<fdd::CompileCache>();
        Cache = Local.get();
      }
      analysis::Verifier VC(markov::SolverKind::Exact);
      VC.setCompileCache(Cache);
      fdd::FddRef Cold = VC.compile(SR.Program);
      C.check(fdd::importFdd(VC.manager(), Sliced) == Cold,
              "sliced cached cold compile is not reference-equal to the "
              "uncached sliced compile");
      C.check(VC.compile(SR.Program) == Cold,
              "sliced cache-hit recompile differs from the sliced cold "
              "compile");
    }
  }

  // --- Block-pipeline cross-checks (ARCHITECTURE S13) -------------------
  // Every engine solves loops block by block over the SCC condensation,
  // and every engine's per-block metrics must sum (or, for the block
  // size, max) to the run's totals. Shared by the modular section below.
  auto CheckStatSums = [&C](const fdd::LoopSolveStats &LS,
                            const std::string &Mode) {
    std::size_t States = 0, QEntries = 0, Ops = 0, Fill = 0, Largest = 0;
    for (const markov::BlockMetrics &B : LS.Blocks) {
      States += B.NumStates;
      QEntries += B.NumQEntries;
      Ops += B.EliminationOps;
      Fill += B.FillIn;
      Largest = std::max(Largest, B.NumStates);
    }
    C.check(LS.Blocks.size() == LS.NumBlocks && States == LS.NumSolved &&
                QEntries == LS.NumSolvedQ && Ops == LS.EliminationOps &&
                Fill == LS.FillIn && Largest == LS.MaxBlockSize,
            "per-block solver stats do not sum to the totals (" + Mode +
                ")");
  };

  if (O.CheckBlocked) {
    CheckStatSums(VExact.manager().lastLoopStats(), "exact");
    CheckStatSums(VDirect.manager().lastLoopStats(), "direct");
    CheckStatSums(VIter.manager().lastLoopStats(), "iterative");
  }

  // --- Block-kernel cross-checks (ARCHITECTURE S14) ---------------------
  // The GF(p) kernel recovers the same unique rational solution as
  // Rational elimination (every reconstruction is re-verified against
  // fresh primes, with a Rational fallback when the prime budget runs
  // out), so each kernel forced on every block is held to strict
  // reference equality with the default per-block choice: GF(p)
  // uncached, cold and on the hit path of a fresh cache (exact entries
  // share one cache key, so a shared cache would hit and never run the
  // kernel), and Rational uncached.
  if (O.CheckModular) {
    fdd::PortableFdd Auto = fdd::exportFdd(VExact.manager(), E);

    analysis::Verifier VM(markov::SolverKind::Exact);
    VM.setSolverStructure(ForcedModular);
    fdd::FddRef M = VM.compile(Program);
    C.check(fdd::importFdd(VM.manager(), Auto) == M,
            "GF(p)-kernel compile is not reference-equal to the exact "
            "engine");
    CheckStatSums(VM.manager().lastLoopStats(), "modular");

    fdd::CompileCache Fresh;
    analysis::Verifier VMC(markov::SolverKind::Exact);
    VMC.setSolverStructure(ForcedModular);
    VMC.setCompileCache(&Fresh);
    fdd::FddRef Cold = VMC.compile(Program);
    C.check(fdd::importFdd(VMC.manager(), Auto) == Cold,
            "GF(p)-kernel cached cold compile is not reference-equal to "
            "the exact engine");
    C.check(VMC.compile(Program) == Cold,
            "GF(p)-kernel cache-hit recompile differs from the cold cached "
            "compile");

    markov::SolverStructure ForcedRational;
    ForcedRational.Kernel = markov::BlockKernel::Rational;
    analysis::Verifier VR(markov::SolverKind::Exact);
    VR.setSolverStructure(ForcedRational);
    C.check(fdd::importFdd(VR.manager(), Auto) == VR.compile(Program),
            "Rational-kernel compile is not reference-equal to the exact "
            "engine");
  }

  // --- Compile-cache and GC cross-checks (ARCHITECTURE S12) -------------
  // A cache-backed verifier runs the same program cold and on the hit
  // path; then its manager is garbage-collected down to the one live
  // root. Every stage must stay reference-equal to the uncached exact
  // engine, and the post-GC diagram must answer queries identically.
  if (O.CheckCompileCache) {
    std::unique_ptr<fdd::CompileCache> Local;
    fdd::CompileCache *Cache = O.Cache;
    if (!Cache) {
      Local = std::make_unique<fdd::CompileCache>();
      Cache = Local.get();
    }
    analysis::Verifier VC(markov::SolverKind::Exact);
    VC.setCompileCache(Cache);
    fdd::FddRef Cold = VC.compile(Program);
    C.check(VC.compile(Program) == Cold,
            "cache-hit recompile is not reference-equal to the cold "
            "cached compile");
    fdd::PortableFdd Uncached = fdd::exportFdd(VExact.manager(), E);
    C.check(fdd::importFdd(VC.manager(), Uncached) == Cold,
            "cached compile is not reference-equal to the uncached "
            "engine's diagram");

    std::size_t InnerBefore = VC.manager().numInnerNodes();
    fdd::GcStats GS = VC.manager().gc({&Cold});
    C.check(VC.manager().numInnerNodes() ==
                    GS.LiveInners &&
                GS.LiveInners <= InnerBefore,
            "gc did not compact the inner-node pool consistently");
    C.check(fdd::importFdd(VC.manager(), Uncached) == Cold,
            "gc broke reference identity of the live root");
    for (std::size_t Idx = 0;
         Idx < Inputs.size() && Idx < O.MaxCacheCheckInputs; ++Idx) {
      const Packet &In = Inputs[Idx];
      auto Want = VExact.manager().outputDistribution(E, In);
      auto Got = VC.manager().outputDistribution(Cold, In);
      C.check(Want.Outputs == Got.Outputs && Want.Dropped == Got.Dropped,
              "post-gc output distribution differs from the uncached "
              "engine on input " +
                  renderPacket(Ctx, In));
    }
  }
  return R;
}

namespace {

/// One exchange against an in-process daemon session. Returns false (with
/// a disagreement recorded) unless the response line parses back and
/// carries ok:true — the conformance check treats a served error exactly
/// like a wrong answer.
bool serveAsk(serve::Session &Sess, const serve::Json &Request,
              serve::Json &Response, Checker &C) {
  std::string Line = Sess.handleLine(Request.dump());
  std::string Error;
  if (!serve::parseJson(Line, Response, &Error)) {
    C.fail("serve: response did not parse: " + Error);
    return false;
  }
  const serve::Json *Ok = Response.find("ok");
  if (!Ok || !Ok->isBool() || !Ok->asBool()) {
    const serve::Json *Err = Response.find("error");
    C.fail("serve: request rejected: " +
           (Err && Err->isString() ? Err->asString() : Line));
    return false;
  }
  return true;
}

const std::string *serveString(const serve::Json &Value,
                               const std::string &Key) {
  const serve::Json *V = Value.find(Key);
  return V && V->isString() ? &V->asString() : nullptr;
}

/// The S16 serving-layer conformance check: an in-process Service +
/// Session must answer the scenario's questions about the *printed*
/// program with exactly the inline verifier's rationals. toString()
/// equality is exact equality — rationals are always canonical.
void serveCheckScenario(Context &Ctx, const Scenario &S,
                        analysis::Verifier &V, fdd::FddRef P, Checker &C) {
  serve::Service::Options SO; // No store.
  std::string Error;
  std::unique_ptr<serve::Service> Svc = serve::Service::create(SO, &Error);
  if (!Svc) {
    C.fail("serve: service creation failed: " + Error);
    return;
  }
  serve::Session Sess(*Svc);
  const std::string Printed = ast::print(S.Program, Ctx.fields());

  // Ask the daemon which fields the printed program mentions: inputs
  // travel by field NAME and are restricted to those (a field the program
  // never tests or sets cannot influence any answer, and the served side
  // rejects names it has never interned).
  serve::Json ParseReq = serve::Json::object();
  ParseReq.set("verb", serve::Json::string("parse"));
  ParseReq.set("program", serve::Json::string(Printed));
  serve::Json ParseResp;
  if (!serveAsk(Sess, ParseReq, ParseResp, C))
    return;
  std::vector<std::string> Known;
  if (const serve::Json *Fields = ParseResp.find("fields"))
    for (const serve::Json &F : Fields->elements())
      if (F.isString())
        Known.push_back(F.asString());

  serve::Json Inputs = serve::Json::array();
  for (const Packet &In : S.Inputs) {
    serve::Json Obj = serve::Json::object();
    for (const std::string &Name : Known) {
      FieldId Id = Ctx.fields().lookup(Name);
      if (Id != FieldTable::NotFound && Id < In.numFields())
        Obj.set(Name, serve::Json::integer(In.get(Id)));
    }
    Inputs.push(std::move(Obj));
  }

  // Delivery, batched over every scenario input.
  serve::Json DelReq = serve::Json::object();
  DelReq.set("verb", serve::Json::string("query"));
  DelReq.set("program", serve::Json::string(Printed));
  DelReq.set("query", serve::Json::string("delivery"));
  DelReq.set("inputs", Inputs);
  serve::Json DelResp;
  if (serveAsk(Sess, DelReq, DelResp, C)) {
    const serve::Json *Results = DelResp.find("results");
    if (!Results || !Results->isArray() ||
        Results->elements().size() != S.Inputs.size()) {
      C.fail("serve: delivery results missing or wrong length");
    } else {
      for (std::size_t Idx = 0; Idx < S.Inputs.size(); ++Idx) {
        const serve::Json &Got = Results->elements()[Idx];
        Rational Want = V.deliveryProbability(P, S.Inputs[Idx]);
        C.check(Got.isString() && Got.asString() == Want.toString(),
                "served delivery != inline verifier on input " +
                    renderPacket(Ctx, S.Inputs[Idx]));
      }
      const std::string *Avg = serveString(DelResp, "average");
      C.check(Avg && *Avg == V.averageDeliveryProbability(P, S.Inputs)
                                 .toString(),
              "served average delivery != inline verifier");
    }
  }

  // Hop statistics: delivered mass plus the whole histogram, exactly.
  if (S.HopField != FieldTable::NotFound) {
    serve::Json HopReq = serve::Json::object();
    HopReq.set("verb", serve::Json::string("query"));
    HopReq.set("program", serve::Json::string(Printed));
    HopReq.set("query", serve::Json::string("hop-stats"));
    HopReq.set("inputs", Inputs);
    HopReq.set("hopField",
               serve::Json::string(Ctx.fields().name(S.HopField)));
    serve::Json HopResp;
    if (serveAsk(Sess, HopReq, HopResp, C)) {
      analysis::HopStats Want = V.hopStats(P, S.Inputs, S.HopField);
      const std::string *Delivered = serveString(HopResp, "delivered");
      C.check(Delivered && *Delivered == Want.Delivered.toString(),
              "served hop-stats delivered mass != inline verifier");
      const serve::Json *Hist = HopResp.find("histogram");
      bool HistOk = Hist && Hist->isObject() &&
                    Hist->members().size() == Want.Histogram.size();
      if (HistOk)
        for (const auto &[Hops, Mass] : Want.Histogram) {
          const std::string *Got =
              serveString(*Hist, std::to_string(Hops));
          if (!Got || *Got != Mass.toString())
            HistOk = false;
        }
      C.check(HistOk, "served hop histogram != inline verifier");
    }
  }

  // The lint verb must agree entry-for-entry with the shared pipeline
  // behind `mcnk_cli lint --json` (serve/Lint.h) on the printed program.
  {
    serve::Json LintReq = serve::Json::object();
    LintReq.set("verb", serve::Json::string("lint"));
    LintReq.set("program", serve::Json::string(Printed));
    serve::Json LintResp;
    if (serveAsk(Sess, LintReq, LintResp, C)) {
      ast::Context LCtx;
      parser::ParseResult LR = parser::parseProgram(Printed, LCtx);
      std::vector<serve::LintEntry> Want;
      if (LR.ok())
        Want = serve::lintProgram(LCtx, LR.Program, LR.Warnings);
      const serve::Json *Fs = LintResp.find("findings");
      bool Match = LR.ok() && Fs && Fs->isArray() &&
                   Fs->elements().size() == Want.size();
      if (Match)
        for (std::size_t Idx = 0; Idx < Want.size(); ++Idx)
          if (Fs->elements()[Idx].dump() !=
              serve::lintEntryJson("<program>", Want[Idx]).dump())
            Match = false;
      C.check(Match, "served lint findings != shared lint pipeline");
    }
  }

  // Teleport verdicts through the self-contained two-program query path.
  if (S.Teleport) {
    const std::string PrintedSpec = ast::print(S.Teleport, Ctx.fields());
    fdd::FddRef T = V.compile(S.Teleport);
    for (const char *Query : {"equivalent", "refines"}) {
      serve::Json CmpReq = serve::Json::object();
      CmpReq.set("verb", serve::Json::string("query"));
      CmpReq.set("program", serve::Json::string(Printed));
      CmpReq.set("program2", serve::Json::string(PrintedSpec));
      CmpReq.set("query", serve::Json::string(Query));
      serve::Json CmpResp;
      if (!serveAsk(Sess, CmpReq, CmpResp, C))
        continue;
      bool Want = std::string(Query) == "equivalent" ? V.equivalent(P, T)
                                                     : V.refines(P, T);
      const serve::Json *Holds = CmpResp.find("holds");
      C.check(Holds && Holds->isBool() && Holds->asBool() == Want,
              std::string("served ") + Query + " verdict != inline "
                                               "verifier");
    }
  }
}

} // namespace

OracleReport gen::crossCheckScenario(Context &Ctx, const Scenario &S,
                                     const OracleOptions &Options) {
  OracleOptions O = Options;
  O.CheckPrism = O.CheckPrism && S.CheckPrism;
  O.CheckBaseline = O.CheckBaseline && S.CheckBaseline;
  O.BaselineLoopBound = S.BaselineLoopBound;

  // One exact verifier serves both the per-engine cross-checks and the
  // scenario-level queries below (the second compile is a cache hit, and
  // lastLoopStats still describes this model's loop).
  analysis::Verifier V(markov::SolverKind::Exact);
  OracleReport R =
      crossCheckProgram(Ctx, S.Program, S.Inputs, O, S.Name, &V);
  Checker C{R, S.Name};

  fdd::FddRef P = V.compile(S.Program);

  // Closed-form delivery (per input).
  if (S.HasClosedForm)
    for (const Packet &In : S.Inputs) {
      Rational Del = V.deliveryProbability(P, In);
      C.check(Del == S.ClosedFormDelivery,
              "delivery " + Del.toString() + " != closed form " +
                  S.ClosedFormDelivery.toString() + " on input " +
                  renderPacket(Ctx, In));
    }

  // Teleport verdicts: the model always refines its specification, and is
  // equivalent exactly when it delivers with probability one everywhere.
  if (S.Teleport) {
    fdd::FddRef T = V.compile(S.Teleport);
    C.check(V.refines(P, T), "model does not refine its teleport spec");
    bool FullDelivery = true;
    for (const Packet &In : S.Inputs)
      if (!V.deliveryProbability(P, In).isOne())
        FullDelivery = false;
    C.check(V.equivalent(P, T) == FullDelivery,
            std::string("teleport equivalence verdict inconsistent with ") +
                (FullDelivery ? "full" : "lossy") + " delivery");
  }

  // Hop statistics: internal consistency plus an exact cross-check of the
  // whole histogram against the exhaustive baseline.
  if (S.HopField != FieldTable::NotFound) {
    analysis::HopStats HS = V.hopStats(P, S.Inputs, S.HopField);
    Rational Avg = V.averageDeliveryProbability(P, S.Inputs);
    C.check(HS.Delivered == Avg,
            "hop-stats delivered mass != average delivery probability");
    Rational HistTotal;
    unsigned MaxHop = 0;
    for (const auto &[Hop, Mass] : HS.Histogram) {
      HistTotal += Mass;
      MaxHop = std::max(MaxHop, Hop);
    }
    C.check(HistTotal == HS.Delivered,
            "hop histogram mass != delivered mass");
    C.check(HS.cumulative(MaxHop) == HS.Delivered,
            "cumulative(max hop) != delivered mass");

    if (O.CheckBaseline) {
      std::map<unsigned, Rational> Reference;
      bool Complete = true;
      for (const Packet &In : S.Inputs) {
        baseline::InferenceOptions BO;
        BO.LoopBound = O.BaselineLoopBound;
        BO.PathBudget = O.BaselinePathBudget;
        baseline::InferenceResult BR = baseline::infer(S.Program, In, BO);
        if (BR.BudgetExhausted || !BR.Residual.isZero()) {
          Complete = false;
          break;
        }
        for (const auto &[Pkt, W] : BR.Outputs)
          Reference[Pkt.get(S.HopField)] += W;
      }
      if (Complete) {
        Rational Split(1, static_cast<int64_t>(S.Inputs.size()));
        for (auto &[Hop, Mass] : Reference)
          Mass *= Split;
        C.check(Reference == HS.Histogram,
                "hop histogram != exhaustive-baseline histogram");
      }
    }
  }

  // Loop-solver statistics must describe a well-formed absorbing chain.
  if (S.LoopBearing) {
    const fdd::LoopSolveStats &LS = V.manager().lastLoopStats();
    C.check(LS.NumStates > 0 && LS.NumTransient > 0,
            "loop-bearing model solved no loop (stats empty)");
    C.check(LS.NumTransient <= LS.NumStates,
            "more transient classes than symbolic states");
    C.check(LS.NumQEntries <= LS.NumTransient * LS.NumTransient,
            "Q has more entries than a dense matrix");
    bool AnyDelivery = false;
    for (const Packet &In : S.Inputs)
      if (!V.deliveryProbability(P, In).isZero())
        AnyDelivery = true;
    if (AnyDelivery)
      C.check(LS.NumAbsorbing >= 1,
              "delivery is positive but the chain has no absorbing class");
  }

  // Scenario-level slicing agreement (docs/ARCHITECTURE.md S17): the
  // sliced diagrams must answer the scenario's own query classes exactly —
  // average delivery under the delivery observation, and the full hop
  // histogram under the counter-field observation (which must keep the
  // counter's writes while still shedding unrelated state).
  if (O.CheckSlice) {
    analysis::Verifier VS(markov::SolverKind::Exact);
    fdd::FddRef SP = VS.compile(
        ast::slice(Ctx, S.Program, ast::ObservationSet::delivery()).Program);
    C.check(VS.averageDeliveryProbability(SP, S.Inputs).toString() ==
                V.averageDeliveryProbability(P, S.Inputs).toString(),
            "sliced average delivery != unsliced average delivery");
    if (S.HopField != FieldTable::NotFound) {
      analysis::Verifier VH(markov::SolverKind::Exact);
      fdd::FddRef HP = VH.compile(
          ast::slice(Ctx, S.Program, ast::ObservationSet::fields({S.HopField}))
              .Program);
      analysis::HopStats Want = V.hopStats(P, S.Inputs, S.HopField);
      analysis::HopStats Got = VH.hopStats(HP, S.Inputs, S.HopField);
      C.check(Got.Delivered == Want.Delivered &&
                  Got.Histogram == Want.Histogram,
              "hop-field-sliced hop statistics != unsliced");
    }
  }

  // Serving-layer conformance (docs/ARCHITECTURE.md S16).
  if (O.CheckServe)
    serveCheckScenario(Ctx, S, V, P, C);

  return R;
}

namespace {

/// Set-semantics verdict comparison on a tiny program pair: the verifier's
/// equivalence/refinement decisions must match pointwise singleton
/// evaluation under the reference semantics (with one fresh value per
/// field beyond the generator's range, exercising the wildcard classes).
void verdictCase(uint64_t Seed, const OracleOptions &O, OracleReport &R) {
  Context Ctx;
  GenOptions Tiny;
  Tiny.NumFields = 2;
  Tiny.NumValues = 2;
  Tiny.MaxDepth = 2;
  Prng Rng(Seed);
  const Node *P = generateProgram(Ctx, Rng, Tiny);
  const Node *Q = generateProgram(Ctx, Rng, Tiny);
  for (unsigned F = 0; F < Tiny.NumFields; ++F)
    Ctx.field("f" + std::to_string(F));

  const std::string Label = "verdict seed=" + hexSeed(Seed);
  Checker C{R, Label};
  ++R.NumCases;

  PacketDomain Domain({Tiny.NumValues + 1, Tiny.NumValues + 1});
  semantics::SetSemantics Sem(Ctx, Domain);
  bool RefEquivalent = true;
  bool RefRefines = true;
  for (std::size_t PIdx = 0; PIdx < Domain.numPackets(); ++PIdx) {
    semantics::PacketSet In = Sem.singleton(Domain.packet(PIdx));
    semantics::SetDist DistP = Sem.eval(P, In);
    semantics::SetDist DistQ = Sem.eval(Q, In);
    if (DistP != DistQ)
      RefEquivalent = false;
    for (const auto &[Set, W] : DistP) {
      if (Set == 0)
        continue; // Drop mass may shrink under refinement.
      auto It = DistQ.find(Set);
      Rational QMass = It == DistQ.end() ? Rational() : It->second;
      if (W > QMass)
        RefRefines = false;
    }
  }

  analysis::Verifier V(markov::SolverKind::Exact);
  fdd::FddRef FP = V.compile(P);
  fdd::FddRef FQ = V.compile(Q);
  C.check(V.equivalent(FP, FQ) == RefEquivalent,
          std::string("equivalence verdict ") +
              (RefEquivalent ? "false" : "true") +
              " contradicts set semantics; p = " +
              ast::print(P, Ctx.fields()) + "; q = " +
              ast::print(Q, Ctx.fields()));
  C.check(V.refines(FP, FQ) == RefRefines,
          std::string("refinement verdict ") +
              (RefRefines ? "false" : "true") +
              " contradicts set semantics; p = " +
              ast::print(P, Ctx.fields()) + "; q = " +
              ast::print(Q, Ctx.fields()));
  (void)O;
}

} // namespace

OracleReport gen::fuzzPrograms(uint64_t Seed, const FuzzOptions &Fuzz,
                               const OracleOptions &Options) {
  OracleReport R;
  // One compile cache spans the whole run (unless the caller supplied a
  // shared one), so later cases exercise genuine cross-case hits.
  OracleOptions O = Options;
  std::unique_ptr<fdd::CompileCache> RunCache;
  if (O.CheckCompileCache && !O.Cache) {
    RunCache = std::make_unique<fdd::CompileCache>();
    O.Cache = RunCache.get();
  }
  Prng Master(Seed);
  for (unsigned I = 0; I < Fuzz.Iterations; ++I) {
    uint64_t CaseSeed = Master.deriveSeed(I);
    Context Ctx;
    Prng Rng(CaseSeed);
    const Node *Program = generateProgram(Ctx, Rng, Fuzz.Gen);
    std::vector<Packet> Inputs =
        enumerateInputs(Ctx, Fuzz.Gen, Fuzz.MaxInputs, Rng);
    std::string Label =
        "program[" + std::to_string(I) + "] seed=" + hexSeed(CaseSeed);
    // An engine that dies mid-case (fatalError in a worker included) must
    // still identify the case; the context rides along into the abort
    // diagnostic.
    setFatalErrorContext("fuzz " + Label + ", master seed " +
                         hexSeed(Seed));
    OracleReport Case = crossCheckProgram(Ctx, Program, Inputs, O, Label);
    if (!Case.ok())
      Case.Disagreements.push_back(Label + ": generated program was: " +
                                   ast::print(Program, Ctx.fields()));
    R.merge(Case);

    if (Fuzz.VerdictEvery && I % Fuzz.VerdictEvery == 0) {
      uint64_t VerdictSeed = Master.deriveSeed(0x10000 + I);
      setFatalErrorContext("fuzz verdict seed=" + hexSeed(VerdictSeed) +
                           ", master seed " + hexSeed(Seed));
      verdictCase(VerdictSeed, O, R);
    }
  }
  setFatalErrorContext("");
  return R;
}

OracleReport gen::runRegistry(const RegistryOptions &Registry,
                              const OracleOptions &Options) {
  OracleReport R;
  OracleOptions O = Options;
  std::unique_ptr<fdd::CompileCache> RunCache;
  if (O.CheckCompileCache && !O.Cache) {
    RunCache = std::make_unique<fdd::CompileCache>();
    O.Cache = RunCache.get();
  }
  for (const ScenarioSpec &Spec : buildRegistry(Registry)) {
    Context Ctx;
    setFatalErrorContext("registry scenario " + Spec.Name);
    Scenario S = Spec.Build(Ctx);
    R.merge(crossCheckScenario(Ctx, S, O));
  }
  setFatalErrorContext("");
  return R;
}
