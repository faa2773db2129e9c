//===----------------------------------------------------------------------===//
///
/// \file
/// Scenario-registry sweep: compiles every scenario the registry
/// enumerates (the same registry that drives the conformance suite and
/// `mcnk fuzz`) with the Direct (sparse-LU) solver and reports compile
/// time, diagram size, loop-chain dimensions, and mean delivery — a
/// one-command overview of how every topology/routing/failure family
/// scales. A second pass (the *cache sweep*) recompiles the registry plus
/// a per-ingress query family twice — cold engine vs a shared
/// CompileCache (ARCHITECTURE S12) — verifies the two passes are
/// reference-equal member by member, and reports the wall-clock speedup
/// (optionally as a BENCH_sweep_cache.json trajectory point). Knobs:
///   MCNK_SWEEP_CHAINK     max chain diamonds        (default 8)
///   MCNK_SWEEP_RINGN      largest ring              (default 10)
///   MCNK_SWEEP_RANDN      random-graph size         (default 8)
///   MCNK_SWEEP_RANDOM     number of random graphs   (default 4)
///   MCNK_SWEEP_FATTREE    include p=4 FatTrees      (default 1)
///   MCNK_SWEEP_TABLE      run the per-scenario table (default 1)
///   MCNK_SWEEP_CACHE      run the cache sweep       (default 1)
///   MCNK_SWEEP_CACHE_JSON write the cache-sweep trajectory point here
///   MCNK_SWEEP_SIMPLIFY   run the simplify sweep     (default 1)
///   MCNK_SWEEP_SIMPLIFY_JSON write the simplify-sweep trajectory point here
///   MCNK_SWEEP_SLICE      run the slice sweep        (default 1)
///   MCNK_SWEEP_SLICE_JSON write the slice-sweep trajectory point here
///
/// The *simplify sweep* replays the cache sweep's per-ingress family with
/// the S15 verified simplifier (docs/ARCHITECTURE.md S15) in front of
/// every compile — reference equality enforced against the plain sweep —
/// and records the cache-hit-rate and wall-clock delta of the pre-pass.
///
/// The *slice sweep* recompiles every registry scenario with the Exact
/// solver under the S17 delivery-observation slice (docs/ARCHITECTURE.md
/// S17) and compares against the plain Exact compile: average delivery
/// must be string-equal as an exact rational, and the sweep reports the
/// wall-clock and FDD-node deltas — the hop-counting families are where
/// the cone of influence sheds the counter field and the diagram shrinks.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "analysis/Verifier.h"
#include "ast/Deps.h"
#include "ast/Simplify.h"
#include "ast/Slice.h"
#include "fdd/CompileCache.h"
#include "fdd/Export.h"
#include "gen/Scenario.h"
#include "routing/Routing.h"
#include "support/Timer.h"
#include "topology/Topology.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

using namespace mcnk;
using namespace mcnk::bench;

namespace {

/// One member of the cache sweep: a named builder producing a guarded
/// program into a caller-owned context.
struct SweepMember {
  std::string Name;
  std::function<const ast::Node *(ast::Context &)> Build;
};

/// The per-ingress reliability-query filter: the conjunction of `f = v`
/// over every field of \p In, in front of the model — the compile-level
/// shape of the paper's per-source queries (Fig 7's per-pair sweeps).
const ast::Node *ingressQuery(ast::Context &Ctx, const gen::Scenario &S,
                              std::size_t InputIdx) {
  const Packet &In = S.Inputs[InputIdx];
  std::vector<const ast::Node *> Tests;
  for (std::size_t F = 0; F < In.numFields(); ++F)
    Tests.push_back(
        Ctx.test(static_cast<FieldId>(F), In.get(static_cast<FieldId>(F))));
  return Ctx.seq(Ctx.seqAll(Tests), S.Program);
}

/// The sweep family list: one per-ingress reliability-query program per
/// (registry scenario, ingress) pair. Members of one scenario differ only
/// in the ingress filter in front of one shared model sub-program, so an
/// uncached sweep pays the full model compile once *per ingress* while
/// the compile cache pays it once per scenario — exactly the family
/// structure of the paper's Fig 7 experiments.
std::vector<SweepMember> buildSweepMembers(const gen::RegistryOptions &O) {
  std::vector<SweepMember> Members;
  for (const gen::ScenarioSpec &Spec : gen::buildRegistry(O)) {
    // One build to size the family; each member then rebuilds into its
    // own context (identically — the registry is deterministic).
    ast::Context Probe;
    std::size_t NumInputs = Spec.Build(Probe).Inputs.size();
    for (std::size_t I = 0; I < NumInputs; ++I)
      Members.push_back({Spec.Name + "/in" + std::to_string(I),
                         [Spec, I](ast::Context &Ctx) {
                           gen::Scenario S = Spec.Build(Ctx);
                           return ingressQuery(Ctx, S, I);
                         }});
  }
  return Members;
}

/// Compiles every member with the Direct solver; when \p Cache is given
/// every verifier shares it. Returns total compile seconds (model build
/// time excluded). \p Diagrams collects (pass 1) or verifies (pass 2) the
/// portable form of each member's diagram; a pass-2 mismatch is fatal for
/// the run (exit code 1 from main).
double runPass(const std::vector<SweepMember> &Members,
               fdd::CompileCache *Cache,
               std::vector<fdd::PortableFdd> &Diagrams, bool Verify,
               bool &AllEqual, bool Simplify = false,
               std::size_t *NodesBefore = nullptr,
               std::size_t *NodesAfter = nullptr) {
  double Total = 0;
  for (std::size_t I = 0; I < Members.size(); ++I) {
    ast::Context Ctx;
    const ast::Node *Program = Members[I].Build(Ctx);
    analysis::Verifier V(markov::SolverKind::Direct);
    if (Cache)
      V.setCompileCache(Cache);
    // The timer covers simplify + compile: the honest end-to-end cost of
    // the S15 pre-pass (the cache fingerprint then runs over the
    // simplified tree, so hits shift with it).
    WallTimer Timer;
    if (Simplify) {
      ast::SimplifyStats St;
      Program = ast::simplify(Ctx, Program, {}, &St);
      if (NodesBefore)
        *NodesBefore += St.NodesBefore;
      if (NodesAfter)
        *NodesAfter += St.NodesAfter;
    }
    fdd::FddRef Ref = V.compile(Program);
    Total += Timer.elapsed();
    if (!Verify) {
      Diagrams.push_back(fdd::exportFdd(V.manager(), Ref));
      continue;
    }
    if (fdd::importFdd(V.manager(), Diagrams[I]) != Ref) {
      AllEqual = false;
      std::fprintf(stderr,
                   "MISMATCH: %s compile of %s is not reference-equal "
                   "to the uncached sweep\n",
                   Simplify ? "simplified" : "cached",
                   Members[I].Name.c_str());
    }
  }
  return Total;
}

} // namespace

int main() {
  gen::RegistryOptions O;
  O.MaxChainK = envUnsigned("MCNK_SWEEP_CHAINK", 8);
  unsigned RingN = envUnsigned("MCNK_SWEEP_RINGN", 10);
  O.RingSizes.clear(); // Replace the registry defaults, don't extend them.
  for (unsigned N = 4; N <= RingN; N += 2)
    O.RingSizes.push_back(N);
  O.RandomGraphSize = envUnsigned("MCNK_SWEEP_RANDN", 8);
  O.NumRandomGraphs = envUnsigned("MCNK_SWEEP_RANDOM", 4);
  O.IncludeFatTree = envUnsigned("MCNK_SWEEP_FATTREE", 1) != 0;

  if (envUnsigned("MCNK_SWEEP_TABLE", 1)) {
    std::printf("=== Scenario-registry sweep (Direct solver) ===\n\n");
    std::printf("%-24s %8s %9s %9s %10s %10s %9s\n", "scenario", "inputs",
                "build s", "compile s", "fdd nodes", "transient",
                "delivery");

    for (const gen::ScenarioSpec &Spec : gen::buildRegistry(O)) {
      ast::Context Ctx;
      WallTimer BuildTimer;
      gen::Scenario S = Spec.Build(Ctx);
      double BuildTime = BuildTimer.elapsed();

      analysis::Verifier V(markov::SolverKind::Direct);
      WallTimer CompileTimer;
      fdd::FddRef Ref = V.compile(S.Program);
      double CompileTime = CompileTimer.elapsed();

      Rational Avg = V.averageDeliveryProbability(Ref, S.Inputs);
      const fdd::LoopSolveStats &LS = V.manager().lastLoopStats();
      std::printf("%-24s %8zu %9.3f %9.3f %10zu %10zu %9.5f\n",
                  S.Name.c_str(), S.Inputs.size(), BuildTime, CompileTime,
                  V.manager().diagramSize(Ref),
                  S.LoopBearing ? LS.NumTransient : 0, Avg.toDouble());
      std::fflush(stdout);
    }
  }

  // --- Slice sweep: plain Exact vs delivery-sliced Exact (S17) ----------
  bool SliceEqual = true;
  if (envUnsigned("MCNK_SWEEP_SLICE", 1)) {
    std::printf("\n=== Slice sweep (Exact): plain vs delivery-observation "
                "slice ===\n\n");
    std::printf("%-24s %8s %8s %9s %9s %8s %7s\n", "scenario", "plain s",
                "slice s", "fdd", "fdd slc", "removed", "shrink");
    double PlainTotal = 0, SlicedTotal = 0;
    std::size_t FddPlain = 0, FddSliced = 0, Removed = 0;
    std::string BestName;
    double BestShrink = 0;
    for (const gen::ScenarioSpec &Spec : gen::buildRegistry(O)) {
      ast::Context Ctx;
      gen::Scenario S = Spec.Build(Ctx);

      analysis::Verifier Plain; // Exact, no slicing.
      WallTimer PlainTimer;
      fdd::FddRef RP = Plain.compile(S.Program);
      double PlainSec = PlainTimer.elapsed();
      std::size_t NP = Plain.manager().diagramSize(RP);
      Rational AvgP = Plain.averageDeliveryProbability(RP, S.Inputs);

      analysis::Verifier Sliced; // Exact, delivery cone of influence.
      WallTimer SlicedTimer;       // Times the slice and the compile.
      ast::SliceResult SR =
          ast::slice(Ctx, S.Program, ast::ObservationSet::delivery());
      fdd::FddRef RS = Sliced.compile(SR.Program);
      double SlicedSec = SlicedTimer.elapsed();
      std::size_t NS = Sliced.manager().diagramSize(RS);
      Rational AvgS = Sliced.averageDeliveryProbability(RS, S.Inputs);

      if (AvgP.toString() != AvgS.toString()) {
        SliceEqual = false;
        std::fprintf(stderr,
                     "MISMATCH: sliced compile of %s changes the average "
                     "delivery (%s vs %s)\n",
                     S.Name.c_str(), AvgS.toString().c_str(),
                     AvgP.toString().c_str());
      }
      double Shrink = NP ? 1.0 - static_cast<double>(NS) / NP : 0;
      if (Shrink > BestShrink) {
        BestShrink = Shrink;
        BestName = S.Name;
      }
      PlainTotal += PlainSec;
      SlicedTotal += SlicedSec;
      FddPlain += NP;
      FddSliced += NS;
      Removed += SR.Stats.AssignmentsRemoved;
      std::printf("%-24s %8.3f %8.3f %9zu %9zu %8zu %6.1f%%\n",
                  S.Name.c_str(), PlainSec, SlicedSec, NP, NS,
                  SR.Stats.AssignmentsRemoved, 100 * Shrink);
      std::fflush(stdout);
    }
    double Speedup = SlicedTotal > 0 ? PlainTotal / SlicedTotal : 0;
    std::printf("totals: plain %.3f s / %zu fdd nodes, sliced %.3f s / %zu "
                "fdd nodes (%.2fx wall, %zu assignments removed); best "
                "shrink %s %.1f%%; %s\n",
                PlainTotal, FddPlain, SlicedTotal, FddSliced, Speedup,
                Removed, BestName.c_str(), 100 * BestShrink,
                SliceEqual ? "all scenarios answer-equal"
                           : "MISMATCH (see stderr)");

    if (const char *Path = std::getenv("MCNK_SWEEP_SLICE_JSON");
        Path && *Path) {
      if (std::FILE *F = std::fopen(Path, "w")) {
        std::fprintf(
            F,
            "{\n"
            "  \"name\": \"scenario_sweep_slice\",\n"
            "  \"model\": \"scenario registry (ring max N%u), Exact "
            "solver\",\n"
            "  \"engine\": \"delivery cone-of-influence slice before "
            "fdd::compile (ARCHITECTURE S17)\",\n",
            RingN);
        writeRunInfo(F, 1);
        std::fprintf(
            F,
            "  \"answers_equal\": %s,\n"
            "  \"plain_seconds\": %.6f,\n"
            "  \"sliced_seconds\": %.6f,\n"
            "  \"speedup\": %.3f,\n"
            "  \"fdd_nodes_plain\": %zu,\n"
            "  \"fdd_nodes_sliced\": %zu,\n"
            "  \"assignments_removed\": %zu,\n"
            "  \"best_family\": \"%s\",\n"
            "  \"best_node_reduction\": %.3f\n"
            "}\n",
            SliceEqual ? "true" : "false", PlainTotal, SlicedTotal,
            Speedup, FddPlain, FddSliced, Removed, BestName.c_str(),
            BestShrink);
        std::fclose(F);
        std::printf("wrote %s\n", Path);
      } else {
        std::fprintf(stderr, "error: cannot write %s\n", Path);
        return 1;
      }
    }
  }

  if (!envUnsigned("MCNK_SWEEP_CACHE", 1))
    return SliceEqual ? 0 : 1;

  // --- Cache sweep: cold engine vs shared compile cache -----------------
  std::vector<SweepMember> Members = buildSweepMembers(O);
  std::printf("\n=== Cache sweep: %zu per-ingress query members across "
              "the registry ===\n",
              Members.size());
  std::fflush(stdout);

  std::vector<fdd::PortableFdd> Diagrams;
  bool AllEqual = true;
  double UncachedSec =
      runPass(Members, nullptr, Diagrams, /*Verify=*/false, AllEqual);
  fdd::CompileCache Cache;
  double CachedSec =
      runPass(Members, &Cache, Diagrams, /*Verify=*/true, AllEqual);

  fdd::CompileCache::Stats CS = Cache.stats();
  double Speedup = CachedSec > 0 ? UncachedSec / CachedSec : 0;
  std::printf("uncached %.3f s, cached %.3f s, speedup %.2fx; "
              "%llu hits / %llu misses, %zu entries, %llu evictions\n",
              UncachedSec, CachedSec, Speedup,
              static_cast<unsigned long long>(CS.Hits),
              static_cast<unsigned long long>(CS.Misses), CS.Entries,
              static_cast<unsigned long long>(CS.Evictions));
  std::printf(AllEqual ? "cache sweep: all members reference-equal\n"
                       : "cache sweep: MISMATCH (see stderr)\n");

  if (const char *Path = std::getenv("MCNK_SWEEP_CACHE_JSON");
      Path && *Path) {
    if (std::FILE *F = std::fopen(Path, "w")) {
      std::fprintf(
          F,
          "{\n"
          "  \"name\": \"scenario_sweep_cache\",\n"
          "  \"model\": \"per-ingress query sweep across the registry "
          "(ring max N%u), Direct solver\",\n"
          "  \"engine\": \"CompileCache (structural fingerprints, LRU, "
          "portable FDDs)\",\n",
          RingN);
      writeRunInfo(F, 1);
      std::fprintf(
          F,
          "  \"members\": %zu,\n"
          "  \"reference_equal\": %s,\n"
          "  \"uncached_seconds\": %.6f,\n"
          "  \"cached_seconds\": %.6f,\n"
          "  \"speedup\": %.3f,\n"
          "  \"cache_hits\": %llu,\n"
          "  \"cache_misses\": %llu,\n"
          "  \"cache_entries\": %zu\n"
          "}\n",
          Members.size(), AllEqual ? "true" : "false", UncachedSec,
          CachedSec, Speedup, static_cast<unsigned long long>(CS.Hits),
          static_cast<unsigned long long>(CS.Misses), CS.Entries);
      std::fclose(F);
      std::printf("wrote %s\n", Path);
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", Path);
      return 1;
    }
  }

  // --- Simplify sweep: cached compile with the S15 pre-pass on ----------
  // The cached pass above is the Simplify-off baseline; one more pass
  // over the same family with a fresh cache and the verified simplifier
  // in front measures (a) the end-to-end cost/benefit of the pre-pass and
  // (b) how the cache hit rate shifts when fingerprints run over
  // simplified trees (members of one family collapse onto fewer distinct
  // subtrees when the rewrite fires). Reference equality against the
  // uncached sweep is enforced member by member — the simplifier's
  // soundness contract, checked here on every bench run too.
  bool SimplifyEqual = true;
  if (envUnsigned("MCNK_SWEEP_SIMPLIFY", 1)) {
    fdd::CompileCache SCache;
    std::size_t NodesBefore = 0, NodesAfter = 0;
    double SimplifySec =
        runPass(Members, &SCache, Diagrams, /*Verify=*/true, SimplifyEqual,
                /*Simplify=*/true, &NodesBefore, &NodesAfter);
    fdd::CompileCache::Stats SS = SCache.stats();
    std::printf("\n=== Simplify sweep: cached compile, S15 pre-pass on ===\n");
    std::printf("off %.3f s (%llu hits / %llu misses), on %.3f s "
                "(%llu hits / %llu misses), nodes %zu -> %zu\n",
                CachedSec, static_cast<unsigned long long>(CS.Hits),
                static_cast<unsigned long long>(CS.Misses), SimplifySec,
                static_cast<unsigned long long>(SS.Hits),
                static_cast<unsigned long long>(SS.Misses), NodesBefore,
                NodesAfter);
    std::printf(SimplifyEqual
                    ? "simplify sweep: all members reference-equal\n"
                    : "simplify sweep: MISMATCH (see stderr)\n");

    if (const char *Path = std::getenv("MCNK_SWEEP_SIMPLIFY_JSON");
        Path && *Path) {
      if (std::FILE *F = std::fopen(Path, "w")) {
        std::fprintf(
            F,
            "{\n"
            "  \"name\": \"scenario_sweep_simplify\",\n"
            "  \"model\": \"per-ingress query sweep across the registry "
            "(ring max N%u), Direct solver, shared CompileCache\",\n"
            "  \"engine\": \"S15 verified simplifier (ast::simplify) "
            "before fdd::compile\",\n",
            RingN);
        writeRunInfo(F, 1);
        std::fprintf(
            F,
            "  \"members\": %zu,\n"
            "  \"reference_equal\": %s,\n"
            "  \"off_seconds\": %.6f,\n"
            "  \"on_seconds\": %.6f,\n"
            "  \"off_cache_hits\": %llu,\n"
            "  \"off_cache_misses\": %llu,\n"
            "  \"on_cache_hits\": %llu,\n"
            "  \"on_cache_misses\": %llu,\n"
            "  \"nodes_before\": %zu,\n"
            "  \"nodes_after\": %zu\n"
            "}\n",
            Members.size(), SimplifyEqual ? "true" : "false",
            CachedSec, SimplifySec, static_cast<unsigned long long>(CS.Hits),
            static_cast<unsigned long long>(CS.Misses),
            static_cast<unsigned long long>(SS.Hits),
            static_cast<unsigned long long>(SS.Misses), NodesBefore,
            NodesAfter);
        std::fclose(F);
        std::printf("wrote %s\n", Path);
      } else {
        std::fprintf(stderr, "error: cannot write %s\n", Path);
        return 1;
      }
    }
  }
  return AllEqual && SimplifyEqual && SliceEqual ? 0 : 1;
}
