//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 7: scalability on FatTree data centers. For a sweep of FatTree
/// parameters p, measures the time to compile the ECMP network model to a
/// stochastic-matrix representation with (a) the native FDD backend and
/// (b) the PRISM pipeline (syntactic translation + prismlite explicit
/// model checking), each without failures (#f=0) and with independent
/// link failures at 1/1000.
///
/// Shape expected from the paper: both backends grow polynomially, the
/// native backend is consistently faster, and failures cost extra. A
/// per-point time budget retires series that exceed it (the paper's
/// timeout discipline). Knobs: MCNK_FIG7_MAXP (default 12),
/// MCNK_TIME_LIMIT seconds (default 30).
///
/// MCNK_FIG7_NATIVE_JSON=<path> switches to the native trajectory point:
/// both native series (#f=0 and iid 1/1000), each p the median of three
/// compiles, from p = 4 until a series' median first exceeds
/// MCNK_TIME_LIMIT (that point is recorded, then the series retires).
/// MCNK_FIG7_MAXP caps p (default 64 in this mode).
///
/// MCNK_FIG7_MODULAR_JSON=<path> switches to the multi-prime modular
/// solver trajectory point (docs/ARCHITECTURE.md S14): the FatTree family
/// plus a diamond-chain family (the Fig 10 topology, where the exact
/// rationals grow to thousands of bits and Rational elimination goes
/// superlinear) compiled with the Rational Exact engine vs ModularExact.
/// Reference equality is enforced at every point (nonzero exit on
/// mismatch) and the JSON records wall times, speedups, and the per-solve
/// prime/reconstruction counters. MCNK_FIG7_MODULAR_MAXK caps the chain
/// sweep (default 64 diamonds).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "analysis/Verifier.h"
#include "fdd/Export.h"
#include "prism/Checker.h"
#include "prism/Translate.h"
#include "routing/Routing.h"

#include <algorithm>
#include <cstdio>
#include <string>

using namespace mcnk;
using namespace mcnk::bench;
using namespace mcnk::routing;

namespace {

double compileNative(const topology::FatTreeLayout &L,
                     const FailureModel &F) {
  ast::Context Ctx;
  ModelOptions O;
  O.RoutingScheme = Scheme::F100;
  O.Failures = F;
  NetworkModel M = buildFatTreeModel(L, O, Ctx);
  analysis::Verifier V(markov::SolverKind::Direct);
  WallTimer T;
  fdd::FddRef Ref = V.compile(M.Program);
  (void)Ref;
  return T.elapsed();
}

double checkPrism(const topology::FatTreeLayout &L, const FailureModel &F) {
  ast::Context Ctx;
  ModelOptions O;
  O.RoutingScheme = Scheme::F100;
  O.Failures = F;
  NetworkModel M = buildFatTreeModel(L, O, Ctx);
  Packet In = M.ingressPacket(M.Ingresses.size() - 1, Ctx);
  WallTimer T;
  prism::Translation Tr = prism::translate(Ctx, M.Program, In);
  prism::Model PM;
  prism::GuardExpr Goal;
  std::string Error;
  if (!prism::parseModel(Tr.Source, PM, Error) ||
      !prism::parseGuard(Tr.DoneGuard, PM, Goal, Error)) {
    std::fprintf(stderr, "prism pipeline error: %s\n", Error.c_str());
    return T.elapsed();
  }
  prism::CheckResult CR;
  if (!prism::checkReachability(PM, Goal, markov::SolverKind::Iterative, CR,
                                Error))
    std::fprintf(stderr, "prismlite error: %s\n", Error.c_str());
  return T.elapsed();
}

/// MCNK_GOLDEN=1: deterministic table values instead of timings — the
/// compiled diagram size and exact mean delivery for the native backend,
/// and the reachable state space plus exact delivery probability for the
/// PRISM pipeline. Diffed against tests/golden/fig07.txt under ctest.
int runGolden(unsigned MaxP) {
  std::printf("=== Fig 7 golden: FatTree table values (ECMP to sw 1) "
              "===\n");
  std::printf("%4s %9s  %10s %12s  %10s %12s\n", "p", "switches",
              "fdd nodes", "delivery", "pri states", "pri prob");
  FailureModel Fail = FailureModel::iid(Rational(1, 1000));
  for (unsigned P = 4; P <= MaxP; P += 2) {
    topology::FatTreeLayout L;
    topology::makeFatTree(P, L);

    ast::Context Ctx;
    ModelOptions O;
    O.RoutingScheme = Scheme::F100;
    O.Failures = Fail;
    NetworkModel M = buildFatTreeModel(L, O, Ctx);
    analysis::Verifier V; // Exact engine for decided table values.
    fdd::FddRef Ref = V.compile(M.Program);
    std::vector<Packet> Inputs;
    for (std::size_t I = 0; I < M.Ingresses.size(); ++I)
      Inputs.push_back(M.ingressPacket(I, Ctx));
    Rational Delivery = V.averageDeliveryProbability(Ref, Inputs);

    prism::Translation Tr =
        prism::translate(Ctx, M.Program, Inputs.front());
    prism::Model PM;
    prism::GuardExpr Goal;
    std::string Error;
    std::size_t States = 0;
    std::string Prob = "-";
    if (prism::parseModel(Tr.Source, PM, Error) &&
        prism::parseGuard(Tr.DoneGuard, PM, Goal, Error)) {
      prism::CheckResult CR;
      if (prism::checkReachability(PM, Goal, markov::SolverKind::Exact, CR,
                                   Error)) {
        States = CR.NumStates;
        Prob = CR.Probability.toString();
      }
    }
    std::printf("%4u %9u  %10zu %12s  %10zu %12s\n", P, L.numSwitches(),
                V.manager().diagramSize(Ref), Delivery.toString().c_str(),
                States, Prob.c_str());
  }
  return 0;
}

/// MCNK_FIG7_NATIVE_JSON: the native series as a trajectory point, each
/// point the median of three compiles. A series retires after its first
/// median over \p Limit; that point is still recorded.
int runNative(unsigned MaxP, double Limit, const char *Path) {
  constexpr unsigned Runs = 3;
  struct Series {
    const char *Name;
    FailureModel Fail;
    std::string Points;
    unsigned LargestWithin = 0;
    bool Alive = true;
  };
  Series All[] = {{"native_f0", FailureModel::none(), "", 0, true},
                  {"native", FailureModel::iid(Rational(1, 1000)), "", 0,
                   true}};
  std::printf("=== Fig 7 native series: median of %u compiles per point, "
              "budget %gs ===\n",
              Runs, Limit);
  std::printf("%-10s %4s %9s  %10s\n", "series", "p", "switches",
              "median s");
  for (unsigned P = 4; P <= MaxP && (All[0].Alive || All[1].Alive);
       P += 2) {
    topology::FatTreeLayout L;
    topology::makeFatTree(P, L);
    for (Series &S : All) {
      if (!S.Alive)
        continue;
      std::vector<double> Samples;
      for (unsigned R = 0; R < Runs; ++R)
        Samples.push_back(compileNative(L, S.Fail));
      double Median = median(Samples);
      std::printf("%-10s %4u %9u  %10.3f\n", S.Name, P, L.numSwitches(),
                  Median);
      std::fflush(stdout);
      char Point[256];
      std::snprintf(Point, sizeof(Point),
                    "%s        {\"p\": %u, \"switches\": %u, "
                    "\"median_seconds\": %.6f, \"runs\": [%.6f, %.6f, "
                    "%.6f]}",
                    S.Points.empty() ? "" : ",\n", P, L.numSwitches(), Median,
                    Samples[0], Samples[1], Samples[2]);
      S.Points += Point;
      if (Median > Limit)
        S.Alive = false;
      else
        S.LargestWithin = P;
    }
  }

  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write %s\n", Path);
    return 1;
  }
  std::fprintf(F,
               "{\n"
               "  \"name\": \"fig07_fattree_native\",\n"
               "  \"model\": \"FatTree ECMP to switch 1 (Fig 7 family), "
               "native FDD compile of the full model, Direct solver\",\n"
               "  \"engine\": \"pairwise case reduction (ARCHITECTURE "
               "S10)\",\n");
  writeRunInfo(F, Runs);
  std::fprintf(F, "  \"time_limit_seconds\": %g,\n  \"series\": [\n",
               Limit);
  for (const Series &S : All)
    std::fprintf(F,
                 "    {\"name\": \"%s\", \"largest_p_within_limit\": %u, "
                 "\"points\": [\n%s\n    ]}%s\n",
                 S.Name, S.LargestWithin, S.Points.c_str(),
                 &S == &All[1] ? "" : ",");
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  std::printf("wrote %s\n", Path);
  return 0;
}

/// One MCNK_FIG7_MODULAR_JSON point: compiles \p Program with the
/// Rational Exact engine and with ModularExact, enforces reference
/// equality, prints one table row, and appends one JSON point. Returns
/// false on mismatch.
bool modularPoint(ast::Context &Ctx, const ast::Node *Program,
                  const char *Family, unsigned Param, unsigned Switches,
                  std::string &Points, bool &AllEqual) {
  (void)Ctx;
  analysis::Verifier Exact; // Rational Gaussian elimination.
  WallTimer ExactTimer;
  fdd::FddRef RE = Exact.compile(Program);
  double ExactSec = ExactTimer.elapsed();

  analysis::Verifier Mod(markov::SolverKind::ModularExact);
  WallTimer ModTimer;
  fdd::FddRef RM = Mod.compile(Program);
  double ModSec = ModTimer.elapsed();
  const fdd::LoopSolveStats &MS = Mod.manager().lastLoopStats();

  bool Equal =
      fdd::importFdd(Exact.manager(), fdd::exportFdd(Mod.manager(), RM)) ==
      RE;
  AllEqual = AllEqual && Equal;
  if (!Equal)
    std::fprintf(stderr,
                 "MISMATCH: modular compile differs from Rational exact "
                 "(%s %u)\n",
                 Family, Param);

  double Speedup = ModSec > 0.0 ? ExactSec / ModSec : 0.0;
  std::printf("%-8s %5u %9u  %9.3f %9.3f  %7.2fx  %6zu %7zu %6zu %5zu\n",
              Family, Param, Switches, ExactSec, ModSec, Speedup,
              MS.NumPrimes, MS.RetriedPrimes, MS.ReconstructionBits,
              MS.ModularFallbacks);
  std::fflush(stdout);

  char Point[512];
  std::snprintf(Point, sizeof(Point),
                "%s    {\"family\": \"%s\", \"param\": %u, "
                "\"switches\": %u, \"solved_states\": %zu, "
                "\"exact_seconds\": %.6f, \"modular_seconds\": %.6f, "
                "\"speedup\": %.3f, \"num_primes\": %zu, "
                "\"retried_primes\": %zu, \"reconstruction_bits\": %zu, "
                "\"fallbacks\": %zu}",
                Points.empty() ? "" : ",\n", Family, Param, Switches,
                MS.NumSolved, ExactSec, ModSec, Speedup, MS.NumPrimes,
                MS.RetriedPrimes, MS.ReconstructionBits,
                MS.ModularFallbacks);
  Points += Point;
  return Equal;
}

/// MCNK_FIG7_MODULAR_JSON: the S14 modular-solver trajectory point.
/// Rational Exact vs ModularExact on the FatTree family and on the Fig 10
/// diamond-chain family. The chains are where the modular engine earns
/// its keep: the absorption probabilities have denominators near 2000^K,
/// so Rational elimination drags ever-wider bignums through every
/// multiply-subtract while the modular kernels stay word-size and only
/// pay bignum cost in the final CRT + reconstruction.
int runModular(unsigned MaxP, unsigned MaxK, const char *Path) {
  std::printf("=== Fig 7/10 modular-solver point: Rational Exact vs "
              "multi-prime ModularExact ===\n");
  std::printf("%-8s %5s %9s  %9s %9s  %8s  %6s %7s %6s %5s\n", "family",
              "param", "switches", "exact s", "mod s", "speedup", "primes",
              "retried", "bits", "fback");
  FailureModel Fail = FailureModel::iid(Rational(1, 1000));
  std::string Points;
  bool AllEqual = true;

  for (unsigned P = 4; P <= MaxP; P += 2) {
    topology::FatTreeLayout L;
    topology::makeFatTree(P, L);
    ast::Context Ctx;
    ModelOptions O;
    O.RoutingScheme = Scheme::F100;
    O.Failures = Fail;
    NetworkModel M = buildFatTreeModel(L, O, Ctx);
    modularPoint(Ctx, M.Program, "fattree", P, L.numSwitches(), Points,
                 AllEqual);
  }

  for (unsigned K = 2; K <= MaxK; K *= 2) {
    topology::ChainLayout L;
    topology::makeChain(K, L);
    ast::Context Ctx;
    NetworkModel M =
        routing::buildChainModel(L, Rational(1, 1000), Ctx);
    modularPoint(Ctx, M.Program, "chain", K, L.numSwitches(), Points,
                 AllEqual);
  }

  std::printf(AllEqual
                  ? "modular solver: all points reference-equal\n"
                  : "modular solver: MISMATCH (see stderr)\n");

  if (std::FILE *F = std::fopen(Path, "w")) {
    std::fprintf(F,
                 "{\n"
                 "  \"name\": \"solver_modular\",\n"
                 "  \"model\": \"FatTree ECMP (Fig 7 family) and diamond "
                 "chains (Fig 10 family), iid 1/1000 link failures\",\n"
                 "  \"engine\": \"mod-p elimination + CRT / verified "
                 "rational reconstruction (ARCHITECTURE S14)\",\n");
    writeRunInfo(F, 1);
    std::fprintf(F,
                 "  \"reference_equal\": %s,\n"
                 "  \"points\": [\n%s\n  ]\n"
                 "}\n",
                 AllEqual ? "true" : "false", Points.c_str());
    std::fclose(F);
    std::printf("wrote %s\n", Path);
  } else {
    std::fprintf(stderr, "error: cannot write %s\n", Path);
    return 1;
  }
  return AllEqual ? 0 : 1;
}

} // namespace

int main() {
  unsigned MaxP = envUnsigned("MCNK_FIG7_MAXP", 12);
  double Limit = envDouble("MCNK_TIME_LIMIT", 30.0);
  if (const char *Path = std::getenv("MCNK_FIG7_NATIVE_JSON"); Path && *Path)
    return runNative(envUnsigned("MCNK_FIG7_MAXP", 64), Limit, Path);
  if (const char *Path = std::getenv("MCNK_FIG7_MODULAR_JSON");
      Path && *Path)
    return runModular(std::min(MaxP, 6u),
                      envUnsigned("MCNK_FIG7_MODULAR_MAXK", 512), Path);
  if (envUnsigned("MCNK_GOLDEN", 0))
    return runGolden(std::min(MaxP, 6u));
  std::printf("=== Fig 7: FatTree scalability (ECMP to switch 1) ===\n");
  std::printf("series: native / native(#f=0) compile the full model; "
              "prism / prism(#f=0) answer one delivery query\n");
  std::printf("per-point budget: %.0fs (MCNK_TIME_LIMIT); '-' = retired\n\n",
              Limit);
  std::printf("%4s %9s  %10s  %10s  %10s  %10s\n", "p", "switches",
              "nat(#f=0)", "native", "pri(#f=0)", "prism");

  FailureModel NoFail = FailureModel::none();
  FailureModel Fail = FailureModel::iid(Rational(1, 1000));
  BudgetedSeries NativeNoFail(Limit), NativeFail(Limit), PrismNoFail(Limit),
      PrismFail(Limit);

  for (unsigned P = 4; P <= MaxP; P += 2) {
    topology::FatTreeLayout L;
    topology::makeFatTree(P, L);
    std::printf("%4u %9u", P, L.numSwitches());
    printCell(NativeNoFail.measure([&] { compileNative(L, NoFail); }));
    printCell(NativeFail.measure([&] { compileNative(L, Fail); }));
    printCell(PrismNoFail.measure([&] { checkPrism(L, NoFail); }));
    printCell(PrismFail.measure([&] { checkPrism(L, Fail); }));
    std::printf("\n");
    std::fflush(stdout);
  }
  return 0;
}
