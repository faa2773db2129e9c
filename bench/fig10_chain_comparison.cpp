//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 10: scalability on the chain topology — the tool comparison.
/// Computes the H1 -> H2 delivery probability on chains of K diamonds
/// (4K switches, lower links failing at 1/1000) with every engine:
///
///   bayonet   — exhaustive exact inference (the Bayonet/PSI stand-in)
///   prism ex  — hand-written DTMC over sw, exact engine
///   prism ap  — hand-written DTMC, iterative engine
///   ppnk ex   — ProbNetKAT -> PRISM translation, exact engine
///   ppnk ap   — translation, iterative engine
///   pnk       — native FDD backend (direct sparse LU)
///
/// Shape expected from the paper: bayonet dies orders of magnitude before
/// the rest; the native backend scales furthest. Per-point budget retires
/// series (MCNK_TIME_LIMIT, default 10s); sweep capped by MCNK_FIG10_MAXK
/// (default 2048 diamonds = 8192 switches).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "analysis/Verifier.h"
#include "baseline/Exhaustive.h"
#include "prism/Checker.h"
#include "prism/Translate.h"
#include "routing/Routing.h"

#include <cstdio>
#include <sstream>

using namespace mcnk;
using namespace mcnk::bench;

namespace {

/// The Fig 10 "hand-written PRISM" model: a direct DTMC over switch ids,
/// no program counter. State Delivered = 4K+1, Dropped = 4K+2.
std::string handWrittenChain(unsigned K) {
  topology::ChainLayout L;
  L.K = K;
  unsigned Delivered = L.numSwitches() + 1;
  unsigned Dropped = L.numSwitches() + 2;
  std::ostringstream Out;
  Out << "dtmc\nmodule chain\n";
  Out << "  sw : [1.." << Dropped << "] init 1;\n";
  for (unsigned D = 0; D < K; ++D) {
    Out << "  [] sw=" << L.split(D) << " -> 1/2 : (sw'=" << L.upper(D)
        << ") + 1/2 : (sw'=" << L.lower(D) << ");\n";
    Out << "  [] sw=" << L.upper(D) << " -> 1 : (sw'=" << L.join(D)
        << ");\n";
    Out << "  [] sw=" << L.lower(D) << " -> 999/1000 : (sw'=" << L.join(D)
        << ") + 1/1000 : (sw'=" << Dropped << ");\n";
    unsigned Next = D + 1 < K ? L.split(D + 1) : Delivered;
    Out << "  [] sw=" << L.join(D) << " -> 1 : (sw'=" << Next << ");\n";
  }
  Out << "  [] sw=" << Delivered << " -> 1 : true;\n";
  Out << "  [] sw=" << Dropped << " -> 1 : true;\n";
  Out << "endmodule\n";
  return Out.str();
}

Rational runPrismSource(const std::string &Source, const std::string &Goal,
                        markov::SolverKind Solver) {
  prism::Model M;
  prism::GuardExpr G;
  std::string Error;
  if (!prism::parseModel(Source, M, Error) ||
      !prism::parseGuard(Goal, M, G, Error)) {
    std::fprintf(stderr, "prism parse error: %s\n", Error.c_str());
    return Rational();
  }
  prism::CheckResult CR;
  if (!prism::checkReachability(M, G, Solver, CR, Error))
    std::fprintf(stderr, "prismlite error: %s\n", Error.c_str());
  return CR.Probability;
}

/// MCNK_GOLDEN=1: replace the timing table with the deterministic table
/// values — the exact H1 -> H2 delivery probability as computed by every
/// engine, next to the closed form (1 - pfail/2)^K. The ctest golden
/// smoke test diffs this output against tests/golden/fig10.txt.
int runGolden(unsigned MaxK, const Rational &PFail) {
  std::printf("=== Fig 10 golden: chain delivery probabilities "
              "(pfail = 1/1000) ===\n");
  std::printf("%6s  %-14s %-14s %-14s %-14s %-14s %10s\n", "K", "closed",
              "bayonet", "prism ex", "ppnk ex", "pnk ex", "prism ap");
  for (unsigned K = 1; K <= MaxK; K *= 2) {
    topology::ChainLayout L;
    topology::makeChain(K, L);
    Rational Closed(1);
    Rational PerDiamond = Rational(1) - PFail / Rational(2);
    for (unsigned I = 0; I < K; ++I)
      Closed *= PerDiamond;

    ast::Context Ctx;
    routing::NetworkModel M = routing::buildChainModel(L, PFail, Ctx);
    Packet In = M.ingressPacket(0, Ctx);

    baseline::InferenceOptions BO;
    BO.LoopBound = 6 * K + 4;
    Rational Bayonet = baseline::infer(M.Program, In, BO).deliveredMass();

    std::string Hand = handWrittenChain(K);
    std::string Goal = "sw=" + std::to_string(L.numSwitches() + 1);
    Rational PrismEx =
        runPrismSource(Hand, Goal, markov::SolverKind::Exact);
    Rational PrismAp =
        runPrismSource(Hand, Goal, markov::SolverKind::Iterative);

    prism::Translation Tr = prism::translate(Ctx, M.Program, In);
    Rational PpnkEx =
        runPrismSource(Tr.Source, Tr.DoneGuard, markov::SolverKind::Exact);

    analysis::Verifier V; // Exact engine.
    Rational Pnk = V.deliveryProbability(V.compile(M.Program), In);

    std::printf("%6u  %-14s %-14s %-14s %-14s %-14s %10.6f\n", K,
                Closed.toString().c_str(), Bayonet.toString().c_str(),
                PrismEx.toString().c_str(), PpnkEx.toString().c_str(),
                Pnk.toString().c_str(), PrismAp.toDouble());
  }
  return 0;
}

} // namespace

int main() {
  unsigned MaxK = envUnsigned("MCNK_FIG10_MAXK", 2048);
  const Rational PFailGolden(1, 1000);
  if (envUnsigned("MCNK_GOLDEN", 0))
    return runGolden(std::min(MaxK, 16u), PFailGolden);
  double Limit = envDouble("MCNK_TIME_LIMIT", 10.0);
  std::printf("=== Fig 10: chain topology tool comparison "
              "(pfail = 1/1000) ===\n");
  std::printf("per-point budget %.0fs; '-' = series retired\n\n", Limit);
  std::printf("%6s %9s  %10s  %10s  %10s  %10s  %10s  %10s\n", "K",
              "switches", "bayonet", "prism ex", "prism ap", "ppnk ex",
              "ppnk ap", "pnk");

  BudgetedSeries Bayonet(Limit), PrismEx(Limit), PrismAp(Limit),
      PpnkEx(Limit), PpnkAp(Limit), Pnk(Limit);
  const Rational PFail(1, 1000);

  for (unsigned K = 1; K <= MaxK; K *= 2) {
    topology::ChainLayout L;
    topology::makeChain(K, L);
    std::printf("%6u %9u", K, L.numSwitches());

    bool BayonetExhausted = false;
    printCell(Bayonet.measure([&] {
      ast::Context Ctx;
      routing::NetworkModel M = routing::buildChainModel(L, PFail, Ctx);
      baseline::InferenceOptions O;
      O.LoopBound = 6 * K + 4;
      // Exponential path growth would blow far past any wall-clock
      // budget at the next point; a path budget (the analogue of the
      // paper's memory limit on Bayonet) bounds the attempt.
      O.PathBudget = static_cast<std::size_t>(Limit) * 300000;
      baseline::InferenceResult R =
          baseline::infer(M.Program, M.ingressPacket(0, Ctx), O);
      BayonetExhausted = R.BudgetExhausted;
    }));
    if (BayonetExhausted)
      Bayonet.kill();

    std::string Hand = handWrittenChain(K);
    std::string Goal = "sw=" + std::to_string(L.numSwitches() + 1);
    printCell(PrismEx.measure(
        [&] { runPrismSource(Hand, Goal, markov::SolverKind::Exact); }));
    printCell(PrismAp.measure(
        [&] { runPrismSource(Hand, Goal, markov::SolverKind::Iterative); }));

    printCell(PpnkEx.measure([&] {
      ast::Context Ctx;
      routing::NetworkModel M = routing::buildChainModel(L, PFail, Ctx);
      prism::Translation Tr =
          prism::translate(Ctx, M.Program, M.ingressPacket(0, Ctx));
      runPrismSource(Tr.Source, Tr.DoneGuard, markov::SolverKind::Exact);
    }));
    printCell(PpnkAp.measure([&] {
      ast::Context Ctx;
      routing::NetworkModel M = routing::buildChainModel(L, PFail, Ctx);
      prism::Translation Tr =
          prism::translate(Ctx, M.Program, M.ingressPacket(0, Ctx));
      runPrismSource(Tr.Source, Tr.DoneGuard,
                     markov::SolverKind::Iterative);
    }));

    printCell(Pnk.measure([&] {
      ast::Context Ctx;
      routing::NetworkModel M = routing::buildChainModel(L, PFail, Ctx);
      analysis::Verifier V(markov::SolverKind::Direct);
      V.compile(M.Program);
    }));
    std::printf("\n");
    std::fflush(stdout);
    if (!Bayonet.alive() && !PrismEx.alive() && !PrismAp.alive() &&
        !PpnkEx.alive() && !PpnkAp.alive() && !Pnk.alive())
      break;
  }
  return 0;
}
