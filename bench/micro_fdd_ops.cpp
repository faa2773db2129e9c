//===----------------------------------------------------------------------===//
///
/// \file
/// Microbenchmarks for the FDD operations (§5.1): primitive construction,
/// sequential composition, branching, convex combination, loop solving,
/// and full model compilation — the per-operation costs behind Fig 7.
///
/// Every row times its operations on a fresh manager: the manager (and any
/// AST context) of the previous iteration is destroyed, and the next one
/// built, while timing is paused.
///
//===----------------------------------------------------------------------===//

#include "fdd/Compile.h"
#include "fdd/Fdd.h"
#include "routing/Routing.h"

#include <benchmark/benchmark.h>

#include <memory>

using namespace mcnk;
using namespace mcnk::fdd;

static void BM_FddSeqChain(benchmark::State &State) {
  // Compose a chain of assignments and tests over distinct fields.
  std::unique_ptr<FddManager> M;
  for (auto _ : State) {
    State.PauseTiming();
    M.reset();
    M = std::make_unique<FddManager>(); // Fresh: cold composition.
    State.ResumeTiming();
    FddRef Acc = M->identityLeaf();
    for (int F = 0; F < State.range(0); ++F) {
      Acc = M->seq(Acc, M->test(static_cast<FieldId>(F), 1));
      Acc = M->seq(Acc, M->assign(static_cast<FieldId>(F), 2));
    }
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_FddSeqChain)->Arg(8)->Arg(32);

static void BM_FddBranchCascade(benchmark::State &State) {
  std::unique_ptr<FddManager> M;
  for (auto _ : State) {
    State.PauseTiming();
    M.reset();
    M = std::make_unique<FddManager>();
    State.ResumeTiming();
    FddRef Acc = M->dropLeaf();
    for (int V = State.range(0); V-- > 0;)
      Acc = M->branch(M->test(0, static_cast<FieldValue>(V)),
                      M->assign(1, static_cast<FieldValue>(V)), Acc);
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_FddBranchCascade)->Arg(16)->Arg(128);

static void BM_FddChoiceTree(benchmark::State &State) {
  std::unique_ptr<FddManager> M;
  for (auto _ : State) {
    State.PauseTiming();
    M.reset();
    M = std::make_unique<FddManager>();
    State.ResumeTiming();
    FddRef Acc = M->assign(0, 0);
    for (int V = 1; V <= State.range(0); ++V)
      Acc = M->choice(Rational(1, V + 1),
                      M->assign(0, static_cast<FieldValue>(V)), Acc);
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_FddChoiceTree)->Arg(8)->Arg(64);

static void BM_FddWeightedSum(benchmark::State &State) {
  // seq of an n-entry leaf (f0 := i with weight 1/n) onto one shared
  // diagram over f1..f3 that never tests f0: the n compositions a_i ▷ Q
  // differ only in their leaves, and seq sums all n of them.
  const int N = static_cast<int>(State.range(0));
  std::unique_ptr<FddManager> M;
  for (auto _ : State) {
    State.PauseTiming();
    M.reset();
    M = std::make_unique<FddManager>();
    FddRef Q = M->dropLeaf();
    for (FieldValue V = 8; V-- > 0;)
      Q = M->branch(
          M->test(1, V),
          M->choice(Rational(1, 2), M->assign(2, V),
                    M->seq(M->test(3, V), M->assign(3, V + 1))),
          Q);
    std::vector<std::pair<Action, Rational>> Entries;
    for (int I = 0; I < N; ++I)
      Entries.emplace_back(
          Action::modify({{0, static_cast<FieldValue>(I)}}), Rational(1, N));
    FddRef L = M->leaf(ActionDist::fromEntries(std::move(Entries)));
    State.ResumeTiming();
    benchmark::DoNotOptimize(M->seq(L, Q));
  }
}
BENCHMARK(BM_FddWeightedSum)->Arg(2)->Arg(8)->Arg(32);

static void BM_FddLoopSolve(benchmark::State &State) {
  // while f=0 do walk on {0..N} — a loop whose chain has N+1 states.
  std::unique_ptr<FddManager> M;
  std::unique_ptr<ast::Context> Context;
  for (auto _ : State) {
    State.PauseTiming();
    M.reset();
    M = std::make_unique<FddManager>(markov::SolverKind::Direct);
    Context.reset();
    Context = std::make_unique<ast::Context>();
    ast::Context &Ctx = *Context;
    FieldId F = Ctx.field("f");
    FieldId G = Ctx.field("g");
    // Body: g cycles through N values, f flips to 1 on g=N-1.
    const ast::Node *Body = Ctx.assign(F, 1);
    for (int V = State.range(0); V-- > 0;)
      Body = Ctx.ite(Ctx.test(G, static_cast<FieldValue>(V)),
                     Ctx.seq(Ctx.assign(G, static_cast<FieldValue>(V + 1)),
                             Ctx.choice(Rational(1, 2), Ctx.assign(F, 0),
                                        Ctx.assign(F, 1))),
                     Body);
    const ast::Node *Loop = Ctx.whileLoop(Ctx.test(F, 0), Body);
    State.ResumeTiming();
    benchmark::DoNotOptimize(compile(*M, Loop));
  }
}
BENCHMARK(BM_FddLoopSolve)->Arg(16)->Arg(64);

static void BM_FddLoopSolveWide(benchmark::State &State) {
  // while f=0 do a ring on g={0..N-1}: at g=v the packet exits (f:=1,
  // keeping g=v) w.p. 1/1000 and moves to g=v+1 mod N otherwise. Every
  // transient state reaches all N exits with non-dyadic weights, so the
  // Direct engine's float-to-exact boundary converts a dense N x N block.
  std::unique_ptr<FddManager> M;
  std::unique_ptr<ast::Context> Context;
  for (auto _ : State) {
    State.PauseTiming();
    M.reset();
    M = std::make_unique<FddManager>(markov::SolverKind::Direct);
    Context.reset();
    Context = std::make_unique<ast::Context>();
    ast::Context &Ctx = *Context;
    FieldId F = Ctx.field("f");
    FieldId G = Ctx.field("g");
    auto N = static_cast<FieldValue>(State.range(0));
    const ast::Node *Body = Ctx.drop();
    for (FieldValue V = N; V-- > 0;)
      Body = Ctx.ite(Ctx.test(G, V),
                     Ctx.choice(Rational(1, 1000), Ctx.assign(F, 1),
                                Ctx.assign(G, (V + 1) % N)),
                     Body);
    const ast::Node *Loop = Ctx.whileLoop(Ctx.test(F, 0), Body);
    State.ResumeTiming();
    benchmark::DoNotOptimize(compile(*M, Loop));
  }
}
BENCHMARK(BM_FddLoopSolveWide)->Arg(64)->Arg(256);

static void BM_CompileTriangleModel(benchmark::State &State) {
  std::unique_ptr<FddManager> M;
  std::unique_ptr<ast::Context> Context;
  for (auto _ : State) {
    State.PauseTiming();
    M.reset();
    M = std::make_unique<FddManager>();
    Context.reset();
    Context = std::make_unique<ast::Context>();
    routing::TriangleExample Ex = routing::buildTriangleExample(*Context);
    State.ResumeTiming();
    benchmark::DoNotOptimize(compile(*M, Ex.ResilientF2));
  }
}
BENCHMARK(BM_CompileTriangleModel);

static void BM_CompileFatTreeModel(benchmark::State &State) {
  std::unique_ptr<FddManager> M;
  std::unique_ptr<ast::Context> Context;
  for (auto _ : State) {
    State.PauseTiming();
    M.reset();
    M = std::make_unique<FddManager>(markov::SolverKind::Direct);
    Context.reset();
    Context = std::make_unique<ast::Context>();
    ast::Context &Ctx = *Context;
    topology::FatTreeLayout L;
    topology::makeAbFatTree(static_cast<unsigned>(State.range(0)), L);
    routing::ModelOptions O;
    O.RoutingScheme = routing::Scheme::F100;
    O.Failures = routing::FailureModel::iid(Rational(1, 1000));
    routing::NetworkModel Net = routing::buildFatTreeModel(L, O, Ctx);
    State.ResumeTiming();
    benchmark::DoNotOptimize(compile(*M, Net.Program));
  }
}
BENCHMARK(BM_CompileFatTreeModel)->Arg(4)->Arg(8);

BENCHMARK_MAIN();
