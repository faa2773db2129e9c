//===----------------------------------------------------------------------===//
///
/// \file
/// Microbenchmarks for the exact-arithmetic substrate (BigInt/Rational) —
/// the foundation every FDD leaf operation pays for — and for the daemon's
/// front end (parse plus fingerprint of one request's program text).
///
//===----------------------------------------------------------------------===//

#include "ast/Context.h"
#include "ast/Hash.h"
#include "ast/Printer.h"
#include "parser/Parser.h"
#include "routing/Routing.h"
#include "support/BigInt.h"
#include "support/Rational.h"
#include "topology/Topology.h"

#include <benchmark/benchmark.h>

#include <string>

using namespace mcnk;

static void BM_BigIntMultiply(benchmark::State &State) {
  BigInt A = BigInt::pow(BigInt(7), static_cast<unsigned>(State.range(0)));
  BigInt B = BigInt::pow(BigInt(11), static_cast<unsigned>(State.range(0)));
  for (auto _ : State)
    benchmark::DoNotOptimize(A * B);
}
BENCHMARK(BM_BigIntMultiply)->Arg(8)->Arg(64)->Arg(512);

static void BM_BigIntDivMod(benchmark::State &State) {
  BigInt A = BigInt::pow(BigInt(7), static_cast<unsigned>(State.range(0)));
  BigInt B = BigInt::pow(BigInt(11),
                         static_cast<unsigned>(State.range(0)) / 2);
  for (auto _ : State)
    benchmark::DoNotOptimize(BigInt::divMod(A, B));
}
BENCHMARK(BM_BigIntDivMod)->Arg(8)->Arg(64)->Arg(512);

static void BM_BigIntGcd(benchmark::State &State) {
  BigInt A = BigInt::pow(BigInt(2 * 3 * 5 * 7),
                         static_cast<unsigned>(State.range(0)));
  BigInt B = BigInt::pow(BigInt(2 * 3 * 11),
                         static_cast<unsigned>(State.range(0)));
  for (auto _ : State)
    benchmark::DoNotOptimize(BigInt::gcd(A, B));
}
BENCHMARK(BM_BigIntGcd)->Arg(8)->Arg(64)->Arg(512);

static void BM_BigIntGcdFibonacci(benchmark::State &State) {
  // Consecutive Fibonacci numbers: Euclid's worst case (every quotient 1).
  BigInt A(0), B(1);
  for (int64_t I = 0; I < State.range(0); ++I) {
    BigInt Next = A + B;
    A = std::move(B);
    B = std::move(Next);
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(BigInt::gcd(A, B));
}
BENCHMARK(BM_BigIntGcdFibonacci)->Arg(100)->Arg(1000);

static void BM_BigIntSmallAdd(benchmark::State &State) {
  // Word-sized operands: the common case for FDD leaf numerators.
  BigInt A(123456789), B(987654321);
  for (auto _ : State)
    benchmark::DoNotOptimize(A + B);
}
BENCHMARK(BM_BigIntSmallAdd);

static void BM_BigIntSmallMul(benchmark::State &State) {
  BigInt A(1000003), B(999999937);
  for (auto _ : State)
    benchmark::DoNotOptimize(A * B);
}
BENCHMARK(BM_BigIntSmallMul);

static void BM_BigIntSmallAccumulate(benchmark::State &State) {
  // In-place compound ops on word-sized values (hash-cons bucket sums).
  for (auto _ : State) {
    BigInt Acc(0);
    for (int I = 0; I < 64; ++I)
      Acc += BigInt(I * 7919);
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_BigIntSmallAccumulate);

static void BM_RationalSmallAdd(benchmark::State &State) {
  // Small-operand add: the leaf-merge hot path (equal actions' weights).
  Rational A(3, 7), B(5, 9);
  for (auto _ : State)
    benchmark::DoNotOptimize(A + B);
}
BENCHMARK(BM_RationalSmallAdd);

static void BM_RationalSmallMul(benchmark::State &State) {
  Rational A(355, 113), B(999, 1000);
  for (auto _ : State)
    benchmark::DoNotOptimize(A * B);
}
BENCHMARK(BM_RationalSmallMul);

static void BM_RationalSmallAccumulate(benchmark::State &State) {
  // Mass += W over a full decomposition, as validateFdd sums each leaf's
  // weights when a stored or imported diagram is checked.
  for (auto _ : State) {
    Rational Mass(0);
    for (int I = 0; I < 64; ++I)
      Mass += Rational(1, 64);
    benchmark::DoNotOptimize(Mass);
  }
}
BENCHMARK(BM_RationalSmallAccumulate);

static void BM_RationalConvex(benchmark::State &State) {
  // The inner operation of every probabilistic-choice leaf merge.
  Rational R(1, 3), P(999, 1000), Q(1, 1000);
  for (auto _ : State)
    benchmark::DoNotOptimize(R * P + (Rational(1) - R) * Q);
}
BENCHMARK(BM_RationalConvex);

static void BM_RationalLongProduct(benchmark::State &State) {
  // Failure chains multiply many (1 - 1/1000) factors.
  for (auto _ : State) {
    Rational Acc(1);
    for (int I = 0; I < State.range(0); ++I)
      Acc *= Rational(999, 1000);
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_RationalLongProduct)->Arg(16)->Arg(128);

static void BM_RationalToDouble(benchmark::State &State) {
  Rational Tiny = Rational(1);
  for (int I = 0; I < 20; ++I)
    Tiny *= Rational(1, 1000);
  for (auto _ : State)
    benchmark::DoNotOptimize(Tiny.toDouble());
}
BENCHMARK(BM_RationalToDouble);

/// The text of an AB FatTree p=4 F10_3,5 hop-count model, as a client
/// sends it.
static const std::string &fatTreeModelText() {
  static const std::string Text = [] {
    ast::Context Ctx;
    topology::FatTreeLayout L;
    topology::makeAbFatTree(4, L);
    routing::ModelOptions O;
    O.RoutingScheme = routing::Scheme::F1035;
    O.Failures = routing::FailureModel::iid(Rational(1, 4));
    O.CountHops = true;
    O.HopCap = 14;
    return ast::print(routing::buildFatTreeModel(L, O, Ctx).Program,
                      Ctx.fields());
  }();
  return Text;
}

static void BM_ParseAndFingerprint(benchmark::State &State) {
  // Each iteration is what a warm `compile` request pays before the cache
  // lookup: parse into a fresh Context, then fingerprint.
  const std::string &Text = fatTreeModelText();
  for (auto _ : State) {
    ast::Context Ctx;
    parser::ParseResult R = parser::parseProgram(Text, Ctx);
    benchmark::DoNotOptimize(ast::programHash(R.Program));
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Text.size()));
}
BENCHMARK(BM_ParseAndFingerprint);

static void BM_ParseOnly(benchmark::State &State) {
  // The same text, parsed into a fresh Context (lex, parse, teardown).
  const std::string &Text = fatTreeModelText();
  for (auto _ : State) {
    ast::Context Ctx;
    benchmark::DoNotOptimize(parser::parseProgram(Text, Ctx).Program);
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Text.size()));
}
BENCHMARK(BM_ParseOnly);

BENCHMARK_MAIN();
