//===----------------------------------------------------------------------===//
///
/// \file
/// Microbenchmarks for the linear-algebra substrate: sparse LU (the
/// UMFPACK stand-in), Neumann iteration, and the exact absorbing-chain
/// solver with its two block kernels — the engines behind Theorem 4.7's
/// closed form.
///
//===----------------------------------------------------------------------===//

#include "linalg/ModSolve.h"
#include "linalg/Solve.h"
#include "linalg/SparseLU.h"
#include "markov/Absorbing.h"
#include "support/ModArith.h"

#include <benchmark/benchmark.h>

#include <random>

using namespace mcnk;
using namespace mcnk::linalg;

namespace {

/// Random diagonally-dominant sparse system of dimension N.
SparseMatrix randomSystem(std::size_t N, unsigned Seed) {
  std::mt19937_64 Rng(Seed);
  std::uniform_real_distribution<double> Coef(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> Col(0, N - 1);
  std::vector<Triplet> Entries;
  for (std::size_t R = 0; R < N; ++R) {
    double RowSum = 0.0;
    for (int E = 0; E < 4; ++E) {
      std::size_t C = Col(Rng);
      if (C == R)
        continue;
      double V = Coef(Rng);
      Entries.push_back({R, C, V});
      RowSum += std::abs(V);
    }
    Entries.push_back({R, R, RowSum + 1.0});
  }
  return SparseMatrix::fromTriplets(N, N, Entries);
}

/// Birth-death absorbing chain of N transient states.
markov::AbsorbingChain birthDeath(std::size_t N) {
  markov::AbsorbingChain Chain;
  Chain.NumTransient = N;
  Chain.NumAbsorbing = 2;
  for (std::size_t K = 0; K < N; ++K) {
    if (K + 1 < N)
      Chain.QEntries.push_back({K, K + 1, Rational(1, 2)});
    else
      Chain.REntries.push_back({K, 1, Rational(1, 2)});
    if (K > 0)
      Chain.QEntries.push_back({K, K - 1, Rational(1, 2)});
    else
      Chain.REntries.push_back({K, 0, Rational(1, 2)});
  }
  return Chain;
}

/// The dense-block family: N states in one strongly connected block,
/// each with a ring edge and 3 random edges of weight k/(2^Bits - 1), the
/// rest of its mass draining to one of two absorbing states.
markov::AbsorbingChain denseBlock(std::size_t N, unsigned Bits) {
  std::mt19937_64 Rng(N * 64 + Bits);
  const int64_t Den = (int64_t(1) << Bits) - 1;
  std::uniform_int_distribution<int64_t> Weight(1, Den / 8);
  std::uniform_int_distribution<std::size_t> Target(0, N - 1);
  markov::AbsorbingChain Chain;
  Chain.NumTransient = N;
  Chain.NumAbsorbing = 2;
  for (std::size_t S = 0; S < N; ++S) {
    Rational Drain(1);
    for (std::size_t T : {(S + 1) % N, Target(Rng), Target(Rng), Target(Rng)}) {
      Rational W(Weight(Rng), Den);
      Drain -= W;
      Chain.QEntries.push_back({S, T, std::move(W)});
    }
    Chain.REntries.push_back({S, S % 2, std::move(Drain)});
  }
  return Chain;
}

} // namespace

static void BM_SparseLUFactor(benchmark::State &State) {
  SparseMatrix A = randomSystem(static_cast<std::size_t>(State.range(0)),
                                12345);
  for (auto _ : State) {
    SparseLU LU;
    benchmark::DoNotOptimize(LU.factor(A));
  }
}
BENCHMARK(BM_SparseLUFactor)->Arg(100)->Arg(400)->Arg(1600);

static void BM_SparseLUSolve(benchmark::State &State) {
  std::size_t N = static_cast<std::size_t>(State.range(0));
  SparseMatrix A = randomSystem(N, 999);
  SparseLU LU;
  bool Ok = LU.factor(A);
  if (!Ok)
    State.SkipWithError("singular");
  std::vector<double> B(N, 1.0);
  for (auto _ : State) {
    std::vector<double> X = B;
    LU.solve(X);
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_SparseLUSolve)->Arg(100)->Arg(1600);

static void BM_NeumannSolve(benchmark::State &State) {
  std::size_t N = static_cast<std::size_t>(State.range(0));
  // Substochastic random walk with drain.
  std::vector<Triplet> Entries;
  for (std::size_t R = 0; R < N; ++R) {
    Entries.push_back({R, (R + 1) % N, 0.45});
    Entries.push_back({R, (R + N - 1) % N, 0.45});
  }
  SparseMatrix Q = SparseMatrix::fromTriplets(N, N, Entries);
  std::vector<double> B(N, 0.1), X;
  for (auto _ : State)
    benchmark::DoNotOptimize(linalg::neumannSolve(Q, B, X));
}
BENCHMARK(BM_NeumannSolve)->Arg(100)->Arg(1600);

static void BM_AbsorbingExact(benchmark::State &State) {
  markov::AbsorbingChain Chain =
      birthDeath(static_cast<std::size_t>(State.range(0)));
  for (auto _ : State) {
    linalg::DenseMatrix<Rational> A;
    benchmark::DoNotOptimize(markov::solveAbsorptionExact(Chain, A));
  }
}
BENCHMARK(BM_AbsorbingExact)->Arg(32)->Arg(128);

static void BM_AbsorbingDenseBlock(benchmark::State &State) {
  // One strongly connected block with fill and 30-bit denominators, on
  // the exact engine's default per-block kernel choice.
  markov::AbsorbingChain Chain =
      denseBlock(static_cast<std::size_t>(State.range(0)), 30);
  for (auto _ : State) {
    linalg::DenseMatrix<Rational> A;
    benchmark::DoNotOptimize(markov::solveAbsorptionExact(Chain, A));
  }
}
BENCHMARK(BM_AbsorbingDenseBlock)
    ->Arg(8)->Arg(12)->Arg(16)->Arg(32)->Arg(64)->Arg(96);

static void BM_DenseBlockKernel(benchmark::State &State) {
  // The sweep behind markov::ModularMinBlock: one dense block of
  // range(0) states with range(1)-bit denominators, solved with the
  // kernel forced to Rational (range(2) == 1) or GF(p) (range(2) == 2).
  // The threshold is the smallest size from which GF(p) wins at both
  // widths.
  markov::AbsorbingChain Chain =
      denseBlock(static_cast<std::size_t>(State.range(0)),
                 static_cast<unsigned>(State.range(1)));
  markov::SolverStructure S;
  S.Kernel = static_cast<markov::BlockKernel>(State.range(2));
  for (auto _ : State) {
    linalg::DenseMatrix<Rational> A;
    benchmark::DoNotOptimize(
        markov::solveAbsorptionExact(Chain, A, nullptr, S));
  }
}
BENCHMARK(BM_DenseBlockKernel)
    ->ArgsProduct({{6, 8, 10, 11, 12, 16}, {8, 30}, {1, 2}});

static void BM_ModSolvePrime(benchmark::State &State) {
  // One prime's share of the modular solve: the I - Q system of the
  // birth-death chain reduced mod p and eliminated with the word-size
  // kernels (no bignum arithmetic anywhere on this path).
  std::size_t N = static_cast<std::size_t>(State.range(0));
  PrimeField F(modPrime(0));
  std::uint64_t Half;
  (void)rationalMod(Rational(1, 2), F, Half);
  std::uint64_t MinusHalf = F.encode(F.prime() - Half);
  std::vector<linalg::ModTriplet> A;
  linalg::DenseMatrix<std::uint64_t> B(N, 1);
  for (std::size_t K = 0; K < N; ++K) {
    A.push_back({K, K, F.one()});
    if (K + 1 < N)
      A.push_back({K, K + 1, MinusHalf});
    else
      B.at(K, 0) = F.encode(Half);
    if (K > 0)
      A.push_back({K, K - 1, MinusHalf});
  }
  for (auto _ : State) {
    linalg::DenseMatrix<std::uint64_t> Rhs = B;
    std::size_t Ops = 0, Fill = 0;
    benchmark::DoNotOptimize(linalg::modSolve(F, N, A, Rhs, Ops, Fill));
  }
}
BENCHMARK(BM_ModSolvePrime)->Arg(128)->Arg(512);

static void BM_CrtFoldLimbs(benchmark::State &State) {
  // The per-entry CRT accumulation of one matrix entry across K primes:
  // K allocation-free X += M·T passes on raw 64-bit limbs (prefix moduli
  // precomputed, as the solver does once per accepted prime).
  std::size_t K = static_cast<std::size_t>(State.range(0));
  std::vector<std::vector<std::uint64_t>> Prefix(K);
  std::vector<std::uint64_t> Residue(K);
  BigInt M(1);
  std::mt19937_64 Rng(7);
  for (std::size_t I = 0; I < K; ++I) {
    Prefix[I] = M.magnitudeLimbs64();
    std::uint64_t P = modPrime(I);
    Residue[I] = Rng() % P;
    M *= BigInt::fromUnsigned(P);
  }
  std::vector<std::uint64_t> X;
  for (auto _ : State) {
    X.clear();
    for (std::size_t I = 0; I < K; ++I)
      crtFoldLimbs64(X, Prefix[I], Residue[I]);
    benchmark::DoNotOptimize(X.data());
  }
}
BENCHMARK(BM_CrtFoldLimbs)->Arg(16)->Arg(64);

static void BM_RationalReconstruct(benchmark::State &State) {
  // Wang reconstruction (Lehmer-batched EGCD on 64-bit limb kernels) of a
  // wide known rational from its CRT image modulo K primes.
  std::size_t K = static_cast<std::size_t>(State.range(0));
  BigInt M(1);
  for (std::size_t I = 0; I < K; ++I)
    M *= BigInt::fromUnsigned(modPrime(I));
  // N/D sized just inside the Wang bound sqrt(M/2): ~30 of the ~62
  // modulus bits per prime go to each side.
  unsigned Side = static_cast<unsigned>(K) * 30;
  BigInt N = BigInt::pow(BigInt(2), Side) + BigInt(1);
  BigInt D = BigInt::pow(BigInt(3), (Side * 3) / 5); // 3^k ~ 2^1.585k.
  Rational Value(N, D);
  std::vector<std::uint64_t> X;
  BigInt MPrefix(1);
  for (std::size_t I = 0; I < K; ++I) {
    PrimeField F(modPrime(I));
    std::uint64_t R;
    if (!rationalMod(Value, F, R))
      State.SkipWithError("unlucky prime in setup");
    std::uint64_t XModP = F.encode(limbs64ModU64(X, F.prime()));
    std::uint64_t InvM = F.inv(F.encode(MPrefix.modU64(F.prime())));
    crtFoldLimbs64(X, MPrefix.magnitudeLimbs64(),
                   F.decode(F.mul(F.sub(F.encode(R), XModP), InvM)));
    MPrefix *= BigInt::fromUnsigned(F.prime());
  }
  BigInt XB = BigInt::fromLimbs64(false, X);
  BigInt Bound = isqrtBigInt((M - BigInt(1)) / BigInt(2));
  for (auto _ : State) {
    Rational Out;
    bool Ok = rationalReconstruct(XB, M, Bound, Out);
    benchmark::DoNotOptimize(Ok);
    if (!Ok || Out != Value)
      State.SkipWithError("reconstruction failed");
  }
}
BENCHMARK(BM_RationalReconstruct)->Arg(16)->Arg(64);

static void BM_AbsorbingDirect(benchmark::State &State) {
  markov::AbsorbingChain Chain =
      birthDeath(static_cast<std::size_t>(State.range(0)));
  for (auto _ : State) {
    linalg::DenseMatrix<double> A;
    benchmark::DoNotOptimize(markov::solveAbsorptionDouble(
        Chain, A, markov::SolverKind::Direct));
  }
}
BENCHMARK(BM_AbsorbingDirect)->Arg(32)->Arg(512);

BENCHMARK_MAIN();
