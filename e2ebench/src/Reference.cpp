//===----------------------------------------------------------------------===//
///
/// \file
/// The reference kernel (see Reference.h).
///
//===----------------------------------------------------------------------===//

#include "Reference.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <unordered_map>
#include <vector>

namespace e2ebench {

namespace {

/// Keeps the kernel's result observable so the optimizer cannot drop it.
volatile uint64_t Sink = 0;

uint64_t kernelPass(uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::unordered_map<uint64_t, uint64_t> Hashed;
  std::map<uint64_t, uint64_t> Ordered;
  for (uint64_t I = 0; I < 200000; ++I) {
    uint64_t Key = Rng() % 100000;
    Hashed[Key] += I;
    if (I % 4 == 0)
      Ordered[Key] ^= I;
  }
  std::vector<uint64_t> Values;
  Values.reserve(Hashed.size());
  for (const auto &[Key, Value] : Hashed)
    Values.push_back(Key * Value);
  std::sort(Values.begin(), Values.end());
  uint64_t Acc = Values.empty() ? 0 : Values[Values.size() / 2];
  Acc += Ordered.size();

  // 400 x 400 limb schoolbook products.
  std::vector<uint32_t> A(400, 0xffffffffu), B(400, 0x12345678u), C(800, 0);
  for (int Round = 0; Round < 60; ++Round) {
    A[Round] ^= static_cast<uint32_t>(Acc);
    for (std::size_t I = 0; I < A.size(); ++I) {
      uint64_t Carry = 0;
      for (std::size_t J = 0; J < B.size(); ++J) {
        uint64_t T = static_cast<uint64_t>(A[I]) * B[J] + C[I + J] + Carry;
        C[I + J] = static_cast<uint32_t>(T);
        Carry = T >> 32;
      }
      C[I + B.size()] = static_cast<uint32_t>(Carry);
    }
    Acc += C[Round];
  }
  return Acc;
}

} // namespace

double referenceKernelSeconds() {
  auto Start = std::chrono::steady_clock::now();
  uint64_t Acc = 0;
  for (uint64_t Pass = 0; Pass < 3; ++Pass)
    Acc += kernelPass(42 + Pass);
  Sink = Sink + Acc;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

} // namespace e2ebench
