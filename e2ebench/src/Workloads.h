//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's workloads (README.md gives why each was chosen):
///
///   f10_fattree  AB FatTree p=6, F10_0 / F10_3 / F10_3,5: hop-counting
///                models under iid failures (Direct solver) and the Fig 11
///                resilience verdicts (Exact).
///   chain_exact  Fig 10 diamond chains, pfail 1/1000: K=128 on the
///                Rational engine and K=256 on ModularExact.
///   serve_mix    the scenario registry plus AB FatTree p=4 F10
///                hop-counting models, as a seeded request stream.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_WORKLOADS_H
#define E2EBENCH_WORKLOADS_H

#include "Harness.h"

namespace e2ebench {

/// True for the three workload names above.
bool knownWorkload(const std::string &Name);

/// Synthesizes a workload's models. \p BuildS is the time spent in the
/// routing::build* synthesizers (and the scenario registry), \p SetupS
/// that plus constructing one Verifier per program group.
Workload buildWorkload(const std::string &Name, double &BuildS,
                       double &SetupS);

/// Builds the request stream (only serve_mix reads \p Seed: it orders the
/// stream), the closed forms, loads stored references from \p ExpectedDir
/// and prints every program.
void prepareWorkload(Workload &W, uint64_t Seed,
                     const std::string &ExpectedDir);

/// Recomputes the stored f10_fattree reference values with independent
/// engines and writes them to \p Path. Returns false on failure.
bool writeF10Expected(const std::string &Path);

} // namespace e2ebench

#endif // E2EBENCH_WORKLOADS_H
