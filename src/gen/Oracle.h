//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-engine differential oracle: compiles a guarded program (or a
/// registry scenario) under every backend the repository implements —
/// native FDD with the Exact (each block kernel forced in turn) /
/// Direct(float) / Iterative solvers; the prismlite pipeline (translate + explicit-state check);
/// the exhaustive path-enumeration baseline; and, for tiny
/// programs, the reference set semantics — then cross-checks delivery
/// probabilities, full output distributions, equivalence/refinement
/// verdicts, and hop statistics, plus the Printer -> Parser and
/// exportFdd -> importFdd round-trips. Every disagreement is reported as
/// a human-readable string carrying the case label, so a failure
/// reproduces from the printed seed (docs/ARCHITECTURE.md S11).
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_GEN_ORACLE_H
#define MCNK_GEN_ORACLE_H

#include "gen/ProgramGen.h"
#include "gen/Scenario.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mcnk {

namespace analysis {
class Verifier;
} // namespace analysis

namespace fdd {
class CompileCache;
} // namespace fdd

namespace gen {

/// Tolerances and engine toggles for one oracle run.
struct OracleOptions {
  /// Absolute tolerance when a float-solved engine meets an exact one.
  double Tolerance = 1e-6;
  /// Baseline unroll bound / path budget for random programs (scenarios
  /// carry their own bound).
  std::size_t BaselineLoopBound = 24;
  std::size_t BaselinePathBudget = 200000;
  /// The PRISM pipeline re-translates per input; cap the inputs it sees.
  std::size_t MaxPrismInputs = 4;
  bool CheckPrism = true;
  bool CheckBaseline = true;
  bool CheckRoundTrips = true;
  /// Cross-check the cross-compile cache and manager GC (ARCHITECTURE
  /// S12): a cache-backed verifier must produce reference-equal diagrams
  /// cold, on the hit path, and after gc(), with identical output
  /// distributions to the uncached engine.
  bool CheckCompileCache = true;
  /// Optional shared cache for the S12 checks; when null, each driver run
  /// creates one of its own so hits still accumulate across cases.
  fdd::CompileCache *Cache = nullptr;
  /// Inputs per case on which the cached engine's output distributions
  /// are compared point-for-point against the uncached one.
  std::size_t MaxCacheCheckInputs = 4;
  /// Cross-check the block pipeline of the loop solver
  /// (docs/ARCHITECTURE.md S13): every engine's per-block LoopSolveStats
  /// must sum to its totals.
  bool CheckBlocked = true;
  /// Cross-check the exact engine's two block kernels
  /// (docs/ARCHITECTURE.md S14): compiles with the GF(p) kernel forced on
  /// every block — uncached, cache-backed cold/hit on a fresh cache, and
  /// sliced — and one with Rational elimination forced must all be
  /// reference-equal to the default (per-block choice) diagram;
  /// reconstruction is verified, never trusted.
  bool CheckModular = true;
  /// Cross-check the serving layer (docs/ARCHITECTURE.md S16): an
  /// in-process Service + Session answering the line protocol must agree
  /// with the inline verifier — delivery probabilities and hop statistics
  /// string-equal as exact rationals, teleport equivalence/refinement
  /// verdicts identical. The program travels through the printer and the
  /// JSON framing, so this also pins print -> parse -> compile end to end.
  bool CheckServe = true;
  /// Cross-check the verified simplifier (docs/ARCHITECTURE.md S15):
  /// simplify(p) must compile to a diagram reference-equal to p's under
  /// the exact engine (the simplifier's soundness contract), and simplify
  /// must be idempotent.
  bool CheckSimplify = true;
  /// Cross-check query-directed slicing (docs/ARCHITECTURE.md S17): the
  /// delivery-sliced compile must be reference-equal to the unsliced exact
  /// diagram after projecting out-of-cone modifications away (out-of-cone
  /// tests whose projected children still differ are kept, so a missed
  /// dependency fails loudly); per-input delivery probabilities must be
  /// string-equal; the sliced GF(p)-forced and cached engines must reproduce
  /// the sliced Rational diagram; the all-fields slice must
  /// not change the compiled diagram at all; and slicing must be
  /// idempotent. Scenarios additionally pin the sliced average
  /// delivery and the hop-stats histogram under the counter-field
  /// observation.
  bool CheckSlice = true;
};

/// Accumulated outcome of an oracle run.
struct OracleReport {
  std::size_t NumCases = 0;  ///< Programs / scenarios cross-checked.
  std::size_t NumChecks = 0; ///< Individual comparisons performed.
  std::vector<std::string> Disagreements;

  bool ok() const { return Disagreements.empty(); }
  void merge(const OracleReport &Other);
  std::string summary() const;
};

/// Cross-checks one guarded program on the given concrete inputs under
/// every engine. \p Label prefixes disagreement messages. When
/// \p ExactVerifier is non-null it supplies (and afterwards retains) the
/// exact-solver compilation — crossCheckScenario reuses it for the
/// teleport/closed-form/hop checks instead of paying a second Exact
/// compile, the most expensive engine.
OracleReport crossCheckProgram(ast::Context &Ctx, const ast::Node *Program,
                               const std::vector<Packet> &Inputs,
                               const OracleOptions &Options,
                               const std::string &Label,
                               analysis::Verifier *ExactVerifier = nullptr);

/// Cross-checks one registry scenario: crossCheckProgram on its inputs,
/// plus teleport refinement/equivalence consistency, closed-form delivery,
/// hop-statistics invariants (and their baseline cross-check), and
/// LoopSolveStats sanity on loop-bearing models.
OracleReport crossCheckScenario(ast::Context &Ctx, const Scenario &S,
                                const OracleOptions &Options);

/// Program-fuzzing driver: derives one child seed per iteration from
/// \p Seed, generates a random guarded program, and cross-checks it on
/// its full (capped) input space. Every fourth iteration additionally
/// generates a tiny program pair and compares the verifier's equivalence
/// and refinement verdicts against the reference set semantics.
struct FuzzOptions {
  unsigned Iterations = 100;
  GenOptions Gen;
  std::size_t MaxInputs = 16;
  /// Run the set-semantics verdict comparison every Nth iteration
  /// (0 disables).
  unsigned VerdictEvery = 4;
};
OracleReport fuzzPrograms(uint64_t Seed, const FuzzOptions &Fuzz,
                          const OracleOptions &Options);

/// Runs every scenario in the registry.
OracleReport runRegistry(const RegistryOptions &Registry,
                         const OracleOptions &Options);

} // namespace gen
} // namespace mcnk

#endif // MCNK_GEN_ORACLE_H
