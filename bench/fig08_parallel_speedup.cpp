//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 8: the paper's speedup from parallel compilation. The paper's
/// backend compiles the per-switch `case` arms map-reduce style on a
/// cluster (§6). That speedup is NOT reproduced here: `case` compiles
/// serially with the same segment algebra (docs/ARCHITECTURE.md S10), and
/// loop solves run serially too (S13), so there is no thread count to
/// sweep. The harness records the serial compile time of the Fig 8 model
/// instead: the median of a fixed three runs.
///
/// The emitted JSON records build type, repetitions and host concurrency
/// so trajectory points stay interpretable.
/// Knobs: MCNK_FIG8_P (default 8), MCNK_FIG8_JSON (write machine-readable
/// results to this path).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "analysis/Verifier.h"
#include "routing/Routing.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace mcnk;
using namespace mcnk::bench;
using namespace mcnk::routing;

namespace {

constexpr unsigned Repetitions = 3;

void writeJson(const char *Path, unsigned P, const std::vector<double> &Runs,
               double Median) {
  std::FILE *Out = std::fopen(Path, "w");
  if (!Out) {
    std::fprintf(stderr, "fig08: cannot write '%s'\n", Path);
    return;
  }
  std::string RunList;
  for (double S : Runs)
    RunList += (RunList.empty() ? "" : ", ") + std::to_string(S);
  std::fprintf(Out, "{\n");
  std::fprintf(Out, "  \"name\": \"fig08_parallel_speedup\",\n");
  std::fprintf(Out, "  \"model\": \"AB FatTree p=%u, F10_3,5, iid link "
                    "failures 1/1000, Direct solver\",\n", P);
  std::fprintf(Out, "  \"engine\": \"serial FDD compile (pairwise `case` "
                    "reduction) and serial loop solve; the paper's "
                    "parallel speedup is not reproduced\",\n");
  std::fprintf(Out, "  \"fat_tree_p\": %u,\n", P);
  writeRunInfo(Out, Repetitions);
  std::fprintf(Out, "  \"median_seconds\": %.6f,\n", Median);
  std::fprintf(Out, "  \"runs\": [%s]\n", RunList.c_str());
  std::fprintf(Out, "}\n");
  std::fclose(Out);
  std::printf("wrote %s\n", Path);
}

} // namespace

int main() {
  unsigned P = envUnsigned("MCNK_FIG8_P", 8);
  std::printf("=== Fig 8: serial compile time (FatTree p = %u, F10_3,5 "
              "with failures) ===\n", P);
  std::printf("the paper's parallel speedup is not reproduced; median of "
              "%u runs\n\n", Repetitions);

  topology::FatTreeLayout L;
  topology::makeAbFatTree(P, L);
  ModelOptions O;
  O.RoutingScheme = Scheme::F1035;
  O.Failures = FailureModel::iid(Rational(1, 1000));

  std::vector<double> Runs;
  for (unsigned Rep = 0; Rep < Repetitions; ++Rep) {
    ast::Context Ctx;
    NetworkModel M = buildFatTreeModel(L, O, Ctx);
    analysis::Verifier V(markov::SolverKind::Direct);
    WallTimer T;
    V.compile(M.Program);
    Runs.push_back(T.elapsed());
    std::printf("run %u: %.3f s\n", Rep + 1, Runs.back());
    std::fflush(stdout);
  }
  double Median = median(Runs);
  std::printf("\nmedian: %.3f s\n", Median);

  if (const char *Json = std::getenv("MCNK_FIG8_JSON"))
    if (*Json)
      writeJson(Json, P, Runs, Median);
  return 0;
}
