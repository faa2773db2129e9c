//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 8: speedup from worker threads. The paper's backend compiles
/// the per-switch `case` arms map-reduce style on a cluster. Here `case`
/// compiles serially with the same segment algebra (docs/ARCHITECTURE.md
/// S10), and the parallelism that remains is the loop solver's: the
/// verifier's pool (Verifier::enableSolverPool) solves independent SCC
/// blocks of the network's while loop concurrently. The harness sweeps
/// that pool's width and reports the median compile time of a fixed three
/// repetitions per row, with the speedup over the serial (1-thread, no
/// pool) row. Repetitions interleave the rows, so host drift spreads over
/// every width.
///
/// NOTE: the paper measured 16-core machines (and a 24-machine cluster);
/// on hosts with few cores the attainable speedup is bounded by the
/// hardware (the emitted JSON records build type, repetitions and host
/// concurrency so trajectory points stay interpretable).
/// Knobs: MCNK_FIG8_P (default 8), MCNK_FIG8_MAXTHREADS (default 8),
/// MCNK_FIG8_JSON (write machine-readable results to this path).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "analysis/Verifier.h"
#include "routing/Routing.h"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace mcnk;
using namespace mcnk::bench;
using namespace mcnk::routing;

namespace {

constexpr unsigned Repetitions = 3;

struct Row {
  unsigned Threads;
  std::vector<double> Runs;
  double Median = 0;
  double Speedup = 0;
};

void writeJson(const char *Path, unsigned P, unsigned MaxThreads,
               const std::vector<Row> &Rows) {
  std::FILE *Out = std::fopen(Path, "w");
  if (!Out) {
    std::fprintf(stderr, "fig08: cannot write '%s'\n", Path);
    return;
  }
  std::fprintf(Out, "{\n");
  std::fprintf(Out, "  \"name\": \"fig08_parallel_speedup\",\n");
  std::fprintf(Out, "  \"model\": \"AB FatTree p=%u, F10_3,5, iid link "
                    "failures 1/1000, Direct solver\",\n", P);
  std::fprintf(Out, "  \"engine\": \"serial FDD compile (pairwise `case` "
                    "reduction); loop SCC blocks on the verifier's solver "
                    "pool\",\n");
  std::fprintf(Out, "  \"fat_tree_p\": %u,\n", P);
  std::fprintf(Out, "  \"max_threads\": %u,\n", MaxThreads);
  writeRunInfo(Out, Repetitions);
  std::fprintf(Out, "  \"rows\": [\n");
  for (std::size_t I = 0; I < Rows.size(); ++I) {
    std::string Runs;
    for (double S : Rows[I].Runs)
      Runs += (Runs.empty() ? "" : ", ") + std::to_string(S);
    std::fprintf(Out,
                 "    {\"threads\": %u, \"median_seconds\": %.6f, "
                 "\"speedup\": %.3f, \"runs\": [%s]}%s\n",
                 Rows[I].Threads, Rows[I].Median, Rows[I].Speedup,
                 Runs.c_str(), I + 1 < Rows.size() ? "," : "");
  }
  std::fprintf(Out, "  ]\n}\n");
  std::fclose(Out);
  std::printf("wrote %s\n", Path);
}

} // namespace

int main() {
  unsigned P = envUnsigned("MCNK_FIG8_P", 8);
  unsigned MaxThreads = envUnsigned("MCNK_FIG8_MAXTHREADS", 8);
  std::printf("=== Fig 8: loop-solve pool speedup (FatTree p = %u, "
              "F10_3,5 with failures) ===\n", P);
  std::printf("host hardware concurrency: %u; median of %u runs per "
              "row\n\n",
              std::thread::hardware_concurrency(), Repetitions);

  topology::FatTreeLayout L;
  topology::makeAbFatTree(P, L);
  ModelOptions O;
  O.RoutingScheme = Scheme::F1035;
  O.Failures = FailureModel::iid(Rational(1, 1000));

  std::vector<Row> Rows;
  for (unsigned Threads = 1; Threads <= MaxThreads; Threads *= 2)
    Rows.push_back({Threads, {}});
  for (unsigned Rep = 0; Rep < Repetitions; ++Rep) {
    for (Row &R : Rows) {
      ast::Context Ctx;
      NetworkModel M = buildFatTreeModel(L, O, Ctx);
      analysis::Verifier V(markov::SolverKind::Direct);
      // At 1 thread the loop solves serially: the baseline.
      if (R.Threads > 1)
        V.enableSolverPool(R.Threads);
      WallTimer T;
      V.compile(M.Program);
      R.Runs.push_back(T.elapsed());
      std::printf("run %u: %u thread(s) %.3f s\n", Rep + 1, R.Threads,
                  R.Runs.back());
      std::fflush(stdout);
    }
  }

  std::printf("\n%8s  %10s  %8s\n", "threads", "median s", "speedup");
  for (Row &R : Rows) {
    R.Median = median(R.Runs);
    R.Speedup = R.Median > 0 ? Rows.front().Median / R.Median : 0;
    std::printf("%8u  %10.3f  %7.2fx\n", R.Threads, R.Median, R.Speedup);
  }

  if (const char *Json = std::getenv("MCNK_FIG8_JSON"))
    if (*Json)
      writeJson(Json, P, MaxThreads, Rows);
  return 0;
}
