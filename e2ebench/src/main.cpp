//===----------------------------------------------------------------------===//
///
/// \file
/// mcnk_e2ebench: runs one workload for a time budget and prints its
/// metrics as one JSON object on the last line of standard output.
///
///   mcnk_e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                 --workdir <dir> --expected <dir>
///   mcnk_e2ebench --write-expected <file>
///
/// A run repeats rounds until the budget is spent (at least MinRounds):
/// each round computes every verdict inline, then replays the workload's
/// request stream through a daemon session cold, restarts, and replays it
/// warm. The reference kernel (Reference.h) runs between these steps, and
/// every end-to-end timing is scaled by the kernel time measured next to
/// it; timings are then medians over rounds. With --trace 1, odd rounds
/// time each layer from outside (calls into public functions, stats
/// getters) and the run reports per-layer metrics (raw, unscaled) plus the
/// tracing overhead.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Reference.h"
#include "Workloads.h"

#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <utility>
#include <vector>

using namespace e2ebench;

namespace {

constexpr unsigned MinRounds = 4; // Traced runs: two untraced, two traced.
/// Set-ups per round, timed next to the round's inline verdicts so the
/// same reference-kernel readings scale both.
constexpr unsigned SetupsPerRound = 5;
/// Service restarts per round on serve_mix, whose set-up time they
/// sample; the last one serves the warm phase. The other workloads
/// restart once per round (their stores take seconds to open).
constexpr unsigned ServeMixRestarts = 3;

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

void printResult(const Tally &T, const std::vector<Metric> &Metrics) {
  std::string Out = "{\"correct\": ";
  Out += T.Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(T.Attempted);
  Out += ", \"failed\": " + std::to_string(T.Failed);
  Out += ", \"metrics\": {";
  for (std::size_t I = 0; I < Metrics.size(); ++I) {
    if (I)
      Out += ", ";
    Out += "\"" + Metrics[I].Name + "\": {\"value\": " +
           jsonNumber(Metrics[I].Value) + ", \"unit\": \"" + Metrics[I].Unit +
           "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

/// Per-round samples, scaled to the nominal host speed; traced and
/// untraced rounds are kept apart.
struct Samples {
  std::vector<double> Verdict, Cold, Warm;
};

/// The factor that scales a timing measured between two kernel runs.
double scaleBetween(double KernelBefore, double KernelAfter) {
  return ReferenceNominalS / ((KernelBefore + KernelAfter) / 2);
}

/// "off" when the process runs without address-space randomization.
std::string aslrState() {
  std::FILE *F = std::fopen("/proc/self/personality", "r");
  if (!F)
    return "unknown";
  unsigned long Personality = 0;
  int Read = std::fscanf(F, "%lx", &Personality);
  std::fclose(F);
  if (Read != 1)
    return "unknown";
  return Personality & 0x0040000 ? "off" : "on"; // ADDR_NO_RANDOMIZE
}

/// FNV-1a over the request lines: equal digests mean byte-identical
/// streams.
uint64_t streamDigest(const std::vector<std::string> &Lines) {
  uint64_t H = 14695981039346656037ULL;
  for (const std::string &Line : Lines)
    for (char C : Line + "\n") {
      H ^= static_cast<unsigned char>(C);
      H *= 1099511628211ULL;
    }
  return H;
}

int usage() {
  std::fprintf(stderr,
               "usage: mcnk_e2ebench --workload f10_fattree|chain_exact|"
               "serve_mix --seed N --seconds S --trace 0|1 --workdir DIR "
               "--expected DIR\n"
               "       mcnk_e2ebench --write-expected FILE\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName, Workdir, ExpectedDir, WriteExpected;
  uint64_t Seed = 0;
  double Seconds = -1;
  int Trace = -1;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    if (Flag == "--workload")
      WorkloadName = Value;
    else if (Flag == "--seed")
      Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      Seconds = std::strtod(Value.c_str(), nullptr);
    else if (Flag == "--trace")
      Trace = Value == "1" ? 1 : Value == "0" ? 0 : -1;
    else if (Flag == "--workdir")
      Workdir = Value;
    else if (Flag == "--expected")
      ExpectedDir = Value;
    else if (Flag == "--write-expected")
      WriteExpected = Value;
    else
      return usage();
  }
  if (!WriteExpected.empty())
    return writeF10Expected(WriteExpected) ? 0 : 1;
  if (!knownWorkload(WorkloadName) || Seconds <= 0 || Trace < 0 ||
      Workdir.empty() || ExpectedDir.empty())
    return usage();
  if (std::string(E2EBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "error: built as '%s'; timings need Release\n",
                 E2EBENCH_BUILD_TYPE);
    return 2;
  }

  double FirstBuildS = 0, FirstSetupS = 0;
  Workload W = buildWorkload(WorkloadName, FirstBuildS, FirstSetupS);
  prepareWorkload(W, Seed, ExpectedDir);
  const std::vector<std::string> Lines = requestLines(W);
  const std::string StorePath = Workdir + "/" + WorkloadName + ".store";

  Tally T;
  Samples Plain, Traced, Raw;
  std::vector<double> BuildS, SetupS, KernelS{referenceKernelSeconds()};
  std::vector<double> RestartS, WarmLatencyMs;
  std::vector<LayerSample> Layers;
  std::vector<FrontEndSample> FrontEnd;
  std::vector<std::vector<double>> WarmByVerb(NumVerbs), ColdByVerb(NumVerbs);
  std::vector<double> StoreOpenS, StoreWarmed, StoreAppends, StoreBytes;
  std::vector<double> CacheCold[3], CacheWarm[3]; // hits, misses, ratio
  const unsigned Restarts = WorkloadName == "serve_mix" ? ServeMixRestarts : 1;

  WallTimer Budget;
  unsigned Rounds = 0;
  while (Rounds < MinRounds || Budget.elapsed() < Seconds) {
    bool IsTraced = Trace && Rounds % 2 == 1;
    Samples &Into = IsTraced ? Traced : Plain;
    LayerSample LS;

    WallTimer Verdict;
    Answers A = inlineRound(W, IsTraced ? &LS : nullptr);
    double VerdictS = Verdict.elapsed();
    // Set-up: synthesis + Verifier construction of a fresh workload.
    std::vector<double> RoundSetupS;
    for (unsigned I = 0; I < SetupsPerRound; ++I) {
      double B = 0, S = 0;
      buildWorkload(WorkloadName, B, S);
      BuildS.push_back(B);
      RoundSetupS.push_back(S);
    }
    KernelS.push_back(referenceKernelSeconds());
    checkAnswers(W, A, T);

    ServedRound SR = servedRound(Lines, StorePath, Restarts, T);
    KernelS.push_back(referenceKernelSeconds());
    checkResponses(W, A, SR.ColdResponses, SR.WarmResponses, T);

    const std::size_t K = KernelS.size();
    const double InlineScale = scaleBetween(KernelS[K - 3], KernelS[K - 2]);
    const double ServedScale = scaleBetween(KernelS[K - 2], KernelS[K - 1]);
    Into.Verdict.push_back(VerdictS * InlineScale);
    for (double S : RoundSetupS)
      SetupS.push_back(S * InlineScale);
    Into.Cold.push_back(SR.ColdS * ServedScale);
    Into.Warm.push_back(SR.WarmS * ServedScale);
    if (!IsTraced) {
      Raw.Verdict.push_back(VerdictS);
      Raw.Cold.push_back(SR.ColdS);
      Raw.Warm.push_back(SR.WarmS);
    }
    for (double S : SR.RestartS)
      RestartS.push_back(S * ServedScale);
    for (double Ms : SR.WarmLatencyMs)
      WarmLatencyMs.push_back(Ms * ServedScale);

    if (IsTraced) {
      Layers.push_back(LS);
      FrontEnd.push_back(frontEndPass(W, Lines, SR.ColdResponses));
      std::vector<double> ColdSum(NumVerbs, 0.0);
      for (std::size_t I = 0; I < W.Stream.size(); ++I) {
        int V = static_cast<int>(W.Stream[I].V);
        if (I < SR.WarmLatencyMs.size())
          WarmByVerb[V].push_back(SR.WarmLatencyMs[I]);
        if (I < SR.ColdLatencyMs.size())
          ColdSum[V] += SR.ColdLatencyMs[I] / 1e3;
      }
      for (int V = 0; V < NumVerbs; ++V)
        ColdByVerb[V].push_back(ColdSum[V]);
      StoreOpenS.push_back(median(SR.RestartS));
      StoreWarmed.push_back(static_cast<double>(SR.Warmed));
      StoreAppends.push_back(static_cast<double>(SR.StoreAppends));
      StoreBytes.push_back(static_cast<double>(SR.StoreBytes));
      auto Ratio = [](uint64_t H, uint64_t M) {
        return H + M ? static_cast<double>(H) / static_cast<double>(H + M) : 0;
      };
      CacheCold[0].push_back(static_cast<double>(SR.ColdHits));
      CacheCold[1].push_back(static_cast<double>(SR.ColdMisses));
      CacheCold[2].push_back(Ratio(SR.ColdHits, SR.ColdMisses));
      CacheWarm[0].push_back(static_cast<double>(SR.WarmHits));
      CacheWarm[1].push_back(static_cast<double>(SR.WarmMisses));
      CacheWarm[2].push_back(Ratio(SR.WarmHits, SR.WarmMisses));
    }
    ++Rounds;
  }
  std::remove(StorePath.c_str());

  std::vector<Metric> M;
  if (!Trace) {
    // serve_mix's set-up is the daemon's: a restart's Service::create.
    double Setup =
        WorkloadName == "serve_mix" ? median(RestartS) : median(SetupS);
    M = {{"verdict_s", median(Plain.Verdict), "s"},
         {"setup_s", Setup, "s"},
         {"peak_rss_mb", peakRssMb(), "MB"},
         {"cold_s", median(Plain.Cold), "s"},
         {"warm_s", median(Plain.Warm), "s"},
         {"warm_p50_ms", percentile(WarmLatencyMs, 0.50), "ms"},
         {"warm_p99_ms", percentile(WarmLatencyMs, 0.99), "ms"}};
  } else {
    auto Med = [](const auto &Vec, auto Field) {
      std::vector<double> V;
      for (const auto &S : Vec)
        V.push_back(S.*Field);
      return median(V);
    };
    M = {{"routing.build_s", median(BuildS), "s"},
         {"fdd.compile_s", Med(Layers, &LayerSample::CompileS), "s"},
         {"fdd.inner_nodes", Med(Layers, &LayerSample::InnerNodes), "count"},
         {"fdd.leaves", Med(Layers, &LayerSample::Leaves), "count"},
         {"markov.transient", Med(Layers, &LayerSample::Transient), "count"},
         {"markov.solved", Med(Layers, &LayerSample::Solved), "count"},
         {"markov.q_entries", Med(Layers, &LayerSample::QEntries), "count"},
         {"markov.blocks", Med(Layers, &LayerSample::Blocks), "count"},
         {"markov.max_block", Med(Layers, &LayerSample::MaxBlock), "count"},
         {"markov.elim_ops", Med(Layers, &LayerSample::ElimOps), "count"},
         {"markov.fill_in", Med(Layers, &LayerSample::FillIn), "count"},
         {"markov.primes", Med(Layers, &LayerSample::Primes), "count"},
         {"markov.retried_primes", Med(Layers, &LayerSample::RetriedPrimes),
          "count"},
         {"markov.recon_bits", Med(Layers, &LayerSample::ReconBits), "bits"},
         {"markov.fallbacks", Med(Layers, &LayerSample::Fallbacks), "count"},
         {"analysis.query_s", Med(Layers, &LayerSample::QueryS), "s"},
         {"analysis.decide_s", Med(Layers, &LayerSample::DecideS), "s"},
         {"parser.parse_s", Med(FrontEnd, &FrontEndSample::ParseS), "s"},
         {"parser.bytes", Med(FrontEnd, &FrontEndSample::Bytes), "bytes"},
         {"ast.fingerprint_s", Med(FrontEnd, &FrontEndSample::FingerprintS),
          "s"},
         {"ast.lint_s", Med(FrontEnd, &FrontEndSample::LintS), "s"},
         {"ast.slice_s", Med(FrontEnd, &FrontEndSample::SliceS), "s"},
         {"ast.slice_removed", Med(FrontEnd, &FrontEndSample::SliceRemoved),
          "count"},
         {"serve.json_s", Med(FrontEnd, &FrontEndSample::JsonS), "s"}};
    for (int V = 0; V < NumVerbs; ++V) {
      std::string Name = verbName(static_cast<Verb>(V));
      M.push_back({"serve.handle_p50_ms." + Name,
                   percentile(WarmByVerb[V], 0.50), "ms"});
      M.push_back({"serve.handle_p99_ms." + Name,
                   percentile(WarmByVerb[V], 0.99), "ms"});
      M.push_back({"serve.cold_handle_s." + Name, median(ColdByVerb[V]), "s"});
    }
    const char *Phase[2] = {"cold", "warm"};
    for (int P = 0; P < 2; ++P) {
      std::vector<double> *C = P == 0 ? CacheCold : CacheWarm;
      M.push_back({std::string("fdd.cache_hits.") + Phase[P], median(C[0]),
                   "count"});
      M.push_back({std::string("fdd.cache_misses.") + Phase[P], median(C[1]),
                   "count"});
      M.push_back({std::string("fdd.cache_hit_ratio.") + Phase[P],
                   median(C[2]), "ratio"});
    }
    M.push_back({"fdd.store_open_s", median(StoreOpenS), "s"});
    M.push_back({"fdd.store_warmed", median(StoreWarmed), "count"});
    M.push_back({"fdd.store_appends", median(StoreAppends), "count"});
    M.push_back({"fdd.store_bytes", median(StoreBytes), "bytes"});
    M.push_back({"trace.verdict_s", median(Traced.Verdict), "s"});
    M.push_back({"trace.verdict_overhead_s",
                 median(Traced.Verdict) - median(Plain.Verdict), "s"});
    M.push_back({"trace.cold_s", median(Traced.Cold), "s"});
    M.push_back({"trace.cold_overhead_s",
                 median(Traced.Cold) - median(Plain.Cold), "s"});
  }

  std::printf("host: {\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": "
              "\"%s\", \"aslr\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, "
              "\"rounds\": %u, \"setup_repeats\": %u, \"restarts_per_round\": "
              "%u, \"requests_per_phase\": %zu, \"warm_latency_samples\": "
              "%zu, \"reference_kernel_s\": %.6f, \"unscaled_verdict_s\": "
              "%.6f, \"unscaled_cold_s\": %.6f, \"unscaled_warm_s\": %.6f}\n",
              std::thread::hardware_concurrency(), E2EBENCH_BUILD_TYPE,
              __VERSION__, aslrState().c_str(), WorkloadName.c_str(),
              static_cast<unsigned long long>(Seed), Trace, Rounds,
              static_cast<unsigned>(SetupS.size()), Restarts, Lines.size(), WarmLatencyMs.size(),
              median(KernelS), median(Raw.Verdict), median(Raw.Cold),
              median(Raw.Warm));
  std::vector<std::size_t> VerbMix(NumVerbs, 0);
  for (const Request &R : W.Stream)
    ++VerbMix[static_cast<int>(R.V)];
  std::printf("stream: {\"requests\": %zu, \"digest\": \"%016llx\", "
              "\"verbs\": {",
              Lines.size(), static_cast<unsigned long long>(streamDigest(Lines)));
  for (int V = 0; V < NumVerbs; ++V)
    std::printf("%s\"%s\": %zu", V ? ", " : "", verbName(static_cast<Verb>(V)),
                VerbMix[V]);
  std::printf("}}\n");
  std::printf("fail_frac: %.17g (%llu of %llu checks failed)\n",
              T.Attempted ? static_cast<double>(T.Failed) /
                                static_cast<double>(T.Attempted)
                          : 1.0,
              static_cast<unsigned long long>(T.Failed),
              static_cast<unsigned long long>(T.Attempted));
  printResult(T, M);
  return T.Failed == 0 ? 0 : 1;
}
