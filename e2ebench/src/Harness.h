//===----------------------------------------------------------------------===//
///
/// \file
/// The shared shape of every benchmark workload: a set of programs built
/// from the model synthesizers, the verdicts asked about them, and the
/// request stream that asks the same verdicts of an in-process daemon
/// (serve::Service + Session). A round computes every verdict inline with
/// analysis::Verifier, then replays the stream cold (fresh store), restarts
/// the service and replays it warm; each answer is checked.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_HARNESS_H
#define E2EBENCH_HARNESS_H

#include "analysis/Verifier.h"
#include "ast/Context.h"
#include "packet/Field.h"
#include "packet/Packet.h"
#include "serve/Json.h"
#include "support/Rational.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace e2ebench {

using namespace mcnk;

/// One program of a workload, in both of its forms: the synthesized AST
/// (what the inline verifier compiles) and its printed text (what a
/// client sends the daemon).
struct Program {
  std::string Name;
  ast::Context *Ctx = nullptr;
  const ast::Node *Ast = nullptr;
  std::string Text;
  /// Query packets in Ctx's field table.
  std::vector<Packet> Inputs;
  /// The same packets as served inputs: by field name, restricted to the
  /// fields the printed program mentions.
  std::vector<serve::Json> InputsJson;
  FieldId HopField = FieldTable::NotFound;
  std::string HopFieldName;
  markov::SolverKind Solver = markov::SolverKind::Exact;
  /// Programs compared by equivalent/refines share a group: one inline
  /// Verifier (one FDD manager) compiles the whole group.
  int Group = 0;
  /// The program compiles a while loop, so lastLoopStats() describes it.
  bool LoopBearing = false;
  /// Exact delivery probability of every input in closed form, when known.
  std::string ClosedForm;
};

enum class Verb { Parse, Lint, Compile, Delivery, HopStats, Equivalent, Refines };
constexpr int NumVerbs = 7;
const char *verbName(Verb V);

/// One served request about program P (and Q, for the two-program
/// verbs); queries ask about every input of P.
struct Request {
  Verb V = Verb::Parse;
  int P = 0;
  int Q = -1;
  bool Slice = false;
};

/// The inline answers of one program.
struct ProgramAnswers {
  std::vector<Rational> Delivery; ///< Per input.
  Rational Average;
  bool HasHops = false;
  analysis::HopStats Hops;
};

struct Answers {
  std::vector<ProgramAnswers> Programs;
  std::map<std::pair<int, int>, bool> Equivalent;
  std::map<std::pair<int, int>, bool> Refines;
};

/// Counts of checks made and checks failed.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  void check(bool Ok, const std::string &What);
};

struct Workload {
  std::string Name;
  std::vector<std::unique_ptr<ast::Context>> Contexts;
  std::vector<Program> Programs;
  std::vector<Request> Stream;
  /// Stored reference values by "<program>\t<quantity>" (f10_fattree).
  std::map<std::string, double> Expected;
  /// Checks the inline answers against the workload's independent
  /// references (closed forms, the paper's verdict pattern, stored
  /// values).
  void (*CheckAnswers)(const Workload &, const Answers &, Tally &) = nullptr;
};

/// Fills Text, InputsJson and HopFieldName of every program from its AST
/// and packets (the printed form a client would send).
void finishPrograms(Workload &W);

/// Request lines of the stream, in stream order.
std::vector<std::string> requestLines(const Workload &W);

/// Per-round layer measurements; only filled on traced rounds.
struct LayerSample {
  double CompileS = 0, QueryS = 0, DecideS = 0;
  double InnerNodes = 0, Leaves = 0;
  double Transient = 0, Solved = 0, QEntries = 0, Blocks = 0, MaxBlock = 0,
         ElimOps = 0, FillIn = 0, Primes = 0, RetriedPrimes = 0,
         ReconBits = 0, Fallbacks = 0;
};

/// Computes every verdict of the workload inline. Traced rounds fill
/// \p Layers (per-call timing and the loop/diagram counters).
Answers inlineRound(const Workload &W, LayerSample *Layers);

/// Checks inline answers: closed forms, then the workload's own references.
void checkAnswers(const Workload &W, const Answers &A, Tally &T);

/// One cold/restart/warm replay of the stream over a store file.
struct ServedRound {
  double ColdS = 0, WarmS = 0;
  std::vector<double> RestartS; ///< Service::create after the cold phase.
  std::vector<double> WarmLatencyMs;
  std::vector<double> ColdLatencyMs;
  uint64_t ColdHits = 0, ColdMisses = 0, WarmHits = 0, WarmMisses = 0;
  std::size_t Warmed = 0, StoreAppends = 0, StoreBytes = 0;
  std::vector<std::string> ColdResponses, WarmResponses;
};

ServedRound servedRound(const std::vector<std::string> &Lines,
                        const std::string &StorePath, unsigned Restarts,
                        Tally &T);

/// Checks every cold response against the inline answers and requires
/// the warm responses to be byte-identical to the cold ones.
void checkResponses(const Workload &W, const Answers &A,
                    const std::vector<std::string> &Cold,
                    const std::vector<std::string> &Warm, Tally &T);

/// Layer passes outside the timed phases (traced runs only): parse,
/// fingerprint, lint (of the programs the stream lints) and slice over the
/// distinct program texts, and JSON parse + dump of every request and
/// response line.
struct FrontEndSample {
  double ParseS = 0, Bytes = 0, FingerprintS = 0, LintS = 0, SliceS = 0,
         SliceRemoved = 0, JsonS = 0;
};
FrontEndSample frontEndPass(const Workload &W,
                            const std::vector<std::string> &Lines,
                            const std::vector<std::string> &Responses);

double median(std::vector<double> V);
/// Nearest-rank percentile (\p Q in [0, 1]).
double percentile(std::vector<double> V, double Q);

} // namespace e2ebench

#endif // E2EBENCH_HARNESS_H
