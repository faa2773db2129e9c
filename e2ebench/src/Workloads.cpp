//===----------------------------------------------------------------------===//
///
/// \file
/// Workload synthesis, request streams and reference checks.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "gen/Scenario.h"
#include "prism/Checker.h"
#include "prism/Translate.h"
#include "routing/Routing.h"
#include "support/Prng.h"
#include "support/Timer.h"

#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>

namespace e2ebench {

namespace {

using routing::Scheme;

const char *schemeName(Scheme S) {
  switch (S) {
  case Scheme::F100:
    return "F10_0";
  case Scheme::F103:
    return "F10_3";
  case Scheme::F1035:
    return "F10_3,5";
  }
  return "?";
}

const Scheme AllSchemes[] = {Scheme::F100, Scheme::F103, Scheme::F1035};

/// Adds a synthesized model to \p W, its ingress packets as query inputs
/// when \p WithInputs. Returns the model's program index.
int addModel(Workload &W, std::string Name, ast::Context &Ctx,
             const routing::NetworkModel &M, markov::SolverKind Solver,
             int Group, bool WithInputs) {
  Program P;
  P.Name = std::move(Name);
  P.Ctx = &Ctx;
  P.Ast = M.Program;
  P.Solver = Solver;
  P.Group = Group;
  P.LoopBearing = true;
  P.HopField = M.HopField;
  if (WithInputs)
    for (std::size_t I = 0; I < M.Ingresses.size(); ++I)
      P.Inputs.push_back(M.ingressPacket(I, Ctx));
  W.Programs.push_back(std::move(P));
  return static_cast<int>(W.Programs.size()) - 1;
}

int addTeleport(Workload &W, const std::string &Of, ast::Context &Ctx,
                const ast::Node *Teleport, markov::SolverKind Solver,
                int Group) {
  Program P;
  P.Name = Of + "/teleport";
  P.Ctx = &Ctx;
  P.Ast = Teleport;
  P.Solver = Solver;
  P.Group = Group;
  W.Programs.push_back(std::move(P));
  return static_cast<int>(W.Programs.size()) - 1;
}

/// The requests a client asks about one program: parse and compile, then
/// every query the program supports. \p FrontEnd adds the lint and sliced
/// delivery requests that exercise the AST passes.
void programRequests(const Workload &W, int P, bool FrontEnd,
                     std::vector<Request> &Out) {
  const Program &Pr = W.Programs[P];
  Out.push_back({Verb::Parse, P});
  if (FrontEnd)
    Out.push_back({Verb::Lint, P});
  Out.push_back({Verb::Compile, P});
  if (Pr.Inputs.empty())
    return;
  Out.push_back({Verb::Delivery, P});
  if (FrontEnd)
    Out.push_back({Verb::Delivery, P, -1, /*Slice=*/true});
  if (Pr.HopField != FieldTable::NotFound)
    Out.push_back({Verb::HopStats, P});
}

/// Every phase sends this many requests, so the four or more rounds of a
/// run pool at least 1000 warm latencies and the p99 has ten or more
/// samples beyond it. serve_mix sends at least 1000 per phase.
constexpr std::size_t PhaseRequests = 250;

/// \p Unique repeated (the last copy cut short) to exactly \p N requests.
std::vector<Request> repeated(const std::vector<Request> &Unique,
                              std::size_t N) {
  std::vector<Request> Out;
  while (Out.size() < N)
    Out.push_back(Unique[Out.size() % Unique.size()]);
  return Out;
}

std::string rationalPowString(Rational Base, unsigned K) {
  Rational R(1);
  for (unsigned I = 0; I < K; ++I)
    R = R * Base;
  return R.toString();
}

//===--------------------------------------------------------------------===//
// f10_fattree
//===--------------------------------------------------------------------===//

constexpr unsigned F10Arity = 6;
constexpr unsigned F10HopCap = 14;
const int F10FailDen[] = {4, 1000};
/// Fig 11 uses pr = 1/100 for the bounded-failure resilience rows.
const Rational F10ResiliencePr(1, 100);

std::string hopModelName(Scheme S, int Den) {
  return std::string("hop/") + schemeName(S) + "/pr1_" + std::to_string(Den);
}

routing::NetworkModel buildF10(ast::Context &Ctx, Scheme S,
                               routing::FailureModel F, bool CountHops) {
  topology::FatTreeLayout L;
  topology::makeAbFatTree(F10Arity, L);
  routing::ModelOptions O;
  O.RoutingScheme = S;
  O.Failures = std::move(F);
  O.CountHops = CountHops;
  O.HopCap = F10HopCap;
  return routing::buildFatTreeModel(L, O, Ctx);
}

void buildF10Workload(Workload &W) {
  int Group = 0;
  for (Scheme S : AllSchemes)
    for (int Den : F10FailDen) {
      W.Contexts.push_back(std::make_unique<ast::Context>());
      ast::Context &Ctx = *W.Contexts.back();
      routing::NetworkModel M = buildF10(
          Ctx, S, routing::FailureModel::iid(Rational(1, Den)), true);
      addModel(W, hopModelName(S, Den), Ctx, M, markov::SolverKind::Direct,
               Group++, true);
    }
  // Fig 11(b,c) rows k = 0 and k = 1: one context per row, so the three
  // schemes and the teleport spec share a field table.
  for (unsigned K : {0u, 1u}) {
    W.Contexts.push_back(std::make_unique<ast::Context>());
    ast::Context &Ctx = *W.Contexts.back();
    routing::FailureModel F =
        K == 0 ? routing::FailureModel::none()
               : routing::FailureModel::bounded(F10ResiliencePr, K);
    int Schemes[3];
    const ast::Node *Teleport = nullptr;
    for (int I = 0; I < 3; ++I) {
      routing::NetworkModel M = buildF10(Ctx, AllSchemes[I], F, false);
      Schemes[I] = addModel(W,
                            std::string("resilience/k") + std::to_string(K) +
                                "/" + schemeName(AllSchemes[I]),
                            Ctx, M, markov::SolverKind::Exact, Group, false);
      Teleport = M.Teleport;
    }
    int Tele = addTeleport(W, "resilience/k" + std::to_string(K), Ctx,
                           Teleport, markov::SolverKind::Exact, Group);
    for (int S : Schemes)
      W.Stream.push_back({Verb::Equivalent, S, Tele});
    W.Stream.push_back({Verb::Refines, Schemes[0], Schemes[1]});
    W.Stream.push_back({Verb::Refines, Schemes[1], Schemes[2]});
    ++Group;
  }
}


void checkF10(const Workload &W, const Answers &A, Tally &T) {
  auto Expect = [&](const std::string &Model, const char *Quantity,
                    double Got) {
    auto It = W.Expected.find(Model + "\t" + Quantity);
    bool Ok = It != W.Expected.end() &&
              std::fabs(Got - It->second) <= 1e-9 * std::max(1.0, std::fabs(It->second));
    T.check(Ok, Model + " " + Quantity + " = " + std::to_string(Got) +
                    (It == W.Expected.end()
                         ? " (no stored reference)"
                         : " vs stored " + std::to_string(It->second)));
  };
  for (std::size_t I = 0; I < W.Programs.size(); ++I) {
    const Program &P = W.Programs[I];
    if (P.Name.rfind("hop/", 0) != 0)
      continue;
    const ProgramAnswers &PA = A.Programs[I];
    Expect(P.Name, "delivery", PA.Average.toDouble());
    Expect(P.Name, "hops_given_delivered", PA.Hops.expectedGivenDelivered());
  }
  // Fig 11(b): with no failures every scheme is ≡ teleport; with k = 1
  // F10_0 is not, F10_3 and F10_3,5 are. Fig 11(c): at k = 1 F10_0 < F10_3
  // and F10_3 ≡ F10_3,5, so both refinements hold.
  for (const auto &[Pair, Holds] : A.Equivalent) {
    const std::string &Name = W.Programs[Pair.first].Name;
    bool Want = Name.find("/k1/F10_0") == std::string::npos;
    T.check(Holds == Want, "Fig 11 verdict " + Name + " == teleport");
  }
  for (const auto &[Pair, Holds] : A.Refines)
    T.check(Holds, "Fig 11 refinement " + W.Programs[Pair.first].Name +
                       " <= " + W.Programs[Pair.second].Name);
  T.check(A.Equivalent.size() == 6 && A.Refines.size() == 4,
          "every Fig 11 verdict was decided");
}

//===--------------------------------------------------------------------===//
// chain_exact
//===--------------------------------------------------------------------===//

const Rational ChainPFail(1, 1000);
const std::pair<unsigned, markov::SolverKind> ChainPoints[] = {
    {128, markov::SolverKind::Exact}, {256, markov::SolverKind::ModularExact}};

void buildChainWorkload(Workload &W) {
  int Group = 0;
  for (const auto &[K, Solver] : ChainPoints) {
    W.Contexts.push_back(std::make_unique<ast::Context>());
    ast::Context &Ctx = *W.Contexts.back();
    topology::ChainLayout L;
    topology::makeChain(K, L);
    routing::NetworkModel M = routing::buildChainModel(L, ChainPFail, Ctx);
    std::string Name = "chain/K" + std::to_string(K);
    int P = addModel(W, Name, Ctx, M, Solver, Group, true);
    int Tele = addTeleport(W, Name, Ctx, M.Teleport, Solver, Group);
    W.Stream.push_back({Verb::Equivalent, P, Tele});
    W.Stream.push_back({Verb::Refines, P, Tele});
    ++Group;
  }
}


void checkChain(const Workload &W, const Answers &A, Tally &T) {
  // A lossy chain is strictly below the perfect-delivery spec.
  for (const auto &[Pair, Holds] : A.Equivalent)
    T.check(!Holds, W.Programs[Pair.first].Name + " is not == teleport");
  for (const auto &[Pair, Holds] : A.Refines)
    T.check(Holds, W.Programs[Pair.first].Name + " <= teleport");
  T.check(A.Equivalent.size() == 2 && A.Refines.size() == 2,
          "every chain verdict was decided");
}

//===--------------------------------------------------------------------===//
// serve_mix
//===--------------------------------------------------------------------===//

constexpr unsigned ServeMixArity = 4;
const int ServeMixFailDen[] = {4, 1000};
constexpr std::size_t ServeMixMinRequests = 1000;

void buildServeMixWorkload(Workload &W) {
  int Group = 0;
  for (const gen::ScenarioSpec &Spec : gen::buildRegistry()) {
    W.Contexts.push_back(std::make_unique<ast::Context>());
    ast::Context &Ctx = *W.Contexts.back();
    gen::Scenario S = Spec.Build(Ctx);
    Program P;
    P.Name = S.Name;
    P.Ctx = &Ctx;
    P.Ast = S.Program;
    P.Inputs = S.Inputs;
    P.HopField = S.HopField;
    P.LoopBearing = S.LoopBearing;
    P.Group = Group;
    W.Programs.push_back(std::move(P));
    int Idx = static_cast<int>(W.Programs.size()) - 1;
    if (S.Teleport) {
      int Tele = addTeleport(W, S.Name, Ctx, S.Teleport,
                             markov::SolverKind::Exact, Group);
      W.Stream.push_back({Verb::Equivalent, Idx, Tele});
      W.Stream.push_back({Verb::Refines, Idx, Tele});
    }
    if (S.HasClosedForm)
      W.Programs[Idx].ClosedForm = S.ClosedFormDelivery.toString();
    ++Group;
  }
  for (Scheme S : AllSchemes)
    for (int Den : ServeMixFailDen) {
      W.Contexts.push_back(std::make_unique<ast::Context>());
      ast::Context &Ctx = *W.Contexts.back();
      topology::FatTreeLayout L;
      topology::makeAbFatTree(ServeMixArity, L);
      routing::ModelOptions O;
      O.RoutingScheme = S;
      O.Failures = routing::FailureModel::iid(Rational(1, Den));
      O.CountHops = true;
      O.HopCap = F10HopCap;
      routing::NetworkModel M = routing::buildFatTreeModel(L, O, Ctx);
      addModel(W, "p4/" + hopModelName(S, Den), Ctx, M,
               markov::SolverKind::Exact, Group++, true);
    }
}

void shuffleStream(Workload &W, uint64_t Seed) {
  Prng Rng(Seed);
  for (std::size_t I = W.Stream.size(); I > 1; --I)
    std::swap(W.Stream[I - 1], W.Stream[Rng.below(I)]);
}

/// serve_mix has no references beyond the registry's closed forms; its
/// served answers are checked against the inline verifier.
void checkServeMix(const Workload &, const Answers &, Tally &) {}

bool loadExpected(const std::string &Path, Workload &W) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Model, Quantity, Value;
    if (std::getline(Fields, Model, '\t') &&
        std::getline(Fields, Quantity, '\t') &&
        std::getline(Fields, Value, '\t'))
      W.Expected[Model + "\t" + Quantity] = std::stod(Value);
  }
  return true;
}

} // namespace

bool knownWorkload(const std::string &Name) {
  return Name == "f10_fattree" || Name == "chain_exact" ||
         Name == "serve_mix";
}

Workload buildWorkload(const std::string &Name, double &BuildS,
                       double &SetupS) {
  Workload W;
  W.Name = Name;
  WallTimer Setup;
  if (Name == "f10_fattree") {
    buildF10Workload(W);
    W.CheckAnswers = checkF10;
  } else if (Name == "chain_exact") {
    buildChainWorkload(W);
    W.CheckAnswers = checkChain;
  } else {
    buildServeMixWorkload(W);
    W.CheckAnswers = checkServeMix;
  }
  BuildS = Setup.elapsed();
  {
    std::map<int, markov::SolverKind> Groups;
    for (const Program &P : W.Programs)
      Groups.emplace(P.Group, P.Solver);
    std::vector<std::unique_ptr<analysis::Verifier>> Verifiers;
    for (const auto &[Group, Solver] : Groups)
      Verifiers.push_back(std::make_unique<analysis::Verifier>(Solver));
  }
  SetupS = Setup.elapsed();
  return W;
}

void prepareWorkload(Workload &W, uint64_t Seed,
                     const std::string &ExpectedDir) {
  // Only serve_mix sends lint and sliced queries: on f10_fattree and
  // chain_exact the served stream asks the inline verdicts again, so its
  // cold phase measures the daemon's compile path (cache and store writes
  // included) on large diagrams. (The analyzer is also superlinear in
  // chain length: 3 s at K=256, 23 s at K=512 on a 4-core x86 host.)
  const bool ServeMix = W.Name == "serve_mix";
  std::vector<Request> Unique;
  for (std::size_t P = 0; P < W.Programs.size(); ++P)
    programRequests(W, static_cast<int>(P), ServeMix, Unique);
  // The two-program verdicts recorded during synthesis go last.
  Unique.insert(Unique.end(), W.Stream.begin(), W.Stream.end());
  if (ServeMix) {
    // The same multiset of requests for every seed, so the verb mix is
    // fixed; the seed only permutes it.
    std::size_t Copies =
        (ServeMixMinRequests + Unique.size() - 1) / Unique.size();
    W.Stream = repeated(Unique, Copies * Unique.size());
    shuffleStream(W, Seed);
  } else {
    W.Stream = repeated(Unique, PhaseRequests);
  }

  if (W.Name == "chain_exact")
    // Closed form: each diamond delivers with probability 1 - pfail/2.
    for (Program &P : W.Programs)
      if (!P.Inputs.empty())
        P.ClosedForm = rationalPowString(
            Rational(1) - ChainPFail * Rational(1, 2),
            static_cast<unsigned>(std::stoul(P.Name.substr(7))));
  if (W.Name == "f10_fattree" &&
      !loadExpected(ExpectedDir + "/f10_fattree.tsv", W))
    std::fprintf(stderr, "warning: no stored references in %s\n",
                 ExpectedDir.c_str());
  finishPrograms(W);
}

namespace {

/// prismlite's exact mean delivery over \p Inputs, as a decimal string, or
/// "" when it fails or takes longer than \p BudgetS (it runs in a child
/// process, killed at the deadline).
std::string prismAverageDelivery(ast::Context &Ctx, const ast::Node *Program,
                                 const std::vector<Packet> &Inputs,
                                 double BudgetS) {
  int Fds[2];
  if (::pipe(Fds) != 0)
    return "";
  pid_t Child = ::fork();
  if (Child < 0)
    return "";
  if (Child == 0) {
    ::close(Fds[0]);
    Rational Sum;
    for (const Packet &In : Inputs) {
      prism::Translation Tr = prism::translate(Ctx, Program, In);
      prism::Model PM;
      prism::GuardExpr Goal;
      prism::CheckResult CR;
      std::string Error;
      if (!prism::parseModel(Tr.Source, PM, Error) ||
          !prism::parseGuard(Tr.DoneGuard, PM, Goal, Error) ||
          !prism::checkReachability(PM, Goal, markov::SolverKind::Exact, CR,
                                    Error))
        ::_exit(1);
      Sum = Sum + CR.Probability;
    }
    char Buf[64];
    int N = std::snprintf(
        Buf, sizeof Buf, "%.17g",
        (Sum * Rational(1, static_cast<int64_t>(Inputs.size()))).toDouble());
    ssize_t Written = ::write(Fds[1], Buf, static_cast<std::size_t>(N));
    ::_exit(Written == N ? 0 : 1);
  }
  ::close(Fds[1]);
  WallTimer Clock;
  std::string Out;
  int Status = 0;
  while (::waitpid(Child, &Status, WNOHANG) == 0) {
    if (Clock.elapsed() > BudgetS) {
      ::kill(Child, SIGKILL);
      ::waitpid(Child, &Status, 0);
      ::close(Fds[0]);
      return "";
    }
    ::usleep(100000);
  }
  char Buf[64];
  ssize_t N = ::read(Fds[0], Buf, sizeof Buf);
  ::close(Fds[0]);
  if (WIFEXITED(Status) && WEXITSTATUS(Status) == 0 && N > 0)
    Out.assign(Buf, static_cast<std::size_t>(N));
  return Out;
}

} // namespace

bool writeF10Expected(const std::string &Path) {
  const double PrismBudgetS = 300;
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::fprintf(Out,
               "# f10_fattree stored references: AB FatTree p=%u, hop "
               "counting (HopCap %u), iid link failures.\n"
               "# Written by `mcnk_e2ebench --write-expected`; each row "
               "names the engine that produced it.\n"
               "# model\tquantity\tvalue\tsource\n",
               F10Arity, F10HopCap);
  for (Scheme S : AllSchemes)
    for (int Den : F10FailDen) {
      ast::Context Ctx;
      routing::NetworkModel M = buildF10(
          Ctx, S, routing::FailureModel::iid(Rational(1, Den)), true);
      std::vector<Packet> Inputs;
      for (std::size_t I = 0; I < M.Ingresses.size(); ++I)
        Inputs.push_back(M.ingressPacket(I, Ctx));
      const std::string Name = hopModelName(S, Den);

      // Delivery: prismlite's explicit-state DTMC checker on the PRISM
      // translation, one exact reachability per ingress, when it finishes
      // within the budget; otherwise the FDD pipeline on the Rational
      // engine (the workload itself runs the floating-point Direct one).
      WallTimer Prism;
      std::string Avg = prismAverageDelivery(Ctx, M.Program, Inputs,
                                             PrismBudgetS);
      analysis::Verifier V(markov::SolverKind::Exact);
      fdd::FddRef Ref = V.compile(M.Program);
      if (!Avg.empty()) {
        std::fprintf(Out,
                     "%s\tdelivery\t%s\tprismlite exact reachability "
                     "(prism::translate + checkReachability, Exact), mean "
                     "over %zu ingresses, %.0f s\n",
                     Name.c_str(), Avg.c_str(), Inputs.size(),
                     Prism.elapsed());
      } else {
        std::fprintf(Out,
                     "%s\tdelivery\t%.17g\tFDD compile on the Rational "
                     "Exact engine (prismlite exceeded %.0f s)\n",
                     Name.c_str(),
                     V.averageDeliveryProbability(Ref, Inputs).toDouble(),
                     PrismBudgetS);
      }

      // Hop statistics: prismlite has no reward queries, so always the
      // Rational FDD engine.
      analysis::HopStats H = V.hopStats(Ref, Inputs, M.HopField);
      std::fprintf(Out,
                   "%s\thops_given_delivered\t%.17g\tFDD compile on the "
                   "Rational Exact engine\n",
                   Name.c_str(), H.expectedGivenDelivered());
      std::fflush(Out);
    }
  return std::fclose(Out) == 0;
}

} // namespace e2ebench
