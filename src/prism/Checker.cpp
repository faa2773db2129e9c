//===----------------------------------------------------------------------===//
///
/// \file
/// prismlite: parser for the emitted PRISM `dtmc` subset, reachable
/// state-space construction, and reachability probability computation by
/// Gaussian elimination or Gauss-Seidel iteration.
///
//===----------------------------------------------------------------------===//

#include "prism/Checker.h"

#include "support/Error.h"
#include "support/Hashing.h"

#include <cassert>
#include <cctype>
#include <unordered_map>

using namespace mcnk;
using namespace mcnk::prism;

bool GuardExpr::eval(const std::vector<uint32_t> &Valuation) const {
  switch (K) {
  case Kind::True:
    return true;
  case Kind::False:
    return false;
  case Kind::Eq:
    return Valuation[Var] == Value;
  case Kind::Neq:
    return Valuation[Var] != Value;
  case Kind::Not:
    return !Children[0].eval(Valuation);
  case Kind::And:
    return Children[0].eval(Valuation) && Children[1].eval(Valuation);
  case Kind::Or:
    return Children[0].eval(Valuation) || Children[1].eval(Valuation);
  }
  MCNK_UNREACHABLE("bad guard kind");
}

unsigned Model::varIndex(const std::string &Name) const {
  for (unsigned I = 0; I < VarNames.size(); ++I)
    if (VarNames[I] == Name)
      return I;
  return ~0u;
}

namespace {

/// Shared scanner for the model and guard grammars.
struct Scanner {
  const std::string &Text;
  std::size_t Pos = 0;
  std::string Error;

  void skip() {
    while (Pos < Text.size()) {
      if (std::isspace(static_cast<unsigned char>(Text[Pos]))) {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '/' && Pos + 1 < Text.size() &&
          Text[Pos + 1] == '/') {
        while (Pos < Text.size() && Text[Pos] != '\n')
          ++Pos;
        continue;
      }
      break;
    }
  }

  bool literal(const char *Word) {
    skip();
    std::size_t Len = std::string(Word).size();
    if (Text.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }

  bool peekLiteral(const char *Word) {
    std::size_t Save = Pos;
    bool Ok = literal(Word);
    Pos = Save;
    return Ok;
  }

  bool ident(std::string &Out) {
    skip();
    if (Pos >= Text.size() ||
        (!std::isalpha(static_cast<unsigned char>(Text[Pos])) &&
         Text[Pos] != '_'))
      return false;
    Out.clear();
    while (Pos < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '_'))
      Out.push_back(Text[Pos++]);
    return true;
  }

  bool number(uint64_t &Out) {
    skip();
    if (Pos >= Text.size() ||
        !std::isdigit(static_cast<unsigned char>(Text[Pos])))
      return false;
    Out = 0;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      Out = Out * 10 + static_cast<uint64_t>(Text[Pos++] - '0');
    return true;
  }

  /// nat | nat '/' nat | nat '.' digits — exact rational.
  bool probability(Rational &Out) {
    uint64_t A;
    if (!number(A))
      return false;
    if (Pos < Text.size() && Text[Pos] == '/') {
      ++Pos;
      uint64_t B;
      if (!number(B) || B == 0)
        return false;
      Out = Rational(BigInt::fromUnsigned(A), BigInt::fromUnsigned(B));
      return true;
    }
    if (Pos < Text.size() && Text[Pos] == '.') {
      ++Pos;
      std::string Digits;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        Digits.push_back(Text[Pos++]);
      if (Digits.empty())
        return false;
      BigInt Num = BigInt::fromUnsigned(A);
      for (char D : Digits)
        Num = Num * BigInt(10) + BigInt(D - '0');
      Out = Rational(std::move(Num),
                     BigInt::pow(BigInt(10),
                                 static_cast<unsigned>(Digits.size())));
      return true;
    }
    Out = Rational(BigInt::fromUnsigned(A), BigInt(1));
    return true;
  }
};

/// Recursive-descent guard parser: or := and ('|' and)*,
/// and := unary ('&' unary)*, unary := '!' unary | '(' or ')' | atom.
struct GuardParser {
  Scanner &S;
  const Model &M;

  bool parseOr(GuardExpr &Out) {
    GuardExpr Lhs;
    if (!parseAnd(Lhs))
      return false;
    while (S.literal("|")) {
      GuardExpr Rhs;
      if (!parseAnd(Rhs))
        return false;
      GuardExpr Combined;
      Combined.K = GuardExpr::Kind::Or;
      Combined.Children = {std::move(Lhs), std::move(Rhs)};
      Lhs = std::move(Combined);
    }
    Out = std::move(Lhs);
    return true;
  }

  bool parseAnd(GuardExpr &Out) {
    GuardExpr Lhs;
    if (!parseUnary(Lhs))
      return false;
    while (S.literal("&")) {
      GuardExpr Rhs;
      if (!parseUnary(Rhs))
        return false;
      GuardExpr Combined;
      Combined.K = GuardExpr::Kind::And;
      Combined.Children = {std::move(Lhs), std::move(Rhs)};
      Lhs = std::move(Combined);
    }
    Out = std::move(Lhs);
    return true;
  }

  bool parseUnary(GuardExpr &Out) {
    if (S.literal("!")) {
      GuardExpr Inner;
      if (!parseUnary(Inner))
        return false;
      Out.K = GuardExpr::Kind::Not;
      Out.Children = {std::move(Inner)};
      return true;
    }
    if (S.literal("(")) {
      if (!parseOr(Out))
        return false;
      return S.literal(")");
    }
    if (S.literal("true")) {
      Out.K = GuardExpr::Kind::True;
      return true;
    }
    if (S.literal("false")) {
      Out.K = GuardExpr::Kind::False;
      return true;
    }
    std::string Name;
    if (!S.ident(Name)) {
      S.Error = "expected a guard atom";
      return false;
    }
    unsigned Var = M.varIndex(Name);
    if (Var == ~0u) {
      S.Error = "unknown variable '" + Name + "'";
      return false;
    }
    bool Neq = false;
    if (S.literal("!=")) {
      Neq = true;
    } else if (!S.literal("=")) {
      S.Error = "expected '=' or '!=' after variable";
      return false;
    }
    uint64_t Value;
    if (!S.number(Value)) {
      S.Error = "expected a number after comparison";
      return false;
    }
    Out.K = Neq ? GuardExpr::Kind::Neq : GuardExpr::Kind::Eq;
    Out.Var = Var;
    Out.Value = static_cast<uint32_t>(Value);
    return true;
  }
};

} // namespace

bool prism::parseModel(const std::string &Source, Model &Out,
                       std::string &Error) {
  Scanner S{Source, 0, {}};
  Out = Model();
  if (!S.literal("dtmc")) {
    Error = "expected 'dtmc' header";
    return false;
  }
  if (!S.literal("module")) {
    Error = "expected 'module'";
    return false;
  }
  std::string Name;
  if (!S.ident(Name)) {
    Error = "expected module name";
    return false;
  }

  // Variable declarations: ident : [lo..hi] init n;
  for (;;) {
    if (S.peekLiteral("[]") || S.peekLiteral("endmodule"))
      break;
    std::string Var;
    uint64_t Lo, Hi, Init;
    if (!S.ident(Var) || !S.literal(":") || !S.literal("[") ||
        !S.number(Lo) || !S.literal("..") || !S.number(Hi) ||
        !S.literal("]") || !S.literal("init") || !S.number(Init) ||
        !S.literal(";")) {
      Error = "malformed variable declaration near offset " +
              std::to_string(S.Pos);
      return false;
    }
    if (Init < Lo || Init > Hi) {
      Error = "initial value out of range for '" + Var + "'";
      return false;
    }
    Out.VarNames.push_back(Var);
    Out.LowerBounds.push_back(static_cast<uint32_t>(Lo));
    Out.UpperBounds.push_back(static_cast<uint32_t>(Hi));
    Out.Init.push_back(static_cast<uint32_t>(Init));
  }

  // Commands: [] guard -> p : update (+ p : update)* ;
  while (!S.literal("endmodule")) {
    if (!S.literal("[]")) {
      Error = "expected '[]' command near offset " + std::to_string(S.Pos);
      return false;
    }
    Command Cmd;
    GuardParser GP{S, Out};
    if (!GP.parseOr(Cmd.Guard)) {
      Error = S.Error.empty() ? "malformed guard" : S.Error;
      return false;
    }
    if (!S.literal("->")) {
      Error = "expected '->' after guard";
      return false;
    }
    do {
      Command::Alternative Alt;
      if (!S.probability(Alt.Prob)) {
        Error = "expected a probability";
        return false;
      }
      if (!S.literal(":")) {
        Error = "expected ':' after probability";
        return false;
      }
      if (S.literal("true")) {
        // No-op update.
      } else {
        do {
          std::string Var;
          uint64_t Value;
          if (!S.literal("(") || !S.ident(Var) || !S.literal("'") ||
              !S.literal("=") || !S.number(Value) || !S.literal(")")) {
            Error = "malformed update near offset " + std::to_string(S.Pos);
            return false;
          }
          unsigned Idx = Out.varIndex(Var);
          if (Idx == ~0u) {
            Error = "unknown variable '" + Var + "' in update";
            return false;
          }
          Alt.Updates.emplace_back(Idx, static_cast<uint32_t>(Value));
        } while (S.literal("&"));
      }
      Cmd.Alternatives.push_back(std::move(Alt));
    } while (S.literal("+"));
    if (!S.literal(";")) {
      Error = "expected ';' after command";
      return false;
    }
    // Probabilities must sum to one.
    Rational Total;
    for (const auto &Alt : Cmd.Alternatives)
      Total += Alt.Prob;
    if (!Total.isOne()) {
      Error = "command probabilities sum to " + Total.toString();
      return false;
    }
    Out.Commands.push_back(std::move(Cmd));
  }
  S.skip();
  if (S.Pos != Source.size()) {
    Error = "trailing content after 'endmodule'";
    return false;
  }
  return true;
}

bool prism::parseGuard(const std::string &Text, const Model &M,
                       GuardExpr &Out, std::string &Error) {
  Scanner S{Text, 0, {}};
  GuardParser GP{S, M};
  if (!GP.parseOr(Out)) {
    Error = S.Error.empty() ? "malformed guard" : S.Error;
    return false;
  }
  S.skip();
  if (S.Pos != Text.size()) {
    Error = "trailing content in guard";
    return false;
  }
  return true;
}

bool prism::checkReachability(const Model &M, const GuardExpr &Goal,
                              markov::SolverKind Solver, CheckResult &Out,
                              std::string &Error) {
  // Explicit-state BFS from the initial valuation.
  using Valuation = std::vector<uint32_t>;
  std::unordered_map<Valuation, std::size_t, RangeHash> Index;
  std::vector<Valuation> States;
  auto Intern = [&](const Valuation &V) {
    auto [It, Inserted] = Index.emplace(V, States.size());
    if (Inserted)
      States.push_back(V);
    return It->second;
  };

  markov::AbsorbingChain Chain;
  Chain.NumAbsorbing = 1; // The goal.
  std::vector<bool> IsGoal;

  Intern(M.Init);
  IsGoal.push_back(Goal.eval(M.Init));
  for (std::size_t S = 0; S < States.size(); ++S) {
    if (IsGoal[S])
      continue; // Absorbing target; successors irrelevant.
    Valuation Current = States[S];
    const Command *Enabled = nullptr;
    for (const Command &Cmd : M.Commands) {
      if (!Cmd.Guard.eval(Current))
        continue;
      if (Enabled) {
        Error = "multiple commands enabled in one state (guards overlap)";
        return false;
      }
      Enabled = &Cmd;
    }
    if (!Enabled) {
      Error = "no command enabled (guards are not exhaustive)";
      return false;
    }
    for (const Command::Alternative &Alt : Enabled->Alternatives) {
      Valuation Next = Current;
      for (const auto &[Var, Value] : Alt.Updates) {
        if (Value < M.LowerBounds[Var] || Value > M.UpperBounds[Var]) {
          Error = "update drives '" + M.VarNames[Var] + "' out of range";
          return false;
        }
        Next[Var] = Value;
      }
      std::size_t T = Intern(Next);
      if (T == IsGoal.size())
        IsGoal.push_back(Goal.eval(Next));
      if (IsGoal[T])
        Chain.REntries.push_back({S, 0, Alt.Prob});
      else
        Chain.QEntries.push_back({S, T, Alt.Prob});
    }
  }
  Chain.NumTransient = States.size();
  Out.NumStates = States.size();
  Out.NumTransitions = Chain.QEntries.size() + Chain.REntries.size();

  std::size_t Start = 0;
  if (IsGoal[Start]) {
    Out.Probability = Rational(1);
    return true;
  }

  if (Solver == markov::SolverKind::Exact) {
    // One absorbing column (the goal): the start row is empty or holds it.
    std::vector<markov::AbsorptionRow<Rational>> A;
    if (!markov::solveAbsorptionExact(Chain, A)) {
      Error = "absorbing solve failed";
      return false;
    }
    Out.Probability = A[Start].empty() ? Rational() : A[Start][0].second;
    return true;
  }
  std::vector<markov::AbsorptionRow<double>> A;
  if (!markov::solveAbsorptionDouble(Chain, A, Solver)) {
    Error = "absorbing solve failed";
    return false;
  }
  Out.Probability =
      Rational::fromDouble(A[Start].empty() ? 0.0 : A[Start][0].second);
  return true;
}
