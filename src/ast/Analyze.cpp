//===----------------------------------------------------------------------===//
///
/// \file
/// The S15 abstract interpreter. The domain is a per-field value set over
/// the values the program mentions (ast::collectValues) plus one wildcard
/// bit per field standing for "some unmentioned value"; the initial state
/// is ⊤ (all bits), i.e. every concrete packet, so derived facts hold over
/// the whole input space. All traversals use explicit stacks — programs
/// with 50k-deep chains must pass, as in the compiler ops.
///
/// Transfer functions run in two polarities. Forward mode computes the
/// over-approximated image of a term; negation mode computes the image of
/// ¬t for predicates using the De Morgan duals (¬(a;b) = ¬a ∨ ¬b joins,
/// ¬(a&b) = ¬a ∧ ¬b chains). while/star bodies iterate to a join fixpoint
/// (the domain is finite, so this terminates) with fact recording off, and
/// one final recording pass runs over the converged loop invariant.
///
//===----------------------------------------------------------------------===//

#include "ast/Analyze.h"

#include "ast/Traversal.h"
#include "support/Casting.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <optional>
#include <set>
#include <unordered_map>

using namespace mcnk;
using namespace mcnk::ast;

const char *ast::checkName(CheckKind Check) {
  switch (Check) {
  case CheckKind::UnreachableCaseArm:
    return "unreachable-case-arm";
  case CheckKind::ShadowedCaseArm:
    return "shadowed-case-arm";
  case CheckKind::OverlappingCaseGuards:
    return "overlapping-case-guards";
  case CheckKind::UnreachableBranch:
    return "unreachable-branch";
  case CheckKind::UnreachableLoopBody:
    return "unreachable-loop-body";
  case CheckKind::DivergentLoop:
    return "divergent-loop";
  case CheckKind::DropEquivalent:
    return "drop-equivalent";
  case CheckKind::DegenerateChoice:
    return "degenerate-choice";
  case CheckKind::DeadAssignment:
    return "dead-assignment";
  case CheckKind::RedundantAssignment:
    return "redundant-assignment";
  case CheckKind::DeadField:
    return "dead-field";
  case CheckKind::WriteOnlyField:
    return "write-only-field";
  case CheckKind::QueryIrrelevantAssignment:
    return "query-irrelevant-assignment";
  }
  MCNK_UNREACHABLE("unhandled check kind");
}

std::string Finding::render(const std::string &File) const {
  std::string Out = File;
  if (Loc.valid())
    Out += ":" + std::to_string(Loc.Line) + ":" + std::to_string(Loc.Column);
  Out += ": warning[";
  Out += checkName(Check);
  Out += "]: ";
  Out += Message;
  return Out;
}

namespace {

/// Dense value universe. Each mentioned field owns the bit range
/// [begin, end) of the flattened state; bit `begin` is the wildcard
/// ("holds some value the program never mentions"), the rest map the
/// field's mentioned values in sorted order.
class Dom {
public:
  explicit Dom(const Node *Program) {
    for (auto &[F, Vals] : collectValues(Program)) {
      IndexOf.emplace(F, static_cast<unsigned>(FieldOf.size()));
      FieldOf.push_back(F);
      Values.emplace_back(Vals.begin(), Vals.end());
    }
    Base.resize(FieldOf.size() + 1, 0);
    for (std::size_t I = 0; I < FieldOf.size(); ++I)
      Base[I + 1] = Base[I] + 1 + static_cast<unsigned>(Values[I].size());
  }

  unsigned numBits() const { return Base.back(); }
  unsigned numWords() const { return (numBits() + 63) / 64; }
  unsigned fieldIndex(FieldId F) const { return IndexOf.at(F); }
  unsigned beginBit(unsigned FI) const { return Base[FI]; }
  unsigned endBit(unsigned FI) const { return Base[FI + 1]; }
  unsigned valueBit(unsigned FI, FieldValue V) const {
    const auto &Vals = Values[FI];
    auto It = std::lower_bound(Vals.begin(), Vals.end(), V);
    assert(It != Vals.end() && *It == V && "value outside the universe");
    return Base[FI] + 1 + static_cast<unsigned>(It - Vals.begin());
  }

private:
  std::unordered_map<FieldId, unsigned> IndexOf;
  std::vector<FieldId> FieldOf;
  std::vector<std::vector<FieldValue>> Values;
  std::vector<unsigned> Base{0};
};

/// A set of abstract packets: per-field value bits, or ⊥ (no packet).
struct AbsState {
  bool Bottom = true;
  std::vector<uint64_t> W;
};

AbsState bottomState() { return AbsState{}; }

AbsState topState(const Dom &D) {
  AbsState S;
  S.Bottom = false;
  S.W.assign(D.numWords(), ~uint64_t(0));
  if (unsigned Tail = D.numBits() % 64; Tail != 0 && !S.W.empty())
    S.W.back() &= (uint64_t(1) << Tail) - 1;
  return S;
}

bool testBit(const AbsState &S, unsigned B) {
  return (S.W[B / 64] >> (B % 64)) & 1;
}
void setBit(AbsState &S, unsigned B) { S.W[B / 64] |= uint64_t(1) << (B % 64); }
void clearBit(AbsState &S, unsigned B) {
  S.W[B / 64] &= ~(uint64_t(1) << (B % 64));
}

void joinInto(AbsState &A, const AbsState &B) {
  if (B.Bottom)
    return;
  if (A.Bottom) {
    A = B;
    return;
  }
  for (std::size_t I = 0; I < A.W.size(); ++I)
    A.W[I] |= B.W[I];
}

bool equalState(const AbsState &A, const AbsState &B) {
  if (A.Bottom != B.Bottom)
    return false;
  return A.Bottom || A.W == B.W;
}

bool fieldEmpty(const Dom &D, const AbsState &S, unsigned FI) {
  for (unsigned B = D.beginBit(FI); B != D.endBit(FI); ++B)
    if (testBit(S, B))
      return false;
  return true;
}

/// True if field FI holds exactly the one value at bit VB (no wildcard).
bool fieldIsExactly(const Dom &D, const AbsState &S, unsigned FI,
                    unsigned VB) {
  for (unsigned B = D.beginBit(FI); B != D.endBit(FI); ++B)
    if (testBit(S, B) != (B == VB))
      return false;
  return true;
}

/// f = n forward: keep only packets where field FI holds the value at VB.
AbsState refineTest(const Dom &D, AbsState S, unsigned FI, unsigned VB) {
  if (S.Bottom)
    return S;
  if (!testBit(S, VB))
    return bottomState();
  for (unsigned B = D.beginBit(FI); B != D.endBit(FI); ++B)
    if (B != VB)
      clearBit(S, B);
  return S;
}

/// ¬(f = n): remove the value at VB; the wildcard and other values stay.
AbsState refineNotTest(const Dom &D, AbsState S, unsigned FI, unsigned VB) {
  if (S.Bottom)
    return S;
  clearBit(S, VB);
  if (fieldEmpty(D, S, FI))
    return bottomState();
  return S;
}

AbsState applyAssign(const Dom &D, AbsState S, unsigned FI, unsigned VB) {
  if (S.Bottom)
    return S;
  for (unsigned B = D.beginBit(FI); B != D.endBit(FI); ++B)
    clearBit(S, B);
  setBit(S, VB);
  return S;
}

/// In-order flattening of a maximal `;` chain into its non-Seq elements.
/// Bails (returns false) past \p Cap elements — heavily shared seq DAGs
/// can unfold exponentially, and a truncated chain must not be scanned.
bool flattenSeq(const Node *N, std::vector<const Node *> &Out,
                std::size_t Cap = std::size_t(1) << 20) {
  std::vector<const Node *> Stack{N};
  while (!Stack.empty()) {
    const Node *C = Stack.back();
    Stack.pop_back();
    if (const auto *S = dyn_cast<SeqNode>(C)) {
      Stack.push_back(S->rhs());
      Stack.push_back(S->lhs());
      continue;
    }
    if (Out.size() >= Cap)
      return false;
    Out.push_back(C);
  }
  return true;
}

/// Concrete truth of a predicate on a single packet (explicit stack).
/// \p Env must bind every field the predicate mentions.
bool evalPredicate(const Node *Pred,
                   const std::vector<std::pair<FieldId, FieldValue>> &Env) {
  struct EFrame {
    const Node *N;
    bool Neg;
    unsigned Phase = 0;
  };
  std::vector<EFrame> Stack{{Pred, false, 0}};
  bool Ret = false;
  while (!Stack.empty()) {
    EFrame &F = Stack.back();
    switch (F.N->kind()) {
    case NodeKind::Drop:
      Ret = F.Neg;
      Stack.pop_back();
      continue;
    case NodeKind::Skip:
      Ret = !F.Neg;
      Stack.pop_back();
      continue;
    case NodeKind::Test: {
      const auto *T = cast<TestNode>(F.N);
      bool Holds = false;
      for (const auto &[Field, Value] : Env)
        if (Field == T->field()) {
          Holds = Value == T->value();
          break;
        }
      Ret = Holds != F.Neg;
      Stack.pop_back();
      continue;
    }
    case NodeKind::Not: {
      const Node *Op = cast<NotNode>(F.N)->operand();
      bool Neg = !F.Neg;
      Stack.pop_back();
      Stack.push_back({Op, Neg, 0});
      continue;
    }
    case NodeKind::Seq:
    case NodeKind::Union: {
      // Seq is AND of its children, Union is OR; negation mode swaps the
      // connective (De Morgan) with the mode pushed into the children.
      bool IsAnd = (F.N->kind() == NodeKind::Seq) != F.Neg;
      const Node *Lhs = isa<SeqNode>(F.N) ? cast<SeqNode>(F.N)->lhs()
                                          : cast<UnionNode>(F.N)->lhs();
      const Node *Rhs = isa<SeqNode>(F.N) ? cast<SeqNode>(F.N)->rhs()
                                          : cast<UnionNode>(F.N)->rhs();
      if (F.Phase == 0) {
        F.Phase = 1;
        Stack.push_back({Lhs, F.Neg, 0});
        continue;
      }
      if (F.Phase == 1) {
        if (Ret != IsAnd) { // Short-circuit: AND met false / OR met true.
          Stack.pop_back();
          continue;
        }
        F.Phase = 2;
        bool Neg = F.Neg;
        Stack.pop_back();
        Stack.push_back({Rhs, Neg, 0});
        continue;
      }
      MCNK_UNREACHABLE("bad phase");
    }
    default:
      MCNK_UNREACHABLE("non-predicate node in a guard");
    }
  }
  return Ret;
}

} // namespace

//===----------------------------------------------------------------------===//
// DomainAnalysis
//===----------------------------------------------------------------------===//

struct DomainAnalysis::Impl {
  struct IteFact {
    bool ThenReach = false, ElseReach = false;
  };
  struct LoopFact {
    bool Entered = false, Exits = false;
  };
  struct CaseFact {
    explicit CaseFact(std::size_t NumArms)
        : ArmReach(NumArms, 0), Total(NumArms, 1) {}
    std::vector<char> ArmReach;
    std::vector<char> Total; ///< guard matches all remaining packets
    bool ElseReach = false;
  };

  const Context &Ctx;
  const Node *Root;
  AnalyzeOptions Opts;
  Dom D;

  std::unordered_map<const Node *, AbsState> EntryRec;
  std::unordered_map<const Node *, AbsState> ExitRec;
  std::unordered_map<const Node *, IteFact> IteFacts;
  std::unordered_map<const Node *, LoopFact> LoopFacts;
  std::unordered_map<const Node *, CaseFact> CaseFacts;
  std::unordered_map<const Node *, SourceLoc> EffLoc;
  std::vector<const AssignNode *> AssignOrder;
  std::set<std::tuple<const Node *, unsigned, std::uint64_t>> Reported;
  std::vector<Finding> Findings;
  bool PassesRun = false;

  Impl(const Context &C, const Node *Program, AnalyzeOptions O)
      : Ctx(C), Root(Program), Opts(O), D(Program) {
    eval(Root, topState(D), /*Neg=*/false, /*Report=*/true, SourceLoc{});
  }

  /// The eval-time reports plus the post passes, sorted and deduplicated.
  /// The passes read only the recorded facts and run on the first call:
  /// fact-only consumers (ast::simplify, ast::slice) never pay for them.
  const std::vector<Finding> &findings() {
    if (PassesRun)
      return Findings;
    PassesRun = true;
    dropEquivalencePass();
    overlapPass();
    deadAssignPass();
    redundantAssignPass();
    std::stable_sort(Findings.begin(), Findings.end(),
                     [](const Finding &A, const Finding &B) {
                       if (A.Loc.valid() != B.Loc.valid())
                         return A.Loc.valid(); // Located findings first.
                       if (A.Loc.Line != B.Loc.Line)
                         return A.Loc.Line < B.Loc.Line;
                       if (A.Loc.Column != B.Loc.Column)
                         return A.Loc.Column < B.Loc.Column;
                       if (A.Check != B.Check)
                         return static_cast<unsigned>(A.Check) <
                                static_cast<unsigned>(B.Check);
                       return A.Message < B.Message;
                     });
    // Distinct node pointers can render as the same diagnostic line: the
    // per-node Reported set cannot catch, say, the two dead assignments a
    // `var` block desugars to, both unlocated and both inheriting the
    // block's span. Collapse identical rendered lines here.
    Findings.erase(std::unique(Findings.begin(), Findings.end(),
                               [](const Finding &A, const Finding &B) {
                                 return A.Loc.valid() == B.Loc.valid() &&
                                        A.Loc.Line == B.Loc.Line &&
                                        A.Loc.Column == B.Loc.Column &&
                                        A.Check == B.Check &&
                                        A.Message == B.Message;
                               }),
                   Findings.end());
    return Findings;
  }

  /// Best location for a diagnostic anchored at \p N: the node's own
  /// recorded location, else the nearest located ancestor seen while
  /// reaching it.
  SourceLoc locOf(const Node *N) const {
    SourceLoc L = Ctx.loc(N);
    if (L.valid())
      return L;
    auto It = EffLoc.find(N);
    return It == EffLoc.end() ? SourceLoc{} : It->second;
  }

  void report(CheckKind Check, const Node *Where, std::uint64_t Aux,
              std::string Message) {
    if (!Reported.insert({Where, static_cast<unsigned>(Check), Aux}).second)
      return;
    Findings.push_back({Check, locOf(Where), Where, std::move(Message)});
  }

  bool recordEntry(const Node *N, const AbsState &S) {
    auto [It, New] = EntryRec.try_emplace(N, S);
    if (!New)
      joinInto(It->second, S);
    return New;
  }

  void recordExit(const Node *N, const AbsState &S) {
    auto [It, New] = ExitRec.try_emplace(N, S);
    if (!New)
      joinInto(It->second, S);
  }

  // --- Fact queries (shared by the public API and the passes) -----------
  bool reached(const Node *N) const { return EntryRec.count(N) != 0; }

  Truth testTruth(const TestNode *T) const {
    auto It = EntryRec.find(T);
    if (It == EntryRec.end())
      return Truth::Unknown;
    unsigned FI = D.fieldIndex(T->field());
    unsigned VB = D.valueBit(FI, T->value());
    if (!testBit(It->second, VB))
      return Truth::False;
    if (fieldIsExactly(D, It->second, FI, VB))
      return Truth::True;
    return Truth::Unknown;
  }

  bool assignRedundant(const AssignNode *A) const {
    auto It = EntryRec.find(A);
    if (It == EntryRec.end())
      return false;
    unsigned FI = D.fieldIndex(A->field());
    return fieldIsExactly(D, It->second, FI, D.valueBit(FI, A->value()));
  }

  bool dropEquivalent(const Node *N) const {
    auto En = EntryRec.find(N);
    if (En == EntryRec.end())
      return false;
    auto Ex = ExitRec.find(N);
    return Ex != ExitRec.end() && Ex->second.Bottom;
  }

  // --- The abstract machine ---------------------------------------------
  struct Frame {
    const Node *N;
    AbsState In;
    bool Neg;
    bool Report;
    SourceLoc Loc;
    unsigned Phase = 0;
    std::size_t Arm = 0;
    AbsState S0, S1, S2;
  };

  AbsState eval(const Node *Start, AbsState In, bool Neg, bool Report,
                SourceLoc ParentLoc) {
    std::vector<Frame> Stack;
    AbsState Ret;
    auto push = [&](const Node *N, AbsState NodeIn, bool NodeNeg,
                    bool NodeReport, SourceLoc PLoc) {
      Frame F;
      F.N = N;
      F.In = std::move(NodeIn);
      F.Neg = NodeNeg;
      F.Report = NodeReport;
      SourceLoc L = Ctx.loc(N);
      F.Loc = L.valid() ? L : PLoc;
      Stack.push_back(std::move(F));
    };
    auto finish = [&](AbsState V) {
      Frame &F = Stack.back();
      if (F.Report && !F.Neg)
        recordExit(F.N, V);
      Ret = std::move(V);
      Stack.pop_back();
    };

    push(Start, std::move(In), Neg, Report, ParentLoc);
    while (!Stack.empty()) {
      Frame &F = Stack.back();
      if (F.Phase == 0 && F.Report) {
        EffLoc.emplace(F.N, F.Loc);
        if (!F.In.Bottom && recordEntry(F.N, F.In))
          if (const auto *A = dyn_cast<AssignNode>(F.N))
            AssignOrder.push_back(A);
      }
      switch (F.N->kind()) {
      case NodeKind::Drop:
        finish(F.Neg ? std::move(F.In) : bottomState());
        continue;
      case NodeKind::Skip:
        finish(F.Neg ? bottomState() : std::move(F.In));
        continue;
      case NodeKind::Test: {
        const auto *T = cast<TestNode>(F.N);
        unsigned FI = D.fieldIndex(T->field());
        unsigned VB = D.valueBit(FI, T->value());
        finish(F.Neg ? refineNotTest(D, std::move(F.In), FI, VB)
                     : refineTest(D, std::move(F.In), FI, VB));
        continue;
      }
      case NodeKind::Assign: {
        assert(!F.Neg && "assignment inside a predicate");
        const auto *A = cast<AssignNode>(F.N);
        unsigned FI = D.fieldIndex(A->field());
        finish(applyAssign(D, std::move(F.In), FI,
                           D.valueBit(FI, A->value())));
        continue;
      }
      case NodeKind::Not: {
        if (F.Phase == 0) {
          F.Phase = 1;
          push(cast<NotNode>(F.N)->operand(), F.In, !F.Neg, F.Report, F.Loc);
          continue;
        }
        finish(std::move(Ret));
        continue;
      }
      case NodeKind::Seq: {
        const auto *S = cast<SeqNode>(F.N);
        if (!F.Neg) {
          if (F.Phase == 0) {
            F.Phase = 1;
            push(S->lhs(), std::move(F.In), false, F.Report, F.Loc);
            continue;
          }
          if (F.Phase == 1) {
            F.Phase = 2;
            push(S->rhs(), std::move(Ret), false, F.Report, F.Loc);
            continue;
          }
          finish(std::move(Ret));
          continue;
        }
        // ¬(a ; b) = ¬a ∨ ¬b on predicates.
        if (F.Phase == 0) {
          F.Phase = 1;
          push(S->lhs(), F.In, true, F.Report, F.Loc);
          continue;
        }
        if (F.Phase == 1) {
          F.S0 = std::move(Ret);
          F.Phase = 2;
          push(S->rhs(), std::move(F.In), true, F.Report, F.Loc);
          continue;
        }
        joinInto(Ret, F.S0);
        finish(std::move(Ret));
        continue;
      }
      case NodeKind::Union: {
        const auto *U = cast<UnionNode>(F.N);
        if (!F.Neg) {
          if (F.Phase == 0) {
            F.Phase = 1;
            push(U->lhs(), F.In, false, F.Report, F.Loc);
            continue;
          }
          if (F.Phase == 1) {
            F.S0 = std::move(Ret);
            F.Phase = 2;
            push(U->rhs(), std::move(F.In), false, F.Report, F.Loc);
            continue;
          }
          joinInto(Ret, F.S0);
          finish(std::move(Ret));
          continue;
        }
        // ¬(a & b) = ¬a ∧ ¬b on predicates.
        if (F.Phase == 0) {
          F.Phase = 1;
          push(U->lhs(), std::move(F.In), true, F.Report, F.Loc);
          continue;
        }
        if (F.Phase == 1) {
          F.Phase = 2;
          push(U->rhs(), std::move(Ret), true, F.Report, F.Loc);
          continue;
        }
        finish(std::move(Ret));
        continue;
      }
      case NodeKind::Choice: {
        assert(!F.Neg && "choice inside a predicate");
        const auto *C = cast<ChoiceNode>(F.N);
        if (F.Phase == 0) {
          F.Phase = 1;
          push(C->lhs(), F.In, false, F.Report, F.Loc);
          continue;
        }
        if (F.Phase == 1) {
          F.S0 = std::move(Ret);
          F.Phase = 2;
          push(C->rhs(), std::move(F.In), false, F.Report, F.Loc);
          continue;
        }
        joinInto(Ret, F.S0);
        finish(std::move(Ret));
        continue;
      }
      case NodeKind::Star: {
        assert(!F.Neg && "star inside a predicate");
        const auto *S = cast<StarNode>(F.N);
        if (F.Phase == 0) {
          if (F.In.Bottom) {
            finish(std::move(F.In));
            continue;
          }
          F.S0 = F.In;
          F.Phase = 1;
          push(S->body(), F.S0, false, false, F.Loc);
          continue;
        }
        if (F.Phase == 1) {
          AbsState L = F.S0;
          joinInto(L, Ret);
          if (!equalState(L, F.S0)) {
            F.S0 = std::move(L);
            push(S->body(), F.S0, false, false, F.Loc);
            continue;
          }
          if (!F.Report) {
            finish(std::move(F.S0));
            continue;
          }
          F.Phase = 2;
          push(S->body(), F.S0, false, true, F.Loc);
          continue;
        }
        finish(std::move(F.S0));
        continue;
      }
      case NodeKind::IfThenElse: {
        assert(!F.Neg && "if inside a predicate");
        const auto *I = cast<IfThenElseNode>(F.N);
        switch (F.Phase) {
        case 0:
          F.Phase = 1;
          push(I->cond(), F.In, false, F.Report, F.Loc);
          continue;
        case 1:
          F.S0 = std::move(Ret); // then-entry
          F.Phase = 2;
          push(I->cond(), F.In, true, F.Report, F.Loc);
          continue;
        case 2:
          F.S1 = std::move(Ret); // else-entry
          if (F.Report && !F.In.Bottom) {
            IteFact &Fact = IteFacts.try_emplace(F.N).first->second;
            Fact.ThenReach |= !F.S0.Bottom;
            Fact.ElseReach |= !F.S1.Bottom;
            if (F.S0.Bottom)
              report(CheckKind::UnreachableBranch, F.N, 0,
                     "the then-branch is unreachable: the condition is "
                     "statically false");
            if (F.S1.Bottom)
              report(CheckKind::UnreachableBranch, F.N, 1,
                     "the else-branch is unreachable: the condition is "
                     "statically true");
          }
          F.Phase = 3;
          push(I->thenBranch(), F.S0, false, F.Report, F.Loc);
          continue;
        case 3:
          F.S0 = std::move(Ret); // then-exit
          F.Phase = 4;
          push(I->elseBranch(), std::move(F.S1), false, F.Report, F.Loc);
          continue;
        default:
          joinInto(Ret, F.S0);
          finish(std::move(Ret));
          continue;
        }
      }
      case NodeKind::While: {
        assert(!F.Neg && "while inside a predicate");
        const auto *Wh = cast<WhileNode>(F.N);
        switch (F.Phase) {
        case 0: // Fixpoint over the loop invariant L (= F.S0).
          F.S0 = std::move(F.In);
          F.In = F.S0; // Keep a copy for the !In.Bottom report guards.
          F.Phase = 1;
          push(Wh->cond(), F.S0, false, false, F.Loc);
          continue;
        case 1: // Ret = refine(L, cond)
          if (Ret.Bottom) {
            F.Phase = 3;
            continue;
          }
          F.Phase = 2;
          push(Wh->body(), std::move(Ret), false, false, F.Loc);
          continue;
        case 2: { // Ret = body image; widen L.
          AbsState L = F.S0;
          joinInto(L, Ret);
          if (equalState(L, F.S0)) {
            F.Phase = 3;
            continue;
          }
          F.S0 = std::move(L);
          F.Phase = 1;
          push(Wh->cond(), F.S0, false, false, F.Loc);
          continue;
        }
        case 3: // Converged. Recording pass (cond, body), then exit.
          if (!F.Report) {
            F.Phase = 6;
            push(Wh->cond(), F.S0, true, false, F.Loc);
            continue;
          }
          F.Phase = 4;
          push(Wh->cond(), F.S0, false, true, F.Loc);
          continue;
        case 4: // Ret = final body entry.
          F.S1 = std::move(Ret);
          if (!F.In.Bottom) {
            LoopFact &Fact = LoopFacts.try_emplace(F.N).first->second;
            Fact.Entered |= !F.S1.Bottom;
            if (F.S1.Bottom)
              report(CheckKind::UnreachableLoopBody, F.N, 0,
                     "the loop body is unreachable: the guard is "
                     "statically false");
          }
          F.Phase = 5;
          push(Wh->body(), F.S1, false, true, F.Loc);
          continue;
        case 5:
          F.Phase = 6;
          push(Wh->cond(), F.S0, true, F.Report, F.Loc);
          continue;
        default: // Ret = exit = refine(L, ¬cond).
          if (F.Report && !F.In.Bottom) {
            LoopFact &Fact = LoopFacts.try_emplace(F.N).first->second;
            Fact.Exits |= !Ret.Bottom;
            if (Ret.Bottom && !F.S1.Bottom)
              report(CheckKind::DivergentLoop, F.N, 0,
                     "the loop never terminates: its guard stays true on "
                     "every reachable packet (the loop is drop-equivalent)");
          }
          finish(std::move(Ret));
          continue;
        }
      }
      case NodeKind::Case: {
        assert(!F.Neg && "case inside a predicate");
        const auto *C = cast<CaseNode>(F.N);
        const auto &Br = C->branches();
        switch (F.Phase) {
        case 0:
          F.S0 = std::move(F.In); // Remaining (un-matched) packets.
          F.In = F.S0;
          F.S1 = bottomState(); // Joined output.
          F.Arm = 0;
          if (F.Report && !F.In.Bottom)
            CaseFacts.try_emplace(F.N, CaseFact(Br.size()));
          F.Phase = 1;
          push(Br[0].first, F.S0, false, F.Report, F.Loc);
          continue;
        case 1: // Ret = arm entry = refine(Rem, guard).
          F.S2 = std::move(Ret);
          if (F.Report && !F.In.Bottom) {
            CaseFacts.at(F.N).ArmReach[F.Arm] |= !F.S2.Bottom;
            if (F.S2.Bottom) {
              // Distinguish "guard never matches at all" from "guard is
              // covered by earlier arms" by re-refining against the
              // whole case input.
              F.Phase = 2;
              push(Br[F.Arm].first, F.In, false, false, F.Loc);
              continue;
            }
          }
          F.Phase = 3;
          continue;
        case 2: { // Ret = refine(case input, guard).
          std::string ArmNo = std::to_string(F.Arm + 1);
          if (Ret.Bottom)
            report(CheckKind::UnreachableCaseArm, F.N, F.Arm,
                   "case arm " + ArmNo +
                       " is unreachable: its guard can never match");
          else
            report(CheckKind::ShadowedCaseArm, F.N, F.Arm,
                   "case arm " + ArmNo +
                       " is shadowed: earlier arms match every packet its "
                       "guard admits");
          F.Phase = 3;
          continue;
        }
        case 3:
          F.Phase = 4;
          push(Br[F.Arm].second, F.S2, false, F.Report, F.Loc);
          continue;
        case 4: // Ret = arm body image.
          joinInto(F.S1, Ret);
          F.Phase = 5;
          push(Br[F.Arm].first, F.S0, true, F.Report, F.Loc);
          continue;
        case 5: // Ret = Rem minus this guard.
          F.S0 = std::move(Ret);
          if (F.Report && !F.In.Bottom) {
            CaseFact &Fact = CaseFacts.at(F.N);
            Fact.Total[F.Arm] =
                static_cast<char>(Fact.Total[F.Arm] && F.S0.Bottom);
          }
          ++F.Arm;
          if (F.Arm < Br.size()) {
            F.Phase = 1;
            push(Br[F.Arm].first, F.S0, false, F.Report, F.Loc);
            continue;
          }
          if (F.Report && !F.In.Bottom) {
            CaseFacts.at(F.N).ElseReach |= !F.S0.Bottom;
            if (F.S0.Bottom)
              report(CheckKind::ShadowedCaseArm, F.N, Br.size(),
                     "the else arm is unreachable: earlier guards match "
                     "every packet");
          }
          F.Phase = 6;
          push(C->defaultBranch(), F.S0, false, F.Report, F.Loc);
          continue;
        default:
          joinInto(F.S1, Ret);
          finish(std::move(F.S1));
          continue;
        }
      }
      }
      MCNK_UNREACHABLE("unhandled node kind");
    }
    return Ret;
  }

  // --- Post passes --------------------------------------------------------

  /// Reports the outermost reached-but-output-free subprograms. Predicate
  /// positions (guards/conditions) are excluded — deadness there surfaces
  /// as unreachable-arm/branch findings — as are while loops, whose only
  /// drop-equivalent shape is already the divergent-loop finding.
  void dropEquivalencePass() {
    std::vector<std::pair<const Node *, bool>> Stack{{Root, true}};
    std::set<std::pair<const Node *, bool>> Visited;
    while (!Stack.empty()) {
      auto [N, Prog] = Stack.back();
      Stack.pop_back();
      if (!Visited.insert({N, Prog}).second)
        continue;
      if (Prog && !isa<DropNode>(N) && !isa<WhileNode>(N) &&
          dropEquivalent(N)) {
        report(CheckKind::DropEquivalent, N, 0,
               "this subprogram is equivalent to drop: it delivers no "
               "packets");
        continue; // Children would just cascade.
      }
      switch (N->kind()) {
      case NodeKind::Drop:
      case NodeKind::Skip:
      case NodeKind::Test:
      case NodeKind::Assign:
        break;
      case NodeKind::Not:
        Stack.push_back({cast<NotNode>(N)->operand(), false});
        break;
      case NodeKind::Seq:
        Stack.push_back({cast<SeqNode>(N)->lhs(), Prog});
        Stack.push_back({cast<SeqNode>(N)->rhs(), Prog});
        break;
      case NodeKind::Union:
        Stack.push_back({cast<UnionNode>(N)->lhs(), Prog});
        Stack.push_back({cast<UnionNode>(N)->rhs(), Prog});
        break;
      case NodeKind::Choice:
        Stack.push_back({cast<ChoiceNode>(N)->lhs(), Prog});
        Stack.push_back({cast<ChoiceNode>(N)->rhs(), Prog});
        break;
      case NodeKind::Star:
        Stack.push_back({cast<StarNode>(N)->body(), Prog});
        break;
      case NodeKind::IfThenElse: {
        const auto *I = cast<IfThenElseNode>(N);
        Stack.push_back({I->cond(), false});
        Stack.push_back({I->thenBranch(), Prog});
        Stack.push_back({I->elseBranch(), Prog});
        break;
      }
      case NodeKind::While: {
        const auto *W = cast<WhileNode>(N);
        Stack.push_back({W->cond(), false});
        Stack.push_back({W->body(), Prog});
        break;
      }
      case NodeKind::Case: {
        const auto *C = cast<CaseNode>(N);
        for (const auto &[Guard, Body] : C->branches()) {
          Stack.push_back({Guard, false});
          Stack.push_back({Body, Prog});
        }
        Stack.push_back({C->defaultBranch(), Prog});
        break;
      }
      }
    }
  }

  /// A guard that is a `;`-conjunction of positive tests (and `skip`s),
  /// as its sorted, distinct (field, value) tests. `skip` is the empty
  /// cube; a cube testing one field for two values matches nothing.
  using Cube = std::vector<std::pair<FieldId, FieldValue>>;

  /// Exact pairwise guard-overlap detection. Guards that are cubes (see
  /// asCube) are decided by merging their test lists; any other pair by
  /// concrete enumeration over the values either guard mentions plus one
  /// unmentioned representative per field (guards cannot distinguish
  /// unmentioned values, so this is exhaustive). Pairs whose assignment
  /// space exceeds the budget are skipped — the check never reports an
  /// unproven overlap.
  void overlapPass() {
    // Collect case nodes in deterministic DFS order.
    std::vector<const CaseNode *> Cases;
    {
      std::vector<const Node *> Stack{Root};
      std::set<const Node *> Visited;
      while (!Stack.empty()) {
        const Node *N = Stack.back();
        Stack.pop_back();
        if (!Visited.insert(N).second)
          continue;
        if (const auto *C = dyn_cast<CaseNode>(N))
          Cases.push_back(C);
        forEachChildRev(N, Stack);
      }
    }
    // Each guard is decomposed once, however many cases and pairs share it.
    std::unordered_map<const Node *, std::optional<Cube>> Cubes;
    std::vector<const std::optional<Cube> *> ArmCubes;
    for (const CaseNode *C : Cases) {
      const auto &Br = C->branches();
      ArmCubes.clear();
      for (const auto &Arm : Br) {
        auto [It, New] = Cubes.try_emplace(Arm.first);
        if (New)
          It->second = asCube(Arm.first);
        ArmCubes.push_back(&It->second);
      }
      for (std::size_t I = 0; I < Br.size(); ++I)
        for (std::size_t J = I + 1; J < Br.size(); ++J) {
          if (*ArmCubes[I] && *ArmCubes[J])
            checkCubeOverlap(C, I, J, **ArmCubes[I], **ArmCubes[J]);
          else
            checkOverlap(C, I, J);
        }
    }
  }

  static std::optional<Cube> asCube(const Node *Guard) {
    std::vector<const Node *> Elems;
    if (!flattenSeq(Guard, Elems))
      return std::nullopt;
    Cube Out;
    for (const Node *E : Elems) {
      if (const auto *T = dyn_cast<TestNode>(E))
        Out.emplace_back(T->field(), T->value());
      else if (!isa<SkipNode>(E))
        return std::nullopt;
    }
    std::sort(Out.begin(), Out.end());
    Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
    return Out;
  }

  /// The cube pair overlaps iff no field carries two values in the merged
  /// list. The budget is the one the enumeration would apply (the product
  /// of each field's distinct values + 1), so both paths report the same
  /// pairs; the merged list is then the unique common packet over the
  /// mentioned fields — the one the enumeration would find.
  void checkCubeOverlap(const CaseNode *C, std::size_t I, std::size_t J,
                        const Cube &A, const Cube &B) {
    Cube Merged;
    Merged.reserve(A.size() + B.size());
    std::set_union(A.begin(), A.end(), B.begin(), B.end(),
                   std::back_inserter(Merged));
    std::size_t Count = 1;
    bool Clash = false;
    for (std::size_t K = 0; K < Merged.size();) {
      std::size_t End = K + 1;
      while (End < Merged.size() && Merged[End].first == Merged[K].first)
        ++End;
      std::size_t Cands = End - K + 1;
      if (Count > Opts.OverlapBudget / Cands)
        return; // Over budget; stay silent rather than guess.
      Count *= Cands;
      Clash |= End - K > 1;
      K = End;
    }
    if (!Clash)
      reportOverlap(C, I, J, Merged);
  }

  void reportOverlap(const CaseNode *C, std::size_t I, std::size_t J,
                     const std::vector<std::pair<FieldId, FieldValue>> &Env) {
    std::string Witness;
    for (const auto &[F, V] : Env) {
      if (!Witness.empty())
        Witness += ", ";
      Witness += Ctx.fields().name(F) + "=" + std::to_string(V);
    }
    report(CheckKind::OverlappingCaseGuards, C,
           (static_cast<std::uint64_t>(I) << 32) | J,
           "case guards of arms " + std::to_string(I + 1) + " and " +
               std::to_string(J + 1) + " overlap" +
               (Witness.empty() ? std::string() : " (e.g. " + Witness + ")") +
               "; only the first match fires");
  }

  static void forEachChildRev(const Node *N, std::vector<const Node *> &Out) {
    // Push children in reverse so the DFS pops them in syntactic order.
    std::size_t Mark = Out.size();
    forEachChild(N, [&Out](const Node *C) { Out.push_back(C); });
    std::reverse(Out.begin() + Mark, Out.end());
  }

  void checkOverlap(const CaseNode *C, std::size_t I, std::size_t J) {
    const Node *GI = C->branches()[I].first;
    const Node *GJ = C->branches()[J].first;
    auto Vals = collectValues(GI);
    for (auto &[F, Vs] : collectValues(GJ))
      Vals[F].insert(Vs.begin(), Vs.end());

    // Candidate axes: mentioned values plus one unmentioned witness.
    std::vector<std::pair<FieldId, std::vector<FieldValue>>> Axes;
    std::size_t Count = 1;
    for (auto &[F, Vs] : Vals) {
      FieldValue Fresh = 0;
      while (Vs.count(Fresh))
        ++Fresh;
      std::vector<FieldValue> Cands(Vs.begin(), Vs.end());
      Cands.push_back(Fresh);
      if (Count > Opts.OverlapBudget / Cands.size())
        return; // Over budget; stay silent rather than guess.
      Count *= Cands.size();
      Axes.emplace_back(F, std::move(Cands));
    }

    std::vector<std::size_t> Odo(Axes.size(), 0);
    std::vector<std::pair<FieldId, FieldValue>> Env(Axes.size());
    for (std::size_t Step = 0; Step < Count; ++Step) {
      for (std::size_t K = 0; K < Axes.size(); ++K)
        Env[K] = {Axes[K].first, Axes[K].second[Odo[K]]};
      if (evalPredicate(GI, Env) && evalPredicate(GJ, Env)) {
        reportOverlap(C, I, J, Env);
        return;
      }
      for (std::size_t K = 0; K < Axes.size(); ++K) {
        if (++Odo[K] < Axes[K].second.size())
          break;
        Odo[K] = 0;
      }
    }
  }

  /// Flags `f := a ; f := b` where the two writes are adjacent in the
  /// flattened `;` chain (nothing can read the first value).
  void deadAssignPass() {
    std::vector<std::pair<const Node *, bool>> Stack{{Root, false}};
    std::set<std::pair<const Node *, bool>> Visited;
    while (!Stack.empty()) {
      auto [N, ParentIsSeq] = Stack.back();
      Stack.pop_back();
      if (!Visited.insert({N, ParentIsSeq}).second)
        continue;
      bool IsSeq = isa<SeqNode>(N);
      if (IsSeq && !ParentIsSeq) {
        std::vector<const Node *> Elems;
        if (flattenSeq(N, Elems)) {
          for (std::size_t K = 0; K + 1 < Elems.size(); ++K) {
            const auto *A = dyn_cast<AssignNode>(Elems[K]);
            const auto *B = dyn_cast<AssignNode>(Elems[K + 1]);
            if (A && B && A->field() == B->field())
              report(CheckKind::DeadAssignment, A, 0,
                     "assignment to '" + Ctx.fields().name(A->field()) +
                         "' is immediately overwritten");
          }
        }
      }
      std::vector<const Node *> Kids;
      forEachChildRev(N, Kids);
      for (auto It = Kids.rbegin(); It != Kids.rend(); ++It)
        Stack.push_back({*It, IsSeq});
    }
  }

  void redundantAssignPass() {
    for (const AssignNode *A : AssignOrder)
      if (assignRedundant(A))
        report(CheckKind::RedundantAssignment, A, 0,
               "assignment is redundant: '" +
                   Ctx.fields().name(A->field()) + "' already holds " +
                   std::to_string(A->value()) + " here");
  }
};

DomainAnalysis::DomainAnalysis(const Context &Ctx, const Node *Program,
                               AnalyzeOptions Opts)
    : M(std::make_unique<Impl>(Ctx, Program, Opts)) {}

DomainAnalysis::~DomainAnalysis() = default;

const std::vector<Finding> &DomainAnalysis::findings() const {
  return M->findings();
}

DomainAnalysis::Truth DomainAnalysis::testTruth(const TestNode *T) const {
  return M->testTruth(T);
}

bool DomainAnalysis::reached(const Node *N) const { return M->reached(N); }

bool DomainAnalysis::branchReachable(const IfThenElseNode *N,
                                     bool Then) const {
  auto It = M->IteFacts.find(N);
  if (It == M->IteFacts.end())
    return false;
  return Then ? It->second.ThenReach : It->second.ElseReach;
}

bool DomainAnalysis::loopEntered(const WhileNode *N) const {
  auto It = M->LoopFacts.find(N);
  return It != M->LoopFacts.end() && It->second.Entered;
}

bool DomainAnalysis::loopExits(const WhileNode *N) const {
  auto It = M->LoopFacts.find(N);
  return It != M->LoopFacts.end() && It->second.Exits;
}

bool DomainAnalysis::armReachable(const CaseNode *N, std::size_t Arm) const {
  auto It = M->CaseFacts.find(N);
  if (It == M->CaseFacts.end())
    return false;
  if (Arm == N->branches().size())
    return It->second.ElseReach;
  return It->second.ArmReach[Arm] != 0;
}

bool DomainAnalysis::guardTotal(const CaseNode *N, std::size_t Arm) const {
  auto It = M->CaseFacts.find(N);
  return It != M->CaseFacts.end() && It->second.Total[Arm] != 0;
}

bool DomainAnalysis::assignRedundant(const AssignNode *N) const {
  return M->assignRedundant(N);
}

bool DomainAnalysis::dropEquivalent(const Node *N) const {
  return M->dropEquivalent(N);
}

std::vector<Finding> ast::analyze(const Context &Ctx, const Node *Program,
                                  const AnalyzeOptions &Opts) {
  return DomainAnalysis(Ctx, Program, Opts).findings();
}
