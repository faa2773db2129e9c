//===----------------------------------------------------------------------===//
///
/// \file
/// The reference denotational semantics of Fig 13 over a finite packet
/// domain, including closed-form star limits computed from the small-step
/// absorbing chain of Sec 4.
///
//===----------------------------------------------------------------------===//

#include "semantics/SetSemantics.h"

#include "ast/Traversal.h"
#include "markov/Absorbing.h"
#include "support/Casting.h"
#include "support/Error.h"

#include <cassert>

using namespace mcnk;
using namespace mcnk::semantics;
using namespace mcnk::ast;

SetSemantics::SetSemantics(Context &C, PacketDomain Dom)
    : Ctx(C), Domain(std::move(Dom)) {
  if (Domain.numPackets() > 64)
    fatalError("SetSemantics domain exceeds 64 packets");
  Packets.reserve(Domain.numPackets());
  for (std::size_t I = 0; I < Domain.numPackets(); ++I)
    Packets.push_back(Domain.packet(I));
}

PacketSet SetSemantics::fullSet() const {
  std::size_t N = Domain.numPackets();
  return N == 64 ? ~0ULL : ((1ULL << N) - 1);
}

PacketSet SetSemantics::singleton(const Packet &P) const {
  return 1ULL << Domain.index(P);
}

const SetDist &SetSemantics::eval(const Node *Program, PacketSet Input) {
  auto &PerInput = Cache[Program];
  auto It = PerInput.find(Input);
  if (It != PerInput.end())
    return It->second;
  SetDist Result = evalUncached(Program, Input);
  return PerInput.emplace(Input, std::move(Result)).first->second;
}

Rational SetSemantics::outputProbability(const Node *Program, PacketSet Input,
                                         PacketSet Output) {
  const SetDist &Dist = eval(Program, Input);
  auto It = Dist.find(Output);
  return It == Dist.end() ? Rational() : It->second;
}

SetDist SetSemantics::evalUncached(const Node *Program, PacketSet Input) {
  switch (Program->kind()) {
  case NodeKind::Drop:
    return {{0, Rational(1)}};
  case NodeKind::Skip:
    return {{Input, Rational(1)}};
  case NodeKind::Test: {
    const auto *T = cast<TestNode>(Program);
    PacketSet Out = 0;
    for (std::size_t I = 0; I < Packets.size(); ++I)
      if ((Input >> I) & 1 && Packets[I].get(T->field()) == T->value())
        Out |= 1ULL << I;
    return {{Out, Rational(1)}};
  }
  case NodeKind::Assign: {
    const auto *A = cast<AssignNode>(Program);
    PacketSet Out = 0;
    for (std::size_t I = 0; I < Packets.size(); ++I)
      if ((Input >> I) & 1) {
        Packet Updated = Packets[I].with(A->field(), A->value());
        assert(Domain.contains(Updated) &&
               "assignment leaves the packet domain");
        Out |= 1ULL << Domain.index(Updated);
      }
    return {{Out, Rational(1)}};
  }
  case NodeKind::Not: {
    // J¬tK(a) = pushforward of (λb. a − b) over JtK(a).
    const SetDist &Inner = eval(cast<NotNode>(Program)->operand(), Input);
    SetDist Result;
    for (const auto &[B, W] : Inner)
      Result[Input & ~B] += W;
    return Result;
  }
  case NodeKind::Seq: {
    // Jp;qK(a) = bind: average JqK over intermediate outputs of JpK.
    const auto *S = cast<SeqNode>(Program);
    const SetDist Lhs = eval(S->lhs(), Input); // Copy: cache may rehash.
    SetDist Result;
    for (const auto &[Mid, W] : Lhs)
      for (const auto &[Out, V] : eval(S->rhs(), Mid))
        Result[Out] += W * V;
    return Result;
  }
  case NodeKind::Union: {
    // Jp&qK(a) = D(∪)(JpK(a) × JqK(a)) — independent product, then union.
    const auto *U = cast<UnionNode>(Program);
    const SetDist Lhs = eval(U->lhs(), Input);
    const SetDist Rhs = eval(U->rhs(), Input);
    SetDist Result;
    for (const auto &[B1, W1] : Lhs)
      for (const auto &[B2, W2] : Rhs)
        Result[B1 | B2] += W1 * W2;
    return Result;
  }
  case NodeKind::Choice: {
    const auto *C = cast<ChoiceNode>(Program);
    const Rational &R = C->probability();
    const SetDist Lhs = eval(C->lhs(), Input);
    const SetDist Rhs = eval(C->rhs(), Input);
    SetDist Result;
    for (const auto &[B, W] : Lhs)
      Result[B] += R * W;
    Rational OneMinusR = Rational(1) - R;
    for (const auto &[B, W] : Rhs)
      Result[B] += OneMinusR * W;
    return Result;
  }
  case NodeKind::Star:
    return evalStar(cast<StarNode>(Program)->body(), Input);
  case NodeKind::IfThenElse: {
    // if t then p else q ≜ t;p & ¬t;q.
    const auto *I = cast<IfThenElseNode>(Program);
    const Node *Desugared =
        Ctx.unite(Ctx.seq(I->cond(), I->thenBranch()),
                  Ctx.seq(Ctx.negate(I->cond()), I->elseBranch()));
    return eval(Desugared, Input);
  }
  case NodeKind::While: {
    // while t do p ≜ (t;p)* ; ¬t.
    const auto *W = cast<WhileNode>(Program);
    const Node *Desugared = Ctx.seq(Ctx.star(Ctx.seq(W->cond(), W->body())),
                                    Ctx.negate(W->cond()));
    return eval(Desugared, Input);
  }
  case NodeKind::Case: {
    // Disjoint cascade of conditionals.
    const auto *C = cast<CaseNode>(Program);
    const Node *Desugared = C->defaultBranch();
    for (std::size_t I = C->branches().size(); I-- > 0;)
      Desugared = Ctx.ite(C->branches()[I].first, C->branches()[I].second,
                          Desugared);
    return eval(Desugared, Input);
  }
  }
  MCNK_UNREACHABLE("unhandled node kind");
}

SetDist SetSemantics::evalStar(const Node *Body, PacketSet Input) {
  // Small-step chain of §4: states (a, b) with transition
  //   (a, b) --w--> (a', b ∪ a)  where w = BJbodyK_{a,a'}.
  // Explore states reachable from (Input, ∅), quotient saturated states
  // into absorbing sinks per accumulator (the U matrix), and solve the
  // absorbing chain (Theorem 4.7).
  struct StateKey {
    PacketSet A, B;
    bool operator<(const StateKey &R) const {
      return A != R.A ? A < R.A : B < R.B;
    }
  };
  std::map<StateKey, std::size_t> Index;
  std::vector<StateKey> States;
  std::vector<std::vector<std::pair<std::size_t, Rational>>> Succs;

  auto InternState = [&](PacketSet A, PacketSet B) {
    auto [It, Inserted] = Index.emplace(StateKey{A, B}, States.size());
    if (Inserted) {
      States.push_back({A, B});
      Succs.emplace_back();
    }
    return It->second;
  };

  InternState(Input, 0);
  for (std::size_t S = 0; S < States.size(); ++S) {
    auto [A, B] = States[S];
    PacketSet NextB = B | A;
    const SetDist &Step = eval(Body, A);
    for (const auto &[A2, W] : Step) {
      // InternState may reallocate Succs; fetch the target index first.
      std::size_t T = InternState(A2, NextB);
      Succs[S].emplace_back(T, W);
    }
  }

  // Saturation (Def 4.4) as a greatest fixpoint: a state is saturated iff
  // every successor keeps the accumulator and is itself saturated.
  std::vector<bool> Saturated(States.size(), true);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (std::size_t S = 0; S < States.size(); ++S) {
      if (!Saturated[S])
        continue;
      // Successors carry accumulator B ∪ A; saturation requires the
      // accumulator to stay at B along every path.
      if ((States[S].B | States[S].A) != States[S].B) {
        Saturated[S] = false;
        Changed = true;
        continue;
      }
      for (const auto &[T, W] : Succs[S]) {
        (void)W;
        if (!Saturated[T]) {
          Saturated[S] = false;
          Changed = true;
          break;
        }
      }
    }
  }

  // Degenerate case: the start state is already saturated (only when the
  // input is ∅, or the body maps A to itself forever with B stable).
  std::size_t Start = 0;
  if (Saturated[Start])
    return {{States[Start].B | States[Start].A, Rational(1)}};

  // Build the absorbing chain over unsaturated (transient) states; an edge
  // into a saturated state (a', b') absorbs into accumulator b' (the U
  // quotient maps it to (∅, b')).
  std::vector<std::size_t> TransientId(States.size(), SIZE_MAX);
  std::size_t NumTransient = 0;
  for (std::size_t S = 0; S < States.size(); ++S)
    if (!Saturated[S])
      TransientId[S] = NumTransient++;

  std::map<PacketSet, std::size_t> AbsorbId;
  std::vector<PacketSet> Accumulators;
  markov::AbsorbingChain Chain;
  Chain.NumTransient = NumTransient;
  for (std::size_t S = 0; S < States.size(); ++S) {
    if (Saturated[S])
      continue;
    for (const auto &[T, W] : Succs[S]) {
      if (!Saturated[T]) {
        Chain.QEntries.push_back({TransientId[S], TransientId[T], W});
        continue;
      }
      PacketSet Acc = States[T].B; // Saturated: accumulator is final.
      auto [It, Inserted] = AbsorbId.emplace(Acc, Accumulators.size());
      if (Inserted)
        Accumulators.push_back(Acc);
      Chain.REntries.push_back({TransientId[S], It->second, W});
    }
  }
  Chain.NumAbsorbing = Accumulators.size();

  std::vector<markov::AbsorptionRow<Rational>> Absorption;
  if (!markov::solveAbsorptionExact(Chain, Absorption))
    fatalError("star chain unexpectedly singular");

  SetDist Result;
  Rational Total;
  for (const auto &[C, W] : Absorption[TransientId[Start]]) {
    Result[Accumulators[C]] += W;
    Total += W;
  }
  assert(Total.isOne() && "star limit distribution must be total");
  return Result;
}

bool SetSemantics::equivalent(const Node *P, const Node *Q) {
  PacketSet Full = fullSet();
  for (PacketSet A = 0;; ++A) {
    if (eval(P, A) != eval(Q, A))
      return false;
    if (A == Full)
      break;
  }
  return true;
}

Rational SetSemantics::upSetMass(const Node *P, PacketSet Input,
                                 PacketSet UpSet) {
  Rational Mass;
  for (const auto &[B, W] : eval(P, Input))
    if ((B & UpSet) == UpSet)
      Mass += W;
  return Mass;
}

bool SetSemantics::refines(const Node *P, const Node *Q) {
  PacketSet Full = fullSet();
  for (PacketSet A = 0;; ++A) {
    for (PacketSet B = 0;; ++B) {
      if (upSetMass(P, A, B) > upSetMass(Q, A, B))
        return false;
      if (B == Full)
        break;
    }
    if (A == Full)
      break;
  }
  return true;
}
