//===----------------------------------------------------------------------===//
///
/// \file
/// FDD backend tests: canonicity (equivalence as reference equality),
/// operation correctness, closed-form loop solving, parallel case
/// compilation, export/import, and the central soundness property — on
/// randomized guarded programs, the FDD backend agrees exactly with the
/// reference set semantics (Theorem 3.1 made executable).
///
//===----------------------------------------------------------------------===//

#include "ast/Context.h"
#include "ast/Printer.h"
#include "ast/Traversal.h"
#include "parser/Parser.h"
#include "fdd/Compile.h"
#include "fdd/Export.h"
#include "fdd/Query.h"
#include "semantics/SetSemantics.h"

#include <gtest/gtest.h>

#include <random>

using namespace mcnk;
using namespace mcnk::fdd;
using ast::Context;
using ast::Node;

namespace {

struct FddFixture : ::testing::Test {
  Context Ctx;
  FieldId A = Ctx.field("a");
  FieldId B = Ctx.field("b");
  FddManager M;

  FddRef compileP(const Node *P) { return compile(M, P); }

  Packet packet(FieldValue VA, FieldValue VB) {
    Packet P(2);
    P.set(A, VA);
    P.set(B, VB);
    return P;
  }
};

} // namespace

using FddTest = FddFixture;

TEST_F(FddTest, HashConsingGivesCanonicalRefs) {
  FddRef T1 = M.test(A, 1);
  FddRef T2 = M.test(A, 1);
  EXPECT_EQ(T1, T2);
  FddRef S1 = M.seq(M.test(A, 1), M.assign(B, 2));
  FddRef S2 = M.seq(M.test(A, 1), M.assign(B, 2));
  EXPECT_EQ(S1, S2);
  // Identical children collapse the test node.
  EXPECT_EQ(M.inner(A, 1, M.identityLeaf(), M.identityLeaf()),
            M.identityLeaf());
}

TEST_F(FddTest, TestAndAssignEvaluate) {
  FddRef T = M.test(A, 1);
  auto Out1 = M.outputDistribution(T, packet(1, 0));
  EXPECT_EQ(Out1.Outputs[packet(1, 0)], Rational(1));
  auto Out2 = M.outputDistribution(T, packet(2, 0));
  EXPECT_EQ(Out2.Dropped, Rational(1));

  FddRef W = M.assign(A, 3);
  auto Out3 = M.outputDistribution(W, packet(1, 7));
  EXPECT_EQ(Out3.Outputs[packet(3, 7)], Rational(1));
}

TEST_F(FddTest, SeqComposesModifications) {
  // a:=1 ; b:=2 — one leaf with both writes.
  FddRef S = M.seq(M.assign(A, 1), M.assign(B, 2));
  auto Out = M.outputDistribution(S, packet(9, 9));
  EXPECT_EQ(Out.Outputs[packet(1, 2)], Rational(1));
  // a:=1 ; a:=2 — later write wins.
  FddRef S2 = M.seq(M.assign(A, 1), M.assign(A, 2));
  EXPECT_EQ(S2, M.assign(A, 2));
}

TEST_F(FddTest, SeqResolvesTestsAgainstWrites) {
  // a:=1 ; a=1 ≡ a:=1 and a:=1 ; a=2 ≡ drop — the composition resolves
  // the downstream test statically.
  EXPECT_EQ(M.seq(M.assign(A, 1), M.test(A, 1)), M.assign(A, 1));
  EXPECT_EQ(M.seq(M.assign(A, 1), M.test(A, 2)), M.dropLeaf());
}

TEST_F(FddTest, SeqReordersTestsCanonically) {
  // (b=1 ; a:=1) vs a test on the smaller field a appearing later: the
  // composition b=1 ; (a=0 ? ...) must float a's test above b's in the
  // canonical order. Build p = test(b,1), q = if a=0 then a:=5 else drop.
  FddRef P = M.test(B, 1);
  FddRef Q = M.branch(M.test(A, 0), M.assign(A, 5), M.dropLeaf());
  FddRef S = M.seq(P, Q);
  auto Out = M.outputDistribution(S, packet(0, 1));
  EXPECT_EQ(Out.Outputs[packet(5, 1)], Rational(1));
  auto Out2 = M.outputDistribution(S, packet(1, 1));
  EXPECT_EQ(Out2.Dropped, Rational(1));
  auto Out3 = M.outputDistribution(S, packet(0, 2));
  EXPECT_EQ(Out3.Dropped, Rational(1));
}

TEST_F(FddTest, PredicateOps) {
  FddRef T = M.test(A, 1);
  FddRef U = M.test(B, 2);
  EXPECT_TRUE(M.isPredicateFdd(M.negate(T)));
  EXPECT_TRUE(M.isPredicateFdd(M.disjoin(T, U)));
  EXPECT_TRUE(M.isPredicateFdd(M.seq(T, U)));
  EXPECT_FALSE(M.isPredicateFdd(M.assign(A, 1)));
  // Double negation is the identity on canonical diagrams.
  EXPECT_EQ(M.negate(M.negate(T)), T);
  // Excluded middle / contradiction.
  EXPECT_EQ(M.disjoin(T, M.negate(T)), M.identityLeaf());
  EXPECT_EQ(M.seq(T, M.negate(T)), M.dropLeaf());
  // De Morgan, as reference equality.
  EXPECT_EQ(M.negate(M.disjoin(T, U)),
            M.seq(M.negate(T), M.negate(U)));
}

TEST_F(FddTest, ChoiceMergesLeaves) {
  FddRef C = M.choice(Rational(1, 3), M.assign(A, 1), M.assign(A, 2));
  auto Out = M.outputDistribution(C, packet(0, 0));
  EXPECT_EQ(Out.Outputs[packet(1, 0)], Rational(1, 3));
  EXPECT_EQ(Out.Outputs[packet(2, 0)], Rational(2, 3));
  // ⊕ is idempotent and commutes with complemented bias.
  EXPECT_EQ(M.choice(Rational(1, 3), C, C), C);
  EXPECT_EQ(M.choice(Rational(1, 3), M.assign(A, 1), M.assign(A, 2)),
            M.choice(Rational(2, 3), M.assign(A, 2), M.assign(A, 1)));
}

TEST_F(FddTest, BranchBehavesLikeConditional) {
  FddRef G = M.test(A, 1);
  FddRef Ite = M.branch(G, M.assign(B, 1), M.assign(B, 2));
  auto Then = M.outputDistribution(Ite, packet(1, 0));
  EXPECT_EQ(Then.Outputs[packet(1, 1)], Rational(1));
  auto Else = M.outputDistribution(Ite, packet(0, 0));
  EXPECT_EQ(Else.Outputs[packet(0, 2)], Rational(1));
  // Degenerate guards.
  EXPECT_EQ(M.branch(M.identityLeaf(), Ite, M.dropLeaf()), Ite);
  EXPECT_EQ(M.branch(M.dropLeaf(), Ite, M.dropLeaf()), M.dropLeaf());
}

TEST_F(FddTest, LoopGeometricExit) {
  // while a=0 do (a:=1 ⊕½ a:=0): exits almost surely with a=1.
  FddRef Loop = M.solveLoop(
      M.test(A, 0),
      M.choice(Rational(1, 2), M.assign(A, 1), M.assign(A, 0)));
  auto Out = M.outputDistribution(Loop, packet(0, 5));
  EXPECT_EQ(Out.Outputs[packet(1, 5)], Rational(1));
  EXPECT_EQ(Out.Dropped, Rational(0));
  // Guard-false inputs exit unchanged.
  auto Out2 = M.outputDistribution(Loop, packet(7, 5));
  EXPECT_EQ(Out2.Outputs[packet(7, 5)], Rational(1));
  // Statistics describe the symbolic chain.
  EXPECT_GE(M.lastLoopStats().NumTransient, 1u);
}

TEST_F(FddTest, LoopDivergenceDropsMass) {
  // while a=0 do a:=0 diverges on a=0 and is the identity elsewhere.
  FddRef Loop = M.solveLoop(M.test(A, 0), M.assign(A, 0));
  auto Out = M.outputDistribution(Loop, packet(0, 0));
  EXPECT_EQ(Out.Dropped, Rational(1));
  auto Out2 = M.outputDistribution(Loop, packet(3, 0));
  EXPECT_EQ(Out2.Outputs[packet(3, 0)], Rational(1));
}

TEST_F(FddTest, LoopPartialDivergence) {
  // while a=0 do (a:=1 ⊕⅓ a:=0) with an extra drop arm: body
  // a:=1 @ 1/3, drop @ 1/3, a:=0 @ 1/3. Exit mass: Σ (1/3)(1/3)^k = 1/2.
  FddRef Body = M.choice(
      Rational(1, 3), M.assign(A, 1),
      M.choice(Rational(1, 2), M.dropLeaf(), M.assign(A, 0)));
  FddRef Loop = M.solveLoop(M.test(A, 0), Body);
  auto Out = M.outputDistribution(Loop, packet(0, 0));
  EXPECT_EQ(Out.Outputs[packet(1, 0)], Rational(1, 2));
  EXPECT_EQ(Out.Dropped, Rational(1, 2));
}

TEST_F(FddTest, LoopCountsHops) {
  // while a=0 do (b:=b+1 is not expressible; emulate a two-step walk):
  // while a=0 do (if b=0 then b:=1 else (b:=2 ; a:=1)) — terminates in
  // exactly two iterations from (0,0), writing b=2, a=1.
  const Node *P = Ctx.whileLoop(
      Ctx.test(A, 0),
      Ctx.ite(Ctx.test(B, 0), Ctx.assign(B, 1),
              Ctx.seq(Ctx.assign(B, 2), Ctx.assign(A, 1))));
  FddRef Loop = compileP(P);
  auto Out = M.outputDistribution(Loop, packet(0, 0));
  EXPECT_EQ(Out.Outputs[packet(1, 2)], Rational(1));
}

TEST_F(FddTest, CompiledLawsHoldByReferenceEquality) {
  // Canonicity turns semantic laws into pointer equalities.
  auto Prog = [&](const char *Text) {
    auto R = parser::parseProgram(Text, Ctx);
    EXPECT_TRUE(R.ok());
    return compileP(R.Program);
  };
  // Guarded KAT laws.
  EXPECT_EQ(Prog("a=1 ; b:=2"), Prog("(a=1 ; b:=2)"));
  EXPECT_EQ(Prog("if a=1 then b:=1 else b:=2"),
            Prog("if !a=1 then b:=2 else b:=1"));
  EXPECT_EQ(Prog("b:=2 ; a=1 +[1/2] b:=2 ; a=1"), Prog("b:=2 ; a=1"));
  // Loop unrolling: while t do p ≡ if t then (p ; while t do p) else skip.
  EXPECT_EQ(
      Prog("while a=0 do (a:=1 +[1/2] a:=0)"),
      Prog("if a=0 then ((a:=1 +[1/2] a:=0) ; "
           "while a=0 do (a:=1 +[1/2] a:=0)) else skip"));
  // Choice reassociation (⊕ with uniform thirds).
  EXPECT_EQ(Prog("a:=1 +[1/3] (a:=2 +[1/2] a:=3)"),
            Prog("(a:=1 +[1/2] a:=2) +[2/3] a:=3"));
}

TEST_F(FddTest, CaseCompilesAsFirstMatchCascade) {
  std::vector<ast::CaseNode::Branch> Branches;
  const Node *Cascade = Ctx.drop();
  for (FieldValue V = 4; V >= 1; --V)
    Cascade = Ctx.ite(Ctx.test(A, V), Ctx.assign(B, V), Cascade);
  for (FieldValue V = 1; V <= 4; ++V)
    Branches.push_back({Ctx.test(A, V), Ctx.assign(B, V)});
  const Node *C = Ctx.caseOf(std::move(Branches), Ctx.drop());

  // The pairwise `case` reduction and the if-then-else cascade it
  // denotes compile to the same canonical diagram.
  FddRef Serial = compile(M, C);
  EXPECT_EQ(Serial, compile(M, Cascade));

  auto Out = M.outputDistribution(Serial, packet(3, 0));
  EXPECT_EQ(Out.Outputs[packet(3, 3)], Rational(1));
  auto Miss = M.outputDistribution(Serial, packet(9, 0));
  EXPECT_EQ(Miss.Dropped, Rational(1));
}

TEST_F(FddTest, ExportImportRoundTrip) {
  const Node *P = Ctx.ite(
      Ctx.test(A, 1),
      Ctx.choice(Rational(1, 4), Ctx.assign(B, 1), Ctx.drop()),
      Ctx.assign(B, 9));
  FddRef Ref = compileP(P);
  PortableFdd Portable = exportFdd(M, Ref);
  // Same manager: interning must give back the identical diagram.
  EXPECT_EQ(importFdd(M, Portable), Ref);
  // Fresh manager: behavior is preserved.
  FddManager M2;
  FddRef Ref2 = importFdd(M2, Portable);
  for (FieldValue VA = 0; VA <= 2; ++VA) {
    Packet In = packet(VA, 0);
    auto D1 = M.outputDistribution(Ref, In);
    auto D2 = M2.outputDistribution(Ref2, In);
    EXPECT_EQ(D1.Outputs, D2.Outputs);
    EXPECT_EQ(D1.Dropped, D2.Dropped);
  }
}

TEST_F(FddTest, ImportRejectsMalformedPortableFdds) {
  const Node *P = Ctx.ite(Ctx.test(A, 1), Ctx.assign(B, 1), Ctx.drop());
  PortableFdd Good = exportFdd(M, compileP(P));
  ASSERT_GE(Good.Nodes.size(), 2u);

  // Empty diagram.
  PortableFdd Empty;
  EXPECT_DEATH_IF_SUPPORTED(importFdd(M, Empty), "no nodes");

  // Root index past the end.
  PortableFdd BadRoot = Good;
  BadRoot.Root = static_cast<uint32_t>(BadRoot.Nodes.size());
  EXPECT_DEATH_IF_SUPPORTED(importFdd(M, BadRoot), "root index");

  // Child index out of range.
  PortableFdd BadChild = Good;
  for (auto &N : BadChild.Nodes)
    if (!N.IsLeaf) {
      N.Hi = static_cast<uint32_t>(BadChild.Nodes.size() + 7);
      break;
    }
  EXPECT_DEATH_IF_SUPPORTED(importFdd(M, BadChild), "topological");

  // Self-referential (non-topological) child.
  PortableFdd Cycle = Good;
  for (uint32_t I = 0; I < Cycle.Nodes.size(); ++I)
    if (!Cycle.Nodes[I].IsLeaf) {
      Cycle.Nodes[I].Lo = I;
      break;
    }
  EXPECT_DEATH_IF_SUPPORTED(importFdd(M, Cycle), "topological");

  // Topologically indexed but violating the canonical test ordering:
  // a node whose true-subtree re-tests an already-decided field.
  PortableFdd BadOrder;
  PortableFdd::Node DropLeaf;
  DropLeaf.IsLeaf = true;
  DropLeaf.Dist = {{Action::drop(), Rational(1)}};
  PortableFdd::Node IdLeaf;
  IdLeaf.IsLeaf = true;
  IdLeaf.Dist = {{Action(), Rational(1)}};
  PortableFdd::Node Inner1;
  Inner1.Field = 1;
  Inner1.Value = 0;
  Inner1.Hi = 1;
  Inner1.Lo = 0;
  PortableFdd::Node Inner2 = Inner1; // Same field below itself: invalid.
  Inner2.Hi = 2;
  BadOrder.Nodes = {DropLeaf, IdLeaf, Inner1, Inner2};
  BadOrder.Root = 3;
  EXPECT_DEATH_IF_SUPPORTED(importFdd(M, BadOrder), "re-tests field");

  // Leaf distributions that are not distributions.
  PortableFdd ShortLeaf;
  PortableFdd::Node Partial;
  Partial.IsLeaf = true;
  Partial.Dist = {{Action::drop(), Rational(1, 2)}};
  ShortLeaf.Nodes = {Partial};
  EXPECT_DEATH_IF_SUPPORTED(importFdd(M, ShortLeaf), "sum to 1");

  PortableFdd NegLeaf;
  PortableFdd::Node Negative;
  Negative.IsLeaf = true;
  Negative.Dist = {{Action::drop(), Rational(3, 2)},
                   {Action(), Rational(-1, 2)}};
  NegLeaf.Nodes = {Negative};
  EXPECT_DEATH_IF_SUPPORTED(importFdd(M, NegLeaf), "negative probability");

  // The intact original still imports.
  EXPECT_EQ(importFdd(M, Good), compileP(P));
}

TEST_F(FddTest, TryImportRejectsMalformedPortableFddsWithoutAborting) {
  // The daemon path (ARCHITECTURE S16) feeds disk bytes through
  // tryImportFdd, which must turn every malformation that importFdd
  // fatals on into a clean false + diagnostic instead.
  const Node *P = Ctx.ite(Ctx.test(A, 1), Ctx.assign(B, 1), Ctx.drop());
  PortableFdd Good = exportFdd(M, compileP(P));

  auto Rejects = [this](const PortableFdd &Bad, const char *Fragment) {
    FddRef Out = 0;
    std::string Error;
    EXPECT_FALSE(tryImportFdd(M, Bad, Out, &Error));
    EXPECT_NE(Error.find(Fragment), std::string::npos)
        << "error was: " << Error;
  };

  Rejects(PortableFdd(), "no nodes");

  PortableFdd BadRoot = Good;
  BadRoot.Root = static_cast<uint32_t>(BadRoot.Nodes.size());
  Rejects(BadRoot, "root index");

  PortableFdd Cycle = Good;
  for (uint32_t I = 0; I < Cycle.Nodes.size(); ++I)
    if (!Cycle.Nodes[I].IsLeaf) {
      Cycle.Nodes[I].Lo = I;
      break;
    }
  Rejects(Cycle, "topological");

  PortableFdd ShortLeaf;
  PortableFdd::Node Partial;
  Partial.IsLeaf = true;
  Partial.Dist = {{Action::drop(), Rational(1, 2)}};
  ShortLeaf.Nodes = {Partial};
  Rejects(ShortLeaf, "sum to 1");

  // And the good diagram round-trips through the same entry point.
  FddRef Out = 0;
  std::string Error;
  ASSERT_TRUE(tryImportFdd(M, Good, Out, &Error)) << Error;
  EXPECT_EQ(Out, compileP(P));
}

TEST_F(FddTest, QueryRefinement) {
  FddRef Full = M.assign(A, 1);
  FddRef Lossy = M.choice(Rational(3, 4), M.assign(A, 1), M.dropLeaf());
  EXPECT_TRUE(refines(M, Lossy, Full));
  EXPECT_FALSE(refines(M, Full, Lossy));
  EXPECT_TRUE(refines(M, M.dropLeaf(), Lossy));
  // Equivalence is reference equality; approx agrees.
  EXPECT_TRUE(approxEquivalent(M, Lossy, Lossy, 0.0));
  EXPECT_FALSE(approxEquivalent(M, Lossy, Full, 1e-9));
}

TEST_F(FddTest, RefinementSeesThroughRedundantWrites) {
  // a=1 ; a:=1 ≡ a=1 — the write restates the path constraint. Build the
  // two diagrams separately and compare leaf-wise.
  FddRef P = M.seq(M.test(A, 1), M.assign(A, 1));
  FddRef Q = M.test(A, 1);
  EXPECT_TRUE(refines(M, P, Q));
  EXPECT_TRUE(refines(M, Q, P));
  EXPECT_TRUE(approxEquivalent(M, P, Q, 0.0));
}

TEST_F(FddTest, CollectDomain) {
  const Node *P = Ctx.ite(Ctx.test(A, 1), Ctx.assign(B, 7),
                          Ctx.assign(A, 3));
  auto Domain = M.collectDomain(compileP(P));
  EXPECT_EQ(Domain[A], (std::vector<FieldValue>{1, 3}));
  EXPECT_EQ(Domain[B], (std::vector<FieldValue>{7}));
}

TEST_F(FddTest, FloatSolverAgreesWithExact) {
  const Node *P = Ctx.whileLoop(
      Ctx.test(A, 0),
      Ctx.choice(Rational(1, 10), Ctx.assign(A, 1),
                 Ctx.choice(Rational(1, 9), Ctx.assign(A, 2),
                            Ctx.assign(A, 0))));
  FddRef Exact = compileP(P);

  FddManager MFloat(markov::SolverKind::Direct);
  FddRef Approx = compile(MFloat, P);
  // Ship the exact diagram into the float manager and compare there.
  FddRef ExactImported = importFdd(MFloat, exportFdd(M, Exact));
  EXPECT_TRUE(approxEquivalent(MFloat, Approx, ExactImported, 1e-9));

  FddManager MIter(markov::SolverKind::Iterative);
  FddRef Iter = compile(MIter, P);
  FddRef ExactImported2 = importFdd(MIter, exportFdd(M, Exact));
  EXPECT_TRUE(approxEquivalent(MIter, Iter, ExactImported2, 1e-8));
}

TEST_F(FddTest, FloatLoopRescalesRowsThatSumPastOne) {
  // while a=0 do (a:=1 ⊕ ... ⊕ a:=10, each 1/10): the float solve returns
  // ten doubles 0.1, which sum past one, so the row is rescaled to total
  // exactly one and keeps no drop mass.
  std::vector<const Node *> Exits;
  for (FieldValue V = 1; V <= 10; ++V)
    Exits.push_back(Ctx.assign(A, V));
  const Node *P = Ctx.whileLoop(Ctx.test(A, 0), Ctx.choiceUniform(Exits));
  auto Exact = M.outputDistribution(compileP(P), packet(0, 0));
  ASSERT_EQ(Exact.Outputs.size(), 10u);
  for (markov::SolverKind Kind :
       {markov::SolverKind::Direct, markov::SolverKind::Iterative}) {
    FddManager MFloat(Kind);
    auto Out = MFloat.outputDistribution(compile(MFloat, P), packet(0, 0));
    EXPECT_EQ(Out.Dropped, Rational(0));
    ASSERT_EQ(Out.Outputs.size(), 10u);
    Rational Total;
    for (const auto &[Pk, W] : Out.Outputs) {
      EXPECT_EQ(Exact.Outputs[Pk], Rational(1, 10));
      EXPECT_NEAR(W.toDouble(), Exact.Outputs[Pk].toDouble(), 1e-15);
      Total += W;
    }
    EXPECT_EQ(Total, Rational(1));
  }
}

TEST_F(FddTest, FloatLoopDropsAllMassOfPrunedStates) {
  // while (a=0 + a=1) do (if a=0 then a:=0 else (a:=2 ⊕⅓ a:=1)): a=0
  // never exits, so the solve prunes it and its leaf is drop with mass
  // exactly one; a=1 exits to a=2 almost surely.
  const Node *P = Ctx.whileLoop(
      Ctx.unite(Ctx.test(A, 0), Ctx.test(A, 1)),
      Ctx.ite(Ctx.test(A, 0), Ctx.assign(A, 0),
              Ctx.choice(Rational(1, 3), Ctx.assign(A, 2),
                         Ctx.assign(A, 1))));
  for (markov::SolverKind Kind :
       {markov::SolverKind::Direct, markov::SolverKind::Iterative}) {
    FddManager MFloat(Kind);
    FddRef Loop = compile(MFloat, P);
    auto Diverging = MFloat.outputDistribution(Loop, packet(0, 4));
    EXPECT_TRUE(Diverging.Outputs.empty());
    EXPECT_EQ(Diverging.Dropped, Rational(1));
    // Iterative stops at its tolerance, so only the total is exact here.
    auto Exiting = MFloat.outputDistribution(Loop, packet(1, 4));
    EXPECT_NEAR(Exiting.Outputs[packet(2, 4)].toDouble(), 1.0, 1e-9);
    EXPECT_EQ(Exiting.Outputs[packet(2, 4)] + Exiting.Dropped, Rational(1));
  }
}

//===----------------------------------------------------------------------===//
// Randomized soundness sweep: FDD backend vs reference set semantics.
//===----------------------------------------------------------------------===//

namespace {

/// Generates random guarded programs over two fields with values {0,1,2}.
struct ProgramGenerator {
  Context &Ctx;
  FieldId A, B;
  std::mt19937_64 Rng;

  const Node *randomPredicate(unsigned Depth) {
    std::uniform_int_distribution<int> Pick(0, Depth == 0 ? 2 : 5);
    switch (Pick(Rng)) {
    case 0:
      return Ctx.test(randomField(), randomValue());
    case 1:
      return Ctx.skip();
    case 2:
      return Ctx.test(randomField(), randomValue());
    case 3:
      return Ctx.negate(randomPredicate(Depth - 1));
    case 4:
      return Ctx.unite(randomPredicate(Depth - 1),
                       randomPredicate(Depth - 1));
    default:
      return Ctx.seq(randomPredicate(Depth - 1), randomPredicate(Depth - 1));
    }
  }

  const Node *randomProgram(unsigned Depth) {
    std::uniform_int_distribution<int> Pick(0, Depth == 0 ? 3 : 9);
    switch (Pick(Rng)) {
    case 0:
      return Ctx.assign(randomField(), randomValue());
    case 1:
      return Ctx.test(randomField(), randomValue());
    case 2:
      return Ctx.skip();
    case 3:
      return Ctx.assign(randomField(), randomValue());
    case 4:
      return Ctx.seq(randomProgram(Depth - 1), randomProgram(Depth - 1));
    case 5:
      return Ctx.choice(randomProbability(), randomProgram(Depth - 1),
                        randomProgram(Depth - 1));
    case 6:
      return Ctx.ite(randomPredicate(Depth - 1), randomProgram(Depth - 1),
                     randomProgram(Depth - 1));
    case 7:
      return Ctx.whileLoop(randomPredicate(Depth - 1),
                           randomProgram(Depth - 1));
    case 8:
      return Ctx.negate(randomPredicate(Depth - 1));
    default:
      return Ctx.drop();
    }
  }

  FieldId randomField() {
    return std::uniform_int_distribution<int>(0, 1)(Rng) ? A : B;
  }
  FieldValue randomValue() {
    return std::uniform_int_distribution<FieldValue>(0, 2)(Rng);
  }
  Rational randomProbability() {
    int Num = std::uniform_int_distribution<int>(0, 4)(Rng);
    return Rational(Num, 4);
  }
};

} // namespace

class FddSoundnessProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(FddSoundnessProperty, AgreesWithReferenceSemantics) {
  Context Ctx;
  FieldId A = Ctx.field("a");
  FieldId B = Ctx.field("b");
  ProgramGenerator Gen{Ctx, A, B, std::mt19937_64(GetParam())};

  // Domain: both fields over {0,1,2} — 9 packets.
  semantics::SetSemantics Sem(Ctx, PacketDomain({3, 3}));
  FddManager M;

  for (int Round = 0; Round < 40; ++Round) {
    const Node *P = Gen.randomProgram(3);
    ASSERT_TRUE(ast::isGuarded(P));
    FddRef Ref = compile(M, P);

    for (std::size_t I = 0; I < Sem.domain().numPackets(); ++I) {
      Packet In = Sem.domain().packet(I);
      auto FddOut = M.outputDistribution(Ref, In);
      const semantics::SetDist &RefOut =
          Sem.eval(P, Sem.singleton(In));

      // Reference outputs on singletons are singletons or ∅.
      Rational RefDrop;
      std::map<Packet, Rational> RefOutputs;
      for (const auto &[Set, W] : RefOut) {
        if (Set == 0) {
          RefDrop += W;
          continue;
        }
        ASSERT_EQ(__builtin_popcountll(Set), 1)
            << "guarded program produced a non-singleton output";
        std::size_t Index = static_cast<std::size_t>(
            __builtin_ctzll(Set));
        RefOutputs[Sem.domain().packet(Index)] += W;
      }
      EXPECT_EQ(FddOut.Outputs, RefOutputs)
          << "program: " << ast::print(P, Ctx.fields());
      EXPECT_EQ(FddOut.Dropped, RefDrop)
          << "program: " << ast::print(P, Ctx.fields());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FddSoundnessProperty,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u, 26u));
