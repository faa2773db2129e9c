//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the S15 static analyzer (ast/Analyze.h) and verified
/// simplifier (ast/Simplify.h): one golden diagnostic per check in the
/// catalog (message text and rendered format pinned, including the
/// overlapping-guard shape that motivated the check), DomainAnalysis fact
/// queries, golden rewrites, and the soundness property — simplify(p)
/// compiles to the reference-identical exact FDD and is idempotent — over
/// seeded random programs (half with planted dead arms) and the whole
/// scenario registry.
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "ast/Analyze.h"
#include "ast/Printer.h"
#include "ast/Simplify.h"
#include "ast/Traversal.h"
#include "gen/ProgramGen.h"
#include "gen/Scenario.h"
#include "parser/Parser.h"
#include "support/Casting.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

using namespace mcnk;
using namespace mcnk::ast;

namespace {

struct AnalyzeFixture : ::testing::Test {
  Context Ctx;

  const Node *parse(const std::string &Source) {
    parser::ParseResult Result = parser::parseProgram(Source, Ctx);
    EXPECT_TRUE(Result.ok()) << (Result.Diagnostics.empty()
                                     ? std::string("no diagnostics")
                                     : Result.Diagnostics[0].render());
    return Result.ok() ? Result.Program : Ctx.drop();
  }

  std::vector<Finding> lint(const std::string &Source) {
    return analyze(Ctx, parse(Source));
  }

  static std::size_t count(const std::vector<Finding> &Fs, CheckKind K) {
    std::size_t N = 0;
    for (const Finding &F : Fs)
      N += F.Check == K;
    return N;
  }

  static const Finding *first(const std::vector<Finding> &Fs, CheckKind K) {
    for (const Finding &F : Fs)
      if (F.Check == K)
        return &F;
    return nullptr;
  }
};

} // namespace

using AnalyzeTest = AnalyzeFixture;

//===----------------------------------------------------------------------===//
// Golden diagnostics, one per catalog entry
//===----------------------------------------------------------------------===//

TEST_F(AnalyzeTest, CheckNamesArePinned) {
  EXPECT_STREQ(checkName(CheckKind::UnreachableCaseArm),
               "unreachable-case-arm");
  EXPECT_STREQ(checkName(CheckKind::ShadowedCaseArm), "shadowed-case-arm");
  EXPECT_STREQ(checkName(CheckKind::OverlappingCaseGuards),
               "overlapping-case-guards");
  EXPECT_STREQ(checkName(CheckKind::UnreachableBranch), "unreachable-branch");
  EXPECT_STREQ(checkName(CheckKind::UnreachableLoopBody),
               "unreachable-loop-body");
  EXPECT_STREQ(checkName(CheckKind::DivergentLoop), "divergent-loop");
  EXPECT_STREQ(checkName(CheckKind::DropEquivalent), "drop-equivalent");
  EXPECT_STREQ(checkName(CheckKind::DegenerateChoice), "degenerate-choice");
  EXPECT_STREQ(checkName(CheckKind::DeadAssignment), "dead-assignment");
  EXPECT_STREQ(checkName(CheckKind::RedundantAssignment),
               "redundant-assignment");
  EXPECT_STREQ(checkName(CheckKind::DeadField), "dead-field");
  EXPECT_STREQ(checkName(CheckKind::WriteOnlyField), "write-only-field");
  EXPECT_STREQ(checkName(CheckKind::QueryIrrelevantAssignment),
               "query-irrelevant-assignment");
}

TEST_F(AnalyzeTest, OverlappingCaseGuards) {
  // The shape that motivated the check: a routing `case` whose arms test
  // different fields, so a packet with sw=1 AND pt=2 silently takes arm 1
  // under first-match semantics while the author may have meant both.
  std::vector<Finding> Fs =
      lint("case { sw=1 -> pt:=1 | pt=2 -> pt:=3 | else -> drop }");
  ASSERT_EQ(Fs.size(), 1u);
  EXPECT_EQ(Fs[0].Check, CheckKind::OverlappingCaseGuards);
  EXPECT_EQ(Fs[0].render("net.pnk"),
            "net.pnk:1:1: warning[overlapping-case-guards]: case guards of "
            "arms 1 and 2 overlap (e.g. sw=1, pt=2); only the first match "
            "fires");
}

TEST_F(AnalyzeTest, DisjointGuardsAreClean) {
  EXPECT_TRUE(
      lint("case { sw=1 -> pt:=1 | sw=2 -> pt:=3 | else -> drop }").empty());
}

TEST_F(AnalyzeTest, UnreachableCaseArm) {
  std::vector<Finding> Fs =
      lint("case { sw=1 ; !sw=1 -> pt:=1 | else -> skip }");
  const Finding *F = first(Fs, CheckKind::UnreachableCaseArm);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Message,
            "case arm 1 is unreachable: its guard can never match");
}

TEST_F(AnalyzeTest, ShadowedCaseArm) {
  std::vector<Finding> Fs =
      lint("case { sw=1 -> pt:=1 | sw=1 -> pt:=2 | else -> drop }");
  const Finding *F = first(Fs, CheckKind::ShadowedCaseArm);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Message, "case arm 2 is shadowed: earlier arms match every "
                        "packet its guard admits");
  // The duplicated guard is also an overlap — both diagnostics fire.
  EXPECT_EQ(count(Fs, CheckKind::OverlappingCaseGuards), 1u);
}

TEST_F(AnalyzeTest, ShadowedElseArm) {
  std::vector<Finding> Fs =
      lint("case { sw=1 -> pt:=1 | !sw=1 -> pt:=2 | else -> pt:=3 }");
  const Finding *F = first(Fs, CheckKind::ShadowedCaseArm);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Message, "the else arm is unreachable: earlier guards match "
                        "every packet");
}

TEST_F(AnalyzeTest, UnreachableBranch) {
  std::vector<Finding> Fs = lint("sw:=1 ; if sw=1 then pt:=1 else pt:=2");
  const Finding *F = first(Fs, CheckKind::UnreachableBranch);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Message, "the else-branch is unreachable: the condition is "
                        "statically true");
  Fs = lint("sw:=2 ; if sw=1 then pt:=1 else pt:=2");
  F = first(Fs, CheckKind::UnreachableBranch);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Message, "the then-branch is unreachable: the condition is "
                        "statically false");
}

TEST_F(AnalyzeTest, UnreachableLoopBody) {
  std::vector<Finding> Fs = lint("sw:=1 ; while sw=2 do pt:=1");
  const Finding *F = first(Fs, CheckKind::UnreachableLoopBody);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Message,
            "the loop body is unreachable: the guard is statically false");
}

TEST_F(AnalyzeTest, DivergentLoop) {
  std::vector<Finding> Fs = lint("sw:=1 ; while sw=1 do sw:=1");
  const Finding *F = first(Fs, CheckKind::DivergentLoop);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Message,
            "the loop never terminates: its guard stays true on every "
            "reachable packet (the loop is drop-equivalent)");
  // A loop some packets exit immediately is fine even when others diverge
  // under an adversarial schedule — the guard is not statically true.
  EXPECT_EQ(count(lint("while sw=1 do sw:=1"), CheckKind::DivergentLoop),
            0u);
}

TEST_F(AnalyzeTest, DropEquivalent) {
  std::vector<Finding> Fs = lint("pt:=1 ; sw=1 ; !sw=1");
  const Finding *F = first(Fs, CheckKind::DropEquivalent);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Message,
            "this subprogram is equivalent to drop: it delivers no packets");
  // Literal drop is the intended spelling — no finding.
  EXPECT_TRUE(lint("drop").empty());
}

TEST_F(AnalyzeTest, DeadAssignment) {
  std::vector<Finding> Fs = lint("pt:=9 ; pt:=2");
  const Finding *F = first(Fs, CheckKind::DeadAssignment);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Message, "assignment to 'pt' is immediately overwritten");
  EXPECT_EQ(F->Loc.Line, 1u);
  EXPECT_EQ(F->Loc.Column, 1u);
  // An intervening read keeps the first write live.
  EXPECT_EQ(count(lint("pt:=9 ; sw=1 ; pt:=2"), CheckKind::DeadAssignment),
            0u);
}

TEST_F(AnalyzeTest, RedundantAssignment) {
  std::vector<Finding> Fs = lint("sw=1 ; sw:=1");
  const Finding *F = first(Fs, CheckKind::RedundantAssignment);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Message, "assignment is redundant: 'sw' already holds 1 here");
  // Writing a different value is not redundant.
  EXPECT_EQ(count(lint("sw=1 ; sw:=2"), CheckKind::RedundantAssignment), 0u);
}

TEST_F(AnalyzeTest, FindingsAreSortedBySourcePosition) {
  std::vector<Finding> Fs = lint("sw:=1 ;\n"
                                 "(pt:=9 ; pt:=2) ;\n"
                                 "if sw=2 then pt:=3 else skip");
  ASSERT_GE(Fs.size(), 2u);
  for (std::size_t I = 1; I < Fs.size(); ++I) {
    EXPECT_TRUE(Fs[I - 1].Loc.Line < Fs[I].Loc.Line ||
                (Fs[I - 1].Loc.Line == Fs[I].Loc.Line &&
                 Fs[I - 1].Loc.Column <= Fs[I].Loc.Column));
  }
}

TEST_F(AnalyzeTest, IdenticalRenderedFindingsAreDeduplicated) {
  // Regression: `var h := n in p` desugars to h:=n ; p ; h:=0 where the
  // two synthesized assignments carry no source location of their own and
  // inherit the block's span. With a trailing write both are dead, and the
  // per-node Reported set saw two distinct pointers — so the identical
  // diagnostic line rendered twice.
  std::vector<Finding> Fs = lint("(var h := 1 in skip); h:=3");
  EXPECT_EQ(count(Fs, CheckKind::DeadAssignment), 1u);
  for (std::size_t I = 1; I < Fs.size(); ++I)
    EXPECT_NE(Fs[I - 1].render("p.pnk"), Fs[I].render("p.pnk"));
}

TEST_F(AnalyzeTest, RenderWithoutLocationOmitsTheCoordinates) {
  // Programmatically built nodes have no side-table entry.
  const Node *P = Ctx.seq(Ctx.assign(Ctx.field("sw"), 1),
                          Ctx.assign(Ctx.field("sw"), 2));
  std::vector<Finding> Fs = analyze(Ctx, P);
  const Finding *F = first(Fs, CheckKind::DeadAssignment);
  ASSERT_NE(F, nullptr);
  EXPECT_FALSE(F->Loc.valid());
  EXPECT_EQ(F->render("p.pnk"),
            "p.pnk: warning[dead-assignment]: assignment to 'sw' is "
            "immediately overwritten");
}

//===----------------------------------------------------------------------===//
// DomainAnalysis fact queries
//===----------------------------------------------------------------------===//

TEST_F(AnalyzeTest, DomainFactQueries) {
  const Node *P = parse("sw:=1 ; if sw=1 then pt:=1 else pt:=2");
  DomainAnalysis A(Ctx, P);
  const auto *Seq = cast<SeqNode>(P);
  const auto *Ite = cast<IfThenElseNode>(Seq->rhs());
  EXPECT_TRUE(A.reached(Ite));
  EXPECT_TRUE(A.branchReachable(Ite, /*Then=*/true));
  EXPECT_FALSE(A.branchReachable(Ite, /*Then=*/false));
  EXPECT_EQ(A.testTruth(cast<TestNode>(Ite->cond())),
            DomainAnalysis::Truth::True);
}

TEST_F(AnalyzeTest, LoopFacts) {
  const Node *P = parse("while sw=1 do sw:=2");
  DomainAnalysis A(Ctx, P);
  const auto *W = cast<WhileNode>(P);
  EXPECT_TRUE(A.loopEntered(W));
  EXPECT_TRUE(A.loopExits(W));

  const Node *Dead = parse("sw:=2 ; while sw=1 do sw:=2");
  DomainAnalysis B(Ctx, Dead);
  const auto *W2 = cast<WhileNode>(cast<SeqNode>(Dead)->rhs());
  EXPECT_FALSE(B.loopEntered(W2));
  EXPECT_TRUE(B.loopExits(W2));
}

TEST_F(AnalyzeTest, CaseFacts) {
  const Node *P =
      parse("case { sw=1 -> pt:=1 | !sw=1 -> pt:=2 | else -> pt:=3 }");
  DomainAnalysis A(Ctx, P);
  const auto *C = cast<CaseNode>(P);
  EXPECT_TRUE(A.armReachable(C, 0));
  EXPECT_TRUE(A.armReachable(C, 1));
  EXPECT_FALSE(A.armReachable(C, 2)); // The else arm.
  EXPECT_FALSE(A.guardTotal(C, 0));
  EXPECT_TRUE(A.guardTotal(C, 1));
}

//===----------------------------------------------------------------------===//
// Golden rewrites
//===----------------------------------------------------------------------===//

TEST_F(AnalyzeTest, SimplifyFoldsDecidedBranches) {
  const Node *S = simplify(Ctx, parse("sw:=1 ; if sw=1 then pt:=1 else pt:=2"));
  EXPECT_TRUE(structurallyEqual(S, parse("sw:=1 ; pt:=1")));
}

TEST_F(AnalyzeTest, SimplifyDropsUnenteredLoops) {
  const Node *S = simplify(Ctx, parse("sw:=1 ; while sw=2 do pt:=1"));
  EXPECT_TRUE(structurallyEqual(S, parse("sw:=1")));
}

TEST_F(AnalyzeTest, SimplifyFoldsDivergentLoopsToDrop) {
  // Every packet enters and none ever exits: the delivered mass is zero,
  // which in the sub-probability semantics is exactly drop.
  const Node *S = simplify(Ctx, parse("sw:=1 ; while sw=1 do sw:=1"));
  EXPECT_TRUE(isa<DropNode>(S));
}

TEST_F(AnalyzeTest, SimplifyPrunesCaseArms) {
  const Node *S = simplify(
      Ctx, parse("sw:=1 ; case { sw=2 -> pt:=1 | sw=1 -> pt:=2 | "
                 "else -> pt:=3 }"));
  EXPECT_TRUE(structurallyEqual(S, parse("sw:=1 ; pt:=2")));
}

TEST_F(AnalyzeTest, SimplifyRemovesDeadAndRedundantAssignments) {
  EXPECT_TRUE(structurallyEqual(simplify(Ctx, parse("pt:=9 ; pt:=2")),
                                parse("pt:=2")));
  // A re-assignment pinned by a dominating *assignment* composes to the
  // identity on the diagram and is removed (predicates in between are
  // transparent).
  EXPECT_TRUE(structurallyEqual(simplify(Ctx, parse("sw:=1 ; pt=2 ; sw:=1")),
                                parse("sw:=1 ; pt=2")));
}

TEST_F(AnalyzeTest, SimplifyKeepsTestPinnedAssignments) {
  // `sw=1 ; sw:=1` is pointwise equal to `sw=1`, but the diagrams differ:
  // the assignment's leaf records the modification {sw:=1} where the bare
  // test leaves `id`.  The verified simplifier must preserve reference
  // equality, so the rewrite is diagnostic-only (redundant-assignment
  // still warns; the tree is untouched).
  const Node *P = parse("sw=1 ; sw:=1");
  EXPECT_EQ(simplify(Ctx, P), P);
  EXPECT_EQ(count(lint("sw=1 ; sw:=1"), CheckKind::RedundantAssignment), 1u);
  // An intervening non-predicate clears the pin: the write may change sw.
  const Node *Q = parse("sw:=1 ; (sw:=2 +[1/2] skip) ; sw:=1");
  EXPECT_EQ(simplify(Ctx, Q), Q);
}

TEST_F(AnalyzeTest, SimplifyCollapsesEqualChoiceBranches) {
  // After dead-assignment elimination both branches are pt:=2, and a
  // choice between identical programs is that program.
  const Node *S = simplify(Ctx, parse("pt:=2 +[1/3] (pt:=9 ; pt:=2)"));
  EXPECT_TRUE(structurallyEqual(S, parse("pt:=2")));
}

TEST_F(AnalyzeTest, SimplifyReturnsTheOriginalPointerWhenNothingFolds) {
  const Node *P = parse("if sw=1 then pt:=1 else pt:=2");
  SimplifyStats Stats;
  EXPECT_EQ(simplify(Ctx, P, {}, &Stats), P);
  EXPECT_EQ(Stats.NodesBefore, Stats.NodesAfter);
}

TEST_F(AnalyzeTest, SimplifyReportsStats) {
  SimplifyStats Stats;
  const Node *S = simplify(Ctx, parse("pt:=9 ; pt:=2 ; sw:=1"), {}, &Stats);
  EXPECT_EQ(Stats.NodesAfter, countNodes(S));
  EXPECT_LT(Stats.NodesAfter, Stats.NodesBefore);
  EXPECT_GE(Stats.Rounds, 1u);
}

//===----------------------------------------------------------------------===//
// Overlap: cube guards against the enumeration
//===----------------------------------------------------------------------===//

namespace {

/// A random case guard over f0..f{NumFields-1}: a `;`-conjunction of up to
/// four positive tests, so repeated and contradictory tests (`f=1 ; f=2`)
/// both occur; the empty conjunction is `skip`.
const Node *randomCube(Context &Ctx, Prng &Rng, unsigned NumFields) {
  const Node *G = Ctx.skip();
  for (uint64_t K = Rng.below(5); K != 0; --K) {
    FieldId F = Ctx.field("f" + std::to_string(Rng.below(NumFields)));
    G = Ctx.seq(G, Ctx.test(F, static_cast<FieldValue>(Rng.below(3))));
  }
  return G;
}

/// `g & g`: the guard itself, but no longer a `;`-conjunction of tests,
/// so its overlap pairs take the enumeration. (`!!(g)` would do too, but
/// the context folds the double negation straight back to g.)
const Node *nonCube(Context &Ctx, const Node *G) { return Ctx.unite(G, G); }

/// The overlap messages of `case { g1 -> out:=0 | … | else -> drop }`.
std::vector<std::string> overlapMessages(Context &Ctx,
                                         const std::vector<const Node *> &Gs,
                                         std::size_t Budget) {
  std::vector<CaseNode::Branch> Arms;
  for (std::size_t I = 0; I < Gs.size(); ++I)
    Arms.push_back({Gs[I], Ctx.assign(Ctx.field("out"),
                                      static_cast<FieldValue>(I))});
  AnalyzeOptions Opts;
  Opts.OverlapBudget = Budget;
  std::vector<std::string> Out;
  for (const Finding &F : analyze(Ctx, Ctx.caseOf(Arms, Ctx.drop()), Opts))
    if (F.Check == CheckKind::OverlappingCaseGuards)
      Out.push_back(F.Message);
  return Out;
}

} // namespace

TEST(AnalyzeOverlap, CubePairsMatchTheEnumeration) {
  Prng Rng(0xC0BEULL);
  std::size_t Reported = 0, Silenced = 0;
  for (unsigned Round = 0; Round < 300; ++Round) {
    Context Ctx;
    std::vector<const Node *> Cubes, Wrapped, Mixed;
    for (uint64_t Arm = 2 + Rng.below(4); Arm != 0; --Arm) {
      const Node *G = randomCube(Ctx, Rng, 3);
      Cubes.push_back(G);
      Wrapped.push_back(nonCube(Ctx, G));
      Mixed.push_back(Rng.below(2) ? G : Wrapped.back());
    }
    // 4096 is the default and bounds nothing here; the small budgets put
    // many pairs just over the line: every product of (distinct values +
    // 1) per field here is a product of 2s, 3s and 4s.
    std::size_t Unbounded = overlapMessages(Ctx, Wrapped, 4096).size();
    for (std::size_t Budget : {1, 2, 3, 4, 6, 8, 9, 12, 16, 4096}) {
      std::vector<std::string> Want = overlapMessages(Ctx, Wrapped, Budget);
      EXPECT_EQ(overlapMessages(Ctx, Cubes, Budget), Want)
          << "round " << Round << ", budget " << Budget;
      EXPECT_EQ(overlapMessages(Ctx, Mixed, Budget), Want)
          << "round " << Round << ", budget " << Budget;
      Reported += Want.size();
      Silenced += Unbounded - Want.size();
    }
  }
  // The sweep exercised both outcomes of the budget rule.
  EXPECT_GT(Reported, 0u);
  EXPECT_GT(Silenced, 0u);
}

TEST(AnalyzeOverlap, CubePairsJustOverTheDefaultBudgetStaySilent) {
  // Two equal cubes over n fields: 2^n candidate assignments. n = 12 is
  // exactly the default budget of 4096 and reports; n = 13 is over it.
  for (unsigned NumFields : {12u, 13u}) {
    Context Ctx;
    const Node *G = Ctx.skip();
    for (unsigned F = 0; F < NumFields; ++F)
      G = Ctx.seq(G, Ctx.test(Ctx.field("f" + std::to_string(F)), 1));
    std::vector<std::string> Cube =
        overlapMessages(Ctx, {G, G}, AnalyzeOptions{}.OverlapBudget);
    EXPECT_EQ(Cube, overlapMessages(Ctx, {nonCube(Ctx, G), nonCube(Ctx, G)},
                                    AnalyzeOptions{}.OverlapBudget));
    EXPECT_EQ(Cube.size(), NumFields == 12 ? 1u : 0u);
  }
}

TEST_F(AnalyzeTest, CubeOverlapWitnessesListEveryTestedField) {
  std::vector<Finding> Fs =
      lint("case { pt=2 ; sw=1 ; pt=2 -> pt:=1 | skip ; sw=1 -> pt:=3 "
           "| sw=1 ; sw=2 -> drop | skip -> drop | else -> drop }");
  std::vector<std::string> Messages;
  for (const Finding &F : Fs)
    if (F.Check == CheckKind::OverlappingCaseGuards)
      Messages.push_back(F.Message);
  EXPECT_EQ(Messages,
            (std::vector<std::string>{
                "case guards of arms 1 and 2 overlap (e.g. pt=2, sw=1); "
                "only the first match fires",
                "case guards of arms 1 and 4 overlap (e.g. pt=2, sw=1); "
                "only the first match fires",
                "case guards of arms 2 and 4 overlap (e.g. sw=1); only the "
                "first match fires"}));
}

//===----------------------------------------------------------------------===//
// Findings are computed on demand and never feed back into the facts
//===----------------------------------------------------------------------===//

namespace {

/// Every public fact of \p A about every node of \p P, in DFS order.
std::string factSnapshot(const DomainAnalysis &A, const Node *P) {
  std::string Out;
  auto Bit = [&Out](bool B) { Out += B ? '1' : '0'; };
  std::vector<const Node *> Stack{P};
  while (!Stack.empty()) {
    const Node *N = Stack.back();
    Stack.pop_back();
    Bit(A.reached(N));
    Bit(A.dropEquivalent(N));
    if (const auto *T = dyn_cast<TestNode>(N))
      Out += static_cast<char>('a' + static_cast<int>(A.testTruth(T)));
    else if (const auto *As = dyn_cast<AssignNode>(N))
      Bit(A.assignRedundant(As));
    else if (const auto *I = dyn_cast<IfThenElseNode>(N)) {
      Bit(A.branchReachable(I, true));
      Bit(A.branchReachable(I, false));
      Stack.insert(Stack.end(), {I->elseBranch(), I->thenBranch(), I->cond()});
    } else if (const auto *W = dyn_cast<WhileNode>(N)) {
      Bit(A.loopEntered(W));
      Bit(A.loopExits(W));
      Stack.insert(Stack.end(), {W->body(), W->cond()});
    } else if (const auto *C = dyn_cast<CaseNode>(N)) {
      for (std::size_t Arm = 0; Arm <= C->branches().size(); ++Arm)
        Bit(A.armReachable(C, Arm));
      for (std::size_t Arm = 0; Arm < C->branches().size(); ++Arm) {
        Bit(A.guardTotal(C, Arm));
        Stack.push_back(C->branches()[Arm].second);
        Stack.push_back(C->branches()[Arm].first);
      }
      Stack.push_back(C->defaultBranch());
    } else if (const auto *S = dyn_cast<SeqNode>(N))
      Stack.insert(Stack.end(), {S->rhs(), S->lhs()});
    else if (const auto *U = dyn_cast<UnionNode>(N))
      Stack.insert(Stack.end(), {U->rhs(), U->lhs()});
    else if (const auto *Ch = dyn_cast<ChoiceNode>(N))
      Stack.insert(Stack.end(), {Ch->rhs(), Ch->lhs()});
    else if (const auto *Ng = dyn_cast<NotNode>(N))
      Stack.push_back(Ng->operand());
    else if (const auto *St = dyn_cast<StarNode>(N))
      Stack.push_back(St->body());
    Out += ' ';
  }
  return Out;
}

std::vector<std::string> renderAll(const std::vector<Finding> &Fs) {
  std::vector<std::string> Out;
  for (const Finding &F : Fs)
    Out.push_back(F.render("p.pnk"));
  return Out;
}

} // namespace

TEST(AnalyzeProperty, FactsDoNotDependOnFindings) {
  for (unsigned I = 0; I < 100; ++I) {
    Context Ctx;
    gen::GenOptions GO;
    GO.PlantDeadArms = (I % 2 == 1);
    GO.WeightCase = I % 3 == 0 ? 12 : GO.WeightCase;
    const Node *P = gen::generateProgram(Ctx, 0xFAC75ULL + I, GO);
    const Node *Simplified = simplify(Ctx, P);

    DomainAnalysis A(Ctx, P);
    std::string Facts = factSnapshot(A, P);
    const std::vector<Finding> &First = A.findings();
    std::vector<std::string> Rendered = renderAll(First);
    EXPECT_EQ(factSnapshot(A, P), Facts) << "seed " << I;
    // A second call returns the same list, not a re-run appended to it.
    EXPECT_EQ(&A.findings(), &First);
    EXPECT_EQ(renderAll(A.findings()), Rendered) << "seed " << I;
    EXPECT_EQ(renderAll(analyze(Ctx, P)), Rendered) << "seed " << I;

    const Node *Again = simplify(Ctx, P);
    EXPECT_TRUE(Again == Simplified || structurallyEqual(Again, Simplified))
        << "seed " << I << ": " << print(P, Ctx.fields());
  }
}

//===----------------------------------------------------------------------===//
// Scale: the explicit-stack machines must survive deep programs
//===----------------------------------------------------------------------===//

TEST(AnalyzeDeep, DeepSeqChainsAnalyzeAndSimplify) {
  Context Ctx;
  FieldId F = Ctx.field("f0");
  const Node *P = Ctx.skip();
  for (unsigned I = 0; I < 50000; ++I)
    P = Ctx.seq(P, Ctx.assign(F, I % 3));
  DomainAnalysis A(Ctx, P);
  EXPECT_FALSE(A.findings().empty()); // Dead assignments throughout.
  // Everything but the last write is dead: one assignment survives.
  const Node *S = simplify(Ctx, P);
  EXPECT_TRUE(structurallyEqual(S, Ctx.assign(F, 49999 % 3)));
}

//===----------------------------------------------------------------------===//
// Soundness property: reference-equal FDDs and idempotence
//===----------------------------------------------------------------------===//

namespace {

/// One soundness probe: simplify must preserve the exact diagram and be
/// idempotent. \p Tag labels failures with a reproduction hint.
void checkSimplifySound(Context &Ctx, const Node *Program,
                        const std::string &Tag) {
  analysis::Verifier V(markov::SolverKind::Exact);
  fdd::FddRef E = V.compile(Program);
  const Node *S = simplify(Ctx, Program);
  EXPECT_TRUE(V.compile(S) == E)
      << Tag << ": simplified program compiles to a different diagram: "
      << print(Program, Ctx.fields());
  const Node *Again = simplify(Ctx, S);
  EXPECT_TRUE(Again == S || structurallyEqual(Again, S))
      << Tag << ": simplify is not idempotent: " << print(S, Ctx.fields());
}

} // namespace

TEST(AnalyzeProperty, SimplifySoundOnRandomPrograms) {
  for (unsigned I = 0; I < 200; ++I) {
    Context Ctx;
    gen::GenOptions GO;
    GO.PlantDeadArms = (I % 2 == 1); // Half with statically-dead arms.
    const Node *P = gen::generateProgram(Ctx, 0x5EEDBA5EULL + I, GO);
    checkSimplifySound(Ctx, P, "seed " + std::to_string(I));
  }
}

TEST(AnalyzeProperty, SimplifySoundOnScenarioRegistry) {
  for (const gen::ScenarioSpec &Spec : gen::buildRegistry()) {
    Context Ctx;
    gen::Scenario S = Spec.Build(Ctx);
    checkSimplifySound(Ctx, S.Program, S.Name);
  }
}

TEST(AnalyzeProperty, PlantedDeadArmsAreDetected) {
  // The generator's planted arms must actually exercise the checks: over
  // a seed sweep, at least one shadowed/unreachable arm finding appears.
  std::size_t Found = 0;
  for (unsigned I = 0; I < 20; ++I) {
    Context Ctx;
    gen::GenOptions GO;
    GO.PlantDeadArms = true;
    GO.WeightCase = 12; // Case-heavy so most programs have an arm to kill.
    const Node *P = gen::generateProgram(Ctx, 0xDEADULL + I, GO);
    for (const Finding &F : analyze(Ctx, P))
      Found += F.Check == CheckKind::ShadowedCaseArm ||
               F.Check == CheckKind::UnreachableCaseArm;
  }
  EXPECT_GT(Found, 0u);
}
