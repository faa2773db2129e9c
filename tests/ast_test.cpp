//===----------------------------------------------------------------------===//
///
/// \file
/// AST tests: RTTI, predicate classification, smart-constructor
/// normalizations, derived forms (n-ary choice, var, case), traversal
/// analyses, and printing.
///
//===----------------------------------------------------------------------===//

#include "ast/Context.h"
#include "ast/Hash.h"
#include "ast/Printer.h"
#include "ast/Traversal.h"
#include "parser/Parser.h"
#include "routing/Routing.h"
#include "support/Casting.h"
#include "support/Prng.h"
#include "topology/Topology.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

using namespace mcnk;
using namespace mcnk::ast;

namespace {

struct AstFixture : ::testing::Test {
  Context Ctx;
  FieldId Sw = Ctx.field("sw");
  FieldId Pt = Ctx.field("pt");
};

} // namespace

using AstTest = AstFixture;

TEST_F(AstTest, KindsAndRtti) {
  const Node *T = Ctx.test(Sw, 1);
  EXPECT_TRUE(isa<TestNode>(T));
  EXPECT_FALSE(isa<AssignNode>(T));
  EXPECT_EQ(cast<TestNode>(T)->field(), Sw);
  EXPECT_EQ(cast<TestNode>(T)->value(), 1u);
  EXPECT_EQ(dyn_cast<AssignNode>(T), nullptr);
  const Node *A = Ctx.assign(Pt, 2);
  EXPECT_NE(dyn_cast<AssignNode>(A), nullptr);
}

TEST_F(AstTest, PredicateClassification) {
  const Node *T1 = Ctx.test(Sw, 1);
  const Node *T2 = Ctx.test(Pt, 2);
  EXPECT_TRUE(Ctx.drop()->isPredicate());
  EXPECT_TRUE(Ctx.skip()->isPredicate());
  EXPECT_TRUE(T1->isPredicate());
  EXPECT_TRUE(Ctx.seq(T1, T2)->isPredicate());       // Conjunction.
  EXPECT_TRUE(Ctx.unite(T1, T2)->isPredicate());     // Disjunction.
  EXPECT_TRUE(Ctx.negate(T1)->isPredicate());
  EXPECT_FALSE(Ctx.assign(Sw, 1)->isPredicate());
  EXPECT_FALSE(Ctx.seq(T1, Ctx.assign(Pt, 2))->isPredicate());
  EXPECT_FALSE(Ctx.choice(Rational(1, 2), T1, T2)->isPredicate());
}

TEST_F(AstTest, SmartConstructorNormalization) {
  const Node *P = Ctx.assign(Pt, 2);
  // skip/drop units and absorption for ';'.
  EXPECT_EQ(Ctx.seq(Ctx.skip(), P), P);
  EXPECT_EQ(Ctx.seq(P, Ctx.skip()), P);
  EXPECT_EQ(Ctx.seq(Ctx.drop(), P), Ctx.drop());
  EXPECT_EQ(Ctx.seq(P, Ctx.drop()), Ctx.drop());
  // drop is the unit of '&'.
  EXPECT_EQ(Ctx.unite(Ctx.drop(), P), P);
  EXPECT_EQ(Ctx.unite(P, Ctx.drop()), P);
  // Trivial probabilities collapse.
  const Node *Q = Ctx.assign(Pt, 3);
  EXPECT_EQ(Ctx.choice(Rational(1), P, Q), P);
  EXPECT_EQ(Ctx.choice(Rational(0), P, Q), Q);
  EXPECT_EQ(Ctx.choice(Rational(1, 2), P, P), P);
  // Double negation and constant negations.
  const Node *T = Ctx.test(Sw, 1);
  EXPECT_EQ(Ctx.negate(Ctx.negate(T)), T);
  EXPECT_EQ(Ctx.negate(Ctx.drop()), Ctx.skip());
  EXPECT_EQ(Ctx.negate(Ctx.skip()), Ctx.drop());
  // Trivial guards collapse.
  EXPECT_EQ(Ctx.ite(Ctx.skip(), P, Q), P);
  EXPECT_EQ(Ctx.ite(Ctx.drop(), P, Q), Q);
  EXPECT_EQ(Ctx.whileLoop(Ctx.drop(), P), Ctx.skip());
  // Star of constants.
  EXPECT_EQ(Ctx.star(Ctx.skip()), Ctx.skip());
  EXPECT_EQ(Ctx.star(Ctx.drop()), Ctx.skip());
}

TEST_F(AstTest, UniformChoiceProbabilities) {
  const Node *A = Ctx.assign(Pt, 1);
  const Node *B = Ctx.assign(Pt, 2);
  const Node *C = Ctx.assign(Pt, 3);
  const Node *U = Ctx.choiceUniform({A, B, C});
  // p1 ⊕_{1/3} (p2 ⊕_{1/2} p3).
  const auto *Outer = dyn_cast<ChoiceNode>(U);
  ASSERT_NE(Outer, nullptr);
  EXPECT_EQ(Outer->probability(), Rational(1, 3));
  const auto *Inner = dyn_cast<ChoiceNode>(Outer->rhs());
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Inner->probability(), Rational(1, 2));
}

TEST_F(AstTest, WeightedChoiceFromPaperSection2) {
  // f1 ≜ ⊕ { f0 @ 1/2, a @ 1/4, b @ 1/4 } — §2's failure model shape.
  const Node *F0 = Ctx.skip();
  const Node *A = Ctx.assign(Pt, 1);
  const Node *B = Ctx.assign(Pt, 2);
  const Node *W = Ctx.choiceWeighted(
      {{F0, Rational(1, 2)}, {A, Rational(1, 4)}, {B, Rational(1, 4)}});
  const auto *Outer = dyn_cast<ChoiceNode>(W);
  ASSERT_NE(Outer, nullptr);
  EXPECT_EQ(Outer->probability(), Rational(1, 2));
  EXPECT_EQ(Outer->lhs(), F0);
  const auto *Inner = dyn_cast<ChoiceNode>(Outer->rhs());
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Inner->probability(), Rational(1, 2)); // 1/4 renormalized.
}

TEST_F(AstTest, LocalDesugarsToAssignSandwich) {
  // var f := 1 in p  ≜  f := 1 ; p ; f := 0.
  const Node *Body = Ctx.test(Sw, 1);
  const Node *L = Ctx.local(Pt, 1, Body);
  const auto *S = dyn_cast<SeqNode>(L);
  ASSERT_NE(S, nullptr);
  const auto *First = dyn_cast<AssignNode>(S->lhs());
  ASSERT_NE(First, nullptr);
  EXPECT_EQ(First->value(), 1u);
  const auto *Rest = dyn_cast<SeqNode>(S->rhs());
  ASSERT_NE(Rest, nullptr);
  EXPECT_EQ(Rest->lhs(), Body);
  EXPECT_EQ(cast<AssignNode>(Rest->rhs())->value(), 0u);
}

TEST_F(AstTest, StructuralEqualityAndHash) {
  const Node *A = Ctx.seq(Ctx.test(Sw, 1), Ctx.assign(Pt, 2));
  const Node *B = Ctx.seq(Ctx.test(Sw, 1), Ctx.assign(Pt, 2));
  const Node *C = Ctx.seq(Ctx.test(Sw, 2), Ctx.assign(Pt, 2));
  EXPECT_NE(A, B); // Different allocations...
  EXPECT_TRUE(structurallyEqual(A, B));
  EXPECT_EQ(structuralHash(A), structuralHash(B));
  EXPECT_FALSE(structurallyEqual(A, C));
}

TEST_F(AstTest, GuardedFragmentCheck) {
  const Node *T = Ctx.test(Sw, 1);
  const Node *P = Ctx.assign(Pt, 2);
  EXPECT_TRUE(isGuarded(Ctx.ite(T, P, Ctx.drop())));
  EXPECT_TRUE(isGuarded(Ctx.whileLoop(Ctx.negate(T), P)));
  EXPECT_TRUE(isGuarded(Ctx.unite(T, Ctx.test(Pt, 7)))); // Predicate union.
  EXPECT_FALSE(isGuarded(Ctx.star(P)));
  EXPECT_FALSE(isGuarded(Ctx.unite(P, Ctx.assign(Pt, 3))));
  EXPECT_FALSE(isGuarded(Ctx.seq(T, Ctx.star(P))));
  // Choice is allowed in the guarded fragment.
  EXPECT_TRUE(isGuarded(Ctx.choice(Rational(1, 2), P, Ctx.drop())));
}

TEST_F(AstTest, CollectValues) {
  const Node *P = Ctx.ite(Ctx.test(Sw, 1), Ctx.assign(Pt, 2),
                          Ctx.seq(Ctx.test(Pt, 3), Ctx.assign(Sw, 4)));
  auto Values = collectValues(P);
  EXPECT_EQ(Values[Sw], (std::set<FieldValue>{1, 4}));
  EXPECT_EQ(Values[Pt], (std::set<FieldValue>{2, 3}));
}

TEST_F(AstTest, CountAndDepth) {
  const Node *T = Ctx.test(Sw, 1);
  EXPECT_EQ(countNodes(T), 1u);
  EXPECT_EQ(depth(T), 1u);
  const Node *P = Ctx.seq(T, Ctx.seq(Ctx.assign(Pt, 1), Ctx.assign(Pt, 2)));
  EXPECT_EQ(countNodes(P), 5u);
  EXPECT_EQ(depth(P), 3u);
}

TEST_F(AstTest, TraversalsSurviveDeepTermsOffTheMainThread) {
  // A 200k-deep `;` spine — the shape of a parsed 200k-element chain —
  // walked on a std::thread, as a serve session would.
  auto chain = [this] {
    const Node *P = Ctx.test(Sw, 1);
    for (unsigned I = 1; I < 200000; ++I)
      P = Ctx.seq(P, I % 2 ? Ctx.assign(Pt, I % 3) : Ctx.test(Sw, 1));
    return P;
  };
  const Node *P = chain(), *Q = chain();
  const Node *R = Ctx.seq(P, Ctx.test(Sw, 2));
  std::thread Walker([&] {
    EXPECT_EQ(countNodes(P), 399999u);
    EXPECT_EQ(depth(P), 200000u);
    EXPECT_TRUE(isGuarded(P));
    EXPECT_FALSE(isGuarded(Ctx.seq(P, Ctx.star(Ctx.assign(Pt, 1)))));
    EXPECT_TRUE(structurallyEqual(P, Q));
    EXPECT_FALSE(structurallyEqual(R, Ctx.seq(Q, Ctx.test(Sw, 3))));
    EXPECT_EQ(structuralHash(P), structuralHash(Q));
    EXPECT_EQ(collectValues(P)[Pt], (std::set<FieldValue>{0, 1, 2}));
  });
  Walker.join();
  // A doubling DAG: 2^60 occurrences of 61 distinct nodes. collectValues
  // visits each shared node once.
  const Node *D = Ctx.assign(Pt, 5);
  for (unsigned I = 0; I < 60; ++I)
    D = Ctx.seq(D, D);
  EXPECT_EQ(collectValues(D)[Pt], (std::set<FieldValue>{5}));
}

TEST_F(AstTest, PrintBasics) {
  EXPECT_EQ(print(Ctx.drop(), Ctx.fields()), "drop");
  EXPECT_EQ(print(Ctx.test(Sw, 1), Ctx.fields()), "sw=1");
  EXPECT_EQ(print(Ctx.assign(Pt, 2), Ctx.fields()), "pt:=2");
  EXPECT_EQ(print(Ctx.seq(Ctx.test(Sw, 1), Ctx.assign(Pt, 2)), Ctx.fields()),
            "sw=1 ; pt:=2");
  EXPECT_EQ(print(Ctx.negate(Ctx.test(Sw, 1)), Ctx.fields()), "!sw=1");
  const Node *Choice = Ctx.choice(Rational(1, 2), Ctx.assign(Pt, 2),
                                  Ctx.assign(Pt, 3));
  EXPECT_EQ(print(Choice, Ctx.fields()), "pt:=2 +[1/2] pt:=3");
  const Node *Ite =
      Ctx.ite(Ctx.test(Sw, 1), Ctx.assign(Pt, 2), Ctx.drop());
  EXPECT_EQ(print(Ite, Ctx.fields()), "if sw=1 then pt:=2 else drop");
}

TEST_F(AstTest, PrintParenthesizesNestedIf) {
  const Node *Inner = Ctx.ite(Ctx.test(Sw, 2), Ctx.assign(Pt, 9), Ctx.drop());
  const Node *Outer = Ctx.ite(Ctx.test(Sw, 1), Ctx.assign(Pt, 2), Inner);
  EXPECT_EQ(print(Outer, Ctx.fields()),
            "if sw=1 then pt:=2 else (if sw=2 then pt:=9 else drop)");
  // A while in a sequence must parenthesize.
  const Node *W = Ctx.whileLoop(Ctx.negate(Ctx.test(Sw, 1)),
                                Ctx.assign(Sw, 1));
  const Node *S = Ctx.seq(Ctx.test(Pt, 1), W);
  EXPECT_EQ(print(S, Ctx.fields()), "pt=1 ; (while !sw=1 do sw:=1)");
}

TEST_F(AstTest, CasePrintsWithSurfaceSyntax) {
  std::vector<CaseNode::Branch> Branches = {
      {Ctx.test(Sw, 1), Ctx.assign(Pt, 1)},
      {Ctx.test(Sw, 2), Ctx.assign(Pt, 2)},
  };
  const Node *C = Ctx.caseOf(std::move(Branches), Ctx.drop());
  EXPECT_EQ(print(C, Ctx.fields()),
            "case { sw=1 -> pt:=1 | sw=2 -> pt:=2 | else -> drop }");
}

//===----------------------------------------------------------------------===//
// Structural fingerprints (ast/Hash.h) — the compile-cache keys
//===----------------------------------------------------------------------===//

TEST_F(AstTest, FingerprintIsDeterministicAndContextFree) {
  const Node *P = Ctx.seq(Ctx.test(Sw, 1), Ctx.assign(Pt, 2));
  EXPECT_EQ(programHash(P), programHash(P));
  // A structurally identical term built in a fresh context (same numeric
  // field ids) fingerprints identically: the hash sees structure, not
  // arena pointers or field names.
  Context Other;
  FieldId OSw = Other.field("switch"); // Same id, different name.
  FieldId OPt = Other.field("port");
  ASSERT_EQ(OSw, Sw);
  ASSERT_EQ(OPt, Pt);
  const Node *Q = Other.seq(Other.test(OSw, 1), Other.assign(OPt, 2));
  EXPECT_EQ(programHash(P), programHash(Q));
}

TEST_F(AstTest, FingerprintSeparatesDistinctPrograms) {
  const Node *P = Ctx.seq(Ctx.test(Sw, 1), Ctx.assign(Pt, 2));
  EXPECT_NE(programHash(P),
            programHash(Ctx.seq(Ctx.test(Sw, 2), Ctx.assign(Pt, 2))));
  EXPECT_NE(programHash(P),
            programHash(Ctx.seq(Ctx.test(Pt, 1), Ctx.assign(Pt, 2))));
  EXPECT_NE(programHash(Ctx.test(Sw, 1)),
            programHash(Ctx.assign(Sw, 1)));
  EXPECT_NE(programHash(Ctx.drop()), programHash(Ctx.skip()));
  // Program (non-predicate) sequencing is order-sensitive.
  const Node *AB = Ctx.seq(Ctx.assign(Sw, 1), Ctx.assign(Sw, 2));
  const Node *BA = Ctx.seq(Ctx.assign(Sw, 2), Ctx.assign(Sw, 1));
  EXPECT_NE(programHash(AB), programHash(BA));
}

TEST_F(AstTest, FingerprintCommutativityMatchesFddInvariance) {
  const Node *T = Ctx.test(Sw, 1);
  const Node *U = Ctx.test(Pt, 2);
  // Predicate disjunction and predicate conjunction commute.
  EXPECT_EQ(programHash(Ctx.unite(T, U)), programHash(Ctx.unite(U, T)));
  EXPECT_EQ(programHash(Ctx.seq(T, U)), programHash(Ctx.seq(U, T)));
  // But `t & u` must not collide with `t ; u`.
  EXPECT_NE(programHash(Ctx.unite(T, U)), programHash(Ctx.seq(T, U)));
  // Choice reversal: p (+)_r q == q (+)_{1-r} p ...
  const Node *P = Ctx.assign(Sw, 1);
  const Node *Q = Ctx.assign(Sw, 2);
  EXPECT_EQ(programHash(Ctx.choice(Rational(1, 3), P, Q)),
            programHash(Ctx.choice(Rational(2, 3), Q, P)));
  // ... while a plain operand swap at the same bias stays distinct.
  EXPECT_NE(programHash(Ctx.choice(Rational(1, 3), P, Q)),
            programHash(Ctx.choice(Rational(1, 3), Q, P)));
}

TEST_F(AstTest, FingerprintTreeMemoizesAndSizesSubterms) {
  const Node *Leafy = Ctx.test(Sw, 1);
  const Node *P = Ctx.ite(Leafy, Ctx.assign(Pt, 1), Ctx.assign(Pt, 2));
  FingerprintMemo Memo(P);
  EXPECT_EQ(Memo.at(P).Size, 4u); // ite + test + two assigns.
  ASSERT_NE(Memo.find(Leafy), nullptr);
  EXPECT_EQ(Memo.at(Leafy).Size, 1u);
  // A superterm's memo holds every subterm, shared ones once.
  const Node *Bigger = Ctx.seq(P, P);
  FingerprintMemo BiggerMemo(Bigger);
  EXPECT_EQ(BiggerMemo.at(Bigger).Size, 9u); // Shared subterm counted twice.
  EXPECT_EQ(BiggerMemo.at(P).Hash, Memo.at(P).Hash);
  EXPECT_EQ(programHash(Bigger), BiggerMemo.at(Bigger).Hash);
  EXPECT_EQ(Memo.find(Bigger), nullptr); // Not in P's term.
}

TEST_F(AstTest, FingerprintMemoRejectsNodesOfTwoContexts) {
  Context Other;
  const Node *Mine = Ctx.seq(Ctx.test(Sw, 1), Ctx.assign(Pt, 2));
  const Node *Theirs =
      Other.seq(Other.test(Other.field("sw"), 1), Other.assign(0, 2));
  ASSERT_EQ(Mine->id(), Theirs->id()); // Same shape, same ids.
  // A pointer-keyed memo would have taken the foreign node silently; the
  // id-indexed one must not hand it Mine's entry.
  EXPECT_EQ(FingerprintMemo(Mine).find(Theirs), nullptr);
  // A term that mixes both Contexts puts two nodes on one slot.
  const Node *Mixed = Ctx.seq(Mine, Theirs);
  EXPECT_DEATH_IF_SUPPORTED(FingerprintMemo{Mixed}, "two Contexts");
}

namespace {
/// The fingerprint of \p Text parsed in a fresh Context, as 32 hex digits
/// (Lo lane first).
std::string parsedHash(const std::string &Text) {
  Context C;
  parser::ParseResult R = parser::parseProgram(Text, C);
  EXPECT_TRUE(R.ok()) << Text;
  if (!R.ok())
    return "";
  ProgramHash H = programHash(R.Program);
  char Buf[33];
  std::snprintf(Buf, sizeof Buf, "%016" PRIx64 "%016" PRIx64, H.Lo, H.Hi);
  return Buf;
}
} // namespace

// Fingerprints are the keys of the persistent compile-cache store: a
// change to any of these literals orphans every stored entry. They must
// stay byte-identical across refactors of the AST and the hash walk.
TEST(FingerprintPinTest, ParsedProgramsKeepTheirStoreKeys) {
  EXPECT_EQ(parsedHash("pt:=1 +[1/3] (pt:=2 +[1/2] (sw:=1 ; pt:=3)) ; "
                       "(sw=1 ; pt:=4 +[0.25] drop) +[2/7] skip"),
            "1fd2889bd71cef9230b9ce6d846393c9");
  EXPECT_EQ(parsedHash("case { sw=1 -> pt:=1 | sw=2 & pt=3 -> "
                       "(pt:=2 +[1/2] pt:=4) | else -> drop }"),
            "af9e971605b03eb1e2c5d4752005f66c");
  EXPECT_EQ(parsedHash("sw:=1 ; while !(sw=2 ; pt=2) do "
                       "(if pt=1 then sw:=2 else pt:=1 +[9/10] pt:=2)"),
            "d0b52863d36654ed58d42f65b361f198");

  // A printed AB FatTree p=4 F10_3,5 hop-count model, parsed back.
  Context Built;
  topology::FatTreeLayout L;
  topology::makeAbFatTree(4, L);
  routing::ModelOptions O;
  O.RoutingScheme = routing::Scheme::F1035;
  O.Failures = routing::FailureModel::iid(Rational(1, 4));
  O.CountHops = true;
  O.HopCap = 14;
  routing::NetworkModel M = routing::buildFatTreeModel(L, O, Built);
  EXPECT_EQ(parsedHash(print(M.Program, Built.fields())), "41bcbf3424d07d4231ad3ef0e6831a95");
}

TEST(FingerprintWeightTest, FastRenderingHashesLikeToString) {
  // The reference route: FNV-1a over Rational::toString, whose bytes the
  // stack rendering must reproduce (store keys depend on them).
  auto Fnv = [](const std::string &S) {
    uint64_t H = 0xcbf29ce484222325ULL;
    for (unsigned char C : S) {
      H ^= C;
      H *= 0x100000001b3ULL;
    }
    return H;
  };
  auto Check = [&](const Rational &R) {
    const auto [Weight, Complement] = choiceWeightHashes(R);
    EXPECT_EQ(Weight, Fnv(R.toString())) << R.toString();
    EXPECT_EQ(Complement, Fnv((Rational(1) - R).toString())) << R.toString();
  };
  const int64_t Max = INT64_MAX;
  for (const Rational &R :
       {Rational(0), Rational(1), Rational(1, 2), Rational(1, 3),
        Rational(2, 3), Rational(1, Max), Rational(Max - 1, Max),
        Rational(Max), Rational(-1, 3), Rational(5, 2), Rational(INT64_MIN),
        Rational(INT64_MIN + 1, Max)})
    Check(R);
  Prng Rng(0x5eed);
  for (int I = 0; I < 2000; ++I) {
    // Small pairs: denominators up to 2^62, numerators below them.
    int64_t Den = static_cast<int64_t>(Rng.below(uint64_t(1) << (I % 63))) + 1;
    int64_t Num = static_cast<int64_t>(Rng.below(static_cast<uint64_t>(Den)));
    Check(Rational(Num, Den));
    // Multi-limb: N / (N + M) for products N, M of random words.
    BigInt BigDen(1), BigNum(1);
    for (int W = 0, Words = 1 + I % 4; W < Words; ++W) {
      BigDen = BigDen * BigInt(static_cast<int64_t>(Rng.next() >> 2) + 2);
      BigNum = BigNum * BigInt(static_cast<int64_t>(Rng.next() >> 3) + 1);
    }
    Check(Rational(BigNum, BigNum + BigDen));
  }
}
