//===----------------------------------------------------------------------===//
///
/// \file
/// Verifier-facade tests: solver-mode behavior, aggregate delivery,
/// output-field distributions, and the hop-statistics arithmetic used by
/// the Fig 12 analyses.
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "ast/Context.h"
#include "fdd/Export.h"

#include <gtest/gtest.h>

using namespace mcnk;
using namespace mcnk::analysis;
using ast::Context;
using ast::Node;

namespace {

struct VerifierFixture : ::testing::Test {
  Context Ctx;
  FieldId F = Ctx.field("f");
  FieldId G = Ctx.field("g");

  Packet packet(FieldValue VF, FieldValue VG) {
    Packet P(2);
    P.set(F, VF);
    P.set(G, VG);
    return P;
  }
};

} // namespace

using VerifierTest = VerifierFixture;

TEST_F(VerifierTest, DeliveryProbability) {
  Verifier V;
  // f=0 ; (g:=1 ⊕¾ drop).
  fdd::FddRef P = V.compile(Ctx.seq(
      Ctx.test(F, 0),
      Ctx.choice(Rational(3, 4), Ctx.assign(G, 1), Ctx.drop())));
  EXPECT_EQ(V.deliveryProbability(P, packet(0, 0)), Rational(3, 4));
  EXPECT_EQ(V.deliveryProbability(P, packet(1, 0)), Rational(0));
  // Average over one passing and one failing ingress.
  EXPECT_EQ(V.averageDeliveryProbability(P, {packet(0, 0), packet(1, 0)}),
            Rational(3, 8));
}

TEST_F(VerifierTest, OutputFieldDistribution) {
  Verifier V;
  fdd::FddRef P = V.compile(Ctx.choice(
      Rational(1, 2), Ctx.assign(G, 1),
      Ctx.choice(Rational(1, 2), Ctx.assign(G, 2), Ctx.drop())));
  auto Dist = V.outputFieldDistribution(P, packet(0, 0), G);
  EXPECT_EQ(Dist[1], Rational(1, 2));
  EXPECT_EQ(Dist[2], Rational(1, 4));
  EXPECT_EQ(Dist.count(0), 0u);
}

TEST_F(VerifierTest, HopStatsArithmetic) {
  Verifier V;
  // Two "ingresses": one takes 2 hops w.p. 1, the other 4 hops w.p. 1/2
  // (dropped otherwise). Encode hops directly in field G.
  fdd::FddRef P = V.compile(Ctx.ite(
      Ctx.test(F, 0), Ctx.assign(G, 2),
      Ctx.choice(Rational(1, 2), Ctx.assign(G, 4), Ctx.drop())));
  HopStats Stats = V.hopStats(P, {packet(0, 0), packet(1, 0)}, G);
  // Delivered: 1/2·1 + 1/2·1/2 = 3/4.
  EXPECT_EQ(Stats.Delivered, Rational(3, 4));
  EXPECT_EQ(Stats.Histogram[2], Rational(1, 2));
  EXPECT_EQ(Stats.Histogram[4], Rational(1, 4));
  // CDF: ≤2 -> 1/2; ≤4 -> 3/4; monotone.
  EXPECT_EQ(Stats.cumulative(2), Rational(1, 2));
  EXPECT_EQ(Stats.cumulative(4), Rational(3, 4));
  EXPECT_EQ(Stats.cumulative(3), Rational(1, 2));
  // E[hops | delivered] = (2·1/2 + 4·1/4) / (3/4) = 8/3.
  EXPECT_NEAR(Stats.expectedGivenDelivered(), 8.0 / 3.0, 1e-12);
}

TEST_F(VerifierTest, HopStatsEmptyDelivery) {
  Verifier V;
  fdd::FddRef P = V.compile(Ctx.drop());
  HopStats Stats = V.hopStats(P, {packet(0, 0)}, G);
  EXPECT_EQ(Stats.Delivered, Rational(0));
  EXPECT_EQ(Stats.expectedGivenDelivered(), 0.0);
}

TEST_F(VerifierTest, SolverModesAgreeOnEquivalence) {
  // A loopy program where the float solvers snap to exact 0/1 values.
  const Node *Loop = Ctx.whileLoop(
      Ctx.test(F, 0),
      Ctx.choice(Rational(1, 2), Ctx.assign(F, 1), Ctx.assign(F, 0)));
  const Node *Spec = Ctx.ite(Ctx.test(F, 0), Ctx.assign(F, 1), Ctx.skip());

  Verifier Exact(markov::SolverKind::Exact);
  EXPECT_TRUE(Exact.equivalent(Exact.compile(Loop), Exact.compile(Spec)));

  Verifier Direct(markov::SolverKind::Direct);
  EXPECT_TRUE(
      Direct.equivalent(Direct.compile(Loop), Direct.compile(Spec)));

  Verifier Iter(markov::SolverKind::Iterative);
  EXPECT_TRUE(Iter.equivalent(Iter.compile(Loop), Iter.compile(Spec)));
}

TEST_F(VerifierTest, StrictRefinementIsIrreflexive) {
  Verifier V;
  fdd::FddRef P = V.compile(Ctx.assign(F, 1));
  EXPECT_TRUE(V.refines(P, P));
  EXPECT_FALSE(V.strictlyRefines(P, P));
}

TEST_F(VerifierTest, ParallelCompileMatchesSerial) {
  // A `case` over loops compiles to the same diagram in two verifiers
  // (reference-equal after an export/import round trip).
  std::vector<ast::CaseNode::Branch> Branches;
  for (FieldValue Val = 0; Val < 6; ++Val)
    Branches.push_back(
        {Ctx.test(F, Val),
         Ctx.whileLoop(Ctx.test(G, 0),
                       Ctx.choice(Rational(1, 2), Ctx.assign(G, Val + 1),
                                  Ctx.assign(G, 0)))});
  const Node *C = Ctx.caseOf(std::move(Branches), Ctx.drop());
  Verifier Serial, Other;
  fdd::FddRef R = Other.compile(C);
  EXPECT_EQ(
      fdd::importFdd(Serial.manager(), fdd::exportFdd(Other.manager(), R)),
      Serial.compile(C));
}
