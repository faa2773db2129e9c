//===----------------------------------------------------------------------===//
///
/// \file
/// Routing/model-synthesis tests. The §2 running example is checked
/// against every number the paper reports (teleport equivalences,
/// 1-resilience, the 80%/96% delivery probabilities, refinement chain);
/// FatTree models are checked for delivery, failure response, resilience
/// (the Fig 11b pattern at p=4), and hop-count behavior; the chain model
/// against its closed form (1 - pfail/2)^K.
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "ast/Traversal.h"
#include "fdd/Compile.h"
#include "fdd/Export.h"
#include "routing/Routing.h"

#include <gtest/gtest.h>

using namespace mcnk;
using namespace mcnk::routing;
using analysis::Verifier;
using ast::Context;

//===----------------------------------------------------------------------===//
// §2 running example
//===----------------------------------------------------------------------===//

struct TriangleTest : ::testing::Test {
  Context Ctx;
  TriangleExample Ex = buildTriangleExample(Ctx);
  Verifier V;

  fdd::FddRef compile(const ast::Node *P) { return V.compile(P); }
};

TEST_F(TriangleTest, ProgramsAreGuarded) {
  EXPECT_TRUE(ast::isGuarded(Ex.NaiveF2));
  EXPECT_TRUE(ast::isGuarded(Ex.ResilientF2));
  EXPECT_TRUE(ast::isGuarded(Ex.Teleport));
}

TEST_F(TriangleTest, NoFailuresBothSchemesTeleport) {
  // M̂(p, t̂, f0) ≡ M̂(p̂, t̂, f0) ≡ in ; sw:=2 ; pt:=2.
  fdd::FddRef Tele = compile(Ex.Teleport);
  EXPECT_TRUE(V.equivalent(compile(Ex.NaiveF0), Tele));
  EXPECT_TRUE(V.equivalent(compile(Ex.ResilientF0), Tele));
}

TEST_F(TriangleTest, ResilientIsOneResilient) {
  // M̂(p̂, t̂, f1) ≡ teleport but M̂(p, t̂, f1) is not (§2).
  fdd::FddRef Tele = compile(Ex.Teleport);
  EXPECT_TRUE(V.equivalent(compile(Ex.ResilientF1), Tele));
  EXPECT_FALSE(V.equivalent(compile(Ex.NaiveF1), Tele));
}

TEST_F(TriangleTest, DeliveryProbabilitiesMatchPaper) {
  // "80% for the naive scheme and 96% for the resilient scheme" under f2.
  Packet In = Ex.ingressPacket(Ctx);
  EXPECT_EQ(V.deliveryProbability(compile(Ex.NaiveF2), In),
            Rational(4, 5));
  EXPECT_EQ(V.deliveryProbability(compile(Ex.ResilientF2), In),
            Rational(24, 25));
}

TEST_F(TriangleTest, RefinementChainUnderF2) {
  // M̂(p, t̂, f2) < M̂(p̂, t̂, f2) < teleport (§2).
  fdd::FddRef Naive = compile(Ex.NaiveF2);
  fdd::FddRef Resilient = compile(Ex.ResilientF2);
  fdd::FddRef Tele = compile(Ex.Teleport);
  EXPECT_TRUE(V.strictlyRefines(Naive, Resilient));
  EXPECT_TRUE(V.strictlyRefines(Resilient, Tele));
  EXPECT_FALSE(V.refines(Resilient, Naive));
  // drop < everything.
  EXPECT_TRUE(V.strictlyRefines(V.compile(Ctx.drop()), Naive));
}

TEST_F(TriangleTest, NaiveUnderF1DeliversThreeQuarters) {
  // f1: no failure w.p. 1/2, up2 down w.p. 1/4 (lost), up3 down w.p. 1/4
  // (harmless for the naive path). Delivery = 3/4.
  Packet In = Ex.ingressPacket(Ctx);
  EXPECT_EQ(V.deliveryProbability(compile(Ex.NaiveF1), In),
            Rational(3, 4));
}

//===----------------------------------------------------------------------===//
// Synthesis helpers
//===----------------------------------------------------------------------===//

TEST(SamplerTest, BoundedFailureEnumeration) {
  // f_k with two flags, k=1, pr=1/3 reproduces §2's f1 weights
  // (1/2, 1/4, 1/4).
  Context Ctx;
  FieldId A = Ctx.field("up2"), B = Ctx.field("up3");
  const ast::Node *F = sampleFlags(Ctx, {A, B}, Rational(1, 3), 1);
  Verifier V;
  fdd::FddRef Ref = V.compile(F);
  Packet In(2);
  auto Out = V.manager().outputDistribution(Ref, In);
  Packet BothUp(2);
  BothUp.set(A, 1);
  BothUp.set(B, 1);
  EXPECT_EQ(Out.Outputs[BothUp], Rational(1, 2));
  EXPECT_EQ(Out.Outputs[BothUp.with(A, 0)], Rational(1, 4));
  EXPECT_EQ(Out.Outputs[BothUp.with(B, 0)], Rational(1, 4));
  // The double-failure pattern is excluded by the bound.
  Packet BothDown(2);
  EXPECT_EQ(Out.Outputs.count(BothDown), 0u);
}

TEST(SamplerTest, UnboundedIsIndependent) {
  Context Ctx;
  FieldId A = Ctx.field("u1"), B = Ctx.field("u2");
  const ast::Node *F =
      sampleFlags(Ctx, {A, B}, Rational(1, 5), FailureModel::Unbounded);
  Verifier V;
  fdd::FddRef Ref = V.compile(F);
  auto Out = V.manager().outputDistribution(Ref, Packet(2));
  Packet UpUp(2);
  UpUp.set(A, 1);
  UpUp.set(B, 1);
  EXPECT_EQ(Out.Outputs[UpUp], Rational(16, 25));
  EXPECT_EQ(Out.Outputs[Packet(2)], Rational(1, 25)); // Both down.
}

TEST(SamplerTest, HopIncrementSaturates) {
  Context Ctx;
  FieldId Hop = Ctx.field("hop");
  const ast::Node *Inc = hopIncrement(Ctx, Hop, 3);
  Verifier V;
  fdd::FddRef Ref = V.compile(Inc);
  for (FieldValue Start : {0u, 1u, 2u, 3u, 9u}) {
    Packet In(1);
    In.set(Hop, Start);
    auto Out = V.manager().outputDistribution(Ref, In);
    FieldValue Expected = Start >= 3 ? 3u : Start + 1;
    Packet Want(1);
    Want.set(Hop, Expected);
    EXPECT_EQ(Out.Outputs[Want], Rational(1)) << "start " << Start;
  }
}

//===----------------------------------------------------------------------===//
// FatTree models
//===----------------------------------------------------------------------===//

namespace {

struct FatTreeCase {
  Scheme S;
  bool AB;
  unsigned MaxFail; // Per-hop bound k.
  bool ExpectTeleport;
};

} // namespace

class FatTreeResilience : public ::testing::TestWithParam<FatTreeCase> {};

TEST_P(FatTreeResilience, MatchesFigure11b) {
  const FatTreeCase &C = GetParam();
  Context Ctx;
  topology::FatTreeLayout L;
  if (C.AB)
    topology::makeAbFatTree(4, L);
  else
    topology::makeFatTree(4, L);

  ModelOptions O;
  O.RoutingScheme = C.S;
  O.Failures = C.MaxFail == 0
                   ? FailureModel::none()
                   : FailureModel::bounded(Rational(1, 100), C.MaxFail);
  NetworkModel M = buildFatTreeModel(L, O, Ctx);

  Verifier V;
  fdd::FddRef Model = V.compile(M.Program);
  fdd::FddRef Tele = V.compile(M.Teleport);
  EXPECT_EQ(V.equivalent(Model, Tele), C.ExpectTeleport);
  // Regardless, the model refines its spec.
  EXPECT_TRUE(V.refines(Model, Tele));
}

INSTANTIATE_TEST_SUITE_P(
    Fig11b, FatTreeResilience,
    ::testing::Values(
        // k = 0: every scheme teleports.
        FatTreeCase{Scheme::F100, true, 0, true},
        FatTreeCase{Scheme::F103, true, 0, true},
        FatTreeCase{Scheme::F1035, true, 0, true},
        // k = 1: F100 already fails; the rerouting schemes hold.
        FatTreeCase{Scheme::F100, true, 1, false},
        FatTreeCase{Scheme::F103, true, 1, true},
        FatTreeCase{Scheme::F1035, true, 1, true},
        // k = 2: F103 still holds (one opposite-type agg survives).
        FatTreeCase{Scheme::F103, true, 2, true},
        FatTreeCase{Scheme::F1035, true, 2, true},
        // k = 3: F103 breaks, F1035 survives via the 5-hop detour.
        FatTreeCase{Scheme::F103, true, 3, false},
        FatTreeCase{Scheme::F1035, true, 3, true},
        // k = 4: even F1035 fails.
        FatTreeCase{Scheme::F1035, true, 4, false}));

TEST(FatTreeModelTest, NoFailureDeliveryIsCertain) {
  Context Ctx;
  topology::FatTreeLayout L;
  topology::makeAbFatTree(4, L);
  ModelOptions O;
  O.RoutingScheme = Scheme::F100;
  NetworkModel M = buildFatTreeModel(L, O, Ctx);
  Verifier V;
  fdd::FddRef Model = V.compile(M.Program);
  for (std::size_t I = 0; I < M.Ingresses.size(); ++I)
    EXPECT_EQ(V.deliveryProbability(Model, M.ingressPacket(I, Ctx)),
              Rational(1));
  EXPECT_EQ(M.Ingresses.size(), 7u); // 8 edges minus the destination.
}

TEST(FatTreeModelTest, RefinementChainUnderUnboundedFailures) {
  // Fig 11(c) k=∞ column: F100 < F103 < F1035 < teleport.
  Context Ctx;
  topology::FatTreeLayout L;
  topology::makeAbFatTree(4, L);
  FailureModel F = FailureModel::iid(Rational(1, 10));

  auto Build = [&](Scheme S) {
    ModelOptions O;
    O.RoutingScheme = S;
    O.Failures = F;
    return buildFatTreeModel(L, O, Ctx);
  };
  NetworkModel M100 = Build(Scheme::F100);
  NetworkModel M103 = Build(Scheme::F103);
  NetworkModel M1035 = Build(Scheme::F1035);

  Verifier V;
  fdd::FddRef R100 = V.compile(M100.Program);
  fdd::FddRef R103 = V.compile(M103.Program);
  fdd::FddRef R1035 = V.compile(M1035.Program);
  fdd::FddRef Tele = V.compile(M100.Teleport);

  EXPECT_TRUE(V.strictlyRefines(R100, R103));
  EXPECT_TRUE(V.strictlyRefines(R103, R1035));
  EXPECT_TRUE(V.strictlyRefines(R1035, Tele));

  // Delivery probabilities are strictly ordered on inter-pod traffic
  // (intra-pod traffic never crosses a core, where the schemes differ
  // most; with per-hop resampling the rerouting schemes deliver intra-pod
  // traffic with probability one).
  Packet In = M100.ingressPacket(2, Ctx);
  Packet IntraPod = M100.ingressPacket(0, Ctx);
  EXPECT_EQ(V.deliveryProbability(R103, IntraPod), Rational(1));
  Rational D100 = V.deliveryProbability(R100, In);
  Rational D103 = V.deliveryProbability(R103, In);
  Rational D1035 = V.deliveryProbability(R1035, In);
  EXPECT_LT(D100, D103);
  EXPECT_LT(D103, D1035);
  EXPECT_LT(D1035, Rational(1));
  EXPECT_GT(D100, Rational(1, 2));
}

TEST(FatTreeModelTest, HopCountsReflectDetours) {
  Context Ctx;
  topology::FatTreeLayout L;
  topology::makeAbFatTree(4, L);
  ModelOptions O;
  O.RoutingScheme = Scheme::F100;
  O.CountHops = true;
  O.HopCap = 10;
  NetworkModel M = buildFatTreeModel(L, O, Ctx);
  Verifier V(markov::SolverKind::Direct);
  fdd::FddRef Model = V.compile(M.Program);

  std::vector<Packet> Ingresses;
  for (std::size_t I = 0; I < M.Ingresses.size(); ++I)
    Ingresses.push_back(M.ingressPacket(I, Ctx));
  analysis::HopStats Stats = V.hopStats(Model, Ingresses, M.HopField);

  // Without failures everything is delivered; intra-pod traffic takes 2
  // hops (edge-agg-edge), inter-pod 4 (edge-agg-core-agg-edge).
  EXPECT_NEAR(Stats.Delivered.toDouble(), 1.0, 1e-9);
  EXPECT_NEAR(Stats.Histogram[2].toDouble(), 1.0 / 7.0, 1e-9);
  EXPECT_NEAR(Stats.Histogram[4].toDouble(), 6.0 / 7.0, 1e-9);
  EXPECT_NEAR(Stats.expectedGivenDelivered(), (2.0 + 6 * 4.0) / 7.0, 1e-9);
  // The CDF is monotone and total.
  EXPECT_LE(Stats.cumulative(2), Stats.cumulative(4));
  EXPECT_EQ(Stats.cumulative(10), Stats.Delivered);
}

TEST(FatTreeModelTest, StandardFatTreeLacksThreeHopDetour) {
  // On a standard FatTree the F103 core fallback has no opposite-type
  // pods, so under core failures it behaves like F100 at the core.
  Context Ctx1, Ctx2;
  topology::FatTreeLayout LStd, LAb;
  topology::makeFatTree(4, LStd);
  topology::makeAbFatTree(4, LAb);
  ModelOptions O;
  O.RoutingScheme = Scheme::F103;
  O.Failures = FailureModel::iid(Rational(1, 4));

  NetworkModel MStd = buildFatTreeModel(LStd, O, Ctx1);
  NetworkModel MAb = buildFatTreeModel(LAb, O, Ctx2);
  Verifier V1, V2;
  // Index 2 is an inter-pod ingress (pod 1); intra-pod paths skip cores.
  Rational DStd = V1.deliveryProbability(V1.compile(MStd.Program),
                                         MStd.ingressPacket(2, Ctx1));
  Rational DAb = V2.deliveryProbability(V2.compile(MAb.Program),
                                        MAb.ingressPacket(2, Ctx2));
  EXPECT_LT(DStd, DAb);
}

namespace {

/// FNV-1a over a text rendering of an exported diagram: every node in
/// export order, inner nodes as field, value and children, leaves as their
/// (action, exact weight) entries.
uint64_t diagramDigest(const fdd::PortableFdd &D) {
  std::string Text;
  for (const fdd::PortableFdd::Node &N : D.Nodes) {
    if (!N.IsLeaf) {
      Text += "I " + std::to_string(N.Field) + " " + std::to_string(N.Value) +
              " " + std::to_string(N.Hi) + " " + std::to_string(N.Lo) + "\n";
      continue;
    }
    Text += "L";
    for (const auto &[A, W] : N.Dist) {
      Text += A.isDrop() ? " drop" : " {";
      for (const auto &[F, V] : A.mods())
        Text += std::to_string(F) + "=" + std::to_string(V) + ",";
      Text += "}" + W.toString();
    }
    Text += "\n";
  }
  Text += "root " + std::to_string(D.Root);
  uint64_t Hash = 0xcbf29ce484222325ull;
  for (unsigned char C : Text)
    Hash = (Hash ^ C) * 0x100000001b3ull;
  return Hash;
}

} // namespace

TEST(FatTreeModelTest, FloatSolvedHopModelsKeepTheirDiagrams) {
  // The Direct and Iterative engines solve each hop model's loop in
  // floating point and convert the result back into exact leaves. These
  // digests pin the exported diagrams of AB FatTree p=4 hop models (pr
  // 1/1000, hop cap 14), so any change to that conversion must reproduce
  // every leaf weight exactly.
  struct Case {
    Scheme S;
    markov::SolverKind Solver;
    uint64_t Digest;
  };
  const Case Cases[] = {
      {Scheme::F100, markov::SolverKind::Direct, 1785059759556235577ull},
      {Scheme::F100, markov::SolverKind::Iterative, 1785059759556235577ull},
      {Scheme::F1035, markov::SolverKind::Direct, 6036353248839143381ull},
      {Scheme::F1035, markov::SolverKind::Iterative, 6036353248839143381ull},
  };
  for (const Case &C : Cases) {
    Context Ctx;
    topology::FatTreeLayout L;
    topology::makeAbFatTree(4, L);
    ModelOptions O;
    O.RoutingScheme = C.S;
    O.Failures = FailureModel::iid(Rational(1, 1000));
    O.CountHops = true;
    O.HopCap = 14;
    NetworkModel M = buildFatTreeModel(L, O, Ctx);
    fdd::FddManager Manager(C.Solver);
    fdd::FddRef Model = fdd::compile(Manager, M.Program);
    EXPECT_EQ(diagramDigest(fdd::exportFdd(Manager, Model)), C.Digest)
        << "scheme " << static_cast<int>(C.S) << ", solver "
        << static_cast<int>(C.Solver);
  }
}

TEST(FatTreeModelTest, ExactSolvedHopModelsKeepTheirDiagrams) {
  // The Exact engine's loop solves feed their absorption rows straight
  // into exact leaves. These digests pin the exported diagrams of the AB
  // FatTree p=4 hop models (hop cap 14) under both failure rates, so any
  // change to the block pipeline or the leaf rebuild must reproduce every
  // node and every exact weight.
  struct Case {
    Scheme S;
    int FailDen;
    uint64_t Digest;
  };
  const Case Cases[] = {
      {Scheme::F100, 4, 6055021866675799406ull},
      {Scheme::F100, 1000, 7045314711185553405ull},
      {Scheme::F103, 4, 17969418707883841273ull},
      {Scheme::F103, 1000, 8595909515619696412ull},
      {Scheme::F1035, 4, 17696387058339352605ull},
      {Scheme::F1035, 1000, 3158201784121820326ull},
  };
  for (const Case &C : Cases) {
    Context Ctx;
    topology::FatTreeLayout L;
    topology::makeAbFatTree(4, L);
    ModelOptions O;
    O.RoutingScheme = C.S;
    O.Failures = FailureModel::iid(Rational(1, C.FailDen));
    O.CountHops = true;
    O.HopCap = 14;
    NetworkModel M = buildFatTreeModel(L, O, Ctx);
    fdd::FddManager Manager(markov::SolverKind::Exact);
    fdd::FddRef Model = fdd::compile(Manager, M.Program);
    EXPECT_EQ(diagramDigest(fdd::exportFdd(Manager, Model)), C.Digest)
        << "scheme " << static_cast<int>(C.S) << ", pr 1/" << C.FailDen;
  }
}

//===----------------------------------------------------------------------===//
// Chain model
//===----------------------------------------------------------------------===//

class ChainParam : public ::testing::TestWithParam<unsigned> {};

TEST_P(ChainParam, DeliveryMatchesClosedForm) {
  unsigned K = GetParam();
  Context Ctx;
  topology::ChainLayout L;
  topology::makeChain(K, L);
  Rational PFail(1, 1000);
  NetworkModel M = buildChainModel(L, PFail, Ctx);
  ASSERT_TRUE(ast::isGuarded(M.Program));

  Verifier V;
  fdd::FddRef Model = V.compile(M.Program);
  Packet In = M.ingressPacket(0, Ctx);
  // Per diamond: 1/2 + 1/2·(1 - pfail) = 1 - pfail/2.
  Rational PerDiamond = Rational(1) - PFail / Rational(2);
  Rational Expected(1);
  for (unsigned I = 0; I < K; ++I)
    Expected *= PerDiamond;
  EXPECT_EQ(V.deliveryProbability(Model, In), Expected);
  // Never equivalent to teleport (pfail > 0), but refines it.
  fdd::FddRef Tele = V.compile(M.Teleport);
  EXPECT_FALSE(V.equivalent(Model, Tele));
  EXPECT_TRUE(V.strictlyRefines(Model, Tele));
}

INSTANTIATE_TEST_SUITE_P(Ks, ChainParam, ::testing::Values(1u, 2u, 5u, 16u));

//===----------------------------------------------------------------------===//
// Generic shortest-path model (scenario-registry families)
//===----------------------------------------------------------------------===//

TEST(ShortestPathModelTest, FailureFreeRingAlwaysDelivers) {
  Context Ctx;
  topology::RingLayout L;
  topology::Topology T = topology::makeRing(6, L);
  ModelOptions O;
  NetworkModel M = buildShortestPathModel(T, /*Dst=*/1, O, Ctx);
  ASSERT_TRUE(ast::isGuarded(M.Program));
  ASSERT_EQ(M.Ingresses.size(), 5u);

  Verifier V;
  fdd::FddRef Model = V.compile(M.Program);
  for (std::size_t I = 0; I < M.Ingresses.size(); ++I)
    EXPECT_TRUE(
        V.deliveryProbability(Model, M.ingressPacket(I, Ctx)).isOne())
        << "ingress " << I;
  // With no failures the model is its own specification.
  fdd::FddRef Tele = V.compile(M.Teleport);
  EXPECT_TRUE(V.equivalent(Model, Tele));
}

TEST(ShortestPathModelTest, RingFailuresMatchPathLengths) {
  // On a ring with iid per-link failures, a packet at BFS distance d has
  // exactly one candidate port per hop when d < N/2... except at the
  // antipode where two equal-length paths exist. For N=4, switch 3 is the
  // antipode (distance 2, two disjoint paths); switches 2 and 4 are at
  // distance 1. Delivery from distance 1: (1-p). From the antipode the
  // packet picks one of the two directions uniformly after sampling both
  // flags; each route then needs its second hop too.
  Context Ctx;
  topology::RingLayout L;
  topology::Topology T = topology::makeRing(4, L);
  ModelOptions O;
  Rational P(1, 10);
  O.Failures = FailureModel::iid(P);
  NetworkModel M = buildShortestPathModel(T, 1, O, Ctx);

  Verifier V;
  fdd::FddRef Model = V.compile(M.Program);
  Rational Up = Rational(1) - P;
  // Distance-1 switches (2 and 4): deliver iff the single candidate link
  // is up.
  EXPECT_EQ(V.deliveryProbability(Model, M.ingressPacket(0, Ctx)), Up);
  EXPECT_EQ(V.deliveryProbability(Model, M.ingressPacket(2, Ctx)), Up);
  // The antipode (switch 3): both flags sampled; if both up pick either
  // (then one more up-hop), one up -> that one, none -> drop.
  Rational Both = Up * Up, One = Up * P;
  Rational Expected = (Both + One + One) * Up;
  EXPECT_EQ(V.deliveryProbability(Model, M.ingressPacket(1, Ctx)),
            Expected);
}

TEST(ShortestPathModelTest, HopCountsOnGridMatchBfsDistance) {
  // Failure-free dimension counting: every delivered packet's hop field
  // must equal its ingress's BFS distance to the destination.
  Context Ctx;
  topology::GridLayout L;
  topology::Topology T = topology::makeGrid(2, 3, false, L);
  ModelOptions O;
  O.CountHops = true;
  NetworkModel M = buildShortestPathModel(T, 1, O, Ctx);
  ASSERT_NE(M.HopField, FieldTable::NotFound);
  EXPECT_EQ(M.Teleport, nullptr); // Hop outputs match no teleport spec.

  Verifier V;
  fdd::FddRef Model = V.compile(M.Program);
  for (std::size_t I = 0; I < M.Ingresses.size(); ++I) {
    topology::SwitchId S = M.Ingresses[I].first;
    unsigned Row = (S - 1) / 3, Col = (S - 1) % 3;
    unsigned Dist = Row + Col; // Destination is at (0, 0).
    auto HopDist = V.outputFieldDistribution(
        Model, M.ingressPacket(I, Ctx), M.HopField);
    ASSERT_EQ(HopDist.size(), 1u) << "switch " << S;
    EXPECT_EQ(HopDist.begin()->first, Dist) << "switch " << S;
    EXPECT_TRUE(HopDist.begin()->second.isOne()) << "switch " << S;
  }
}

TEST(ShortestPathModelTest, UnreachableSwitchesAreExcluded) {
  // A destination in one component: switches of the other component get
  // no ingress and the model still compiles.
  Context Ctx;
  topology::Topology T(4);
  T.addCable(1, 1, 2, 1);
  T.addCable(3, 1, 4, 1); // Disconnected pair.
  ModelOptions O;
  NetworkModel M = buildShortestPathModel(T, 1, O, Ctx);
  ASSERT_EQ(M.Ingresses.size(), 1u);
  EXPECT_EQ(M.Ingresses[0].first, 2u);
  Verifier V;
  fdd::FddRef Model = V.compile(M.Program);
  EXPECT_TRUE(
      V.deliveryProbability(Model, M.ingressPacket(0, Ctx)).isOne());
}
