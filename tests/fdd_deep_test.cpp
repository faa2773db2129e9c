//===----------------------------------------------------------------------===//
///
/// \file
/// Depth stress for the FddManager's compiler operations: every op that
/// used to recurse along the diagram (seq, negate, disjoin, choice,
/// branch, seqAction via seq) must survive test chains tens of thousands
/// of nodes deep, like the iterative traversals (diagramSize,
/// isPredicateFdd, export) always did. A 50k-deep chain overflows an 8 MiB
/// call stack under the old structural recursion (≈150+ bytes/frame), so
/// these tests are regression proof that the explicit-stack rewrites
/// stay in place.
///
//===----------------------------------------------------------------------===//

#include "fdd/Export.h"
#include "fdd/Fdd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace mcnk;
using namespace mcnk::fdd;

namespace {

constexpr unsigned Depth = 50000;
// Fields beyond the chain, used as scratch by actions.
constexpr FieldId Scratch0 = Depth;
constexpr FieldId Scratch1 = Depth + 1;
constexpr std::size_t NumFields = Depth + 2;

/// A predicate chain of \p N inner nodes: field i tests \p Value with the
/// next field's test below it (true-branch \p Hi). One field per level
/// keeps every inner() call O(1) — a single multi-valued field would make
/// the canonicalizing cofactor walk quadratic in the chain length.
FddRef buildChain(FddManager &M, unsigned N, FieldValue Value, FddRef Hi) {
  FddRef Acc = M.dropLeaf();
  for (unsigned F = N; F-- > 0;)
    Acc = M.inner(static_cast<FieldId>(F), Value, Hi, Acc);
  return Acc;
}

Packet allZero() { return Packet(NumFields); }
Packet allOnes() {
  Packet P(NumFields);
  for (std::size_t F = 0; F < NumFields; ++F)
    P.set(static_cast<FieldId>(F), 99); // Matches no chain test.
  return P;
}

} // namespace

TEST(FddDeepChainTest, ConstructionAndIterativeBaselines) {
  FddManager M;
  FddRef Chain = buildChain(M, Depth, 0, M.identityLeaf());
  EXPECT_EQ(M.diagramSize(Chain), Depth + 2u); // N inners + two leaves.
  EXPECT_TRUE(M.isPredicateFdd(Chain));
  EXPECT_EQ(M.evalToLeaf(Chain, allZero()), M.leafDist(M.identityLeaf()));
  EXPECT_EQ(M.evalToLeaf(Chain, allOnes()), M.leafDist(M.dropLeaf()));
}

TEST(FddDeepChainTest, NegateSurvivesDeepChains) {
  FddManager M;
  FddRef Chain = buildChain(M, Depth, 0, M.identityLeaf());
  FddRef Neg = M.negate(Chain);
  EXPECT_EQ(M.diagramSize(Neg), Depth + 2u);
  EXPECT_EQ(M.evalToLeaf(Neg, allZero()), M.leafDist(M.dropLeaf()));
  EXPECT_EQ(M.evalToLeaf(Neg, allOnes()), M.leafDist(M.identityLeaf()));
  // Involution lands on the identical ref (canonicity).
  EXPECT_EQ(M.negate(Neg), Chain);
}

TEST(FddDeepChainTest, DisjoinSurvivesDeepChains) {
  FddManager M;
  FddRef Zeros = buildChain(M, Depth, 0, M.identityLeaf());
  FddRef Ones = buildChain(M, Depth, 1, M.identityLeaf());
  FddRef Either = M.disjoin(Zeros, Ones);
  EXPECT_TRUE(M.isPredicateFdd(Either));
  EXPECT_EQ(M.evalToLeaf(Either, allZero()), M.leafDist(M.identityLeaf()));
  Packet OneHot = allOnes();
  OneHot.set(Depth / 2, 1);
  EXPECT_EQ(M.evalToLeaf(Either, OneHot), M.leafDist(M.identityLeaf()));
  EXPECT_EQ(M.evalToLeaf(Either, allOnes()), M.leafDist(M.dropLeaf()));
  // Idempotence and commutativity on the canonical diagrams.
  EXPECT_EQ(M.disjoin(Either, Either), Either);
  EXPECT_EQ(M.disjoin(Ones, Zeros), Either);
}

TEST(FddDeepChainTest, BranchSurvivesDeepGuards) {
  FddManager M;
  FddRef Guard = buildChain(M, Depth, 0, M.identityLeaf());
  FddRef Then = M.assign(Scratch0, 7);
  FddRef Else = M.assign(Scratch0, 9);
  FddRef Ite = M.branch(Guard, Then, Else);
  EXPECT_EQ(M.evalToLeaf(Ite, allZero()), M.leafDist(Then));
  EXPECT_EQ(M.evalToLeaf(Ite, allOnes()), M.leafDist(Else));
}

TEST(FddDeepChainTest, ChoiceSurvivesDeepOperands) {
  FddManager M;
  FddRef Guard = buildChain(M, Depth, 0, M.identityLeaf());
  FddRef A = M.branch(Guard, M.assign(Scratch0, 1), M.dropLeaf());
  FddRef B = M.branch(Guard, M.assign(Scratch0, 2), M.dropLeaf());
  FddRef Mix = M.choice(Rational(1, 3), A, B);
  const ActionDist &Taken = M.evalToLeaf(Mix, allZero());
  ASSERT_EQ(Taken.entries().size(), 2u);
  EXPECT_EQ(Taken.entries()[0].second, Rational(1, 3));
  EXPECT_EQ(Taken.entries()[1].second, Rational(2, 3));
  EXPECT_EQ(M.evalToLeaf(Mix, allOnes()), M.leafDist(M.dropLeaf()));
}

TEST(FddDeepChainTest, SeqSurvivesDeepLhs) {
  FddManager M;
  FddRef Chain = buildChain(M, Depth, 0, M.identityLeaf());
  // Deep predicate ; single write — seq recurses over the whole chain.
  FddRef Composite = M.seq(Chain, M.assign(Scratch0, 5));
  auto OutPass = M.outputDistribution(Composite, allZero());
  ASSERT_EQ(OutPass.Outputs.size(), 1u);
  EXPECT_EQ(OutPass.Outputs.begin()->first.get(Scratch0), 5u);
  EXPECT_TRUE(OutPass.Dropped.isZero());
  auto OutDrop = M.outputDistribution(Composite, allOnes());
  EXPECT_TRUE(OutDrop.Outputs.empty());
  EXPECT_TRUE(OutDrop.Dropped.isOne());
}

TEST(FddDeepChainTest, SeqActionAndWeightedSumSurviveDeepRhs) {
  FddManager M;
  FddRef Chain = buildChain(M, Depth, 0, M.identityLeaf());
  // An eight-action leaf (writes of 1..8 to one scratch field, weights
  // 1/2, 1/4, ..., 1/128, 1/128) composed before a deep diagram: drives
  // seqAction down all 50k nodes for each action, then the weighted sum
  // down all eight results at once.
  constexpr int Terms = 8;
  std::vector<std::pair<Action, Rational>> Entries;
  for (int I = 1; I <= Terms; ++I)
    Entries.emplace_back(
        Action::modify({{Scratch0, static_cast<FieldValue>(I)}}),
        Rational(1, int64_t(1) << std::min(I, Terms - 1)));
  FddRef EightWrites = M.leaf(ActionDist::fromEntries(std::move(Entries)));
  FddRef Composite = M.seq(EightWrites, Chain);
  EXPECT_EQ(M.diagramSize(Composite), Depth + 2u);
  // No scratch write changes the chain's verdict.
  auto OutPass = M.outputDistribution(Composite, allZero());
  EXPECT_EQ(OutPass.Outputs.size(), std::size_t(Terms));
  EXPECT_TRUE(OutPass.Dropped.isZero());
  Packet First = allZero();
  First.set(Scratch0, 1);
  EXPECT_EQ(OutPass.Outputs[First], Rational(1, 2));
  auto OutDrop = M.outputDistribution(Composite, allOnes());
  EXPECT_TRUE(OutDrop.Outputs.empty());
  EXPECT_TRUE(OutDrop.Dropped.isOne());
}

TEST(FddDeepChainTest, ExportImportRoundTripsDeepChains) {
  FddManager M;
  FddRef Chain = buildChain(M, Depth, 0, M.identityLeaf());
  PortableFdd Portable = exportFdd(M, Chain);
  EXPECT_EQ(Portable.Nodes.size(), Depth + 2u);
  EXPECT_EQ(importFdd(M, Portable), Chain);
  FddManager Fresh;
  FddRef Imported = importFdd(Fresh, Portable);
  EXPECT_EQ(Fresh.diagramSize(Imported), Depth + 2u);
}
