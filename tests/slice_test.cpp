//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the S17 field-dependency analysis (ast/Deps.h) and
/// query-directed cone-of-influence slicing (ast/Slice.h): dependency and
/// cone facts on hand-written programs, golden diagnostics for the three
/// dependency lint checks, golden slice rewrites per observation class,
/// slicing as a front-end step before compile, and the slicing-soundness
/// property — sliced and unsliced programs answer every delivery query
/// identically — over seeded random programs, half of them with a planted
/// write-only field the slicer must shed.
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "ast/Deps.h"
#include "ast/Printer.h"
#include "ast/Slice.h"
#include "ast/Traversal.h"
#include "gen/ProgramGen.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

using namespace mcnk;
using namespace mcnk::ast;

namespace {

struct SliceFixture : ::testing::Test {
  Context Ctx;

  const Node *parse(const std::string &Source) {
    parser::ParseResult Result = parser::parseProgram(Source, Ctx);
    EXPECT_TRUE(Result.ok()) << (Result.Diagnostics.empty()
                                     ? std::string("no diagnostics")
                                     : Result.Diagnostics[0].render());
    return Result.ok() ? Result.Program : Ctx.drop();
  }

  FieldId field(const std::string &Name) { return Ctx.field(Name); }
};

} // namespace

using SliceTest = SliceFixture;

//===----------------------------------------------------------------------===//
// Dependency facts
//===----------------------------------------------------------------------===//

TEST_F(SliceTest, ReadWrittenAndDropFacts) {
  const Node *P = parse("if sw=1 then pt:=2 else drop");
  FieldDeps Deps(Ctx, P);
  FieldId Sw = field("sw"), Pt = field("pt");
  EXPECT_TRUE(Deps.read(Sw));
  EXPECT_FALSE(Deps.written(Sw));
  EXPECT_TRUE(Deps.written(Pt));
  EXPECT_FALSE(Deps.read(Pt));
  // The guard chooses between delivering and dropping, so a test on sw
  // can change the delivered mass.
  EXPECT_TRUE(Deps.dropDep(Sw));
  // The assignment to pt executes under the sw guard.
  EXPECT_TRUE(Deps.edge(Sw, Pt));
  EXPECT_FALSE(Deps.edge(Pt, Sw));
}

TEST_F(SliceTest, ConeExcludesUnobservableDependencyCycle) {
  // tag and vlan feed only each other; the delivered mass depends on sw
  // alone, so the delivery cone is exactly {sw}.
  const Node *P = parse("(if tag=1 then vlan:=1 else vlan:=2);\n"
                        "(if vlan=1 then tag:=1 else tag:=2);\n"
                        "(if sw=1 then skip else drop)");
  FieldDeps Deps(Ctx, P);
  std::vector<bool> Cone = Deps.coneOfInfluence(ObservationSet::delivery());
  EXPECT_TRUE(Cone[field("sw")]);
  EXPECT_FALSE(Cone[field("tag")]);
  EXPECT_FALSE(Cone[field("vlan")]);
  // Observing vlan pulls the whole cycle in: tag guards vlan's writes and
  // vlan guards tag's.
  std::vector<bool> VlanCone =
      Deps.coneOfInfluence(ObservationSet::fields({field("vlan")}));
  EXPECT_TRUE(VlanCone[field("vlan")]);
  EXPECT_TRUE(VlanCone[field("tag")]);
  // The all-fields observation (equivalence queries) includes everything.
  std::vector<bool> All = Deps.coneOfInfluence(ObservationSet::all());
  for (std::size_t F = 0; F < Deps.numFields(); ++F)
    EXPECT_TRUE(All[F]);
}

TEST_F(SliceTest, WhileGuardFieldIsDropRelevant) {
  // A while guard can diverge (losing mass), so its field feeds delivery.
  const Node *P = parse("while pt=2 do (pt:=0 +[1/2] pt:=2)");
  FieldDeps Deps(Ctx, P);
  std::vector<bool> Cone = Deps.coneOfInfluence(ObservationSet::delivery());
  EXPECT_TRUE(Deps.dropDep(field("pt")));
  EXPECT_TRUE(Cone[field("pt")]);
}

//===----------------------------------------------------------------------===//
// Dependency lint checks (golden diagnostics)
//===----------------------------------------------------------------------===//

TEST_F(SliceTest, WriteOnlyFieldGolden) {
  std::vector<Finding> Fs =
      analyzeDeps(Ctx, parse("meter:=7; (if sw=1 then skip else drop)"));
  ASSERT_EQ(Fs.size(), 1u);
  EXPECT_EQ(Fs[0].Check, CheckKind::WriteOnlyField);
  EXPECT_EQ(Fs[0].render("net.pnk"),
            "net.pnk:1:1: warning[write-only-field]: field 'meter' is "
            "assigned but never tested; its writes cannot influence any "
            "decision or the delivered mass");
}

TEST_F(SliceTest, DeadFieldAndQueryIrrelevantGolden) {
  std::vector<Finding> Fs =
      analyzeDeps(Ctx, parse("(if tag=1 then vlan:=1 else vlan:=2);\n"
                             "(if vlan=1 then tag:=1 else tag:=2);\n"
                             "(if sw=1 then skip else drop)"));
  // tag and vlan are each read and written, but their dependency cycle
  // never reaches the delivery cone {sw}: one dead-field finding per
  // field plus one query-irrelevant finding per assignment, and no
  // write-only noise.
  ASSERT_EQ(Fs.size(), 6u);
  EXPECT_EQ(Fs[0].render("net.pnk"),
            "net.pnk:1:5: warning[dead-field]: field 'tag' is outside the "
            "delivery cone of influence; no delivery query can observe it");
  EXPECT_EQ(Fs[1].render("net.pnk"),
            "net.pnk:1:16: warning[query-irrelevant-assignment]: assignment "
            "to 'vlan' cannot be observed by any delivery query");
  unsigned DeadFields = 0, Irrelevant = 0;
  for (const Finding &F : Fs) {
    DeadFields += F.Check == CheckKind::DeadField;
    Irrelevant += F.Check == CheckKind::QueryIrrelevantAssignment;
  }
  EXPECT_EQ(DeadFields, 2u);
  EXPECT_EQ(Irrelevant, 4u);
}

TEST_F(SliceTest, CleanProgramHasNoDependencyFindings) {
  EXPECT_TRUE(
      analyzeDeps(Ctx, parse("if sw=1 then pt:=2; (if pt=2 then skip else "
                             "drop) else drop"))
          .empty());
}

//===----------------------------------------------------------------------===//
// Slice rewrites
//===----------------------------------------------------------------------===//

TEST_F(SliceTest, DeliverySliceRemovesWriteOnlyAssignment) {
  const Node *P = parse("meter:=7; (if sw=1 then skip else drop)");
  SliceResult R = slice(Ctx, P, ObservationSet::delivery());
  EXPECT_EQ(R.Stats.AssignmentsRemoved, 1u);
  EXPECT_TRUE(structurallyEqual(R.Program,
                                parse("if sw=1 then skip else drop")));
  EXPECT_LT(R.Stats.NodesAfter, R.Stats.NodesBefore);
  EXPECT_EQ(R.Stats.FieldsRelevant + 1, R.Stats.FieldsBefore);
}

TEST_F(SliceTest, SliceIsIdentityOnRelevantPrograms) {
  const Node *P = parse("if sw=1 then skip else drop");
  SliceResult R = slice(Ctx, P, ObservationSet::delivery());
  EXPECT_EQ(R.Program, P); // Unchanged programs come back by pointer.
  EXPECT_EQ(R.Stats.AssignmentsRemoved, 0u);
}

TEST_F(SliceTest, ObservationDirectsWhatSurvives) {
  // Under delivery the hop counter is invisible; under the hop-stats
  // observation its writes must survive.
  const Node *P = parse("hops:=0; (if sw=1 then hops:=1 else drop)");
  SliceResult Delivery = slice(Ctx, P, ObservationSet::delivery());
  EXPECT_EQ(Delivery.Stats.AssignmentsRemoved, 2u);
  SliceResult Hop =
      slice(Ctx, P, ObservationSet::fields({field("hops")}));
  EXPECT_EQ(Hop.Stats.AssignmentsRemoved, 0u);
  EXPECT_EQ(Hop.Program, P);
}

TEST_F(SliceTest, SliceIsIdempotent) {
  const Node *P = parse("(if tag=1 then vlan:=1 else vlan:=2);\n"
                        "(if sw=1 then skip else drop)");
  SliceResult Once = slice(Ctx, P, ObservationSet::delivery());
  EXPECT_EQ(slice(Ctx, Once.Program, ObservationSet::delivery()).Program,
            Once.Program);
}

TEST_F(SliceTest, SliceThenCompileReportsStatsAndPreservesDelivery) {
  const Node *P = parse("meter:=7; (if sw=1 then skip else drop)");
  analysis::Verifier Plain(markov::SolverKind::Exact);
  fdd::FddRef E = Plain.compile(P);
  SliceResult R = slice(Ctx, P, ObservationSet::delivery());
  EXPECT_EQ(R.Stats.AssignmentsRemoved, 1u);
  analysis::Verifier Sliced(markov::SolverKind::Exact);
  fdd::FddRef S = Sliced.compile(R.Program);
  Packet In(Ctx.fields().numFields());
  In.set(field("sw"), 1);
  EXPECT_EQ(Sliced.deliveryProbability(S, In).toString(),
            Plain.deliveryProbability(E, In).toString());
}

//===----------------------------------------------------------------------===//
// Slicing-soundness property sweep
//===----------------------------------------------------------------------===//

// Sliced and unsliced compiles of the same random program must answer
// every delivery query with the same exact rational. Half the seeds plant
// a write-only scratch field so a removal actually happens on a healthy
// share of cases.
TEST(SliceProperty, SlicedDeliveryMatchesUnslicedOnRandomPrograms) {
  std::size_t Removed = 0;
  for (unsigned I = 0; I < 200; ++I) {
    uint64_t Seed = 0x5EEDBA5EULL + I;
    Context Ctx;
    gen::GenOptions Opts;
    Opts.PlantWriteOnlyField = (I % 2) == 1;
    Prng Rng(Seed);
    const Node *P = gen::generateProgram(Ctx, Rng, Opts);
    std::vector<Packet> Inputs = gen::enumerateInputs(Ctx, Opts, 8, Rng);

    analysis::Verifier Plain(markov::SolverKind::Exact);
    fdd::FddRef E = Plain.compile(P);
    SliceResult R = slice(Ctx, P, ObservationSet::delivery());
    Removed += R.Stats.AssignmentsRemoved;
    analysis::Verifier Sliced(markov::SolverKind::Exact);
    fdd::FddRef S = Sliced.compile(R.Program);

    for (const Packet &In : Inputs)
      ASSERT_EQ(Sliced.deliveryProbability(S, In).toString(),
                Plain.deliveryProbability(E, In).toString())
          << "seed 0x" << std::hex << Seed << " program "
          << ast::print(P, Ctx.fields());
  }
  // The planted write-only fields guarantee the sweep exercised real
  // removals, not 200 identity slices.
  EXPECT_GT(Removed, 50u);
}
