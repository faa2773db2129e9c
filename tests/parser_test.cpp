//===----------------------------------------------------------------------===//
///
/// \file
/// Parser tests: grammar coverage, precedence, §2's running example,
/// diagnostics for malformed input, and print/parse round trips.
///
//===----------------------------------------------------------------------===//

#include "ast/Printer.h"
#include "ast/Simplify.h"
#include "ast/Slice.h"
#include "ast/Traversal.h"
#include "parser/Lexer.h"
#include "parser/Parser.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

#include <tuple>

using namespace mcnk;
using namespace mcnk::ast;
using parser::ParseResult;

namespace {

struct ParserFixture : ::testing::Test {
  Context Ctx;

  const Node *parseOk(const std::string &Source) {
    ParseResult Result = parser::parseProgram(Source, Ctx);
    EXPECT_TRUE(Result.ok()) << (Result.Diagnostics.empty()
                                     ? std::string("no diagnostics")
                                     : Result.Diagnostics[0].render());
    // Keep callers null-safe even when the expectation above fails.
    return Result.ok() ? Result.Program : Ctx.drop();
  }

  std::string parseError(const std::string &Source) {
    ParseResult Result = parser::parseProgram(Source, Ctx);
    EXPECT_FALSE(Result.ok()) << "expected failure for: " << Source;
    if (Result.Diagnostics.empty())
      return "";
    return Result.Diagnostics[0].render();
  }
};

} // namespace

using ParserTest = ParserFixture;

TEST_F(ParserTest, Primitives) {
  EXPECT_TRUE(isa<DropNode>(parseOk("drop")));
  EXPECT_TRUE(isa<SkipNode>(parseOk("skip")));
  const Node *T = parseOk("sw=3");
  ASSERT_TRUE(isa<TestNode>(T));
  EXPECT_EQ(cast<TestNode>(T)->value(), 3u);
  const Node *A = parseOk("pt:=2");
  ASSERT_TRUE(isa<AssignNode>(A));
  EXPECT_EQ(cast<AssignNode>(A)->value(), 2u);
}

TEST_F(ParserTest, PrecedenceSeqOverUnion) {
  // '&' binds looser than ';': a=1;b=2 & c=3 ≡ (a=1;b=2) & (c=3).
  const Node *P = parseOk("a=1 ; b=2 & c=3");
  const auto *U = dyn_cast<UnionNode>(P);
  ASSERT_NE(U, nullptr);
  EXPECT_TRUE(isa<SeqNode>(U->lhs()));
  EXPECT_TRUE(isa<TestNode>(U->rhs()));
}

TEST_F(ParserTest, ChoiceBindsLoosest) {
  const Node *P = parseOk("pt:=1 ; pt:=2 +[1/3] pt:=3");
  const auto *C = dyn_cast<ChoiceNode>(P);
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->probability(), Rational(1, 3));
  EXPECT_TRUE(isa<SeqNode>(C->lhs()));
}

TEST_F(ParserTest, ProbabilitySyntaxes) {
  const auto *Half = dyn_cast<ChoiceNode>(parseOk("pt:=1 +[0.5] pt:=2"));
  ASSERT_NE(Half, nullptr);
  EXPECT_EQ(Half->probability(), Rational(1, 2));
  const auto *Fifth = dyn_cast<ChoiceNode>(parseOk("pt:=1 +[2/10] pt:=2"));
  ASSERT_NE(Fifth, nullptr);
  EXPECT_EQ(Fifth->probability(), Rational(1, 5));
  // +[1] collapses to the left branch via the smart constructor.
  EXPECT_TRUE(isa<AssignNode>(parseOk("pt:=1 +[1] pt:=2")));
}

TEST_F(ParserTest, StarAndNegation) {
  const Node *S = parseOk("(pt:=1)*");
  EXPECT_TRUE(isa<StarNode>(S));
  const Node *N = parseOk("!(sw=1 & sw=2)");
  EXPECT_TRUE(isa<NotNode>(N));
  // Double negation normalizes away.
  EXPECT_TRUE(isa<TestNode>(parseOk("!!sw=1")));
}

TEST_F(ParserTest, IfThenElseNesting) {
  const Node *P = parseOk(
      "if sw=1 then pt:=2 else if sw=2 then pt:=2 else drop");
  const auto *Outer = dyn_cast<IfThenElseNode>(P);
  ASSERT_NE(Outer, nullptr);
  EXPECT_TRUE(isa<IfThenElseNode>(Outer->elseBranch()));
}

TEST_F(ParserTest, WhileLoop) {
  const Node *P = parseOk("while !sw=2 do (sw:=2 ; pt:=1)");
  const auto *W = dyn_cast<WhileNode>(P);
  ASSERT_NE(W, nullptr);
  EXPECT_TRUE(isa<NotNode>(W->cond()));
  EXPECT_TRUE(isa<SeqNode>(W->body()));
}

TEST_F(ParserTest, VarDesugars) {
  const Node *P = parseOk("var up2 := 1 in (up2=1 ; pt:=2)");
  // var f := n in p ≜ f := n ; p ; f := 0.
  const auto *S = dyn_cast<SeqNode>(P);
  ASSERT_NE(S, nullptr);
  const auto *Init = dyn_cast<AssignNode>(S->lhs());
  ASSERT_NE(Init, nullptr);
  EXPECT_EQ(Init->value(), 1u);
  EXPECT_EQ(Ctx.fields().name(Init->field()), "up2");
}

TEST_F(ParserTest, RunningExampleFromPaper) {
  // §2's forwarding policy p for the three-switch triangle.
  const Node *P = parseOk("if sw=1 then pt:=2 else "
                          "if sw=2 then pt:=2 else drop");
  ASSERT_TRUE(isa<IfThenElseNode>(P));
  EXPECT_TRUE(isGuarded(P));

  // The full model shape: in ; p ; while !out do (t ; p).
  const Node *M = parseOk(
      "sw=1 ; pt=1 ; "
      "(if sw=1 then pt:=2 else if sw=2 then pt:=2 else drop) ; "
      "while !(sw=2 ; pt=2) do ("
      "  (if sw=1 ; pt=2 then sw:=2 ; pt:=1 else skip) ; "
      "  (if sw=1 then pt:=2 else if sw=2 then pt:=2 else drop))");
  EXPECT_TRUE(isGuarded(M));
}

TEST_F(ParserTest, CommentsAndWhitespace) {
  const Node *P = parseOk("// leading comment\n"
                          "sw=1 ; /* inline */ pt:=2 // trailing\n");
  EXPECT_TRUE(isa<SeqNode>(P));
}

TEST_F(ParserTest, DiagnosticsCarryPositions) {
  std::string Msg = parseError("sw=1 ;\n@");
  EXPECT_NE(Msg.find("2:1"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("unexpected character"), std::string::npos) << Msg;
}

TEST_F(ParserTest, DiagnosticRenderFormatIsPinned) {
  // The `line:col: message` rendering is machine-consumed (editors, the
  // lint_smoke ctest); pin it exactly.
  ParseResult Result = parser::parseProgram("sw=1 ;\n@", Ctx);
  ASSERT_FALSE(Result.ok());
  ASSERT_FALSE(Result.Diagnostics.empty());
  EXPECT_EQ(Result.Diagnostics[0].render(),
            "2:1: expected a program, found unexpected character '@'");
  EXPECT_TRUE(Result.Diagnostics[0].Check.empty()); // Hard error, no slug.

  Result = parser::parseProgram("pt :=", Ctx);
  ASSERT_FALSE(Result.ok());
  ASSERT_FALSE(Result.Diagnostics.empty());
  EXPECT_EQ(Result.Diagnostics[0].render(),
            "1:6: expected a natural number, found end of input");
}

TEST_F(ParserTest, NodeLocationsRecordedInTheSideTable) {
  const Node *P = parseOk("sw=1 ;\n  pt:=2");
  SourceLoc Root = Ctx.loc(P);
  EXPECT_EQ(Root.Line, 1u);
  EXPECT_EQ(Root.Column, 1u);
  const auto *S = cast<SeqNode>(P);
  EXPECT_EQ(Ctx.loc(S->lhs()).Line, 1u);
  EXPECT_EQ(Ctx.loc(S->lhs()).Column, 1u);
  EXPECT_EQ(Ctx.loc(S->rhs()).Line, 2u);
  EXPECT_EQ(Ctx.loc(S->rhs()).Column, 3u);
}

TEST_F(ParserTest, NormalizedNodeKeepsItsFirstLocation) {
  // `skip ; p` normalizes to p itself; the enclosing sequence's location
  // (1:1) must not overwrite the one p recorded first.
  const Node *P = parseOk("skip ;\n  pt:=1");
  ASSERT_TRUE(isa<AssignNode>(P));
  EXPECT_EQ(Ctx.loc(P).Line, 2u);
  EXPECT_EQ(Ctx.loc(P).Column, 3u);
}

TEST_F(ParserTest, NodesCreatedAfterParsingHaveNoLocation) {
  const Node *P = parseOk("if sw=1 then (hop:=1 ; pt:=2)\n"
                          "else (hop:=2 ; pt:=3)");
  ASSERT_TRUE(Ctx.loc(P).valid());
  // Slicing away `hop` rebuilds the conditional as a new node; the
  // branches it keeps are the parsed assignments.
  ast::SliceResult R =
      ast::slice(Ctx, P, ast::ObservationSet::fields({Ctx.field("pt")}));
  ASSERT_NE(R.Program, P);
  const auto *I = dyn_cast<IfThenElseNode>(R.Program);
  ASSERT_NE(I, nullptr);
  EXPECT_FALSE(Ctx.loc(I).valid());
  EXPECT_EQ(Ctx.loc(I->thenBranch()).Column, 24u);
  EXPECT_EQ(Ctx.loc(I->elseBranch()).Line, 2u);
  // So does a node the simplifier builds.
  const Node *Fresh = ast::simplify(
      Ctx, Ctx.seq(Ctx.test(Ctx.field("sw"), 2), I->thenBranch()));
  EXPECT_FALSE(Ctx.loc(Fresh).valid());
}

TEST_F(ParserTest, SingletonsHaveNoLocation) {
  parseOk("skip ; drop");
  // drop/skip are context-wide singletons: one parse position must not
  // stick to every later occurrence.
  EXPECT_FALSE(Ctx.loc(Ctx.skip()).valid());
  EXPECT_FALSE(Ctx.loc(Ctx.drop()).valid());
}

TEST_F(ParserTest, DegenerateChoiceWarns) {
  ParseResult Result = parser::parseProgram("pt:=1 +[1] pt:=2", Ctx);
  ASSERT_TRUE(Result.ok());
  EXPECT_TRUE(isa<AssignNode>(Result.Program)); // Collapsed to the left.
  ASSERT_EQ(Result.Warnings.size(), 1u);
  EXPECT_EQ(Result.Warnings[0].Check, "degenerate-choice");
  EXPECT_EQ(Result.Warnings[0].Line, 1u);
  EXPECT_EQ(Result.Warnings[0].Column, 7u);
  EXPECT_EQ(Result.Warnings[0].Message,
            "probabilistic choice with probability 1 is degenerate: only "
            "the left branch can run");

  Result = parser::parseProgram("pt:=1 +[0] pt:=2", Ctx);
  ASSERT_TRUE(Result.ok());
  ASSERT_EQ(Result.Warnings.size(), 1u);
  EXPECT_EQ(Result.Warnings[0].Message,
            "probabilistic choice with probability 0 is degenerate: only "
            "the right branch can run");

  // A proper probability is quiet.
  Result = parser::parseProgram("pt:=1 +[1/2] pt:=2", Ctx);
  ASSERT_TRUE(Result.ok());
  EXPECT_TRUE(Result.Warnings.empty());
}

TEST_F(ParserTest, WarningsAreDroppedOnFailedParses) {
  ParseResult Result = parser::parseProgram("pt:=1 +[1] @", Ctx);
  EXPECT_FALSE(Result.ok());
  EXPECT_TRUE(Result.Warnings.empty());
}

TEST_F(ParserTest, RejectsMalformedPrograms) {
  EXPECT_NE(parseError(""), "");
  EXPECT_NE(parseError("sw="), "");
  EXPECT_NE(parseError("sw"), "");
  EXPECT_NE(parseError("pt:="), "");
  EXPECT_NE(parseError("(sw=1"), "");
  EXPECT_NE(parseError("if sw=1 then pt:=1"), ""); // Missing else.
  EXPECT_NE(parseError("while sw=1 pt:=1"), "");   // Missing do.
  EXPECT_NE(parseError("pt:=1 +[] pt:=2"), "");
  EXPECT_NE(parseError("pt:=1 +[1/0] pt:=2"), "");
  EXPECT_NE(parseError("sw=1 ; ; sw=2"), "");
}

TEST_F(ParserTest, RejectsSemanticErrors) {
  // Negation of a non-predicate.
  std::string Msg = parseError("!(pt:=1)");
  EXPECT_NE(Msg.find("predicate"), std::string::npos) << Msg;
  // Conditions must be predicates.
  Msg = parseError("if pt:=1 then skip else drop");
  EXPECT_NE(Msg.find("predicate"), std::string::npos) << Msg;
  Msg = parseError("while pt:=1 do skip");
  EXPECT_NE(Msg.find("predicate"), std::string::npos) << Msg;
  // Probability outside [0,1].
  Msg = parseError("pt:=1 +[3/2] pt:=2");
  EXPECT_NE(Msg.find("[0, 1]"), std::string::npos) << Msg;
  // Oversized field value.
  Msg = parseError("pt:=4294967296");
  EXPECT_NE(Msg.find("32 bits"), std::string::npos) << Msg;
}

TEST_F(ParserTest, PrintParseRoundTrip) {
  const char *Sources[] = {
      "drop",
      "skip",
      "sw=1",
      "pt:=2",
      "sw=1 ; pt:=2",
      "sw=1 & pt=2",
      "!sw=1",
      "pt:=1 +[1/3] pt:=2",
      "(pt:=1 +[1/2] pt:=2) +[1/3] pt:=3",
      "if sw=1 then pt:=2 else drop",
      "while !sw=2 do (pt:=1 ; sw:=2)",
      "if sw=1 then (pt:=1 +[1/2] pt:=2) else (if sw=2 then skip else drop)",
      "(sw=1 ; pt:=2)*",
  };
  for (const char *Source : Sources) {
    const Node *First = parseOk(Source);
    std::string Printed = print(First, Ctx.fields());
    const Node *Second = parseOk(Printed);
    EXPECT_TRUE(structurallyEqual(First, Second))
        << Source << " printed as " << Printed;
  }
}

//===----------------------------------------------------------------------===//
// `case` surface syntax (§6's n-ary disjoint branching)
//===----------------------------------------------------------------------===//

TEST_F(ParserTest, CaseSyntax) {
  const Node *C =
      parseOk("case { sw=1 -> pt:=1 | sw=2 -> pt:=2 ; sw:=3 | "
              "else -> drop }");
  ASSERT_TRUE(isa<CaseNode>(C));
  const auto *Case = cast<CaseNode>(C);
  ASSERT_EQ(Case->branches().size(), 2u);
  EXPECT_TRUE(isa<TestNode>(Case->branches()[0].first));
  EXPECT_TRUE(isa<AssignNode>(Case->branches()[0].second));
  EXPECT_TRUE(isa<SeqNode>(Case->branches()[1].second));
  EXPECT_TRUE(isa<DropNode>(Case->defaultBranch()));
}

TEST_F(ParserTest, CaseWithOnlyElseCollapsesToDefault) {
  // Zero branches normalize away the CaseNode entirely (caseOf contract).
  const Node *C = parseOk("case { else -> pt:=7 }");
  ASSERT_TRUE(isa<AssignNode>(C));
}

TEST_F(ParserTest, CaseGuardsMayBeCompoundPredicates) {
  const Node *C = parseOk(
      "case { sw=1 ; pt=1 -> sw:=2 | !sw=2 & pt=0 -> drop | else -> skip }");
  ASSERT_TRUE(isa<CaseNode>(C));
  EXPECT_EQ(cast<CaseNode>(C)->branches().size(), 2u);
}

TEST_F(ParserTest, CaseDiagnostics) {
  // Guards must be predicates.
  EXPECT_NE(parseError("case { pt:=1 -> drop | else -> skip }")
                .find("predicate"),
            std::string::npos);
  // The else branch is mandatory (a branch without one dead-ends at '}').
  EXPECT_NE(parseError("case { sw=1 -> drop }").find("'|'"),
            std::string::npos);
  // Unterminated case.
  parseError("case { sw=1 -> drop | else -> skip");
  // Nested case round-trips through the printer.
  const Node *Nested = parseOk(
      "case { sw=1 -> case { pt=1 -> drop | else -> skip } | "
      "else -> skip }");
  const Node *Again = parseOk(print(Nested, Ctx.fields()));
  EXPECT_TRUE(structurallyEqual(Nested, Again));
}

// --- Lexer behaviour ------------------------------------------------------

TEST_F(ParserTest, LexerErrorsRenderExactly) {
  // One case per lexer error token; each reaches the user as the
  // "found ..." half of the parser's first diagnostic.
  EXPECT_EQ(parseError("@"),
            "1:1: expected a program, found unexpected character '@'");
  EXPECT_EQ(parseError("sw=1 ;\n  pt:=2 #"),
            "2:9: expected end of input, found unexpected character '#'");
  EXPECT_EQ(parseError("sw=1 -"),
            "1:6: expected end of input, found expected '>' after '-'");
  EXPECT_EQ(parseError("case { sw=1 - drop | else -> skip }"),
            "1:13: expected '->', found expected '>' after '-'");
  EXPECT_EQ(parseError("sw=1 :"),
            "1:6: expected end of input, found expected '=' after ':'");
  EXPECT_EQ(parseError("var x : 1 in skip"),
            "1:7: expected ':=', found expected '=' after ':'");
}

TEST_F(ParserTest, DescribeCurrentNamesIdentifiersAndNumbers) {
  EXPECT_EQ(parseError("sw=1 pt"),
            "1:6: expected end of input, found identifier 'pt'");
  EXPECT_EQ(parseError("sw=1 42"),
            "1:6: expected end of input, found number '42'");
  EXPECT_EQ(parseError("sw=pt"),
            "1:4: expected a natural number, found identifier 'pt'");
  EXPECT_EQ(parseError("pt:=1 +[x] pt:=2"),
            "1:9: expected a probability, found identifier 'x'");
  EXPECT_EQ(parseError("pt:=1 +[1/2 pt:=2"),
            "1:13: expected ']', found identifier 'pt'");
  EXPECT_EQ(parseError("drop 007"),
            "1:6: expected end of input, found number '007'");
}

TEST_F(ParserTest, LexerRecognizesEachKeyword) {
  const std::pair<const char *, parser::TokenKind> Keywords[] = {
      {"drop", parser::TokenKind::KwDrop},   {"skip", parser::TokenKind::KwSkip},
      {"if", parser::TokenKind::KwIf},       {"then", parser::TokenKind::KwThen},
      {"else", parser::TokenKind::KwElse},   {"while", parser::TokenKind::KwWhile},
      {"do", parser::TokenKind::KwDo},       {"var", parser::TokenKind::KwVar},
      {"in", parser::TokenKind::KwIn},       {"case", parser::TokenKind::KwCase},
  };
  for (const auto &[Spelling, Kind] : Keywords) {
    const std::string Source = std::string("  ") + Spelling + " ";
    parser::Lexer Lex(Source);
    parser::Token T = Lex.next();
    EXPECT_EQ(T.Kind, Kind) << Spelling;
    EXPECT_EQ(T.Text, Spelling);
    EXPECT_EQ(T.Line, 1u);
    EXPECT_EQ(T.Column, 3u);
    EXPECT_EQ(Lex.next().Kind, parser::TokenKind::Eof) << Spelling;
  }
}

TEST_F(ParserTest, KeywordNearMissesLexAsIdentifiers) {
  for (const char *Spelling :
       {"dropx", "iff", "_if", "do_", "in2", "Drop", "ski", "cases", "whil",
        "thenelse", "d", "v", "_", "x_1"}) {
    const std::string Source = Spelling;
    parser::Lexer Lex(Source);
    parser::Token T = Lex.next();
    EXPECT_EQ(T.Kind, parser::TokenKind::Ident) << Spelling;
    EXPECT_EQ(T.Text, Spelling);
    EXPECT_EQ(Lex.next().Kind, parser::TokenKind::Eof) << Spelling;
  }
  // A near miss is an ordinary field name to the parser.
  const Node *P = parseOk("iff=1 ; do_:=2");
  EXPECT_TRUE(isa<SeqNode>(P));
  EXPECT_EQ(Ctx.fields().lookup("iff"), 0);
  EXPECT_EQ(Ctx.fields().lookup("do_"), 1);
}

TEST_F(ParserTest, LexerTokensCarryTextAndPositions) {
  const std::string Source = "sw=12 ;\n\tpt:=3 +[1/4] /* c */ -> :=";
  parser::Lexer Lex(Source);
  const std::tuple<parser::TokenKind, const char *, unsigned, unsigned>
      Expected[] = {
          {parser::TokenKind::Ident, "sw", 1, 1},
          {parser::TokenKind::Equal, "=", 1, 3},
          {parser::TokenKind::Number, "12", 1, 4},
          {parser::TokenKind::Semi, ";", 1, 7},
          {parser::TokenKind::Ident, "pt", 2, 2},
          {parser::TokenKind::ColonEq, ":=", 2, 4},
          {parser::TokenKind::Number, "3", 2, 6},
          {parser::TokenKind::Plus, "+", 2, 8},
          {parser::TokenKind::LBracket, "[", 2, 9},
          {parser::TokenKind::Number, "1", 2, 10},
          {parser::TokenKind::Slash, "/", 2, 11},
          {parser::TokenKind::Number, "4", 2, 12},
          {parser::TokenKind::RBracket, "]", 2, 13},
          {parser::TokenKind::Arrow, "->", 2, 23},
          {parser::TokenKind::ColonEq, ":=", 2, 26},
          {parser::TokenKind::Eof, "", 2, 28},
      };
  for (const auto &[Kind, Text, Line, Column] : Expected) {
    parser::Token T = Lex.next();
    EXPECT_EQ(T.Kind, Kind) << Text;
    EXPECT_EQ(T.Text, Text);
    EXPECT_EQ(T.Line, Line) << Text;
    EXPECT_EQ(T.Column, Column) << Text;
  }
}

TEST_F(ParserTest, ProbabilityLiteralsAreCanonical) {
  // Word-sized literals and literals past int64 must produce the same
  // canonical Rational.
  auto Prob = [&](const std::string &Literal) {
    const Node *P = parseOk("pt:=1 +[" + Literal + "] pt:=2");
    const auto *C = dyn_cast<ChoiceNode>(P);
    return C ? C->probability().toString() : std::string("<collapsed>");
  };
  EXPECT_EQ(Prob("2/4"), "1/2");
  EXPECT_EQ(Prob("0.50"), "1/2");
  EXPECT_EQ(Prob("00.250"), "1/4");
  EXPECT_EQ(Prob("0.1"), "1/10");
  EXPECT_EQ(Prob("3/9"), "1/3");
  EXPECT_EQ(Prob("9223372036854775807/18446744073709551614"), "1/2");
  EXPECT_EQ(Prob("123456789012345678901/246913578024691357802"), "1/2");
  EXPECT_EQ(Prob("0.1234567890123456789"),
            "1234567890123456789/10000000000000000000");
  EXPECT_EQ(Prob("0.123456789012345678"),
            "61728394506172839/500000000000000000");
  EXPECT_EQ(Prob("1/18446744073709551616"), "1/18446744073709551616");
  EXPECT_EQ(parseError("pt:=1 +[1/0] pt:=2"), "1:12: malformed rational 1/0");
  EXPECT_EQ(parseError("pt:=1 +[0/000] pt:=2"),
            "1:14: malformed rational 0/000");
  EXPECT_EQ(parseError("pt:=1 +[9223372036854775808/0] pt:=2"),
            "1:30: malformed rational 9223372036854775808/0");
  EXPECT_EQ(parseError("pt:=1 +[5/4] pt:=2"),
            "1:12: choice probability must lie in [0, 1], got 5/4");
  EXPECT_EQ(parseError("pt:=1 +[1.5] pt:=2"),
            "1:12: choice probability must lie in [0, 1], got 3/2");
}

TEST_F(ParserTest, OverLongDecimalProbabilityIsADiagnostic) {
  // 10^digits would pass BigInt::pow's bit cap (4 bits per digit) and
  // abort the process; past MaxPowBits / 4 digits after the point the
  // literal is a parse error at its first digit instead.
  std::string Zeros(1100000, '0');
  EXPECT_EQ(parseError("pt:=1 +[0." + Zeros + "1] pt:=2"),
            "1:9: decimal probability has 1100001 digits after the point "
            "(the limit is 1048576)");
}

TEST_F(ParserTest, FullFieldTableIsADiagnostic) {
  // The table holds MaxFields names; a program that fills it parses.
  std::string Program;
  for (std::size_t I = 0; I < FieldTable::MaxFields; ++I)
    Program += (I ? " ; f" : "f") + std::to_string(I) + "=1";
  parseOk(Program);
  ASSERT_EQ(Ctx.fields().numFields(), FieldTable::MaxFields);
  // One new name more is an ordinary parse error at that name, and
  // nothing is interned.
  EXPECT_EQ(parseError("f7=1 ;\n  extra:=2"),
            "2:3: too many distinct field names (the limit is 65535)");
  EXPECT_EQ(parseError("var tmp := 1 in f0:=1"),
            "1:5: too many distinct field names (the limit is 65535)");
  EXPECT_EQ(Ctx.fields().numFields(), FieldTable::MaxFields);
  EXPECT_EQ(Ctx.fields().lookup("extra"), FieldTable::NotFound);
  // Names already interned still parse.
  EXPECT_TRUE(isa<SeqNode>(parseOk("f0=1 ; f65534:=3")));
}
