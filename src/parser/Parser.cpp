//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for `.pnk`, following the precedence ladder
/// documented in Parser.h; errors carry source positions.
///
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"

#include "parser/Lexer.h"
#include "support/BigInt.h"

#include <cassert>
#include <cstdint>
#include <string_view>

using namespace mcnk;
using namespace mcnk::parser;
using ast::Context;
using ast::Node;

std::string Diagnostic::render() const {
  return std::to_string(Line) + ":" + std::to_string(Column) + ": " + Message;
}

namespace {

class ParserImpl {
public:
  ParserImpl(std::string_view Source, Context &C)
      : Lex(Source), Ctx(C) {
    Tok = Lex.next();
  }

  ParseResult run() {
    ParseResult Result;
    const Node *Program = parseChoice();
    if (Program && !expect(TokenKind::Eof))
      Program = nullptr;
    Result.Program = Failed ? nullptr : Program;
    Result.Diagnostics = std::move(Diags);
    Result.Warnings = Failed ? std::vector<Diagnostic>{} : std::move(Warns);
    return Result;
  }

private:
  // --- Token plumbing ---------------------------------------------------
  void bump() { Tok = Lex.next(); }

  bool at(TokenKind Kind) const { return Tok.Kind == Kind; }

  bool accept(TokenKind Kind) {
    if (!at(Kind))
      return false;
    bump();
    return true;
  }

  bool expect(TokenKind Kind) {
    if (accept(Kind))
      return true;
    error(std::string("expected ") + tokenKindName(Kind) + ", found " +
          describeCurrent());
    return false;
  }

  std::string describeCurrent() const {
    if (Tok.Kind == TokenKind::Ident || Tok.Kind == TokenKind::Number)
      return std::string(tokenKindName(Tok.Kind)) + " '" +
             std::string(Tok.Text) + "'";
    if (Tok.Kind == TokenKind::Error)
      return std::string(Tok.Text);
    return tokenKindName(Tok.Kind);
  }

  void error(const std::string &Message) {
    if (Failed)
      return; // Report only the first error; later ones are cascades.
    Failed = true;
    Diags.push_back({Tok.Line, Tok.Column, Message, ""});
  }

  void warn(const Token &At, const char *Check, const std::string &Message) {
    Warns.push_back({At.Line, At.Column, Message, Check});
  }

  /// Interns the field named by the identifier \p At. A full field table
  /// is a parse error, reported before anything is interned.
  bool internField(const Token &At, FieldId &Out) {
    Out = Ctx.fields().tryIntern(At.Text);
    if (Out != FieldTable::NotFound)
      return true;
    Failed = true;
    Diags.push_back({At.Line, At.Column,
                     "too many distinct field names (the limit is " +
                         std::to_string(FieldTable::MaxFields) + ")",
                     {}});
    return false;
  }

  /// Records \p At as the source location of \p N (first write wins, so
  /// compound nodes keep their own start while reused operands keep
  /// theirs).
  const Node *located(const Node *N, const Token &At) {
    if (N)
      Ctx.noteLoc(N, {At.Line, At.Column});
    return N;
  }

  // --- Grammar ----------------------------------------------------------
  const Node *parseChoice() {
    Token Start = Tok;
    const Node *Lhs = parseUnion();
    while (!Failed && at(TokenKind::Plus)) {
      Token OpTok = Tok;
      bump();
      if (!expect(TokenKind::LBracket))
        return nullptr;
      Rational Prob;
      if (!parseRational(Prob))
        return nullptr;
      if (!Prob.isProbability()) {
        error("choice probability must lie in [0, 1], got " +
              Prob.toString());
        return nullptr;
      }
      if (!expect(TokenKind::RBracket))
        return nullptr;
      const Node *Rhs = parseUnion();
      if (Failed)
        return nullptr;
      // r = 0 and r = 1 collapse in Ctx.choice and never reach the AST, so
      // the lint diagnostic has to be raised here.
      if (Prob.isZero() || Prob.isOne())
        warn(OpTok, "degenerate-choice",
             "probabilistic choice with probability " + Prob.toString() +
                 " is degenerate: only the " +
                 (Prob.isOne() ? "left" : "right") + " branch can run");
      Lhs = located(Ctx.choice(Prob, Lhs, Rhs), Start);
    }
    return Failed ? nullptr : Lhs;
  }

  const Node *parseUnion() {
    Token Start = Tok;
    const Node *Lhs = parseSeq();
    while (!Failed && accept(TokenKind::Amp)) {
      const Node *Rhs = parseSeq();
      if (Failed)
        return nullptr;
      Lhs = located(Ctx.unite(Lhs, Rhs), Start);
    }
    return Failed ? nullptr : Lhs;
  }

  const Node *parseSeq() {
    Token Start = Tok;
    const Node *Lhs = parseUnary();
    while (!Failed && accept(TokenKind::Semi)) {
      const Node *Rhs = parseUnary();
      if (Failed)
        return nullptr;
      Lhs = located(Ctx.seq(Lhs, Rhs), Start);
    }
    return Failed ? nullptr : Lhs;
  }

  const Node *parseUnary() {
    if (at(TokenKind::Bang)) {
      Token BangTok = Tok;
      bump();
      const Node *Operand = parseUnary();
      if (Failed)
        return nullptr;
      if (!Operand->isPredicate()) {
        Failed = true;
        Diags.push_back({BangTok.Line, BangTok.Column,
                         "negation '!' applies only to predicates", {}});
        return nullptr;
      }
      return located(Ctx.negate(Operand), BangTok);
    }
    return parsePostfix();
  }

  const Node *parsePostfix() {
    Token Start = Tok;
    const Node *Atom = parseAtom();
    while (!Failed && accept(TokenKind::Star))
      Atom = located(Ctx.star(Atom), Start);
    return Failed ? nullptr : Atom;
  }

  const Node *parseAtom() {
    Token Start = Tok;
    switch (Tok.Kind) {
    case TokenKind::KwDrop:
      bump();
      return Ctx.drop();
    case TokenKind::KwSkip:
      bump();
      return Ctx.skip();
    case TokenKind::LParen: {
      bump();
      const Node *Inner = parseChoice();
      if (Failed || !expect(TokenKind::RParen))
        return nullptr;
      return Inner;
    }
    case TokenKind::Ident:
      return located(parseTestOrAssign(), Start);
    case TokenKind::KwIf:
      return located(parseIf(), Start);
    case TokenKind::KwWhile:
      return located(parseWhile(), Start);
    case TokenKind::KwVar:
      return located(parseVar(), Start);
    case TokenKind::KwCase:
      return located(parseCase(), Start);
    default:
      error("expected a program, found " + describeCurrent());
      return nullptr;
    }
  }

  const Node *parseTestOrAssign() {
    const Token NameTok = Tok;
    std::string_view Name = NameTok.Text;
    if (Name == "dup") {
      error("'dup' is not supported: McNetKAT handles the history-free "
            "fragment of ProbNetKAT (paper Sec. 3)");
      return nullptr;
    }
    bump();
    bool IsAssign = at(TokenKind::ColonEq);
    if (!IsAssign && !at(TokenKind::Equal)) {
      error("expected '=' (test) or ':=' (assignment) after field '" +
            std::string(Name) + "'");
      return nullptr;
    }
    bump();
    FieldValue Value;
    FieldId Field;
    if (!parseFieldValue(Value) || !internField(NameTok, Field))
      return nullptr;
    return IsAssign ? Ctx.assign(Field, Value) : Ctx.test(Field, Value);
  }

  const Node *parseIf() {
    bump(); // 'if'
    const Node *Cond = parsePredicate("if-condition");
    if (Failed || !expect(TokenKind::KwThen))
      return nullptr;
    const Node *Then = parseSeq();
    if (Failed || !expect(TokenKind::KwElse))
      return nullptr;
    const Node *Else = parseSeq();
    if (Failed)
      return nullptr;
    return Ctx.ite(Cond, Then, Else);
  }

  const Node *parseWhile() {
    bump(); // 'while'
    const Node *Cond = parsePredicate("while-condition");
    if (Failed || !expect(TokenKind::KwDo))
      return nullptr;
    const Node *Body = parseSeq();
    if (Failed)
      return nullptr;
    return Ctx.whileLoop(Cond, Body);
  }

  const Node *parseVar() {
    bump(); // 'var'
    if (!at(TokenKind::Ident)) {
      error("expected field name after 'var'");
      return nullptr;
    }
    const Token NameTok = Tok;
    bump();
    if (!expect(TokenKind::ColonEq))
      return nullptr;
    FieldValue Init;
    if (!parseFieldValue(Init))
      return nullptr;
    if (!expect(TokenKind::KwIn))
      return nullptr;
    const Node *Body = parseSeq();
    FieldId Field;
    if (Failed || !internField(NameTok, Field))
      return nullptr;
    return Ctx.local(Field, Init, Body);
  }

  /// 'case' '{' (guard '->' seq '|')* 'else' '->' seq '}' — the n-ary
  /// disjoint branching of §6. The else branch is mandatory and last.
  const Node *parseCase() {
    bump(); // 'case'
    if (!expect(TokenKind::LBrace))
      return nullptr;
    std::vector<ast::CaseNode::Branch> Branches;
    while (!at(TokenKind::KwElse)) {
      const Node *Guard = parsePredicate("case guard");
      if (Failed || !expect(TokenKind::Arrow))
        return nullptr;
      const Node *Program = parseSeq();
      if (Failed || !expect(TokenKind::Pipe))
        return nullptr;
      Branches.push_back({Guard, Program});
    }
    bump(); // 'else'
    if (!expect(TokenKind::Arrow))
      return nullptr;
    const Node *Default = parseSeq();
    if (Failed || !expect(TokenKind::RBrace))
      return nullptr;
    return Ctx.caseOf(std::move(Branches), Default);
  }

  const Node *parsePredicate(const char *What) {
    Token Start = Tok;
    const Node *Pred = parseChoice();
    if (Failed)
      return nullptr;
    if (!Pred->isPredicate()) {
      Failed = true;
      Diags.push_back({Start.Line, Start.Column,
                       std::string(What) + " must be a predicate", {}});
      return nullptr;
    }
    return Pred;
  }

  // --- Literals ----------------------------------------------------------
  bool parseFieldValue(FieldValue &Out) {
    if (!at(TokenKind::Number)) {
      error("expected a natural number, found " + describeCurrent());
      return false;
    }
    unsigned long long Value = 0;
    for (char C : Tok.Text) {
      Value = Value * 10 + static_cast<unsigned>(C - '0');
      if (Value > 0xffffffffULL) {
        error("field value '" + std::string(Tok.Text) + "' exceeds 32 bits");
        return false;
      }
    }
    Out = static_cast<FieldValue>(Value);
    bump();
    return true;
  }

  /// Digits allowed in each number of a probability literal (integer,
  /// numerator, denominator, fraction). BigInt's decimal conversion, the
  /// 10^digits scale and normalisation are all quadratic; at this limit
  /// the worst literal, an a/b or n.f pair of 8192-digit numbers, parses
  /// in about 4 ms (Release, 4-vCPU x86-64 VM), where 2^20 digits took
  /// seconds.
  static constexpr std::size_t MaxLiteralDigits = 8192;

  /// False, with a diagnostic at the start of \p Literal, when \p Digits
  /// is one of its numbers and is longer than MaxLiteralDigits.
  bool checkDigits(const Token &Literal, std::string_view Digits) {
    if (Digits.size() <= MaxLiteralDigits)
      return true;
    Failed = true;
    Diags.push_back({Literal.Line, Literal.Column,
                     "probability literal has a " +
                         std::to_string(Digits.size()) +
                         "-digit number (the limit is " +
                         std::to_string(MaxLiteralDigits) + ")",
                     {}});
    return false;
  }

  /// nat | nat '/' nat | nat '.' digits. BigInt's word-sized
  /// representation is the fast path: literals and results that fit
  /// int64 stay in int64 arithmetic, wider ones promote to limbs, and
  /// both end in the same canonical Rational.
  bool parseRational(Rational &Out) {
    if (!at(TokenKind::Number)) {
      error("expected a probability, found " + describeCurrent());
      return false;
    }
    Token Literal = Tok;
    std::string_view First = Tok.Text;
    bump();
    if (!checkDigits(Literal, First))
      return false;
    BigInt Num = natural(First);
    if (accept(TokenKind::Slash)) {
      if (!at(TokenKind::Number)) {
        error("expected denominator after '/'");
        return false;
      }
      std::string_view Second = Tok.Text;
      bump();
      if (!checkDigits(Literal, Second))
        return false;
      BigInt Den = natural(Second);
      if (Den.isZero()) {
        error("malformed rational " + std::string(First) + "/" +
              std::string(Second));
        return false;
      }
      Out = Rational(std::move(Num), std::move(Den));
      return true;
    }
    if (accept(TokenKind::Dot)) {
      if (!at(TokenKind::Number)) {
        error("expected digits after '.'");
        return false;
      }
      std::string_view Frac = Tok.Text;
      bump();
      // The limit also keeps the scale 10^digits (4 bits per digit) far
      // below BigInt::pow's cap, past which it would abort the process.
      static_assert(MaxLiteralDigits * 4 <= BigInt::MaxPowBits);
      if (!checkDigits(Literal, Frac))
        return false;
      BigInt Scale =
          BigInt::pow(BigInt(10), static_cast<unsigned>(Frac.size()));
      Out = Rational(Num * Scale + natural(Frac), std::move(Scale));
      return true;
    }
    Out = Rational(std::move(Num), BigInt(1));
    return true;
  }

  /// The value of a Number token's digits.
  static BigInt natural(std::string_view Digits) {
    BigInt Value;
    [[maybe_unused]] bool Ok = BigInt::fromString(Digits, Value);
    assert(Ok && "Number tokens hold only digits");
    return Value;
  }

  Lexer Lex;
  Context &Ctx;
  Token Tok;
  bool Failed = false;
  std::vector<Diagnostic> Diags;
  std::vector<Diagnostic> Warns;
};

} // namespace

ParseResult parser::parseProgram(const std::string &Source, Context &Ctx) {
  return ParserImpl(Source, Ctx).run();
}
