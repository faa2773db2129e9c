//===----------------------------------------------------------------------===//
///
/// \file
/// Token scanner for the `.pnk` surface syntax with source positions and
/// line/block comment handling.
///
//===----------------------------------------------------------------------===//

#include "parser/Lexer.h"

#include "support/Error.h"


using namespace mcnk;
using namespace mcnk::parser;

const char *parser::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Eof:
    return "end of input";
  case TokenKind::Error:
    return "invalid token";
  case TokenKind::Ident:
    return "identifier";
  case TokenKind::Number:
    return "number";
  case TokenKind::KwDrop:
    return "'drop'";
  case TokenKind::KwSkip:
    return "'skip'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwThen:
    return "'then'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwDo:
    return "'do'";
  case TokenKind::KwVar:
    return "'var'";
  case TokenKind::KwIn:
    return "'in'";
  case TokenKind::KwCase:
    return "'case'";
  case TokenKind::Equal:
    return "'='";
  case TokenKind::ColonEq:
    return "':='";
  case TokenKind::Bang:
    return "'!'";
  case TokenKind::Amp:
    return "'&'";
  case TokenKind::Semi:
    return "';'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::Dot:
    return "'.'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::LBracket:
    return "'['";
  case TokenKind::RBracket:
    return "']'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::Pipe:
    return "'|'";
  case TokenKind::Arrow:
    return "'->'";
  }
  MCNK_UNREACHABLE("unhandled token kind");
}

char Lexer::peek(std::size_t Ahead) const {
  return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
}

char Lexer::advance() {
  char C = Source[Pos++];
  if (C == '\n') {
    ++Line;
    Column = 1;
  } else {
    ++Column;
  }
  return C;
}

void Lexer::skipTrivia() {
  for (;;) {
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      advance();
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      while (peek() != '\n' && peek() != '\0')
        advance();
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      advance();
      advance();
      while (!(peek() == '*' && peek(1) == '/') && peek() != '\0')
        advance();
      if (peek() != '\0') {
        advance();
        advance();
      }
      continue;
    }
    return;
  }
}

Token Lexer::makeToken(TokenKind Kind, std::size_t Start, unsigned TokLine,
                       unsigned TokCol) const {
  return {Kind, Source.substr(Start, Pos - Start), TokLine, TokCol};
}

Token Lexer::makeError(std::string Message, unsigned TokLine,
                       unsigned TokCol) {
  ErrorText = std::move(Message);
  return {TokenKind::Error, ErrorText, TokLine, TokCol};
}

namespace {

// ASCII classes, as <cctype> gives them in the "C" locale.
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isWordStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}
bool isWordChar(char C) { return isWordStart(C) || isDigit(C); }

/// The keyword spelled \p W, or Ident: a switch on the length (and the
/// first letter), then one compare.
TokenKind classifyWord(std::string_view W) {
  auto Is = [W](std::string_view Keyword, TokenKind Kind) {
    return W == Keyword ? Kind : TokenKind::Ident;
  };
  switch (W.size()) {
  case 2:
    return W[0] == 'd' ? Is("do", TokenKind::KwDo)
           : W[1] == 'f' ? Is("if", TokenKind::KwIf)
                         : Is("in", TokenKind::KwIn);
  case 3:
    return Is("var", TokenKind::KwVar);
  case 4:
    switch (W[0]) {
    case 'd':
      return Is("drop", TokenKind::KwDrop);
    case 's':
      return Is("skip", TokenKind::KwSkip);
    case 't':
      return Is("then", TokenKind::KwThen);
    case 'e':
      return Is("else", TokenKind::KwElse);
    default:
      return Is("case", TokenKind::KwCase);
    }
  case 5:
    return Is("while", TokenKind::KwWhile);
  default:
    return TokenKind::Ident;
  }
}

} // namespace

Token Lexer::next() {
  skipTrivia();
  const std::size_t Start = Pos;
  unsigned TokLine = Line, TokCol = Column;
  if (Pos >= Source.size())
    return makeToken(TokenKind::Eof, Start, TokLine, TokCol);

  char C = advance();
  switch (C) {
  case '=':
    return makeToken(TokenKind::Equal, Start, TokLine, TokCol);
  case '!':
    return makeToken(TokenKind::Bang, Start, TokLine, TokCol);
  case '&':
    return makeToken(TokenKind::Amp, Start, TokLine, TokCol);
  case ';':
    return makeToken(TokenKind::Semi, Start, TokLine, TokCol);
  case '*':
    return makeToken(TokenKind::Star, Start, TokLine, TokCol);
  case '+':
    return makeToken(TokenKind::Plus, Start, TokLine, TokCol);
  case '/':
    return makeToken(TokenKind::Slash, Start, TokLine, TokCol);
  case '.':
    return makeToken(TokenKind::Dot, Start, TokLine, TokCol);
  case '(':
    return makeToken(TokenKind::LParen, Start, TokLine, TokCol);
  case ')':
    return makeToken(TokenKind::RParen, Start, TokLine, TokCol);
  case '[':
    return makeToken(TokenKind::LBracket, Start, TokLine, TokCol);
  case ']':
    return makeToken(TokenKind::RBracket, Start, TokLine, TokCol);
  case '{':
    return makeToken(TokenKind::LBrace, Start, TokLine, TokCol);
  case '}':
    return makeToken(TokenKind::RBrace, Start, TokLine, TokCol);
  case '|':
    return makeToken(TokenKind::Pipe, Start, TokLine, TokCol);
  case '-':
    if (peek() == '>') {
      advance();
      return makeToken(TokenKind::Arrow, Start, TokLine, TokCol);
    }
    return makeError("expected '>' after '-'", TokLine, TokCol);
  case ':':
    if (peek() == '=') {
      advance();
      return makeToken(TokenKind::ColonEq, Start, TokLine, TokCol);
    }
    return makeError("expected '=' after ':'", TokLine, TokCol);
  default:
    break;
  }

  // Numbers and words hold no newline, so the column moves by their length.
  if (isDigit(C) || isWordStart(C)) {
    const bool Word = isWordStart(C);
    while (Pos < Source.size() &&
           (Word ? isWordChar(Source[Pos]) : isDigit(Source[Pos])))
      ++Pos;
    Column += static_cast<unsigned>(Pos - Start - 1);
    Token T = makeToken(Word ? TokenKind::Ident : TokenKind::Number, Start,
                        TokLine, TokCol);
    if (Word)
      T.Kind = classifyWord(T.Text);
    return T;
  }

  return makeError(std::string("unexpected character '") + C + "'", TokLine,
                   TokCol);
}
