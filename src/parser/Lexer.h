//===----------------------------------------------------------------------===//
///
/// \file
/// Lexer for the `.pnk` surface syntax. Produces a token stream with
/// source positions for diagnostics; supports `//` line and `/* */` block
/// comments. Tokens are zero-copy: their text views the source buffer,
/// which must outlive every token taken from it.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_PARSER_LEXER_H
#define MCNK_PARSER_LEXER_H

#include <cstdint>
#include <string>
#include <string_view>

namespace mcnk {
namespace parser {

enum class TokenKind : uint8_t {
  Eof,
  Error,
  Ident,
  Number,
  KwDrop,
  KwSkip,
  KwIf,
  KwThen,
  KwElse,
  KwWhile,
  KwDo,
  KwVar,
  KwIn,
  KwCase,
  Equal,     // =
  ColonEq,   // :=
  Bang,      // !
  Amp,       // &
  Semi,      // ;
  Star,      // *
  Plus,      // +
  Slash,     // /
  Dot,       // .
  LParen,    // (
  RParen,    // )
  LBracket,  // [
  RBracket,  // ]
  LBrace,    // {
  RBrace,    // }
  Pipe,      // |
  Arrow,     // ->
};

/// Human-readable token-kind name for diagnostics.
const char *tokenKindName(TokenKind Kind);

struct Token {
  TokenKind Kind = TokenKind::Eof;
  /// The token's spelling in the source; for an Error token, the message
  /// (owned by the Lexer, valid until its next error token).
  std::string_view Text;
  unsigned Line = 1;   // 1-based.
  unsigned Column = 1; // 1-based.
};

/// Single-pass lexer over an in-memory buffer.
class Lexer {
public:
  explicit Lexer(std::string_view Src) : Source(Src) {}

  /// Scans and returns the next token (Eof forever at end of input).
  Token next();

private:
  char peek(std::size_t Ahead = 0) const;
  char advance();
  void skipTrivia();
  Token makeToken(TokenKind Kind, std::size_t Start, unsigned Line,
                  unsigned Col) const;
  Token makeError(std::string Message, unsigned Line, unsigned Col);

  std::string_view Source;
  std::string ErrorText;
  std::size_t Pos = 0;
  unsigned Line = 1;
  unsigned Column = 1;
};

} // namespace parser
} // namespace mcnk

#endif // MCNK_PARSER_LEXER_H
