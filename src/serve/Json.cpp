//===----------------------------------------------------------------------===//
///
/// \file
/// JSON parse/serialize for the serve protocol. Recursive-descent with an
/// explicit depth cap: request bytes come off a socket, and "[[[[..." must
/// exhaust a counter, not the stack.
///
//===----------------------------------------------------------------------===//

#include "serve/Json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace mcnk;
using namespace mcnk::serve;

Json Json::boolean(bool V) {
  Json J;
  J.K = Kind::Bool;
  J.B = V;
  return J;
}
Json Json::integer(int64_t V) {
  Json J;
  J.K = Kind::Int;
  J.I = V;
  return J;
}
Json Json::number(double V) {
  Json J;
  J.K = Kind::Double;
  J.D = V;
  return J;
}
Json Json::string(std::string V) {
  Json J;
  J.K = Kind::String;
  J.Str = std::move(V);
  return J;
}
Json Json::array() {
  Json J;
  J.K = Kind::Array;
  return J;
}
Json Json::object() {
  Json J;
  J.K = Kind::Object;
  return J;
}

void Json::set(std::string Key, Json V) {
  for (auto &[K2, V2] : Members)
    if (K2 == Key) {
      V2 = std::move(V);
      return;
    }
  Members.emplace_back(std::move(Key), std::move(V));
}

const Json *Json::find(const std::string &Key) const {
  for (const auto &[K2, V2] : Members)
    if (K2 == Key)
      return &V2;
  return nullptr;
}

namespace {

/// Appends S[Pos, Pos + N) to Out. Out's capacity doubles as often as a
/// byte-at-a-time append would double it, so a dumped document holds the
/// same memory however its strings were split into runs.
void appendRun(const std::string &S, std::size_t Pos, std::size_t N,
               std::string &Out) {
  std::size_t Capacity = Out.capacity();
  if (Out.size() + N > Capacity) {
    while (Capacity < Out.size() + N)
      Capacity *= 2;
    Out.reserve(Capacity);
  }
  Out.append(S, Pos, N);
}

void dumpString(const std::string &S, std::string &Out) {
  Out += '"';
  // Runs of bytes that need no escape are appended in one call.
  std::size_t Run = 0;
  for (std::size_t I = 0; I < S.size(); ++I) {
    const char C = S[I];
    if (C != '"' && C != '\\' && static_cast<unsigned char>(C) >= 0x20)
      continue; // UTF-8 passes through byte-for-byte.
    appendRun(S, Run, I - Run, Out);
    Run = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default: {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    }
    }
  }
  appendRun(S, Run, S.size() - Run, Out);
  Out += '"';
}

void dumpInto(const Json &V, std::string &Out) {
  switch (V.kind()) {
  case Json::Kind::Null:
    Out += "null";
    return;
  case Json::Kind::Bool:
    Out += V.asBool() ? "true" : "false";
    return;
  case Json::Kind::Int:
    Out += std::to_string(V.asInt());
    return;
  case Json::Kind::Double: {
    double D = V.asDouble();
    if (std::isfinite(D)) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.17g", D);
      Out += Buf;
    } else {
      Out += "null"; // JSON has no Inf/NaN.
    }
    return;
  }
  case Json::Kind::String:
    dumpString(V.asString(), Out);
    return;
  case Json::Kind::Array: {
    Out += '[';
    bool First = true;
    for (const Json &E : V.elements()) {
      if (!First)
        Out += ',';
      First = false;
      dumpInto(E, Out);
    }
    Out += ']';
    return;
  }
  case Json::Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &[K, E] : V.members()) {
      if (!First)
        Out += ',';
      First = false;
      dumpString(K, Out);
      Out += ':';
      dumpInto(E, Out);
    }
    Out += '}';
    return;
  }
  }
}

/// Recursive-descent parser over untrusted bytes.
struct Parser {
  const char *Data;
  std::size_t Size;
  std::size_t Pos = 0;
  std::string *Error;
  static constexpr unsigned MaxDepth = 64;

  bool fail(const std::string &Msg) {
    if (Error)
      *Error = Msg + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipSpace() {
    while (Pos < Size && (Data[Pos] == ' ' || Data[Pos] == '\t' ||
                          Data[Pos] == '\n' || Data[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Word, std::size_t Len) {
    if (Size - Pos < Len)
      return false;
    for (std::size_t I = 0; I < Len; ++I)
      if (Data[Pos + I] != Word[I])
        return false;
    Pos += Len;
    return true;
  }

  bool parseString(std::string &Out) {
    ++Pos; // Opening quote, already checked by caller.
    Out.clear();
    while (Pos < Size) {
      unsigned char C = static_cast<unsigned char>(Data[Pos]);
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C < 0x20)
        return fail("unescaped control character in string");
      if (C != '\\') {
        Out += static_cast<char>(C);
        ++Pos;
        continue;
      }
      if (Size - Pos < 2)
        return fail("truncated escape");
      char E = Data[Pos + 1];
      Pos += 2;
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Size - Pos < 4)
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (unsigned I = 0; I < 4; ++I) {
          char H = Data[Pos + I];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad \\u escape");
        }
        Pos += 4;
        // Encode the BMP code point as UTF-8. Surrogate pairs are not
        // needed by the protocol (all keys/verbs are ASCII); reject them
        // cleanly rather than emit broken UTF-8.
        if (Code >= 0xd800 && Code <= 0xdfff)
          return fail("surrogate \\u escapes unsupported");
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xc0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3f));
        } else {
          Out += static_cast<char>(0xe0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3f));
          Out += static_cast<char>(0x80 | (Code & 0x3f));
        }
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(Json &Out) {
    std::size_t Start = Pos;
    if (Pos < Size && Data[Pos] == '-')
      ++Pos;
    bool Integral = true;
    while (Pos < Size && std::isdigit(static_cast<unsigned char>(Data[Pos])))
      ++Pos;
    if (Pos < Size && (Data[Pos] == '.' || Data[Pos] == 'e' ||
                       Data[Pos] == 'E')) {
      Integral = false;
      while (Pos < Size &&
             (std::isdigit(static_cast<unsigned char>(Data[Pos])) ||
              Data[Pos] == '.' || Data[Pos] == 'e' || Data[Pos] == 'E' ||
              Data[Pos] == '+' || Data[Pos] == '-'))
        ++Pos;
    }
    std::string Text(Data + Start, Pos - Start);
    if (Text.empty() || Text == "-")
      return fail("malformed number");
    if (Integral) {
      errno = 0;
      char *End = nullptr;
      long long V = std::strtoll(Text.c_str(), &End, 10);
      if (errno != 0 || End != Text.c_str() + Text.size())
        return fail("integer out of range");
      Out = Json::integer(V);
      return true;
    }
    errno = 0;
    char *End = nullptr;
    double V = std::strtod(Text.c_str(), &End);
    if (End != Text.c_str() + Text.size())
      return fail("malformed number");
    Out = Json::number(V);
    return true;
  }

  bool parseValue(Json &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipSpace();
    if (Pos >= Size)
      return fail("unexpected end of input");
    char C = Data[Pos];
    if (C == 'n')
      return literal("null", 4) ? (Out = Json::null(), true)
                                : fail("bad literal");
    if (C == 't')
      return literal("true", 4) ? (Out = Json::boolean(true), true)
                                : fail("bad literal");
    if (C == 'f')
      return literal("false", 5) ? (Out = Json::boolean(false), true)
                                 : fail("bad literal");
    if (C == '"') {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Json::string(std::move(S));
      return true;
    }
    if (C == '[') {
      ++Pos;
      Out = Json::array();
      skipSpace();
      if (Pos < Size && Data[Pos] == ']') {
        ++Pos;
        return true;
      }
      while (true) {
        Json Elem;
        if (!parseValue(Elem, Depth + 1))
          return false;
        Out.push(std::move(Elem));
        skipSpace();
        if (Pos >= Size)
          return fail("unterminated array");
        if (Data[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Data[Pos] == ']') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (C == '{') {
      ++Pos;
      Out = Json::object();
      skipSpace();
      if (Pos < Size && Data[Pos] == '}') {
        ++Pos;
        return true;
      }
      while (true) {
        skipSpace();
        if (Pos >= Size || Data[Pos] != '"')
          return fail("expected object key");
        std::string Key;
        if (!parseString(Key))
          return false;
        skipSpace();
        if (Pos >= Size || Data[Pos] != ':')
          return fail("expected ':'");
        ++Pos;
        Json Val;
        if (!parseValue(Val, Depth + 1))
          return false;
        Out.members().emplace_back(std::move(Key), std::move(Val));
        skipSpace();
        if (Pos >= Size)
          return fail("unterminated object");
        if (Data[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Data[Pos] == '}') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (C == '-' || std::isdigit(static_cast<unsigned char>(C)))
      return parseNumber(Out);
    return fail("unexpected character");
  }
};

} // namespace

std::string Json::dump() const {
  std::string Out;
  dumpInto(*this, Out);
  return Out;
}

bool serve::parseJson(const std::string &Text, Json &Out,
                      std::string *Error) {
  Parser P{Text.c_str(), Text.size(), 0, Error};
  if (!P.parseValue(Out, 0))
    return false;
  P.skipSpace();
  if (P.Pos != P.Size)
    return P.fail("trailing garbage after value");
  return true;
}
