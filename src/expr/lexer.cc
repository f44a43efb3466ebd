#include "expr/lexer.h"

#include <cctype>
#include <cstdlib>

#include "util/strings.h"

namespace sl::expr {

const char* TokenKindToString(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEnd: return "<end>";
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kDollar: return "$meta";
    case TokenKind::kInt: return "int";
    case TokenKind::kDouble: return "double";
    case TokenKind::kString: return "string";
    case TokenKind::kLParen: return "(";
    case TokenKind::kRParen: return ")";
    case TokenKind::kLBrace: return "{";
    case TokenKind::kRBrace: return "}";
    case TokenKind::kLBracket: return "[";
    case TokenKind::kRBracket: return "]";
    case TokenKind::kComma: return ",";
    case TokenKind::kSemicolon: return ";";
    case TokenKind::kColon: return ":";
    case TokenKind::kPlus: return "+";
    case TokenKind::kMinus: return "-";
    case TokenKind::kStar: return "*";
    case TokenKind::kSlash: return "/";
    case TokenKind::kPercent: return "%";
    case TokenKind::kEq: return "==";
    case TokenKind::kNe: return "!=";
    case TokenKind::kLt: return "<";
    case TokenKind::kLe: return "<=";
    case TokenKind::kGt: return ">";
    case TokenKind::kGe: return ">=";
    case TokenKind::kArrow: return "->";
    case TokenKind::kAt: return "@";
    case TokenKind::kDot: return ".";
  }
  return "?";
}

std::string Token::ToString() const {
  switch (kind) {
    case TokenKind::kIdent: return text;
    case TokenKind::kDollar: return "$" + text;
    case TokenKind::kInt: return StrFormat("%lld", static_cast<long long>(int_value));
    case TokenKind::kDouble: return StrFormat("%g", double_value);
    case TokenKind::kString: return QuoteString(text);
    default: return TokenKindToString(kind);
  }
}

Result<std::vector<Token>> Tokenize(const std::string& source,
                                    size_t* error_offset) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = source.size();
  auto error = [&source, error_offset](size_t pos, const std::string& msg) {
    if (error_offset != nullptr) *error_offset = pos;
    return Status::ParseError(
        StrFormat("%s at offset %zu near '%.12s'", msg.c_str(), pos,
                  source.c_str() + pos));
  };
  while (i < n) {
    char c = source[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '#') {
      while (i < n && source[i] != '\n') ++i;
      continue;
    }
    Token tok;
    tok.offset = i;
    // Identifiers.
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(source[i])) ||
                       source[i] == '_'))
        ++i;
      tok.kind = TokenKind::kIdent;
      tok.text = source.substr(start, i - start);
      tok.end = i;
      tokens.push_back(std::move(tok));
      continue;
    }
    // $meta.
    if (c == '$') {
      size_t start = ++i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(source[i])) ||
                       source[i] == '_'))
        ++i;
      if (i == start) return error(tok.offset, "expected name after '$'");
      tok.kind = TokenKind::kDollar;
      tok.text = source.substr(start, i - start);
      tok.end = i;
      tokens.push_back(std::move(tok));
      continue;
    }
    // Numbers.
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(source[i + 1])))) {
      size_t start = i;
      bool is_double = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(source[i]))) ++i;
      if (i < n && source[i] == '.' && i + 1 < n &&
          std::isdigit(static_cast<unsigned char>(source[i + 1]))) {
        is_double = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(source[i])))
          ++i;
      }
      if (i < n && (source[i] == 'e' || source[i] == 'E')) {
        size_t save = i;
        ++i;
        if (i < n && (source[i] == '+' || source[i] == '-')) ++i;
        if (i < n && std::isdigit(static_cast<unsigned char>(source[i]))) {
          is_double = true;
          while (i < n && std::isdigit(static_cast<unsigned char>(source[i])))
            ++i;
        } else {
          i = save;  // 'e' belongs to a following identifier
        }
      }
      std::string num = source.substr(start, i - start);
      if (is_double) {
        tok.kind = TokenKind::kDouble;
        tok.double_value = std::strtod(num.c_str(), nullptr);
      } else {
        tok.kind = TokenKind::kInt;
        errno = 0;
        tok.int_value = std::strtoll(num.c_str(), nullptr, 10);
        if (errno == ERANGE) {
          return error(start, "integer literal out of range");
        }
      }
      tok.end = i;
      tokens.push_back(std::move(tok));
      continue;
    }
    // Strings.
    if (c == '"' || c == '\'') {
      char quote = c;
      ++i;
      std::string text;
      bool closed = false;
      while (i < n) {
        char d = source[i];
        if (d == quote) {
          closed = true;
          ++i;
          break;
        }
        if (d == '\\' && i + 1 < n) {
          char e = source[i + 1];
          switch (e) {
            case 'n': text.push_back('\n'); break;
            case 't': text.push_back('\t'); break;
            case 'r': text.push_back('\r'); break;
            case '\\': text.push_back('\\'); break;
            case '"': text.push_back('"'); break;
            case '\'': text.push_back('\''); break;
            default:
              return error(i, "unknown escape sequence");
          }
          i += 2;
          continue;
        }
        text.push_back(d);
        ++i;
      }
      if (!closed) return error(tok.offset, "unterminated string literal");
      tok.kind = TokenKind::kString;
      tok.text = std::move(text);
      tok.end = i;
      tokens.push_back(std::move(tok));
      continue;
    }
    // Operators and punctuation.
    auto two = [&](char next) { return i + 1 < n && source[i + 1] == next; };
    switch (c) {
      case '(': tok.kind = TokenKind::kLParen; ++i; break;
      case ')': tok.kind = TokenKind::kRParen; ++i; break;
      case '{': tok.kind = TokenKind::kLBrace; ++i; break;
      case '}': tok.kind = TokenKind::kRBrace; ++i; break;
      case '[': tok.kind = TokenKind::kLBracket; ++i; break;
      case ']': tok.kind = TokenKind::kRBracket; ++i; break;
      case ',': tok.kind = TokenKind::kComma; ++i; break;
      case ';': tok.kind = TokenKind::kSemicolon; ++i; break;
      case ':': tok.kind = TokenKind::kColon; ++i; break;
      case '+': tok.kind = TokenKind::kPlus; ++i; break;
      case '*': tok.kind = TokenKind::kStar; ++i; break;
      case '/': tok.kind = TokenKind::kSlash; ++i; break;
      case '%': tok.kind = TokenKind::kPercent; ++i; break;
      case '@': tok.kind = TokenKind::kAt; ++i; break;
      case '.': tok.kind = TokenKind::kDot; ++i; break;
      case '-':
        if (two('>')) {
          tok.kind = TokenKind::kArrow;
          i += 2;
        } else {
          tok.kind = TokenKind::kMinus;
          ++i;
        }
        break;
      case '=':
        if (two('=')) {
          tok.kind = TokenKind::kEq;
          i += 2;
        } else {
          tok.kind = TokenKind::kEq;  // single '=' accepted as equality
          ++i;
        }
        break;
      case '!':
        if (two('=')) {
          tok.kind = TokenKind::kNe;
          i += 2;
        } else {
          return error(i, "unexpected '!'");
        }
        break;
      case '<':
        if (two('=')) {
          tok.kind = TokenKind::kLe;
          i += 2;
        } else if (two('>')) {
          tok.kind = TokenKind::kNe;
          i += 2;
        } else {
          tok.kind = TokenKind::kLt;
          ++i;
        }
        break;
      case '>':
        if (two('=')) {
          tok.kind = TokenKind::kGe;
          i += 2;
        } else {
          tok.kind = TokenKind::kGt;
          ++i;
        }
        break;
      default:
        return error(i, StrFormat("unexpected character '%c'", c));
    }
    tok.end = i;
    tokens.push_back(std::move(tok));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.offset = n;
  end.end = n;
  tokens.push_back(std::move(end));
  return tokens;
}

Status TokenCursor::ExpectKeyword(const char* kw) {
  if (!IsKeyword(kw)) return Error(std::string("expected '") + kw + "'");
  Advance();
  return Status::OK();
}

Result<std::string> TokenCursor::ExpectIdent() {
  if (Peek().kind != TokenKind::kIdent) {
    return Error("expected identifier, got " + Peek().ToString());
  }
  std::string text = Peek().text;
  Advance();
  return text;
}

Result<std::string> TokenCursor::ExpectString() {
  if (Peek().kind != TokenKind::kString) {
    return Error("expected a quoted string, got " + Peek().ToString());
  }
  std::string text = Peek().text;
  Advance();
  return text;
}

Result<double> TokenCursor::ExpectNumber() {
  bool negative = false;
  if (Peek().kind == TokenKind::kMinus) {
    negative = true;
    Advance();
  }
  double value = 0;
  if (Peek().kind == TokenKind::kInt) {
    value = static_cast<double>(Peek().int_value);
  } else if (Peek().kind == TokenKind::kDouble) {
    value = Peek().double_value;
  } else {
    return Error("expected a number, got " + Peek().ToString());
  }
  Advance();
  return negative ? -value : value;
}

Result<bool> TokenCursor::ExpectBool() {
  if (!IsKeyword("true") && !IsKeyword("false")) {
    return Error("expected true or false, got " + Peek().ToString());
  }
  bool value = Peek().text == "true";
  Advance();
  return value;
}

Status TokenCursor::Expect(TokenKind kind) {
  if (Peek().kind != kind) {
    return Error(StrFormat("expected %s, got %s", TokenKindToString(kind),
                           Peek().ToString().c_str()));
  }
  Advance();
  return Status::OK();
}

}  // namespace sl::expr
