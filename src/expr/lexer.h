// StreamLoader: tokenizer for the expression language and the DSN
// specification language (both share one lexical grammar), and the token
// cursor of the config-text parsers that read the same grammar.

#ifndef STREAMLOADER_EXPR_LEXER_H_
#define STREAMLOADER_EXPR_LEXER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace sl::expr {

enum class TokenKind {
  kEnd,
  kIdent,      ///< [A-Za-z_][A-Za-z0-9_]*
  kDollar,     ///< $ident (STT metadata pseudo-attribute)
  kInt,        ///< integer literal
  kDouble,     ///< floating literal
  kString,     ///< "double-quoted" or 'single-quoted'
  kLParen, kRParen,
  kLBrace, kRBrace,
  kLBracket, kRBracket,
  kComma, kSemicolon, kColon,
  kPlus, kMinus, kStar, kSlash, kPercent,
  kEq,         ///< == (or a single = in condition context)
  kNe,         ///< !=
  kLt, kLe, kGt, kGe,
  kArrow,      ///< ->
  kAt,         ///< @
  kDot,        ///< .
};

const char* TokenKindToString(TokenKind kind);

/// \brief One lexical token. For identifier/string tokens `text` holds
/// the (unescaped) content; numeric tokens carry their parsed value.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  int64_t int_value = 0;
  double double_value = 0.0;
  size_t offset = 0;  ///< byte offset in the source, for error messages
  size_t end = 0;     ///< one past the last byte of the token's source text

  std::string ToString() const;
};

/// \brief Tokenizes `source`; `#` starts a comment running to end of line.
/// The resulting vector always terminates with a kEnd token. On failure,
/// `*error_offset` (when non-null) receives the byte offset the lexer
/// rejected, so callers can attach a source span to the error.
Result<std::vector<Token>> Tokenize(const std::string& source,
                                    size_t* error_offset = nullptr);

/// \brief A cursor over Tokenize's output with the helpers that the
/// config-text parsers (sensor registry, network topology, DSN) share.
/// Each parser derives from it and keeps its own grammar and error text:
/// every helper that fails reports through the parser's Error, at the
/// token the cursor stopped on.
class TokenCursor {
 public:
  /// `tokens` ends with a kEnd token (Tokenize's guarantee) and must
  /// outlive the cursor.
  explicit TokenCursor(const std::vector<Token>& tokens) : tokens_(tokens) {}
  virtual ~TokenCursor() = default;

 protected:
  const Token& Peek() const { return tokens_[pos_]; }
  /// Moves to the next token; the final kEnd is never passed.
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool IsKeyword(const char* kw) const {
    return Peek().kind == TokenKind::kIdent && Peek().text == kw;
  }
  Status ExpectKeyword(const char* kw);
  Result<std::string> ExpectIdent();
  Result<std::string> ExpectString();
  /// An int or double literal, optionally negated by a leading '-'.
  Result<double> ExpectNumber();
  /// The identifier true or false.
  Result<bool> ExpectBool();
  Status Expect(TokenKind kind);

  /// The parser's error for `msg` at the current token.
  virtual Status Error(const std::string& msg) const = 0;

 private:
  const std::vector<Token>& tokens_;
  size_t pos_ = 0;
};

}  // namespace sl::expr

#endif  // STREAMLOADER_EXPR_LEXER_H_
