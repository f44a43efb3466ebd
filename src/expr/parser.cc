#include "expr/parser.h"

#include "util/strings.h"

namespace sl::expr {

namespace {

// Stamps `span` on a freshly built (still mutable) node and converts it
// to the shared immutable ExprPtr form.
template <typename T>
ExprPtr WithSpan(std::shared_ptr<T> node, diag::Span span) {
  node->set_span(span);
  return node;
}

diag::Span TokenSpan(const Token& tok) {
  return {tok.offset, tok.end > tok.offset ? tok.end : tok.offset + 1};
}

diag::Span Join(const diag::Span& a, const diag::Span& b) {
  return {a.begin < b.begin ? a.begin : b.begin,
          a.end > b.end ? a.end : b.end};
}

class Parser {
 public:
  explicit Parser(const std::vector<Token>& tokens) : tokens_(tokens) {}

  Result<ExprPtr> ParseOr() {
    SL_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (IsKeyword("or")) {
      Advance();
      SL_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      diag::Span span = Join(left->span(), right->span());
      left = WithSpan(std::make_shared<BinaryExpr>(BinaryOp::kOr, left, right),
                      span);
    }
    return left;
  }

  size_t pos() const { return pos_; }

  /// Span of the token the last Error() pointed at ({0,0} before any).
  const diag::Span& error_span() const { return error_span_; }

 private:
  Result<ExprPtr> ParseAnd() {
    SL_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (IsKeyword("and")) {
      Advance();
      SL_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      diag::Span span = Join(left->span(), right->span());
      left = WithSpan(
          std::make_shared<BinaryExpr>(BinaryOp::kAnd, left, right), span);
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (IsKeyword("not")) {
      const Token op_tok = Peek();
      Advance();
      SL_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return WithSpan(std::make_shared<UnaryExpr>(UnaryOp::kNot, operand),
                      Join(TokenSpan(op_tok), operand->span()));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    SL_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    BinaryOp op;
    switch (Peek().kind) {
      case TokenKind::kEq: op = BinaryOp::kEq; break;
      case TokenKind::kNe: op = BinaryOp::kNe; break;
      case TokenKind::kLt: op = BinaryOp::kLt; break;
      case TokenKind::kLe: op = BinaryOp::kLe; break;
      case TokenKind::kGt: op = BinaryOp::kGt; break;
      case TokenKind::kGe: op = BinaryOp::kGe; break;
      default: return left;
    }
    Advance();
    SL_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
    return WithSpan(std::make_shared<BinaryExpr>(op, left, right),
                    Join(left->span(), right->span()));
  }

  Result<ExprPtr> ParseAdditive() {
    SL_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    while (Peek().kind == TokenKind::kPlus ||
           Peek().kind == TokenKind::kMinus) {
      BinaryOp op = Peek().kind == TokenKind::kPlus ? BinaryOp::kAdd
                                                    : BinaryOp::kSub;
      Advance();
      SL_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      diag::Span span = Join(left->span(), right->span());
      left = WithSpan(std::make_shared<BinaryExpr>(op, left, right), span);
    }
    return left;
  }

  Result<ExprPtr> ParseMultiplicative() {
    SL_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    while (Peek().kind == TokenKind::kStar ||
           Peek().kind == TokenKind::kSlash ||
           Peek().kind == TokenKind::kPercent) {
      BinaryOp op = Peek().kind == TokenKind::kStar    ? BinaryOp::kMul
                    : Peek().kind == TokenKind::kSlash ? BinaryOp::kDiv
                                                       : BinaryOp::kMod;
      Advance();
      SL_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      diag::Span span = Join(left->span(), right->span());
      left = WithSpan(std::make_shared<BinaryExpr>(op, left, right), span);
    }
    return left;
  }

  Result<ExprPtr> ParseUnary() {
    if (Peek().kind == TokenKind::kMinus) {
      const Token op_tok = Peek();
      Advance();
      SL_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return WithSpan(std::make_shared<UnaryExpr>(UnaryOp::kNeg, operand),
                      Join(TokenSpan(op_tok), operand->span()));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokenKind::kInt: {
        Advance();
        return WithSpan(
            std::make_shared<LiteralExpr>(stt::Value::Int(tok.int_value)),
            TokenSpan(tok));
      }
      case TokenKind::kDouble: {
        Advance();
        return WithSpan(std::make_shared<LiteralExpr>(
                            stt::Value::Double(tok.double_value)),
                        TokenSpan(tok));
      }
      case TokenKind::kString: {
        Advance();
        return WithSpan(
            std::make_shared<LiteralExpr>(stt::Value::String(tok.text)),
            TokenSpan(tok));
      }
      case TokenKind::kDollar: {
        Advance();
        std::string name = ToLower(tok.text);
        MetaAttr attr;
        if (name == "ts" || name == "time") attr = MetaAttr::kTimestamp;
        else if (name == "lat") attr = MetaAttr::kLat;
        else if (name == "lon" || name == "lng") attr = MetaAttr::kLon;
        else if (name == "sensor") attr = MetaAttr::kSensor;
        else if (name == "theme") attr = MetaAttr::kTheme;
        else
          return Error(tok, "unknown metadata attribute $" + tok.text);
        return WithSpan(std::make_shared<MetaExpr>(attr), TokenSpan(tok));
      }
      case TokenKind::kIdent: {
        std::string lower = ToLower(tok.text);
        if (lower == "true" || lower == "false") {
          Advance();
          return WithSpan(std::make_shared<LiteralExpr>(
                              stt::Value::Bool(lower == "true")),
                          TokenSpan(tok));
        }
        if (lower == "null") {
          Advance();
          return WithSpan(std::make_shared<LiteralExpr>(stt::Value::Null()),
                          TokenSpan(tok));
        }
        // Reserved words never name attributes or functions; reaching
        // one here means it is misplaced (e.g. "x > not y").
        if (lower == "not" || lower == "and" || lower == "or") {
          return Error(tok, "misplaced keyword '" + tok.text + "'");
        }
        Advance();
        if (Peek().kind == TokenKind::kLParen) {
          Advance();
          std::vector<ExprPtr> args;
          if (Peek().kind != TokenKind::kRParen) {
            while (true) {
              SL_ASSIGN_OR_RETURN(ExprPtr arg, ParseOr());
              args.push_back(std::move(arg));
              if (Peek().kind == TokenKind::kComma) {
                Advance();
                continue;
              }
              break;
            }
          }
          if (Peek().kind != TokenKind::kRParen) {
            return Error(Peek(), "expected ')' in call to " + tok.text);
          }
          const Token& rparen = Peek();
          Advance();
          return WithSpan(
              std::make_shared<CallExpr>(ToLower(tok.text), std::move(args)),
              Join(TokenSpan(tok), TokenSpan(rparen)));
        }
        return WithSpan(std::make_shared<AttrExpr>(tok.text), TokenSpan(tok));
      }
      case TokenKind::kLParen: {
        Advance();
        SL_ASSIGN_OR_RETURN(ExprPtr inner, ParseOr());
        if (Peek().kind != TokenKind::kRParen) {
          return Error(Peek(), "expected ')'");
        }
        Advance();
        return inner;
      }
      default:
        return Error(tok, StrFormat("unexpected token %s in expression",
                                    tok.ToString().c_str()));
    }
  }

  const Token& Peek() const { return tokens_[pos_]; }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool IsKeyword(const char* kw) const {
    return Peek().kind == TokenKind::kIdent && ToLower(Peek().text) == kw;
  }
  Status Error(const Token& tok, const std::string& msg) {
    error_span_ = TokenSpan(tok);
    return Status::ParseError(
        StrFormat("%s (at offset %zu)", msg.c_str(), tok.offset));
  }

  const std::vector<Token>& tokens_;
  size_t pos_ = 0;
  diag::Span error_span_;
};

}  // namespace

Result<ExprPtr> ParseExpression(const std::string& source) {
  SL_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  Parser parser(tokens);
  SL_ASSIGN_OR_RETURN(ExprPtr expr, parser.ParseOr());
  if (tokens[parser.pos()].kind != TokenKind::kEnd) {
    return Status::ParseError(StrFormat(
        "trailing input after expression at offset %zu: '%s'",
        tokens[parser.pos()].offset, tokens[parser.pos()].ToString().c_str()));
  }
  return expr;
}

ExprPtr ParseExpressionWithDiagnostics(const std::string& source,
                                       std::vector<diag::Diagnostic>* diags) {
  size_t lex_offset = 0;
  auto tokens = Tokenize(source, &lex_offset);
  if (!tokens.ok()) {
    diags->push_back(diag::MakeDiag(diag::Code::kLexError, "",
                                    tokens.status().message(),
                                    {lex_offset, lex_offset + 1}, source));
    return nullptr;
  }
  Parser parser(*tokens);
  auto expr = parser.ParseOr();
  if (!expr.ok()) {
    diags->push_back(diag::MakeDiag(diag::Code::kExprSyntax, "",
                                    expr.status().message(),
                                    parser.error_span(), source));
    return nullptr;
  }
  const Token& rest = (*tokens)[parser.pos()];
  if (rest.kind != TokenKind::kEnd) {
    diags->push_back(diag::MakeDiag(
        diag::Code::kExprSyntax, "",
        StrFormat("trailing input after expression: '%s'",
                  rest.ToString().c_str()),
        {rest.offset, rest.end > rest.offset ? rest.end : rest.offset + 1},
        source));
    return nullptr;
  }
  return *expr;
}

}  // namespace sl::expr
