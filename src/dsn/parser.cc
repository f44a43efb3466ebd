#include "dsn/parser.h"

#include "expr/lexer.h"
#include "stt/granularity.h"
#include "util/strings.h"

namespace sl::dsn {

using expr::Token;
using expr::TokenKind;

Result<Duration> ParseDurationText(const std::string& text) {
  Duration out = 0;
  if (!ParseDuration(text, &out)) {
    return Status::ParseError("cannot parse duration '" + text + "'");
  }
  return out;
}

namespace {

class DsnParser : public expr::TokenCursor {
 public:
  DsnParser(const std::vector<Token>& tokens, const std::string& source)
      : TokenCursor(tokens), source_(source) {}

  Result<DsnSpec> Parse() {
    DsnSpec spec;
    SL_RETURN_IF_ERROR(ExpectKeyword("dataflow"));
    SL_ASSIGN_OR_RETURN(spec.name, ExpectIdent());
    SL_RETURN_IF_ERROR(Expect(TokenKind::kLBrace));
    while (Peek().kind != TokenKind::kRBrace) {
      if (IsKeyword("service")) {
        SL_ASSIGN_OR_RETURN(DsnService service, ParseService());
        spec.services.push_back(std::move(service));
      } else if (IsKeyword("flow")) {
        SL_ASSIGN_OR_RETURN(DsnFlow flow, ParseFlow());
        spec.flows.push_back(std::move(flow));
      } else {
        return Error("expected 'service' or 'flow'");
      }
    }
    SL_RETURN_IF_ERROR(Expect(TokenKind::kRBrace));
    if (Peek().kind != TokenKind::kEnd) {
      return Error("trailing input after dataflow block");
    }
    return spec;
  }

  /// Span of the token the last Error() pointed at ({0,0} before any).
  const diag::Span& error_span() const { return error_span_; }

 private:
  Result<DsnService> ParseService() {
    Advance();  // 'service'
    DsnService service;
    service.name_span = {Peek().offset, Peek().end};
    SL_ASSIGN_OR_RETURN(service.name, ExpectIdent());
    SL_RETURN_IF_ERROR(Expect(TokenKind::kLBrace));
    std::string left, right;
    while (Peek().kind != TokenKind::kRBrace) {
      SL_ASSIGN_OR_RETURN(std::string key, ExpectIdent());
      SL_RETURN_IF_ERROR(Expect(TokenKind::kColon));
      std::vector<std::string> values;
      diag::Span value_span;
      while (true) {
        diag::Span vs;
        SL_ASSIGN_OR_RETURN(std::string v, ExpectValue(&vs));
        if (values.empty()) {
          value_span = vs;
        } else {
          value_span.end = vs.end;  // list: cover first through last value
        }
        values.push_back(std::move(v));
        if (Peek().kind == TokenKind::kComma) {
          Advance();
          continue;
        }
        break;
      }
      SL_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
      std::string joined = Join(values, ", ");
      if (key == "kind") {
        service.kind = ToUpper(joined);
      } else if (key == "input") {
        for (auto& v : values) service.inputs.push_back(std::move(v));
      } else if (key == "left") {
        left = joined;
      } else if (key == "right") {
        right = joined;
      } else {
        if (service.properties.count(key) > 0) {
          return Error("duplicate property '" + key + "' in service '" +
                       service.name + "'");
        }
        service.properties.emplace(key, std::move(joined));
        service.property_spans.emplace(key, value_span);
      }
    }
    SL_RETURN_IF_ERROR(Expect(TokenKind::kRBrace));
    if (!left.empty() || !right.empty()) {
      if (left.empty() || right.empty() || !service.inputs.empty()) {
        return Error("service '" + service.name +
                     "' must use either input: or both left:/right:");
      }
      service.inputs = {left, right};
    }
    if (service.kind.empty()) {
      return Error("service '" + service.name + "' has no kind");
    }
    return service;
  }

  Result<DsnFlow> ParseFlow() {
    Advance();  // 'flow'
    DsnFlow flow;
    SL_ASSIGN_OR_RETURN(flow.from, ExpectIdent());
    SL_RETURN_IF_ERROR(Expect(TokenKind::kArrow));
    SL_ASSIGN_OR_RETURN(flow.to, ExpectIdent());
    if (Peek().kind == TokenKind::kLBracket) {
      Advance();
      while (Peek().kind != TokenKind::kRBracket) {
        SL_ASSIGN_OR_RETURN(std::string key, ExpectIdent());
        SL_RETURN_IF_ERROR(Expect(TokenKind::kColon));
        SL_ASSIGN_OR_RETURN(std::string value, ExpectValue(nullptr));
        if (Peek().kind == TokenKind::kSemicolon) {
          Advance();
        } else if (Peek().kind != TokenKind::kRBracket) {
          return Error("expected ';' or ']' after QoS parameter");
        }
        if (key == "max_latency") {
          SL_ASSIGN_OR_RETURN(flow.qos.max_latency, ParseDurationText(value));
        } else if (key == "priority") {
          flow.qos.priority = static_cast<int>(std::strtol(value.c_str(),
                                                           nullptr, 10));
        } else {
          return Error("unknown QoS parameter '" + key + "'");
        }
      }
      SL_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
    }
    SL_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    return flow;
  }

  /// A property value: string, identifier, or number. `span` (when
  /// non-null) receives the value's *content* span — for a quoted
  /// string, the bytes between the quotes — so expression diagnostics
  /// can be re-anchored into the document.
  Result<std::string> ExpectValue(diag::Span* span) {
    const Token& tok = Peek();
    auto set_span = [&](diag::Span s) {
      if (span != nullptr) *span = s;
    };
    switch (tok.kind) {
      case TokenKind::kString: {
        // Content excludes the quotes; escapes make the mapping
        // approximate, which the consumer detects by re-comparing text.
        set_span({tok.offset + 1,
                  tok.end > tok.offset + 1 ? tok.end - 1 : tok.offset + 1});
        std::string v = tok.text;
        Advance();
        return v;
      }
      case TokenKind::kIdent: {
        set_span({tok.offset, tok.end});
        std::string v = tok.text;
        Advance();
        return v;
      }
      case TokenKind::kInt: {
        set_span({tok.offset, tok.end});
        std::string v = StrFormat("%lld",
                                  static_cast<long long>(tok.int_value));
        Advance();
        return v;
      }
      case TokenKind::kDouble: {
        set_span({tok.offset, tok.end});
        std::string v = StrFormat("%.10g", tok.double_value);
        Advance();
        return v;
      }
      case TokenKind::kMinus: {
        size_t begin = tok.offset;
        Advance();
        const Token& next = Peek();
        if (next.kind == TokenKind::kInt) {
          set_span({begin, next.end});
          std::string v =
              StrFormat("-%lld", static_cast<long long>(next.int_value));
          Advance();
          return v;
        }
        if (next.kind == TokenKind::kDouble) {
          set_span({begin, next.end});
          std::string v = StrFormat("-%.10g", next.double_value);
          Advance();
          return v;
        }
        return Error("expected number after '-'");
      }
      default:
        return Error("expected a property value, got " + tok.ToString());
    }
  }
  Status Error(const std::string& msg) const override {
    const Token& tok = Peek();
    error_span_ = {tok.offset,
                   tok.end > tok.offset ? tok.end : tok.offset + 1};
    diag::LineCol lc = diag::LineColAt(source_, tok.offset);
    return Status::ParseError(
        StrFormat("DSN: %s (at line %zu, column %zu)", msg.c_str(), lc.line,
                  lc.column));
  }

  const std::string& source_;
  mutable diag::Span error_span_;
};

}  // namespace

Result<DsnSpec> ParseDsn(const std::string& source) {
  SL_ASSIGN_OR_RETURN(std::vector<Token> tokens, expr::Tokenize(source));
  DsnParser parser(tokens, source);
  SL_ASSIGN_OR_RETURN(DsnSpec spec, parser.Parse());
  SL_RETURN_IF_ERROR(ValidateDsn(spec));
  return spec;
}

DsnParse ParseDsnWithDiagnostics(const std::string& source) {
  DsnParse out;
  size_t lex_offset = 0;
  auto tokens = expr::Tokenize(source, &lex_offset);
  if (!tokens.ok()) {
    out.diags.push_back(diag::MakeDiag(diag::Code::kDsnSyntax, "",
                                       tokens.status().message(),
                                       {lex_offset, lex_offset + 1}, source));
    return out;
  }
  DsnParser parser(*tokens, source);
  auto spec = parser.Parse();
  if (!spec.ok()) {
    out.diags.push_back(diag::MakeDiag(diag::Code::kDsnSyntax, "",
                                       spec.status().message(),
                                       parser.error_span(), source));
    return out;
  }
  if (Status valid = ValidateDsn(*spec); !valid.ok()) {
    // Structural errors carry no token position; anchor to the name of
    // a service the message mentions, when there is one.
    diag::Span span;
    for (const auto& service : spec->services) {
      if (valid.message().find("'" + service.name + "'") !=
          std::string::npos) {
        span = service.name_span;
        break;
      }
    }
    out.diags.push_back(diag::MakeDiag(diag::Code::kDsnStructure, "",
                                       valid.message(), span, source));
    return out;
  }
  out.spec = std::move(*spec);
  return out;
}

}  // namespace sl::dsn
