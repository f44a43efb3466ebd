// StreamLoader: recursive-descent parser for the expression language.

#ifndef STREAMLOADER_EXPR_PARSER_H_
#define STREAMLOADER_EXPR_PARSER_H_

#include <string>

#include "expr/ast.h"
#include "expr/lexer.h"
#include "util/result.h"

namespace sl::expr {

/// \brief Parses a complete expression; trailing input is an error.
///
/// Grammar (precedence low to high): or, and, not, comparison
/// (non-associative), additive, multiplicative, unary minus, primary.
/// A single `=` is accepted as equality (conditions are written by
/// domain experts, §2).
Result<ExprPtr> ParseExpression(const std::string& source);

/// \brief Like ParseExpression, but failures are reported as coded
/// diagnostics (SL0001 lexical, SL0002 syntax) with byte-offset spans
/// into `source` instead of a bare Status. Returns nullptr after
/// appending to `diags` on failure. Successful parses carry spans on
/// every AST node (Expr::span()).
ExprPtr ParseExpressionWithDiagnostics(const std::string& source,
                                       std::vector<diag::Diagnostic>* diags);

}  // namespace sl::expr

#endif  // STREAMLOADER_EXPR_PARSER_H_
