// StreamLoader: static type checking and binding for the expression
// language.
//
// One walk of the AST against a schema types, lints and binds. It
// accumulates coded diagnostics with source spans (SL1xxx) instead of
// stopping at the first problem, constant-folds literal subtrees to flag
// always-true/always-false predicates and literal division by zero
// (SL3xxx), recovers from errors with the null wildcard type so one pass
// reports every problem in an expression, and lowers the tree it typed
// into the ExprProgram the runtime evaluates. BoundExpr::Bind is this
// walk plus its first error, so the static checker and the runtime
// binder can never disagree.

#ifndef STREAMLOADER_EXPR_TYPECHECK_H_
#define STREAMLOADER_EXPR_TYPECHECK_H_

#include <optional>
#include <string>
#include <vector>

#include "diag/diagnostic.h"
#include "expr/ast.h"
#include "expr/program.h"
#include "stt/schema.h"
#include "util/result.h"

namespace sl::expr {

// ---------------------------------------------------------------------
// Operator typing rules. kNull operands act as wildcards throughout,
// matching the SQL null semantics of the evaluator.

/// + - * / % over numbers, string concatenation with +, timestamp
/// arithmetic (ts - ts -> int, ts +- int -> ts). Division is always
/// double.
Result<stt::ValueType> ArithmeticResultType(BinaryOp op, stt::ValueType l,
                                            stt::ValueType r);

/// == != < <= > >= over mutually comparable types (numerics compare
/// across int/double; geopoints support only == and !=).
Result<stt::ValueType> ComparisonResultType(BinaryOp op, stt::ValueType l,
                                            stt::ValueType r);

/// and / or over bools.
Result<stt::ValueType> LogicalResultType(BinaryOp op, stt::ValueType l,
                                         stt::ValueType r);

/// Unary - over numbers, not over bools.
Result<stt::ValueType> UnaryResultType(UnaryOp op, stt::ValueType operand);

/// Type of a $meta pseudo-attribute ($ts: timestamp, $lat/$lon: double,
/// $sensor/$theme: string).
stt::ValueType MetaAttrType(MetaAttr attr);

// ---------------------------------------------------------------------
// The analysis pass.

/// \brief Outcome of type-checking one expression.
struct TypecheckResult {
  /// Result type of the whole expression (kNull both for genuinely
  /// null-typed expressions and as the recovery wildcard after errors).
  stt::ValueType type = stt::ValueType::kNull;

  /// Errors and warnings, in source order. Node names are left empty;
  /// the dataflow validator fills them in.
  std::vector<diag::Diagnostic> diags;

  /// Set when the expression folds to a compile-time constant (literal
  /// subtree without calls or attribute references, or a dominant
  /// operand: `x and false`). Only the lints read it.
  std::optional<stt::Value> constant;

  /// The checked syntax tree; nullptr when parsing failed.
  ExprPtr expr;

  /// The tree bound to the schema and lowered, set only when the walk
  /// reported no error. A subtree is folded to one literal only when
  /// every operand is a literal, so folding can never hide an error
  /// evaluation would surface. BoundExpr::FromCheck wraps it.
  ExprProgram program;

  /// True when no *error* was reported (warnings allowed).
  bool ok() const { return !diag::HasErrors(diags); }
};

/// What a boolean condition guards; tunes the constant-predicate lint
/// (an always-true join predicate is the idiomatic cross join, an
/// always-true filter is a no-op worth flagging).
enum class ConditionContext { kFilter, kJoin, kTrigger };

/// \brief Checks `expr` against `schema` and binds it. `source` (when
/// given) is the text the AST spans point into; it is attached to
/// diagnostics so they can render caret snippets on their own.
TypecheckResult TypecheckExpr(const ExprPtr& expr, const stt::Schema& schema,
                              const std::string& source = {});

/// \brief Parses `source` and checks it; parse failures surface as
/// SL0001/SL0002 diagnostics.
TypecheckResult TypecheckSource(const std::string& source,
                                const stt::Schema& schema);

/// \brief TypecheckSource plus condition rules: the expression must be
/// boolean (SL1008), and constant conditions are linted (SL3004) per
/// `context`.
TypecheckResult TypecheckCondition(const std::string& source,
                                   const stt::Schema& schema,
                                   ConditionContext context);

}  // namespace sl::expr

#endif  // STREAMLOADER_EXPR_TYPECHECK_H_
