// StreamLoader: binding and evaluation of expressions against a schema.
//
// An Expr is untyped until bound to the schema of a concrete stream:
// binding resolves attribute references to field indices, type-checks
// every node, and yields a BoundExpr that evaluates tuples without any
// name lookup on the hot path.

#ifndef STREAMLOADER_EXPR_EVAL_H_
#define STREAMLOADER_EXPR_EVAL_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/ast.h"
#include "expr/functions.h"
#include "expr/program.h"
#include "stt/tuple.h"

namespace sl::expr {

/// \brief A type-checked expression bound to a schema.
///
/// Null semantics follow SQL: arithmetic and comparisons over null are
/// null; `and`/`or` use Kleene three-valued logic; EvalPredicate treats a
/// null condition as false. Domain errors at run time (division by zero,
/// log of a negative number) produce null rather than failing the stream.
///
/// Binding constant-folds literal subtrees (reusing the typecheck
/// folders, so folding and the lint layer agree) and lowers the tree
/// into a flat postorder ExprProgram — the evaluator the hot path runs.
/// The unfolded syntax tree stays available through expr() for static
/// analysis and for the test-only tree-walking interpreter the program
/// is property-tested against.
class BoundExpr {
 public:
  BoundExpr() = default;

  /// Binds `expr` against `schema`, type-checking every node.
  static Result<BoundExpr> Bind(ExprPtr expr, stt::SchemaPtr schema);

  /// Parses and binds in one step.
  static Result<BoundExpr> Parse(const std::string& source,
                                 stt::SchemaPtr schema);

  /// The static result type of the expression.
  stt::ValueType result_type() const { return type_; }

  /// The underlying syntax tree.
  const ExprPtr& expr() const { return expr_; }

  /// The schema this expression is bound to.
  const stt::SchemaPtr& schema() const { return schema_; }

  /// Evaluates on one tuple (which must conform to the bound schema).
  Result<stt::Value> Eval(const stt::Tuple& tuple) const;

  /// Evaluates as a condition; requires a bool-typed (or null-typed)
  /// expression at bind time. A null result is false.
  Result<bool> EvalPredicate(const stt::Tuple& tuple) const;

  /// Evaluates over a prospective join pair without materializing the
  /// concatenated tuple (the expression must be bound against the
  /// joined schema the PairView presents).
  Result<stt::Value> EvalPair(const PairView& pair) const;

  /// EvalPredicate over a pair view: null is false.
  Result<bool> EvalPredicatePair(const PairView& pair) const;

  /// The compiled form this expression evaluates through.
  const ExprProgram& program() const { return program_; }

  /// True after a successful Bind.
  bool bound() const { return !program_.empty(); }

 private:
  Result<bool> AsPredicate(Result<stt::Value> value) const;

  ExprPtr expr_;
  stt::SchemaPtr schema_;
  ExprProgram program_;
  stt::ValueType type_ = stt::ValueType::kNull;
};

}  // namespace sl::expr

#endif  // STREAMLOADER_EXPR_EVAL_H_
