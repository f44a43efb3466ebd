#include "expr/eval.h"

#include "expr/parser.h"
#include "util/strings.h"

namespace sl::expr {

using stt::Value;
using stt::ValueType;

Result<BoundExpr> BoundExpr::Bind(ExprPtr expr, stt::SchemaPtr schema) {
  if (expr == nullptr) return Status::InvalidArgument("null expression");
  if (schema == nullptr) return Status::InvalidArgument("null schema");
  TypecheckResult checked = TypecheckExpr(expr, *schema);
  // The first error in evaluation order. The walk reports a call's own
  // errors (unknown function, arity) after those of its arguments, but a
  // call fails before its arguments run: the outermost such error whose
  // span holds the first one comes first.
  const diag::Diagnostic* first = nullptr;
  for (const diag::Diagnostic& d : checked.diags) {
    if (d.severity != diag::Severity::kError) continue;
    bool call = d.code == diag::Code::kUnknownFunction ||
                d.code == diag::Code::kArity;
    if (first == nullptr ||
        (call && d.span.begin <= first->span.begin &&
         first->span.end <= d.span.end)) {
      first = &d;
    }
  }
  if (first == nullptr) return FromCheck(std::move(checked), std::move(schema));
  if (first->code == diag::Code::kUnknownColumn ||
      first->code == diag::Code::kUnknownFunction) {
    return Status::NotFound(first->message);
  }
  return Status::TypeError(first->message);
}

BoundExpr BoundExpr::FromCheck(TypecheckResult checked,
                               stt::SchemaPtr schema) {
  BoundExpr bound;
  if (!checked.ok()) return bound;
  bound.expr_ = std::move(checked.expr);
  bound.schema_ = std::move(schema);
  bound.type_ = checked.type;
  bound.program_ = std::move(checked.program);
  return bound;
}

Result<BoundExpr> BoundExpr::Parse(const std::string& source,
                                   stt::SchemaPtr schema) {
  SL_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpression(source));
  return Bind(std::move(expr), std::move(schema));
}

Result<Value> BoundExpr::Eval(const stt::Tuple& tuple) const {
  if (!bound()) {
    return Status::FailedPrecondition("expression not bound");
  }
  return program_.Run(tuple);
}

Result<Value> BoundExpr::EvalPair(const PairView& pair) const {
  if (!bound()) {
    return Status::FailedPrecondition("expression not bound");
  }
  return program_.RunPair(pair);
}

Result<bool> BoundExpr::AsPredicate(Result<Value> value) const {
  if (type_ != ValueType::kBool && type_ != ValueType::kNull) {
    return Status::TypeError(
        StrFormat("condition has type %s, expected bool",
                  stt::ValueTypeToString(type_)));
  }
  SL_ASSIGN_OR_RETURN(Value v, std::move(value));
  if (v.is_null()) return false;
  if (v.type() != ValueType::kBool) {
    return Status::Internal("predicate evaluated to non-bool");
  }
  return v.AsBool();
}

Result<bool> BoundExpr::EvalPredicate(const stt::Tuple& tuple) const {
  return AsPredicate(Eval(tuple));
}

Result<bool> BoundExpr::EvalPredicatePair(const PairView& pair) const {
  return AsPredicate(EvalPair(pair));
}

}  // namespace sl::expr
