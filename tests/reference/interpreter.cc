#include "tests/reference/interpreter.h"

#include "expr/functions.h"
#include "expr/program.h"
#include "expr/typecheck.h"

namespace sl::reference {
namespace {

using expr::BinaryExpr;
using expr::BinaryOp;
using expr::CallExpr;
using expr::Expr;
using expr::ExprKind;
using expr::FunctionDef;
using expr::FunctionRegistry;
using expr::MetaAttr;
using stt::Value;
using stt::ValueType;

bool IsArithmetic(BinaryOp op) {
  return op == BinaryOp::kAdd || op == BinaryOp::kSub ||
         op == BinaryOp::kMul || op == BinaryOp::kDiv || op == BinaryOp::kMod;
}

bool IsLogical(BinaryOp op) {
  return op == BinaryOp::kAnd || op == BinaryOp::kOr;
}

struct Walker {
  const stt::Schema& schema;
  const stt::Tuple& tuple;

  /// The static type the binder derives for `e`.
  Result<ValueType> TypeOf(const Expr& e) const {
    switch (e.kind()) {
      case ExprKind::kLiteral:
        return static_cast<const expr::LiteralExpr&>(e).value().type();
      case ExprKind::kAttr: {
        const auto& attr = static_cast<const expr::AttrExpr&>(e);
        SL_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(attr.name()));
        return schema.fields()[idx].type;
      }
      case ExprKind::kMeta:
        return expr::MetaAttrType(
            static_cast<const expr::MetaExpr&>(e).attr());
      case ExprKind::kUnary: {
        const auto& u = static_cast<const expr::UnaryExpr&>(e);
        SL_ASSIGN_OR_RETURN(ValueType operand, TypeOf(*u.operand()));
        return expr::UnaryResultType(u.op(), operand);
      }
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        SL_ASSIGN_OR_RETURN(ValueType l, TypeOf(*b.left()));
        SL_ASSIGN_OR_RETURN(ValueType r, TypeOf(*b.right()));
        if (IsArithmetic(b.op())) {
          return expr::ArithmeticResultType(b.op(), l, r);
        }
        if (IsLogical(b.op())) return expr::LogicalResultType(b.op(), l, r);
        return expr::ComparisonResultType(b.op(), l, r);
      }
      case ExprKind::kCall: {
        const auto& c = static_cast<const CallExpr&>(e);
        SL_ASSIGN_OR_RETURN(const FunctionDef* fn,
                            FunctionRegistry::Global().Find(c.name()));
        std::vector<ValueType> arg_types;
        for (const auto& arg : c.args()) {
          SL_ASSIGN_OR_RETURN(ValueType t, TypeOf(*arg));
          arg_types.push_back(t);
        }
        return fn->check(arg_types);
      }
    }
    return Status::Internal("unreachable expression kind");
  }

  Result<Value> Eval(const Expr& e) const {
    switch (e.kind()) {
      case ExprKind::kLiteral:
        return static_cast<const expr::LiteralExpr&>(e).value();
      case ExprKind::kAttr: {
        const auto& attr = static_cast<const expr::AttrExpr&>(e);
        SL_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(attr.name()));
        const Value& v = tuple.value(idx);
        SL_RETURN_IF_ERROR(
            expr::CheckAttrValueType(v, schema.fields()[idx].type));
        return v;
      }
      case ExprKind::kMeta:
        return Meta(static_cast<const expr::MetaExpr&>(e).attr());
      case ExprKind::kUnary: {
        const auto& u = static_cast<const expr::UnaryExpr&>(e);
        SL_ASSIGN_OR_RETURN(Value v, Eval(*u.operand()));
        if (v.is_null()) return Value::Null();
        return expr::EvalUnaryOp(u.op(), v);
      }
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        if (IsLogical(b.op())) return EvalLogical(b);
        SL_ASSIGN_OR_RETURN(Value l, Eval(*b.left()));
        SL_ASSIGN_OR_RETURN(Value r, Eval(*b.right()));
        if (l.is_null() || r.is_null()) return Value::Null();
        if (!IsArithmetic(b.op())) return expr::EvalCompareOp(b.op(), l, r);
        SL_ASSIGN_OR_RETURN(ValueType type, TypeOf(b));
        return expr::EvalArithOp(b.op(), type, l, r);
      }
      case ExprKind::kCall: {
        const auto& c = static_cast<const CallExpr&>(e);
        SL_ASSIGN_OR_RETURN(const FunctionDef* fn,
                            FunctionRegistry::Global().Find(c.name()));
        std::vector<Value> args;
        bool any_null = false;
        for (const auto& arg : c.args()) {
          SL_ASSIGN_OR_RETURN(Value v, Eval(*arg));
          any_null = any_null || v.is_null();
          args.push_back(std::move(v));
        }
        if (any_null && fn->propagate_null) return Value::Null();
        return fn->eval(args);
      }
    }
    return Status::Internal("unreachable expression kind");
  }

  /// Kleene and/or: the right operand (and any error it would raise) is
  /// reached only when the left one did not decide.
  Result<Value> EvalLogical(const BinaryExpr& b) const {
    const bool is_and = b.op() == BinaryOp::kAnd;
    SL_ASSIGN_OR_RETURN(Value l, Eval(*b.left()));
    if (!l.is_null() && l.AsBool() != is_and) return Value::Bool(!is_and);
    SL_ASSIGN_OR_RETURN(Value r, Eval(*b.right()));
    if (!r.is_null() && r.AsBool() != is_and) return Value::Bool(!is_and);
    if (l.is_null() || r.is_null()) return Value::Null();
    return Value::Bool(is_and);
  }

  Value Meta(MetaAttr attr) const {
    switch (attr) {
      case MetaAttr::kTimestamp:
        return Value::Time(tuple.timestamp());
      case MetaAttr::kLat:
        return tuple.location().has_value()
                   ? Value::Double(tuple.location()->lat)
                   : Value::Null();
      case MetaAttr::kLon:
        return tuple.location().has_value()
                   ? Value::Double(tuple.location()->lon)
                   : Value::Null();
      case MetaAttr::kSensor:
        return Value::String(tuple.sensor_id());
      case MetaAttr::kTheme:
        return Value::String(tuple.schema() != nullptr
                                 ? tuple.schema()->theme().ToString()
                                 : "*");
    }
    return Value::Null();
  }
};

}  // namespace

Result<Value> Interpret(const expr::BoundExpr& bound,
                        const stt::Tuple& tuple) {
  if (!bound.bound()) {
    return Status::FailedPrecondition("expression not bound");
  }
  return Walker{*bound.schema(), tuple}.Eval(*bound.expr());
}

}  // namespace sl::reference
