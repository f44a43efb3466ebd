#include "expr/typecheck.h"

#include "expr/functions.h"
#include "expr/parser.h"
#include "util/strings.h"

namespace sl::expr {

using stt::Value;
using stt::ValueType;

namespace {

bool IsNullType(ValueType t) { return t == ValueType::kNull; }

bool NumericOrNull(ValueType t) {
  return stt::IsNumeric(t) || IsNullType(t);
}

}  // namespace

Result<ValueType> ArithmeticResultType(BinaryOp op, ValueType l, ValueType r) {
  // String concatenation with '+'.
  if (op == BinaryOp::kAdd &&
      (l == ValueType::kString || r == ValueType::kString) &&
      !stt::IsNumeric(l) && !stt::IsNumeric(r)) {
    if ((l == ValueType::kString || IsNullType(l)) &&
        (r == ValueType::kString || IsNullType(r))) {
      return ValueType::kString;
    }
  }
  // Timestamp arithmetic: ts - ts -> int (ms); ts +- int -> ts.
  if (l == ValueType::kTimestamp || r == ValueType::kTimestamp) {
    if (op == BinaryOp::kSub && l == ValueType::kTimestamp &&
        r == ValueType::kTimestamp) {
      return ValueType::kInt;
    }
    if ((op == BinaryOp::kAdd || op == BinaryOp::kSub) &&
        l == ValueType::kTimestamp &&
        (r == ValueType::kInt || IsNullType(r))) {
      return ValueType::kTimestamp;
    }
    if (op == BinaryOp::kAdd && r == ValueType::kTimestamp &&
        (l == ValueType::kInt || IsNullType(l))) {
      return ValueType::kTimestamp;
    }
    return Status::TypeError(
        StrFormat("invalid timestamp arithmetic: %s %s %s",
                  stt::ValueTypeToString(l), BinaryOpToString(op),
                  stt::ValueTypeToString(r)));
  }
  if (!NumericOrNull(l) || !NumericOrNull(r)) {
    return Status::TypeError(StrFormat(
        "operator %s expects numeric operands but got %s and %s",
        BinaryOpToString(op), stt::ValueTypeToString(l),
        stt::ValueTypeToString(r)));
  }
  if (op == BinaryOp::kDiv) return ValueType::kDouble;
  if (l == ValueType::kDouble || r == ValueType::kDouble)
    return ValueType::kDouble;
  return ValueType::kInt;  // also the null-wildcard default
}

Result<ValueType> ComparisonResultType(BinaryOp op, ValueType l, ValueType r) {
  if (IsNullType(l) || IsNullType(r)) return ValueType::kBool;
  bool both_numeric = stt::IsNumeric(l) && stt::IsNumeric(r);
  if (both_numeric || l == r) {
    if (l == ValueType::kGeoPoint && op != BinaryOp::kEq &&
        op != BinaryOp::kNe) {
      return Status::TypeError("geopoints only support == and !=");
    }
    return ValueType::kBool;
  }
  return Status::TypeError(StrFormat(
      "cannot compare %s with %s", stt::ValueTypeToString(l),
      stt::ValueTypeToString(r)));
}

Result<ValueType> LogicalResultType(BinaryOp op, ValueType l, ValueType r) {
  auto ok = [](ValueType t) {
    return t == ValueType::kBool || IsNullType(t);
  };
  if (!ok(l) || !ok(r)) {
    return Status::TypeError(
        StrFormat("%s expects bool operands but got %s and %s",
                  BinaryOpToString(op), stt::ValueTypeToString(l),
                  stt::ValueTypeToString(r)));
  }
  return ValueType::kBool;
}

Result<ValueType> UnaryResultType(UnaryOp op, ValueType operand) {
  if (op == UnaryOp::kNeg) {
    if (!NumericOrNull(operand)) {
      return Status::TypeError("unary - expects a numeric operand");
    }
    return operand == ValueType::kDouble ? ValueType::kDouble
                                         : ValueType::kInt;
  }
  if (operand != ValueType::kBool && !IsNullType(operand)) {
    return Status::TypeError("not expects a bool operand");
  }
  return ValueType::kBool;
}

ValueType MetaAttrType(MetaAttr attr) {
  switch (attr) {
    case MetaAttr::kTimestamp: return ValueType::kTimestamp;
    case MetaAttr::kLat:
    case MetaAttr::kLon: return ValueType::kDouble;
    case MetaAttr::kSensor:
    case MetaAttr::kTheme: return ValueType::kString;
  }
  return ValueType::kNull;
}

namespace {

// -------------------------------------------------------------- folding

bool IsZero(const Value& v) {
  if (v.type() == ValueType::kInt) return v.AsInt() == 0;
  if (v.type() == ValueType::kDouble) return v.AsDouble() == 0.0;
  return false;
}

/// True when int64 `a op b` overflows, or is INT64_MIN % -1: results the
/// VM wraps at run time.
bool IntWraps(BinaryOp op, int64_t a, int64_t b) {
  int64_t out = 0;
  switch (op) {
    case BinaryOp::kAdd: return __builtin_add_overflow(a, b, &out);
    case BinaryOp::kSub: return __builtin_sub_overflow(a, b, &out);
    case BinaryOp::kMul: return __builtin_mul_overflow(a, b, &out);
    case BinaryOp::kMod: return a == INT64_MIN && b == -1;
    default: return false;
  }
}

// Constant folding over literal operands. The folders add their own rules
// and evaluate through the VM's helpers (expr/program.h), so a folded
// literal is what the program would compute: a null operand folds to
// null (the program's null propagation), and whatever the runtime
// handles dynamically — timestamp math, int64 results that wrap — does
// not fold (nullopt), so folding never claims more than eval does. The
// walk uses them twice: for the constant-predicate lints, and to fold
// literal subtrees of the program it lowers, so they cost zero per
// tuple.

std::optional<Value> FoldUnary(UnaryOp op, const Value& v) {
  if (v.is_null()) return Value::Null();
  if (op == UnaryOp::kNeg && v.type() == ValueType::kInt &&
      v.AsInt() == INT64_MIN) {
    return std::nullopt;
  }
  return EvalUnaryOp(op, v);
}

std::optional<Value> FoldArithmetic(BinaryOp op, ValueType result_type,
                                    const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  if (l.type() == ValueType::kTimestamp || r.type() == ValueType::kTimestamp) {
    return std::nullopt;  // folding gains nothing for timestamp math
  }
  if (result_type == ValueType::kInt && op != BinaryOp::kDiv &&
      IntWraps(op, l.AsInt(), r.AsInt())) {
    return std::nullopt;
  }
  return EvalArithOp(op, result_type, l, r);
}

std::optional<Value> FoldComparison(BinaryOp op, const Value& l,
                                    const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  return EvalCompareOp(op, l, r);
}

/// Kleene three-valued logic, matching the short-circuit evaluator. A
/// dominant constant side (false for and, true for or) decides even when
/// the other side is not constant (nullopt).
std::optional<Value> FoldLogical(BinaryOp op, const std::optional<Value>& l,
                                 const std::optional<Value>& r) {
  bool is_and = op == BinaryOp::kAnd;
  auto dominant = [&](const std::optional<Value>& v) {
    return v.has_value() && !v->is_null() && v->AsBool() != is_and;
  };
  // One dominant side decides even when the other is not constant.
  if (dominant(l) || dominant(r)) return Value::Bool(!is_and);
  if (!l.has_value() || !r.has_value()) return std::nullopt;
  if (l->is_null() || r->is_null()) return Value::Null();
  return Value::Bool(is_and);  // and: both true; or: both false -> false
}

// ------------------------------------------------------------- checker

struct CheckState {
  ValueType type = ValueType::kNull;
  std::optional<Value> constant;
};

/// Types, lints and lowers in one postorder walk: each node's
/// instructions follow its operands', the order the program runs them.
/// and/or lower to
///   <left>  ShortCircuit(->end)  <right>  LogicalMerge  end:
/// which keeps the short circuit (the right operand, and any error it
/// would surface, is only reached when the left did not decide) and the
/// Kleene merge. After an error the instructions are meaningless; the
/// caller drops them.
class Checker {
 public:
  Checker(const stt::Schema& schema, const std::string& source)
      : schema_(schema), source_(source) {}

  CheckState Check(const Expr& e) {
    switch (e.kind()) {
      case ExprKind::kLiteral: {
        const auto& value = static_cast<const LiteralExpr&>(e).value();
        Emit(ExprInsn::Op::kPushLiteral, value.type(), e).literal = value;
        return {value.type(), value};
      }
      case ExprKind::kAttr:
        return CheckAttr(static_cast<const AttrExpr&>(e));
      case ExprKind::kMeta: {
        MetaAttr meta = static_cast<const MetaExpr&>(e).attr();
        Emit(ExprInsn::Op::kPushMeta, MetaAttrType(meta), e).meta = meta;
        return {MetaAttrType(meta), {}};
      }
      case ExprKind::kUnary:
        return CheckUnary(static_cast<const UnaryExpr&>(e));
      case ExprKind::kBinary:
        return CheckBinary(static_cast<const BinaryExpr&>(e));
      case ExprKind::kCall:
        return CheckCall(static_cast<const CallExpr&>(e));
    }
    return {};
  }

  std::vector<diag::Diagnostic>& diags() { return diags_; }
  ExprProgram& program() { return program_; }

 private:
  void Report(diag::Code code, const Expr& at, std::string message) {
    diags_.push_back(diag::MakeDiag(code, "", std::move(message), at.span(),
                                    source_));
  }

  size_t Lowered() const { return program_.insns().size(); }

  /// Appends the instruction lowered from node `at`.
  ExprInsn& Emit(ExprInsn::Op op, ValueType type, const Expr& at) {
    ExprInsn& insn = program_.insns().emplace_back();
    insn.op = op;
    insn.type = type;
    insn.span = at.span();
    return insn;
  }

  /// The operand lowered to instructions [begin, end) when it is one
  /// literal, else nullptr. Nothing folds after an error: the operand
  /// may then not be what its instructions show.
  const Value* LiteralOperand(size_t begin, size_t end) const {
    if (end != begin + 1 || diag::HasErrors(diags_)) return nullptr;
    const ExprInsn& insn = program_.insns()[begin];
    return insn.op == ExprInsn::Op::kPushLiteral ? &insn.literal : nullptr;
  }

  /// Replaces node `at`, lowered from `begin` on, with the literal
  /// `folded`, keeping the statically derived type (a null fold result
  /// must not widen the parent's typing).
  void FoldTo(size_t begin, const Expr& at, ValueType type, Value folded) {
    program_.insns().resize(begin);
    Emit(ExprInsn::Op::kPushLiteral, type, at).literal = std::move(folded);
  }

  CheckState CheckAttr(const AttrExpr& attr) {
    if (auto idx = schema_.FieldIndex(attr.name()); idx.ok()) {
      ValueType type = schema_.fields()[*idx].type;
      Emit(ExprInsn::Op::kPushAttr, type, attr).index =
          static_cast<uint32_t>(*idx);
      return {type, {}};
    }
    diag::Diagnostic d = diag::MakeDiag(
        diag::Code::kUnknownColumn, "",
        StrFormat("unknown column '%s'", attr.name().c_str()), attr.span(),
        source_);
    std::vector<std::string> names;
    names.reserve(schema_.fields().size());
    for (const auto& f : schema_.fields()) names.push_back(f.name);
    std::string columns = names.empty() ? "(none)" : Join(names, ", ");
    d.notes.push_back(
        {StrFormat("input schema has columns: %s", columns.c_str()), {}});
    diags_.push_back(std::move(d));
    return {};  // null wildcard: recover and keep checking the parents
  }

  CheckState CheckUnary(const UnaryExpr& u) {
    size_t begin = Lowered();
    CheckState operand = Check(*u.operand());
    auto type = UnaryResultType(u.op(), operand.type);
    if (!type.ok()) {
      Report(u.op() == UnaryOp::kNeg ? diag::Code::kBadOperandType
                                     : diag::Code::kBoolOperand,
             u, type.status().message());
      return {};
    }
    CheckState out{*type, {}};
    if (operand.constant.has_value()) {
      out.constant = FoldUnary(u.op(), *operand.constant);
    }
    std::optional<Value> folded;
    if (const Value* v = LiteralOperand(begin, Lowered())) {
      folded = FoldUnary(u.op(), *v);
    }
    if (folded.has_value()) {
      FoldTo(begin, u, *type, std::move(*folded));
    } else {
      Emit(ExprInsn::Op::kUnary, *type, u).uop = u.op();
    }
    return out;
  }

  CheckState CheckBinary(const BinaryExpr& b) {
    const bool logical = b.op() == BinaryOp::kAnd || b.op() == BinaryOp::kOr;
    size_t begin = Lowered();
    CheckState left = Check(*b.left());
    size_t mid = Lowered();
    if (logical) Emit(ExprInsn::Op::kShortCircuit, ValueType::kBool, b);
    size_t right_begin = Lowered();
    CheckState right = Check(*b.right());
    const Value* left_literal = LiteralOperand(begin, mid);
    const Value* right_literal = LiteralOperand(right_begin, Lowered());
    const bool literals = left_literal != nullptr && right_literal != nullptr;
    CheckState out;
    std::optional<Value> folded;
    ExprInsn::Op op = ExprInsn::Op::kArith;
    switch (b.op()) {
      case BinaryOp::kAdd: case BinaryOp::kSub: case BinaryOp::kMul:
      case BinaryOp::kDiv: case BinaryOp::kMod: {
        auto type = ArithmeticResultType(b.op(), left.type, right.type);
        if (!type.ok()) {
          Report(diag::Code::kBadOperandType, b, type.status().message());
          return {};
        }
        // Literal division by zero is visible even when the left side
        // is dynamic: x / 0 is null for every x.
        if ((b.op() == BinaryOp::kDiv || b.op() == BinaryOp::kMod) &&
            right.constant.has_value() && IsZero(*right.constant)) {
          Report(diag::Code::kDivisionByZero, *b.right(),
                 StrFormat("literal %s by zero always yields null",
                           b.op() == BinaryOp::kDiv ? "division" : "modulo"));
        }
        out.type = *type;
        if (left.constant.has_value() && right.constant.has_value()) {
          out.constant =
              FoldArithmetic(b.op(), *type, *left.constant, *right.constant);
        }
        if (literals) {
          folded = FoldArithmetic(b.op(), *type, *left_literal,
                                  *right_literal);
        }
        break;
      }
      case BinaryOp::kEq: case BinaryOp::kNe: case BinaryOp::kLt:
      case BinaryOp::kLe: case BinaryOp::kGt: case BinaryOp::kGe: {
        auto type = ComparisonResultType(b.op(), left.type, right.type);
        if (!type.ok()) {
          Report(diag::Code::kBadComparison, b, type.status().message());
          return {};
        }
        out.type = *type;
        if (left.constant.has_value() && right.constant.has_value()) {
          out.constant = FoldComparison(b.op(), *left.constant,
                                        *right.constant);
        }
        if (literals) {
          folded = FoldComparison(b.op(), *left_literal, *right_literal);
        }
        op = ExprInsn::Op::kCompare;
        break;
      }
      case BinaryOp::kAnd: case BinaryOp::kOr: {
        auto type = LogicalResultType(b.op(), left.type, right.type);
        if (!type.ok()) {
          Report(diag::Code::kBoolOperand, b, type.status().message());
          return {};
        }
        out = {*type, FoldLogical(b.op(), left.constant, right.constant)};
        if (literals) {
          folded = FoldLogical(b.op(), *left_literal, *right_literal);
        }
        op = ExprInsn::Op::kLogicalMerge;
        break;
      }
    }
    if (folded.has_value()) {
      FoldTo(begin, b, out.type, std::move(*folded));
      return out;
    }
    Emit(op, out.type, b).bop = b.op();
    if (logical) {
      ExprInsn& jump = program_.insns()[mid];
      jump.bop = b.op();
      jump.jump = static_cast<uint32_t>(Lowered());
    }
    return out;
  }

  CheckState CheckCall(const CallExpr& c) {
    auto fn = FunctionRegistry::Global().Find(c.name());
    std::vector<ValueType> arg_types;
    arg_types.reserve(c.args().size());
    for (const auto& arg : c.args()) {
      arg_types.push_back(Check(*arg).type);
    }
    if (!fn.ok()) {
      Report(diag::Code::kUnknownFunction, c,
             StrFormat("unknown function '%s'", c.name().c_str()));
      return {};
    }
    if (c.args().size() < (*fn)->min_args ||
        c.args().size() > (*fn)->max_args) {
      Report(diag::Code::kArity, c,
             StrFormat("%s expects %zu..%zu arguments, got %zu  [%s]",
                       (*fn)->name.c_str(), (*fn)->min_args,
                       (*fn)->max_args == SIZE_MAX ? c.args().size()
                                                   : (*fn)->max_args,
                       c.args().size(), (*fn)->signature.c_str()));
      return {};
    }
    auto type = (*fn)->check(arg_types);
    if (!type.ok()) {
      diag::Diagnostic d = diag::MakeDiag(diag::Code::kBadArgType, "",
                                          type.status().message(), c.span(),
                                          source_);
      d.notes.push_back({StrFormat("signature: %s",
                                   (*fn)->signature.c_str()),
                         {}});
      diags_.push_back(std::move(d));
      return {};
    }
    ExprInsn& call = Emit(ExprInsn::Op::kCall, *type, c);
    call.index = static_cast<uint32_t>(c.args().size());
    call.fn = *fn;
    return {*type, {}};  // calls are never folded (runtime domain errors)
  }

  const stt::Schema& schema_;
  const std::string& source_;
  std::vector<diag::Diagnostic> diags_;
  ExprProgram program_;
};

}  // namespace

TypecheckResult TypecheckExpr(const ExprPtr& expr, const stt::Schema& schema,
                              const std::string& source) {
  TypecheckResult result;
  if (expr == nullptr) {
    result.diags.push_back(diag::MakeDiag(diag::Code::kExprSyntax, "",
                                          "null expression", {}, source));
    return result;
  }
  Checker checker(schema, source);
  CheckState root = checker.Check(*expr);
  result.type = root.type;
  result.constant = std::move(root.constant);
  result.diags = std::move(checker.diags());
  result.expr = expr;
  if (result.ok()) result.program = std::move(checker.program());
  return result;
}

TypecheckResult TypecheckSource(const std::string& source,
                                const stt::Schema& schema) {
  TypecheckResult result;
  ExprPtr expr = ParseExpressionWithDiagnostics(source, &result.diags);
  if (expr == nullptr) return result;
  return TypecheckExpr(expr, schema, source);
}

TypecheckResult TypecheckCondition(const std::string& source,
                                   const stt::Schema& schema,
                                   ConditionContext context) {
  TypecheckResult result = TypecheckSource(source, schema);
  if (!result.ok()) return result;
  if (result.type != ValueType::kBool && result.type != ValueType::kNull) {
    result.diags.push_back(diag::MakeDiag(
        diag::Code::kConditionNotBool, "",
        StrFormat("condition has type %s, expected bool",
                  stt::ValueTypeToString(result.type)),
        {0, source.size()}, source));
    return result;
  }
  if (result.constant.has_value()) {
    const Value& v = *result.constant;
    bool truthy = !v.is_null() && v.AsBool();
    // An always-true join predicate is the idiomatic cross join and an
    // always-true trigger fires every interval by design; only a filter
    // that keeps everything is suspicious. Always-false (or null) means
    // the operator can never pass/fire anywhere.
    if (!truthy || context == ConditionContext::kFilter) {
      result.diags.push_back(diag::MakeDiag(
          diag::Code::kConstantPredicate, "",
          StrFormat("condition is always %s",
                    v.is_null() ? "null (treated as false)"
                                : (truthy ? "true" : "false")),
          {0, source.size()}, source));
    }
  }
  return result;
}

}  // namespace sl::expr
