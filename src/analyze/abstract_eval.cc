#include "analyze/abstract_eval.h"

#include <algorithm>
#include <cmath>

#include "expr/typecheck.h"
#include "util/strings.h"

namespace sl::analyze {

using expr::BinaryOp;
using expr::ExprInsn;
using expr::MetaAttr;
using expr::UnaryOp;
using stt::ValueType;

namespace {

constexpr double kInf = AbstractValue::kInf;
// Smallest double at or above 2^63: int64 results must stay below it.
constexpr double kInt64Lo = -9223372036854775808.0;
constexpr double kInt64Hi = 9223372036854775808.0;

bool Bounded(const AbstractValue& v) {
  return std::isfinite(v.lo) && std::isfinite(v.hi) && v.lo <= v.hi;
}

/// Interval of l op r over the four endpoint combinations (add/sub/mul).
void EndpointInterval(BinaryOp op, const AbstractValue& l,
                      const AbstractValue& r, double* lo, double* hi) {
  auto apply = [op](double a, double b) {
    switch (op) {
      case BinaryOp::kAdd: return a + b;
      case BinaryOp::kSub: return a - b;
      case BinaryOp::kMul: {
        // 0 * inf is NaN under IEEE but 0 under interval semantics.
        if (a == 0 || b == 0) return 0.0;
        return a * b;
      }
      default: return 0.0;
    }
  };
  double c1 = apply(l.lo, r.lo), c2 = apply(l.lo, r.hi);
  double c3 = apply(l.hi, r.lo), c4 = apply(l.hi, r.hi);
  *lo = std::min(std::min(c1, c2), std::min(c3, c4));
  *hi = std::max(std::max(c1, c2), std::max(c3, c4));
}

AbstractValue AbstractArith(const ExprInsn& insn, const AbstractValue& l,
                            const AbstractValue& r, bool r_is_literal,
                            std::vector<ExprFinding>* findings) {
  AbstractValue out = AbstractValue::TopOf(insn.type);
  out.may_null = l.may_null || r.may_null;
  // Concrete arithmetic never yields NaN: non-finite results become null
  // (EvalArithOp), so the NaN bit is cleared and nullability widened.
  out.may_nan = false;
  if (l.may_nan || r.may_nan) out.may_null = true;
  if (l.IsEmptyValue() || r.IsEmptyValue()) {
    // No non-null operand pair exists; the result is only ever null.
    out.lo = kInf;
    out.hi = -kInf;
    out.may_null = true;
    return out;
  }

  if (insn.type == ValueType::kString && insn.bop == BinaryOp::kAdd) {
    if (l.strings.has_value() && r.strings.has_value() &&
        l.strings->size() * r.strings->size() <= AbstractValue::kMaxStrings) {
      std::vector<std::string> cat;
      for (const auto& a : *l.strings) {
        for (const auto& b : *r.strings) cat.push_back(a + b);
      }
      std::sort(cat.begin(), cat.end());
      cat.erase(std::unique(cat.begin(), cat.end()), cat.end());
      out.strings = std::move(cat);
    }
    return out;
  }
  if (!stt::IsNumeric(l.type) && l.type != ValueType::kTimestamp) return out;

  switch (insn.bop) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul: {
      EndpointInterval(insn.bop, l, r, &out.lo, &out.hi);
      if (insn.type == ValueType::kInt && Bounded(l) && Bounded(r) &&
          (out.lo < kInt64Lo || out.hi >= kInt64Hi) && findings != nullptr) {
        findings->push_back(
            {diag::Code::kRangeOverflow, insn.span,
             StrFormat("integer arithmetic can overflow 64 bits: inferred "
                       "result range [%g, %g] exceeds [-2^63, 2^63)",
                       out.lo, out.hi)});
      }
      if (insn.type != ValueType::kDouble) break;
      // Non-finite double results become null at run time.
      if (!std::isfinite(out.lo) || !std::isfinite(out.hi)) {
        out.may_null = true;
      }
      break;
    }
    case BinaryOp::kDiv: {
      bool divisor_may_zero = r.lo <= 0 && r.hi >= 0;
      bool divisor_only_zero = r.lo == 0 && r.hi == 0 && !r.may_nan;
      if (divisor_only_zero) {
        if (findings != nullptr && !r_is_literal) {
          findings->push_back(
              {diag::Code::kRangeDivisionByZero, insn.span,
               "division by zero is reachable: the divisor's inferred "
               "range is exactly [0, 0]"});
        }
        out.lo = kInf;  // every evaluation yields null
        out.hi = -kInf;
        out.may_null = true;
        break;
      }
      if (divisor_may_zero) out.may_null = true;
      if (Bounded(l) && Bounded(r) && !divisor_may_zero) {
        double c1 = l.lo / r.lo, c2 = l.lo / r.hi;
        double c3 = l.hi / r.lo, c4 = l.hi / r.hi;
        out.lo = std::min(std::min(c1, c2), std::min(c3, c4));
        out.hi = std::max(std::max(c1, c2), std::max(c3, c4));
      }
      break;
    }
    case BinaryOp::kMod: {
      bool divisor_may_zero = r.lo <= 0 && r.hi >= 0;
      if (divisor_may_zero) out.may_null = true;
      if (r.lo == 0 && r.hi == 0 && !r.may_nan) {
        if (findings != nullptr && !r_is_literal) {
          findings->push_back(
              {diag::Code::kRangeDivisionByZero, insn.span,
               "modulo by zero is reachable: the divisor's inferred range "
               "is exactly [0, 0]"});
        }
        out.lo = kInf;
        out.hi = -kInf;
        break;
      }
      if (Bounded(r)) {
        double m = std::max(std::abs(r.lo), std::abs(r.hi));
        out.lo = -m;
        out.hi = m;
      }
      break;
    }
    default:
      break;
  }
  return out;
}

AbstractValue AbstractCompare(const ExprInsn& insn, const AbstractValue& l,
                              const AbstractValue& r) {
  AbstractValue out = AbstractValue::TopOf(ValueType::kBool);
  out.may_null = l.may_null || r.may_null;
  out.may_nan = false;
  if (l.IsEmptyValue() || r.IsEmptyValue()) {
    out.may_true = out.may_false = false;
    out.may_null = true;
    return out;
  }

  bool numeric = (stt::IsNumeric(l.type) || l.type == ValueType::kTimestamp) &&
                 (stt::IsNumeric(r.type) || r.type == ValueType::kTimestamp);
  if (numeric) {
    switch (insn.bop) {
      case BinaryOp::kLt:
        out.may_true = l.lo < r.hi;
        out.may_false = l.hi >= r.lo;
        break;
      case BinaryOp::kLe:
        out.may_true = l.lo <= r.hi;
        out.may_false = l.hi > r.lo;
        break;
      case BinaryOp::kGt:
        out.may_true = l.hi > r.lo;
        out.may_false = l.lo <= r.hi;
        break;
      case BinaryOp::kGe:
        out.may_true = l.hi >= r.lo;
        out.may_false = l.lo < r.hi;
        break;
      case BinaryOp::kEq:
        out.may_true = l.lo <= r.hi && r.lo <= l.hi;
        out.may_false = !(l.lo == l.hi && r.lo == r.hi && l.lo == r.lo);
        break;
      case BinaryOp::kNe:
        out.may_true = !(l.lo == l.hi && r.lo == r.hi && l.lo == r.lo);
        out.may_false = l.lo <= r.hi && r.lo <= l.hi;
        break;
      default:
        break;
    }
    // A NaN operand compares false under every operator except !=.
    if (l.may_nan || r.may_nan) {
      if (insn.bop == BinaryOp::kNe) {
        out.may_true = true;
      } else {
        out.may_false = true;
      }
    }
    return out;
  }

  if (l.type == ValueType::kString && r.type == ValueType::kString &&
      (insn.bop == BinaryOp::kEq || insn.bop == BinaryOp::kNe)) {
    if (l.strings.has_value() && r.strings.has_value()) {
      bool overlap = false;
      for (const auto& s : *l.strings) {
        if (std::find(r.strings->begin(), r.strings->end(), s) !=
            r.strings->end()) {
          overlap = true;
          break;
        }
      }
      bool both_constant = l.strings->size() == 1 && r.strings->size() == 1;
      bool eq_may_true = overlap;
      bool eq_may_false = !(both_constant && overlap);
      if (insn.bop == BinaryOp::kEq) {
        out.may_true = eq_may_true;
        out.may_false = eq_may_false;
      } else {
        out.may_true = eq_may_false;
        out.may_false = eq_may_true;
      }
    }
    return out;
  }

  if (l.type == ValueType::kBool && r.type == ValueType::kBool &&
      (insn.bop == BinaryOp::kEq || insn.bop == BinaryOp::kNe)) {
    bool eq_may_true = (l.may_true && r.may_true) || (l.may_false && r.may_false);
    bool eq_may_false = (l.may_true && r.may_false) || (l.may_false && r.may_true);
    if (insn.bop == BinaryOp::kEq) {
      out.may_true = eq_may_true;
      out.may_false = eq_may_false;
    } else {
      out.may_true = eq_may_false;
      out.may_false = eq_may_true;
    }
  }
  // String </<= and remaining shapes stay Top (both outcomes possible).
  return out;
}

/// Kleene three-valued and/or. Nullability is over-approximated: the
/// merge may report null wherever either operand can be null, even when
/// a dominant false/true would concretely absorb it.
AbstractValue AbstractLogical(BinaryOp op, const AbstractValue& l,
                              const AbstractValue& r) {
  AbstractValue out = AbstractValue::TopOf(ValueType::kBool);
  out.may_nan = false;
  if (op == BinaryOp::kAnd) {
    out.may_true = l.may_true && r.may_true;
    out.may_false = l.may_false || r.may_false;
    out.may_null = (l.may_null && (r.may_true || r.may_null)) ||
                   (r.may_null && (l.may_true || l.may_null));
  } else {
    out.may_true = l.may_true || r.may_true;
    out.may_false = l.may_false && r.may_false;
    out.may_null = (l.may_null && (r.may_false || r.may_null)) ||
                   (r.may_null && (l.may_false || l.may_null));
  }
  return out;
}

AbstractValue AbstractUnary(UnaryOp op, ValueType type,
                            const AbstractValue& v) {
  AbstractValue out = v;
  out.type = type;
  if (op == UnaryOp::kNeg) {
    out.lo = -v.hi;
    out.hi = -v.lo;
  } else {  // not
    out.may_true = v.may_false;
    out.may_false = v.may_true;
  }
  return out;
}

AbstractValue AbstractCall(const ExprInsn& insn,
                           const std::vector<AbstractValue>& args) {
  AbstractValue out = AbstractValue::TopOf(insn.type);
  // Functions can return null on domain errors regardless of inputs.
  out.may_null = true;
  // But concrete function results are finite values or null, never NaN.
  out.may_nan = false;
  if (insn.fn != nullptr) {
    // A few bounds worth knowing without modelling each function fully.
    if (insn.fn->name == "length" || insn.fn->name == "abs") {
      out.lo = 0;
    }
  }
  (void)args;
  return out;
}

}  // namespace

AbstractRow AbstractRow::FromFacts(const StreamFacts& facts) {
  AbstractRow row;
  row.schema = facts.schema.get();
  row.attrs = facts.props;
  row.ts = AbstractValue::TopOf(ValueType::kTimestamp);
  row.ts.may_null = false;
  row.ts.lo = 0;  // event time is never negative in this system
  row.lat = AbstractValue::TopOf(ValueType::kDouble);
  row.lat.may_nan = false;
  row.lat.lo = -90;
  row.lat.hi = 90;
  row.lon = AbstractValue::TopOf(ValueType::kDouble);
  row.lon.may_nan = false;
  row.lon.lo = -180;
  row.lon.hi = 180;
  row.sensor = AbstractValue::TopOf(ValueType::kString);
  row.sensor.may_null = false;
  row.theme = AbstractValue::TopOf(ValueType::kString);
  row.theme.may_null = false;
  if (facts.schema != nullptr) {
    row.theme.strings =
        std::vector<std::string>{facts.schema->theme().ToString()};
  }
  return row;
}

AbstractValue EvalAbstract(const expr::ExprProgram& program,
                           const AbstractRow& row,
                           std::vector<ExprFinding>* findings) {
  struct Slot {
    AbstractValue value;
    bool is_literal = false;  // pushed by kPushLiteral (suppresses SL4003,
                              // which SL3005 already reports at lint level)
  };
  std::vector<Slot> stack;
  stack.reserve(program.insns().size());

  for (const ExprInsn& insn : program.insns()) {
    switch (insn.op) {
      case ExprInsn::Op::kPushLiteral:
        stack.push_back({AbstractValue::Constant(insn.literal), true});
        break;
      case ExprInsn::Op::kPushAttr: {
        AbstractValue v = insn.index < row.attrs.size()
                              ? row.attrs[insn.index]
                              : AbstractValue::TopOf(insn.type);
        stack.push_back({std::move(v), false});
        break;
      }
      case ExprInsn::Op::kPushMeta: {
        const AbstractValue* v = nullptr;
        switch (insn.meta) {
          case MetaAttr::kTimestamp: v = &row.ts; break;
          case MetaAttr::kLat: v = &row.lat; break;
          case MetaAttr::kLon: v = &row.lon; break;
          case MetaAttr::kSensor: v = &row.sensor; break;
          case MetaAttr::kTheme: v = &row.theme; break;
        }
        stack.push_back({*v, false});
        break;
      }
      case ExprInsn::Op::kUnary: {
        Slot v = std::move(stack.back());
        stack.pop_back();
        stack.push_back({AbstractUnary(insn.uop, insn.type, v.value), false});
        break;
      }
      case ExprInsn::Op::kArith: {
        Slot r = std::move(stack.back());
        stack.pop_back();
        Slot l = std::move(stack.back());
        stack.pop_back();
        stack.push_back(
            {AbstractArith(insn, l.value, r.value, r.is_literal, findings),
             false});
        break;
      }
      case ExprInsn::Op::kCompare: {
        Slot r = std::move(stack.back());
        stack.pop_back();
        Slot l = std::move(stack.back());
        stack.pop_back();
        stack.push_back({AbstractCompare(insn, l.value, r.value), false});
        break;
      }
      case ExprInsn::Op::kShortCircuit:
        // Never taken abstractly: evaluating the right operand and
        // merging subsumes the jump's effect (the merge result covers
        // the dominant-bool case the jump would have pinned).
        break;
      case ExprInsn::Op::kLogicalMerge: {
        Slot r = std::move(stack.back());
        stack.pop_back();
        Slot l = std::move(stack.back());
        stack.pop_back();
        stack.push_back({AbstractLogical(insn.bop, l.value, r.value), false});
        break;
      }
      case ExprInsn::Op::kCall: {
        std::vector<AbstractValue> args(insn.index);
        for (size_t i = 0; i < insn.index; ++i) {
          args[insn.index - 1 - i] = std::move(stack.back().value);
          stack.pop_back();
        }
        AbstractValue out = AbstractCall(insn, args);
        // Null propagation: if no argument can be null, a
        // null-propagating function still may return null on domain
        // errors, so may_null stays true; nothing to refine soundly.
        stack.push_back({std::move(out), false});
        break;
      }
    }
  }
  if (stack.size() != 1) return AbstractValue::TopOf(ValueType::kNull);
  return std::move(stack.back().value);
}

namespace {

/// The constant a conjunct side denotes, if it is a literal (possibly
/// under unary minus — the parser keeps the sign as a node).
std::optional<stt::Value> LiteralOf(const expr::Expr& e) {
  if (e.kind() == expr::ExprKind::kLiteral) {
    return static_cast<const expr::LiteralExpr&>(e).value();
  }
  if (e.kind() == expr::ExprKind::kUnary) {
    const auto& u = static_cast<const expr::UnaryExpr&>(e);
    if (u.op() == UnaryOp::kNeg) {
      auto inner = LiteralOf(*u.operand());
      if (inner.has_value()) {
        if (inner->type() == ValueType::kInt) {
          return stt::Value::Int(-inner->AsInt());
        }
        if (inner->type() == ValueType::kDouble) {
          return stt::Value::Double(-inner->AsDouble());
        }
      }
    }
  }
  return std::nullopt;
}

double NumericOf(const stt::Value& v) {
  return v.type() == ValueType::kInt ? static_cast<double>(v.AsInt())
                                     : v.AsDouble();
}

/// Collects attribute names whose null would make `e` evaluate to null
/// (attrs reachable without crossing a function call — arithmetic,
/// comparisons and unary operators all propagate null).
void NullStrictAttrs(const expr::Expr& e, std::vector<std::string>* out) {
  switch (e.kind()) {
    case expr::ExprKind::kAttr:
      out->push_back(static_cast<const expr::AttrExpr&>(e).name());
      break;
    case expr::ExprKind::kUnary:
      NullStrictAttrs(*static_cast<const expr::UnaryExpr&>(e).operand(), out);
      break;
    case expr::ExprKind::kBinary: {
      const auto& b = static_cast<const expr::BinaryExpr&>(e);
      if (b.op() == BinaryOp::kAnd || b.op() == BinaryOp::kOr) break;
      NullStrictAttrs(*b.left(), out);
      NullStrictAttrs(*b.right(), out);
      break;
    }
    default:
      break;  // calls may swallow nulls; literals/meta have no attrs
  }
}

void NarrowAttr(AbstractRow* row, const std::string& name, BinaryOp op,
                const stt::Value& lit) {
  if (row->schema == nullptr) return;
  auto idx = row->schema->FieldIndex(name);
  if (!idx.ok() || *idx >= row->attrs.size()) return;
  AbstractValue& v = row->attrs[*idx];

  if (lit.type() == ValueType::kString && v.type == ValueType::kString) {
    if (op == BinaryOp::kEq) {
      v.strings = std::vector<std::string>{lit.AsString()};
      v.may_null = false;
    } else if (op == BinaryOp::kNe && v.strings.has_value()) {
      v.strings->erase(
          std::remove(v.strings->begin(), v.strings->end(), lit.AsString()),
          v.strings->end());
      v.may_null = false;
    }
    return;
  }
  if (lit.type() != ValueType::kInt && lit.type() != ValueType::kDouble) {
    return;
  }
  if (!stt::IsNumeric(v.type)) return;
  double c = NumericOf(lit);
  bool is_int = v.type == ValueType::kInt;
  switch (op) {
    case BinaryOp::kEq:
      v.lo = std::max(v.lo, c);
      v.hi = std::min(v.hi, c);
      break;
    case BinaryOp::kLt:
      // Integer attrs tighten to the nearest representable value.
      v.hi = std::min(v.hi, is_int ? std::ceil(c) - 1 : c);
      break;
    case BinaryOp::kLe:
      v.hi = std::min(v.hi, c);
      break;
    case BinaryOp::kGt:
      v.lo = std::max(v.lo, is_int ? std::floor(c) + 1 : c);
      break;
    case BinaryOp::kGe:
      v.lo = std::max(v.lo, c);
      break;
    default:
      break;  // != does not tighten an interval
  }
  v.may_null = false;
  v.may_nan = false;  // NaN satisfies no comparison, so the pass branch
                      // excludes it (except !=, which never narrows).
}

BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;  // == and != are symmetric
  }
}

}  // namespace

void NarrowByCondition(const expr::Expr& condition, AbstractRow* row) {
  if (condition.kind() == expr::ExprKind::kBinary) {
    const auto& b = static_cast<const expr::BinaryExpr&>(condition);
    if (b.op() == BinaryOp::kAnd) {
      // Both conjuncts must hold on the pass branch.
      NarrowByCondition(*b.left(), row);
      NarrowByCondition(*b.right(), row);
      return;
    }
    switch (b.op()) {
      case BinaryOp::kEq: case BinaryOp::kNe: case BinaryOp::kLt:
      case BinaryOp::kLe: case BinaryOp::kGt: case BinaryOp::kGe: {
        // A null conjunct is non-true: every null-strict attribute of a
        // passing tuple is non-null, whatever the comparison's shape.
        std::vector<std::string> strict;
        NullStrictAttrs(b, &strict);
        for (const std::string& name : strict) {
          if (row->schema == nullptr) break;
          auto idx = row->schema->FieldIndex(name);
          if (idx.ok() && *idx < row->attrs.size()) {
            row->attrs[*idx].may_null = false;
          }
        }
        // attr cmp literal (either orientation) tightens the interval.
        if (b.left()->kind() == expr::ExprKind::kAttr) {
          auto lit = LiteralOf(*b.right());
          if (lit.has_value()) {
            NarrowAttr(row, static_cast<const expr::AttrExpr&>(*b.left()).name(),
                       b.op(), *lit);
          }
        } else if (b.right()->kind() == expr::ExprKind::kAttr) {
          auto lit = LiteralOf(*b.left());
          if (lit.has_value()) {
            NarrowAttr(row,
                       static_cast<const expr::AttrExpr&>(*b.right()).name(),
                       FlipComparison(b.op()), *lit);
          }
        }
        return;
      }
      default:
        return;  // `or` and arithmetic shapes refine nothing soundly
    }
  }
}

}  // namespace sl::analyze
