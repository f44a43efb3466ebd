#include "expr/program.h"

#include <cmath>
#include <deque>

#include "util/strings.h"

namespace sl::expr {

using stt::Value;
using stt::ValueType;

Status CheckAttrValueType(const Value& v, ValueType declared) {
  if (!v.is_null() && v.type() != declared) {
    return Status::TypeError(StrFormat(
        "tuple value has type %s but the schema declares %s",
        stt::ValueTypeToString(v.type()), stt::ValueTypeToString(declared)));
  }
  return Status::OK();
}

Value EvalUnaryOp(UnaryOp op, const Value& v) {
  if (op == UnaryOp::kNeg) {
    if (v.type() == ValueType::kInt) return Value::Int(IntNeg(v.AsInt()));
    return Value::Double(-v.AsDouble());
  }
  return Value::Bool(!v.AsBool());
}

Value EvalArithOp(BinaryOp op, ValueType result_type, const Value& l,
                  const Value& r) {
  // String concatenation.
  if (result_type == ValueType::kString) {
    return Value::String(l.AsString() + r.AsString());
  }
  // Timestamp arithmetic.
  if (l.type() == ValueType::kTimestamp ||
      r.type() == ValueType::kTimestamp) {
    if (op == BinaryOp::kSub && r.type() == ValueType::kTimestamp &&
        l.type() == ValueType::kTimestamp) {
      return Value::Int(IntArith(op, l.AsTime(), r.AsTime()));
    }
    int64_t delta = r.type() == ValueType::kTimestamp ? l.AsInt() : r.AsInt();
    Timestamp base =
        l.type() == ValueType::kTimestamp ? l.AsTime() : r.AsTime();
    return Value::Time(IntArith(op, base, delta));  // op is + or -
  }
  if (result_type == ValueType::kInt && op != BinaryOp::kDiv) {
    if (op == BinaryOp::kMod && r.AsInt() == 0) return Value::Null();
    return Value::Int(IntArith(op, l.AsInt(), r.AsInt()));
  }
  double a = l.type() == ValueType::kInt ? static_cast<double>(l.AsInt())
                                         : l.AsDouble();
  double b = r.type() == ValueType::kInt ? static_cast<double>(r.AsInt())
                                         : r.AsDouble();
  double out = 0;
  switch (op) {
    case BinaryOp::kAdd: out = a + b; break;
    case BinaryOp::kSub: out = a - b; break;
    case BinaryOp::kMul: out = a * b; break;
    case BinaryOp::kDiv:
      if (b == 0) return Value::Null();
      out = a / b;
      break;
    case BinaryOp::kMod:
      if (b == 0) return Value::Null();
      out = std::fmod(a, b);
      break;
    default: break;
  }
  if (!std::isfinite(out)) return Value::Null();
  return Value::Double(out);
}

Value EvalCompareOp(BinaryOp op, const Value& l, const Value& r) {
  int cmp;
  if (stt::IsNumeric(l.type()) && stt::IsNumeric(r.type()) &&
      l.type() != r.type()) {
    double a = l.type() == ValueType::kInt ? static_cast<double>(l.AsInt())
                                           : l.AsDouble();
    double b = r.type() == ValueType::kInt ? static_cast<double>(r.AsInt())
                                           : r.AsDouble();
    cmp = a < b ? -1 : (a > b ? 1 : 0);
  } else {
    cmp = Value::Compare(l, r);
  }
  switch (op) {
    case BinaryOp::kEq: return Value::Bool(cmp == 0);
    case BinaryOp::kNe: return Value::Bool(cmp != 0);
    case BinaryOp::kLt: return Value::Bool(cmp < 0);
    case BinaryOp::kLe: return Value::Bool(cmp <= 0);
    case BinaryOp::kGt: return Value::Bool(cmp > 0);
    case BinaryOp::kGe: return Value::Bool(cmp >= 0);
    default: break;
  }
  return Value::Null();  // unreachable for comparison ops
}

namespace {

/// Materialized-tuple row: attributes and metadata come straight from
/// the tuple.
struct TupleRow {
  const stt::Tuple& t;

  const Value& attr(size_t i) const { return t.value(i); }

  Value meta(MetaAttr m) const {
    switch (m) {
      case MetaAttr::kTimestamp:
        return Value::Time(t.timestamp());
      case MetaAttr::kLat:
        return t.location().has_value() ? Value::Double(t.location()->lat)
                                        : Value::Null();
      case MetaAttr::kLon:
        return t.location().has_value() ? Value::Double(t.location()->lon)
                                        : Value::Null();
      case MetaAttr::kSensor:
        return Value::String(t.sensor_id());
      case MetaAttr::kTheme:
        return Value::String(
            t.schema() != nullptr ? t.schema()->theme().ToString() : "*");
    }
    return Value::Null();
  }
};

/// Join-pair row: presents the pair as the concatenated joined tuple the
/// join would materialize — including its metadata (pair time, left-
/// preferred location, empty sensor id, output theme) — without copying
/// a single value.
struct PairRow {
  const PairView& p;

  const Value& attr(size_t i) const {
    return i < p.split ? p.left->value(i) : p.right->value(i - p.split);
  }

  Value meta(MetaAttr m) const {
    switch (m) {
      case MetaAttr::kTimestamp:
        return Value::Time(p.ts);
      case MetaAttr::kLat: {
        const auto& loc = p.left->location().has_value()
                              ? p.left->location()
                              : p.right->location();
        return loc.has_value() ? Value::Double(loc->lat) : Value::Null();
      }
      case MetaAttr::kLon: {
        const auto& loc = p.left->location().has_value()
                              ? p.left->location()
                              : p.right->location();
        return loc.has_value() ? Value::Double(loc->lon) : Value::Null();
      }
      case MetaAttr::kSensor:
        return Value::String("");  // joined tuples carry no sensor id
      case MetaAttr::kTheme:
        return Value::String(p.schema != nullptr ? p.schema->theme().ToString()
                                                 : "*");
    }
    return Value::Null();
  }
};

/// Evaluation scratch: the value stack plus a pool of call-argument
/// buffers, both thread-local and segmented per call (each Run works
/// above the base it found; each nesting depth owns one argument
/// buffer), so nested evaluation — an operator's Emit feeding a
/// downstream operator that evaluates its own expression before the
/// outer Run returns — cannot clobber frames, and steady-state
/// evaluation allocates nothing.
struct EvalScratch {
  std::vector<Value> stack;
  /// Deque: growing a nested depth must not move the buffers outer
  /// evaluations still hold references to.
  std::deque<std::vector<Value>> args_pool;
  size_t args_depth = 0;
};

EvalScratch& Scratch() {
  thread_local EvalScratch scratch;
  return scratch;
}

template <typename Row>
Result<Value> RunImpl(const std::vector<ExprInsn>& insns, const Row& row) {
  EvalScratch& scratch = Scratch();
  std::vector<Value>& stack = scratch.stack;
  const size_t base = stack.size();
  if (scratch.args_depth == scratch.args_pool.size()) {
    scratch.args_pool.emplace_back();
  }
  std::vector<Value>& args = scratch.args_pool[scratch.args_depth++];
  struct Restore {
    EvalScratch& scratch;
    size_t base;
    ~Restore() {
      scratch.stack.resize(base);
      scratch.args_pool[--scratch.args_depth].clear();
    }
  } restore{scratch, base};
  for (size_t pc = 0; pc < insns.size();) {
    const ExprInsn& in = insns[pc];
    switch (in.op) {
      case ExprInsn::Op::kPushLiteral:
        stack.push_back(in.literal);
        ++pc;
        break;
      case ExprInsn::Op::kPushAttr: {
        const Value& v = row.attr(in.index);
        SL_RETURN_IF_ERROR(CheckAttrValueType(v, in.type));
        stack.push_back(v);
        ++pc;
        break;
      }
      case ExprInsn::Op::kPushMeta:
        stack.push_back(row.meta(in.meta));
        ++pc;
        break;
      case ExprInsn::Op::kUnary: {
        Value& v = stack.back();
        if (!v.is_null()) v = EvalUnaryOp(in.uop, v);
        ++pc;
        break;
      }
      case ExprInsn::Op::kArith: {
        Value r = std::move(stack.back());
        stack.pop_back();
        Value& l = stack.back();
        l = (l.is_null() || r.is_null()) ? Value::Null()
                                         : EvalArithOp(in.bop, in.type, l, r);
        ++pc;
        break;
      }
      case ExprInsn::Op::kCompare: {
        Value r = std::move(stack.back());
        stack.pop_back();
        Value& l = stack.back();
        l = (l.is_null() || r.is_null()) ? Value::Null()
                                         : EvalCompareOp(in.bop, l, r);
        ++pc;
        break;
      }
      case ExprInsn::Op::kShortCircuit: {
        Value& l = stack.back();
        bool is_and = in.bop == BinaryOp::kAnd;
        if (!l.is_null() && l.AsBool() != is_and) {
          l = Value::Bool(!is_and);
          pc = in.jump;
        } else {
          ++pc;
        }
        break;
      }
      case ExprInsn::Op::kLogicalMerge: {
        Value r = std::move(stack.back());
        stack.pop_back();
        Value& l = stack.back();
        bool is_and = in.bop == BinaryOp::kAnd;
        // The left operand reaching the merge is never dominant (the
        // short-circuit would have jumped): it is null or the neutral
        // bool, so the Kleene table reduces to three cases.
        if (!r.is_null() && r.AsBool() != is_and) {
          l = Value::Bool(!is_and);
        } else if (l.is_null() || r.is_null()) {
          l = Value::Null();
        } else {
          l = Value::Bool(is_and);
        }
        ++pc;
        break;
      }
      case ExprInsn::Op::kCall: {
        const size_t argc = in.index;
        args.assign(std::make_move_iterator(stack.end() - argc),
                    std::make_move_iterator(stack.end()));
        stack.resize(stack.size() - argc);
        bool any_null = false;
        for (const Value& a : args) any_null = any_null || a.is_null();
        if (any_null && in.fn->propagate_null) {
          stack.push_back(Value::Null());
        } else {
          SL_ASSIGN_OR_RETURN(Value v, in.fn->eval(args));
          stack.push_back(std::move(v));
        }
        ++pc;
        break;
      }
    }
  }
  if (stack.size() != base + 1) {
    return Status::Internal("expression program left an unbalanced stack");
  }
  return std::move(stack.back());
}

}  // namespace

Result<Value> ExprProgram::Run(const stt::Tuple& t) const {
  return RunImpl(insns_, TupleRow{t});
}

Result<Value> ExprProgram::RunPair(const PairView& pair) const {
  return RunImpl(insns_, PairRow{pair});
}

}  // namespace sl::expr
