#include "expr/vector_program.h"

#include <cmath>
#include <utility>

namespace sl::expr {

using stt::ColumnBatch;
using stt::Value;
using stt::ValueType;

namespace {

/// Applies one comparison op to a three-way `cmp` result — the same
/// final step EvalCompareOp performs.
inline bool CmpToBool(BinaryOp op, int cmp) {
  switch (op) {
    case BinaryOp::kEq: return cmp == 0;
    case BinaryOp::kNe: return cmp != 0;
    case BinaryOp::kLt: return cmp < 0;
    case BinaryOp::kLe: return cmp <= 0;
    case BinaryOp::kGt: return cmp > 0;
    case BinaryOp::kGe: return cmp >= 0;
    default: return false;  // unreachable for comparison ops
  }
}

}  // namespace

VectorProgram::VReg& VectorProgram::Push() {
  if (sp_ == stack_.size()) stack_.emplace_back();
  return stack_[sp_++];
}

void VectorProgram::RowFail(uint32_t pos, Status status,
                            std::vector<RowError>* errors) {
  errored_[pos] = 1;
  any_errored_ = true;
  errors->push_back(RowError{(*sel_)[pos], std::move(status)});
}

void VectorProgram::CompactActive() {
  size_t out = 0;
  for (uint32_t p : active_) {
    if (!errored_[p]) active_[out++] = p;
  }
  active_.resize(out);
}

Value VectorProgram::RegValue(const VReg& reg, uint32_t pos) const {
  if (reg.kind == VReg::Kind::kNullReg || reg.null8[pos]) {
    return Value::Null();
  }
  switch (reg.kind) {
    case VReg::Kind::kI64:
      return reg.etype == ValueType::kTimestamp ? Value::Time(reg.i64[pos])
                                                : Value::Int(reg.i64[pos]);
    case VReg::Kind::kF64:
      return Value::Double(reg.f64[pos]);
    case VReg::Kind::kB8:
      return Value::Bool(reg.b8[pos] != 0);
    case VReg::Kind::kBoxed:
      return reg.boxed[pos];
    case VReg::Kind::kNullReg:
      break;
  }
  return Value::Null();
}

Status VectorProgram::ToB8(VReg* reg) {
  switch (reg->kind) {
    case VReg::Kind::kB8:
      return Status::OK();
    case VReg::Kind::kNullReg:
      reg->kind = VReg::Kind::kB8;
      reg->etype = ValueType::kBool;
      reg->b8.assign(width_, 0);
      reg->null8.assign(width_, 1);
      return Status::OK();
    case VReg::Kind::kBoxed:
      // Call results land boxed; a logic operand is statically bool, so
      // the non-null rows hold bool values (AsBool mirrors the scalar
      // VM's access — the same crash surface on a misbehaving function).
      reg->b8.resize(width_);
      for (uint32_t p : active_) {
        if (!reg->null8[p]) reg->b8[p] = reg->boxed[p].AsBool() ? 1 : 0;
      }
      reg->kind = VReg::Kind::kB8;
      reg->etype = ValueType::kBool;
      return Status::OK();
    default:
      return Status::Internal("logic operand is not boolean");
  }
}

void VectorProgram::PushLiteral(const ExprInsn& in) {
  VReg& d = Push();
  if (in.literal.is_null()) {
    d.kind = VReg::Kind::kNullReg;
    d.etype = ValueType::kNull;
    return;
  }
  d.etype = in.literal.type();
  d.null8.assign(width_, 0);
  switch (in.literal.type()) {
    case ValueType::kInt:
      d.kind = VReg::Kind::kI64;
      d.i64.assign(width_, in.literal.AsInt());
      break;
    case ValueType::kTimestamp:
      d.kind = VReg::Kind::kI64;
      d.i64.assign(width_, in.literal.AsTime());
      break;
    case ValueType::kDouble:
      d.kind = VReg::Kind::kF64;
      d.f64.assign(width_, in.literal.AsDouble());
      break;
    case ValueType::kBool:
      d.kind = VReg::Kind::kB8;
      d.b8.assign(width_, in.literal.AsBool() ? 1 : 0);
      break;
    default:
      d.kind = VReg::Kind::kBoxed;
      d.boxed.assign(width_, in.literal);
      break;
  }
}

Status VectorProgram::PushAttr(const ExprInsn& in, ColumnBatch* batch,
                               std::vector<RowError>* errors) {
  const ColumnBatch::Column& c = batch->column(in.index);
  VReg& d = Push();
  d.etype = in.type;
  d.null8.assign(width_, 1);
  bool failed = false;
  auto fail_bad = [&](uint32_t p, uint32_t r) {
    RowFail(p, CheckAttrValueType(batch->value(r, in.index), in.type), errors);
    failed = true;
  };
  switch (c.decl) {
    case ValueType::kInt:
    case ValueType::kTimestamp: {
      d.kind = VReg::Kind::kI64;
      d.i64.resize(width_);
      for (uint32_t p : active_) {
        const uint32_t r = (*sel_)[p];
        if (c.any_bad && c.bad8[r]) {
          fail_bad(p, r);
          continue;
        }
        d.null8[p] = c.null8[r];
        d.i64[p] = c.i64[r];
      }
      break;
    }
    case ValueType::kDouble: {
      d.kind = VReg::Kind::kF64;
      d.f64.resize(width_);
      if (!c.any_bad) {
        for (uint32_t p : active_) {
          const uint32_t r = (*sel_)[p];
          d.null8[p] = c.null8[r];
          d.f64[p] = c.f64[r];
        }
      } else {
        for (uint32_t p : active_) {
          const uint32_t r = (*sel_)[p];
          if (c.bad8[r]) {
            fail_bad(p, r);
            continue;
          }
          d.null8[p] = c.null8[r];
          d.f64[p] = c.f64[r];
        }
      }
      break;
    }
    case ValueType::kBool: {
      d.kind = VReg::Kind::kB8;
      d.b8.resize(width_);
      for (uint32_t p : active_) {
        const uint32_t r = (*sel_)[p];
        if (c.any_bad && c.bad8[r]) {
          fail_bad(p, r);
          continue;
        }
        d.null8[p] = c.null8[r];
        d.b8[p] = c.b8[r];
      }
      break;
    }
    default: {
      // Strings and geo points stay boxed.
      d.kind = VReg::Kind::kBoxed;
      d.boxed.resize(width_);
      for (uint32_t p : active_) {
        const uint32_t r = (*sel_)[p];
        const Value& v = batch->value(r, in.index);
        if (v.is_null()) continue;  // null8 already 1
        if (v.type() != c.decl) {
          fail_bad(p, r);
          continue;
        }
        d.null8[p] = 0;
        d.boxed[p] = v;
      }
      break;
    }
  }
  if (failed) CompactActive();
  return Status::OK();
}

void VectorProgram::PushMeta(const ExprInsn& in, ColumnBatch* batch) {
  VReg& d = Push();
  switch (in.meta) {
    case MetaAttr::kTimestamp: {
      const std::vector<int64_t>& ts = batch->ts_column();
      d.kind = VReg::Kind::kI64;
      d.etype = ValueType::kTimestamp;
      d.null8.assign(width_, 0);
      d.i64.resize(width_);
      for (uint32_t p : active_) d.i64[p] = ts[(*sel_)[p]];
      break;
    }
    case MetaAttr::kLat:
    case MetaAttr::kLon: {
      const ColumnBatch::GeoColumns& geo = batch->geo_columns();
      const std::vector<double>& src =
          in.meta == MetaAttr::kLat ? geo.lat : geo.lon;
      d.kind = VReg::Kind::kF64;
      d.etype = ValueType::kDouble;
      d.null8.assign(width_, 1);
      d.f64.resize(width_);
      for (uint32_t p : active_) {
        const uint32_t r = (*sel_)[p];
        d.null8[p] = geo.null8[r];
        d.f64[p] = src[r];
      }
      break;
    }
    case MetaAttr::kSensor: {
      d.kind = VReg::Kind::kBoxed;
      d.etype = ValueType::kString;
      d.null8.assign(width_, 1);
      d.boxed.resize(width_);
      for (uint32_t p : active_) {
        d.null8[p] = 0;
        d.boxed[p] = Value::String(batch->row((*sel_)[p])->sensor_id());
      }
      break;
    }
    case MetaAttr::kTheme: {
      d.kind = VReg::Kind::kBoxed;
      d.etype = ValueType::kString;
      d.null8.assign(width_, 1);
      d.boxed.resize(width_);
      for (uint32_t p : active_) {
        const stt::Tuple& t = *batch->row((*sel_)[p]);
        d.null8[p] = 0;
        d.boxed[p] = Value::String(
            t.schema() != nullptr ? t.schema()->theme().ToString() : "*");
      }
      break;
    }
  }
}

Status VectorProgram::ApplyUnary(const ExprInsn& in) {
  VReg& v = Top();
  if (v.kind == VReg::Kind::kNullReg) return Status::OK();
  if (in.uop == UnaryOp::kNot) {
    SL_RETURN_IF_ERROR(ToB8(&v));
    for (uint32_t p : active_) {
      if (!v.null8[p]) v.b8[p] ^= 1;
    }
    return Status::OK();
  }
  // Negation.
  if (v.kind == VReg::Kind::kI64 && v.etype == ValueType::kInt) {
    for (uint32_t p : active_) {
      if (!v.null8[p]) v.i64[p] = IntNeg(v.i64[p]);
    }
    return Status::OK();
  }
  if (v.kind == VReg::Kind::kF64) {
    for (uint32_t p : active_) {
      if (!v.null8[p]) v.f64[p] = -v.f64[p];
    }
    return Status::OK();
  }
  // Boxed operand (a call result): per-row through the shared helper.
  if (v.kind != VReg::Kind::kBoxed) {
    return Status::Internal("negation operand is not numeric");
  }
  for (uint32_t p : active_) {
    if (!v.null8[p]) v.boxed[p] = EvalUnaryOp(in.uop, v.boxed[p]);
  }
  v.etype = in.type;
  return Status::OK();
}

void VectorProgram::ApplyArith(const ExprInsn& in) {
  VReg& r = Top();
  VReg& l = Under();
  // Either side statically null: the result is null everywhere.
  if (l.kind == VReg::Kind::kNullReg || r.kind == VReg::Kind::kNullReg) {
    Pop();
    Top().kind = VReg::Kind::kNullReg;
    Top().etype = ValueType::kNull;
    return;
  }
  const bool l_i64 = l.kind == VReg::Kind::kI64;
  const bool r_i64 = r.kind == VReg::Kind::kI64;
  const bool l_ts = l_i64 && l.etype == ValueType::kTimestamp;
  const bool r_ts = r_i64 && r.etype == ValueType::kTimestamp;

  // Timestamp arithmetic (ts - ts -> int; ts ± int -> ts).
  if ((l_ts || r_ts) && l_i64 && r_i64 && in.type != ValueType::kString) {
    l.i64.resize(width_);
    if (in.bop == BinaryOp::kSub && l_ts && r_ts) {
      for (uint32_t p : active_) {
        const bool n = l.null8[p] | r.null8[p];
        l.null8[p] = n;
        if (!n) l.i64[p] = IntArith(BinaryOp::kSub, l.i64[p], r.i64[p]);
      }
      l.etype = ValueType::kInt;
    } else {
      for (uint32_t p : active_) {
        const bool n = l.null8[p] | r.null8[p];
        l.null8[p] = n;
        if (n) continue;
        const int64_t delta = r_ts ? l.i64[p] : r.i64[p];
        const int64_t base = l_ts ? l.i64[p] : r.i64[p];
        l.i64[p] = IntArith(in.bop, base, delta);
      }
      l.etype = ValueType::kTimestamp;
    }
    Pop();
    return;
  }

  // Integer arithmetic (+ - * %; / always widens).
  if (in.type == ValueType::kInt && in.bop != BinaryOp::kDiv && l_i64 &&
      r_i64 && l.etype == ValueType::kInt && r.etype == ValueType::kInt) {
    const BinaryOp op = in.bop;
    for (uint32_t p : active_) {
      if (l.null8[p] | r.null8[p]) {
        l.null8[p] = 1;
        continue;
      }
      if (op == BinaryOp::kMod && r.i64[p] == 0) {
        l.null8[p] = 1;
      } else {
        l.i64[p] = IntArith(op, l.i64[p], r.i64[p]);
      }
    }
    Pop();
    return;
  }

  // Double arithmetic over any int/double mix (the scalar fallback):
  // division/modulo by zero and non-finite results yield null.
  const bool l_num = (l_i64 && l.etype == ValueType::kInt) ||
                     l.kind == VReg::Kind::kF64;
  const bool r_num = (r_i64 && r.etype == ValueType::kInt) ||
                     r.kind == VReg::Kind::kF64;
  if (l_num && r_num && in.type != ValueType::kString) {
    res_f64_.resize(width_);
    const BinaryOp op = in.bop;
    const bool l_int = l.kind == VReg::Kind::kI64;
    const bool r_int = r.kind == VReg::Kind::kI64;
    for (uint32_t p : active_) {
      if (l.null8[p] | r.null8[p]) {
        l.null8[p] = 1;
        continue;
      }
      const double a = l_int ? static_cast<double>(l.i64[p]) : l.f64[p];
      const double b = r_int ? static_cast<double>(r.i64[p]) : r.f64[p];
      double out = 0;
      switch (op) {
        case BinaryOp::kAdd: out = a + b; break;
        case BinaryOp::kSub: out = a - b; break;
        case BinaryOp::kMul: out = a * b; break;
        case BinaryOp::kDiv:
          if (b == 0) {
            l.null8[p] = 1;
            continue;
          }
          out = a / b;
          break;
        case BinaryOp::kMod:
          if (b == 0) {
            l.null8[p] = 1;
            continue;
          }
          out = std::fmod(a, b);
          break;
        default: break;
      }
      if (!std::isfinite(out)) {
        l.null8[p] = 1;
        continue;
      }
      res_f64_[p] = out;
    }
    Pop();
    VReg& d = Top();
    d.kind = VReg::Kind::kF64;
    d.etype = ValueType::kDouble;
    d.f64.swap(res_f64_);
    return;
  }

  // Boxed fallback (string concatenation, call results, mixed kinds):
  // per-row through the shared helper, identical null propagation.
  res_boxed_.resize(width_);
  res_null8_.assign(width_, 1);
  for (uint32_t p : active_) {
    Value lv = RegValue(l, p);
    Value rv = RegValue(r, p);
    if (lv.is_null() || rv.is_null()) continue;
    Value out = EvalArithOp(in.bop, in.type, lv, rv);
    if (out.is_null()) continue;
    res_null8_[p] = 0;
    res_boxed_[p] = std::move(out);
  }
  Pop();
  VReg& d = Top();
  d.kind = VReg::Kind::kBoxed;
  d.etype = in.type;
  d.boxed.swap(res_boxed_);
  d.null8.swap(res_null8_);
}

void VectorProgram::ApplyCompare(const ExprInsn& in) {
  VReg& r = Top();
  VReg& l = Under();
  if (l.kind == VReg::Kind::kNullReg || r.kind == VReg::Kind::kNullReg) {
    Pop();
    Top().kind = VReg::Kind::kNullReg;
    Top().etype = ValueType::kNull;
    return;
  }
  res_b8_.resize(width_);
  res_null8_.assign(width_, 1);
  const BinaryOp op = in.bop;
  bool typed = true;
  if (l.kind == VReg::Kind::kI64 && r.kind == VReg::Kind::kI64 &&
      l.etype == r.etype) {
    // int vs int / ts vs ts: exact three-way (Value::Compare).
    for (uint32_t p : active_) {
      if (l.null8[p] | r.null8[p]) continue;
      const int64_t a = l.i64[p];
      const int64_t b = r.i64[p];
      const int cmp = a < b ? -1 : (a > b ? 1 : 0);
      res_null8_[p] = 0;
      res_b8_[p] = CmpToBool(op, cmp) ? 1 : 0;
    }
  } else if (((l.kind == VReg::Kind::kI64 && l.etype == ValueType::kInt) ||
              l.kind == VReg::Kind::kF64) &&
             ((r.kind == VReg::Kind::kI64 && r.etype == ValueType::kInt) ||
              r.kind == VReg::Kind::kF64)) {
    // Numeric cross-type (and double vs double): widen to double; NaN
    // compares three-way "equal" exactly like the scalar path.
    const bool l_int = l.kind == VReg::Kind::kI64;
    const bool r_int = r.kind == VReg::Kind::kI64;
    for (uint32_t p : active_) {
      if (l.null8[p] | r.null8[p]) continue;
      const double a = l_int ? static_cast<double>(l.i64[p]) : l.f64[p];
      const double b = r_int ? static_cast<double>(r.i64[p]) : r.f64[p];
      const int cmp = a < b ? -1 : (a > b ? 1 : 0);
      res_null8_[p] = 0;
      res_b8_[p] = CmpToBool(op, cmp) ? 1 : 0;
    }
  } else if (l.kind == VReg::Kind::kB8 && r.kind == VReg::Kind::kB8) {
    // bool vs bool: Value::Compare is an int difference.
    for (uint32_t p : active_) {
      if (l.null8[p] | r.null8[p]) continue;
      const int cmp = static_cast<int>(l.b8[p] != 0) -
                      static_cast<int>(r.b8[p] != 0);
      res_null8_[p] = 0;
      res_b8_[p] = CmpToBool(op, cmp) ? 1 : 0;
    }
  } else {
    typed = false;
  }
  if (!typed) {
    // Strings, geo points, boxed call results, mixed kinds: per-row
    // through the shared helper.
    for (uint32_t p : active_) {
      Value lv = RegValue(l, p);
      Value rv = RegValue(r, p);
      if (lv.is_null() || rv.is_null()) continue;
      const Value out = EvalCompareOp(op, lv, rv);
      res_null8_[p] = 0;
      res_b8_[p] = out.AsBool() ? 1 : 0;
    }
  }
  Pop();
  VReg& d = Top();
  d.kind = VReg::Kind::kB8;
  d.etype = ValueType::kBool;
  d.b8.swap(res_b8_);
  d.null8.swap(res_null8_);
}

Status VectorProgram::ApplyCall(const ExprInsn& in,
                                std::vector<RowError>* errors) {
  const size_t argc = in.index;
  res_boxed_.resize(width_);
  res_null8_.assign(width_, 1);
  bool failed = false;
  for (uint32_t p : active_) {
    args_.clear();
    bool any_null = false;
    for (size_t q = sp_ - argc; q < sp_; ++q) {
      args_.push_back(RegValue(stack_[q], p));
      any_null = any_null || args_.back().is_null();
    }
    if (any_null && in.fn->propagate_null) continue;  // null result
    Result<Value> rv = in.fn->eval(args_);
    if (!rv.ok()) {
      RowFail(p, rv.status(), errors);
      failed = true;
      continue;
    }
    Value v = std::move(rv).ValueOrDie();
    if (v.is_null()) continue;
    res_null8_[p] = 0;
    res_boxed_[p] = std::move(v);
  }
  for (size_t i = 0; i < argc; ++i) Pop();
  VReg& d = Push();
  d.kind = VReg::Kind::kBoxed;
  d.etype = in.type;
  d.boxed.swap(res_boxed_);
  d.null8.swap(res_null8_);
  if (failed) CompactActive();
  return Status::OK();
}

Status VectorProgram::Run(ColumnBatch* batch, std::vector<RowError>* errors) {
  const std::vector<ExprInsn>& insns = program_->insns();
  sel_ = &batch->selection();
  width_ = sel_->size();
  sp_ = 0;
  frames_.clear();
  errored_.assign(width_, 0);
  any_errored_ = false;
  active_.resize(width_);
  for (uint32_t p = 0; p < width_; ++p) active_[p] = p;

  auto restore_frame = [&] {
    Frame& f = frames_.back();
    if (!any_errored_) {
      active_ = std::move(f.saved_active);
    } else {
      active_.clear();
      for (uint32_t p : f.saved_active) {
        if (!errored_[p]) active_.push_back(p);
      }
    }
    frames_.pop_back();
  };

  for (uint32_t pc = 0; pc < insns.size();) {
    // A short-circuit's decided rows rejoin the active set at the
    // instruction its jump targets (just past the matching merge).
    while (!frames_.empty() && frames_.back().resume == pc) restore_frame();
    const ExprInsn& in = insns[pc];
    switch (in.op) {
      case ExprInsn::Op::kPushLiteral:
        PushLiteral(in);
        break;
      case ExprInsn::Op::kPushAttr:
        SL_RETURN_IF_ERROR(PushAttr(in, batch, errors));
        break;
      case ExprInsn::Op::kPushMeta:
        PushMeta(in, batch);
        break;
      case ExprInsn::Op::kUnary:
        SL_RETURN_IF_ERROR(ApplyUnary(in));
        break;
      case ExprInsn::Op::kArith:
        ApplyArith(in);
        break;
      case ExprInsn::Op::kCompare:
        ApplyCompare(in);
        break;
      case ExprInsn::Op::kShortCircuit: {
        VReg& l = Top();
        SL_RETURN_IF_ERROR(ToB8(&l));
        const bool is_and = in.bop == BinaryOp::kAnd;
        scratch_active_.clear();
        for (uint32_t p : active_) {
          if (!l.null8[p] && (l.b8[p] != 0) != is_and) {
            // Decided: write the dominant bool; the row skips the right
            // arm and rejoins at the merge target.
            l.b8[p] = is_and ? 0 : 1;
            l.null8[p] = 0;
          } else {
            scratch_active_.push_back(p);
          }
        }
        frames_.push_back(Frame{in.jump, std::move(active_)});
        active_ = std::move(scratch_active_);
        scratch_active_.clear();
        break;
      }
      case ExprInsn::Op::kLogicalMerge: {
        VReg& r = Top();
        SL_RETURN_IF_ERROR(ToB8(&r));
        VReg& l = Under();
        SL_RETURN_IF_ERROR(ToB8(&l));
        const bool is_and = in.bop == BinaryOp::kAnd;
        // The left operand reaching the merge is never dominant for the
        // undecided rows, so the Kleene table reduces to three cases.
        for (uint32_t p : active_) {
          if (!r.null8[p] && (r.b8[p] != 0) != is_and) {
            l.b8[p] = is_and ? 0 : 1;
            l.null8[p] = 0;
          } else if (l.null8[p] | r.null8[p]) {
            l.null8[p] = 1;
          } else {
            l.b8[p] = is_and ? 1 : 0;
            l.null8[p] = 0;
          }
        }
        Pop();
        break;
      }
      case ExprInsn::Op::kCall:
        SL_RETURN_IF_ERROR(ApplyCall(in, errors));
        break;
    }
    ++pc;
  }
  // A merge that ends the program resumes at insns.size().
  while (!frames_.empty()) restore_frame();
  if (sp_ != 1) {
    return Status::Internal("expression program left an unbalanced stack");
  }
  return Status::OK();
}

Status VectorProgram::RunPredicate(ColumnBatch* batch,
                                   std::vector<RowError>* errors) {
  SL_RETURN_IF_ERROR(Run(batch, errors));
  const VReg& res = Top();
  scratch_active_.clear();
  const std::vector<uint32_t>& sel = *sel_;
  switch (res.kind) {
    case VReg::Kind::kNullReg:
      break;  // null is false everywhere: keep nothing
    case VReg::Kind::kB8:
      for (uint32_t p = 0; p < width_; ++p) {
        if (!errored_[p] && !res.null8[p] && res.b8[p]) {
          scratch_active_.push_back(sel[p]);
        }
      }
      break;
    case VReg::Kind::kBoxed:
      for (uint32_t p = 0; p < width_; ++p) {
        if (!errored_[p] && !res.null8[p] && res.boxed[p].AsBool()) {
          scratch_active_.push_back(sel[p]);
        }
      }
      break;
    default:
      return Status::Internal("predicate program produced a non-bool column");
  }
  batch->mutable_selection() = scratch_active_;
  return Status::OK();
}

Status VectorProgram::RunValues(ColumnBatch* batch, std::vector<Value>* out,
                                std::vector<RowError>* errors) {
  SL_RETURN_IF_ERROR(Run(batch, errors));
  const VReg& res = Top();
  scratch_active_.clear();
  out->clear();
  const std::vector<uint32_t>& sel = *sel_;
  for (uint32_t p = 0; p < width_; ++p) {
    if (errored_[p]) continue;
    scratch_active_.push_back(sel[p]);
    out->push_back(RegValue(res, p));
  }
  batch->mutable_selection() = scratch_active_;
  return Status::OK();
}

}  // namespace sl::expr
