#include "dataflow/op_spec.h"

#include <memory>
#include <optional>

#include "util/strings.h"

namespace sl::dataflow {

const char* OpKindToString(OpKind kind) {
  switch (kind) {
    case OpKind::kAggregation: return "AGGREGATION";
    case OpKind::kCullTime: return "CULL_TIME";
    case OpKind::kCullSpace: return "CULL_SPACE";
    case OpKind::kFilter: return "FILTER";
    case OpKind::kJoin: return "JOIN";
    case OpKind::kTransform: return "TRANSFORM";
    case OpKind::kTriggerOn: return "TRIGGER_ON";
    case OpKind::kTriggerOff: return "TRIGGER_OFF";
    case OpKind::kVirtualProperty: return "VIRTUAL_PROPERTY";
  }
  return "?";
}

Result<OpKind> OpKindFromString(const std::string& name) {
  std::string n = ToUpper(name);
  if (n == "AGGREGATION" || n == "AGG") return OpKind::kAggregation;
  if (n == "CULL_TIME") return OpKind::kCullTime;
  if (n == "CULL_SPACE") return OpKind::kCullSpace;
  if (n == "FILTER") return OpKind::kFilter;
  if (n == "JOIN") return OpKind::kJoin;
  if (n == "TRANSFORM") return OpKind::kTransform;
  if (n == "TRIGGER_ON") return OpKind::kTriggerOn;
  if (n == "TRIGGER_OFF") return OpKind::kTriggerOff;
  if (n == "VIRTUAL_PROPERTY" || n == "VPROP") return OpKind::kVirtualProperty;
  return Status::ParseError("unknown operation kind '" + name + "'");
}

bool IsBlocking(OpKind kind) {
  switch (kind) {
    case OpKind::kAggregation:
    case OpKind::kJoin:
    case OpKind::kTriggerOn:
    case OpKind::kTriggerOff:
      return true;
    default:
      return false;
  }
}

const char* AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kAvg: return "AVG";
    case AggFunc::kSum: return "SUM";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
  }
  return "?";
}

Result<AggFunc> AggFuncFromString(const std::string& name) {
  std::string n = ToUpper(name);
  if (n == "COUNT") return AggFunc::kCount;
  if (n == "AVG" || n == "MEAN") return AggFunc::kAvg;
  if (n == "SUM") return AggFunc::kSum;
  if (n == "MIN") return AggFunc::kMin;
  if (n == "MAX") return AggFunc::kMax;
  return Status::ParseError("unknown aggregation function '" + name + "'");
}

OpKind SpecKind(const OpSpec& spec, bool trigger_on) {
  switch (spec.index()) {
    case 0: return OpKind::kAggregation;
    case 1: return OpKind::kCullTime;
    case 2: return OpKind::kCullSpace;
    case 3: return OpKind::kFilter;
    case 4: return OpKind::kJoin;
    case 5: return OpKind::kTransform;
    case 6: return trigger_on ? OpKind::kTriggerOn : OpKind::kTriggerOff;
    case 7: return OpKind::kVirtualProperty;
  }
  return OpKind::kFilter;
}

bool SpecMatchesKind(const OpSpec& spec, OpKind kind) {
  return SpecKind(spec, kind != OpKind::kTriggerOff) == kind;
}

size_t ExpectedInputs(OpKind kind) {
  return kind == OpKind::kJoin ? 2 : 1;
}

namespace {

/// "/<window>" for a sliding window, empty for a tumbling one.
std::string WindowSuffix(Duration window) {
  if (window <= 0) return std::string();
  std::string out(1, '/');
  out += FormatDuration(window);
  return out;
}

}  // namespace

std::string SpecToString(OpKind kind, const OpSpec& spec) {
  switch (kind) {
    case OpKind::kAggregation: {
      const auto& s = std::get<AggregationSpec>(spec);
      std::string win = WindowSuffix(s.window);
      return StrFormat("@_{%s%s,{%s}}^%s", FormatDuration(s.interval).c_str(),
                       win.c_str(), Join(s.attributes, ",").c_str(),
                       AggFuncToString(s.func));
    }
    case OpKind::kCullTime: {
      const auto& s = std::get<CullTimeSpec>(spec);
      return StrFormat("gamma_%.2f(<%s, %s>)", s.rate,
                       FormatTimestamp(s.t_begin).c_str(),
                       FormatTimestamp(s.t_end).c_str());
    }
    case OpKind::kCullSpace: {
      const auto& s = std::get<CullSpaceSpec>(spec);
      return StrFormat("gamma_%.2f(<%s, %s>)", s.rate,
                       s.corner1.ToString().c_str(),
                       s.corner2.ToString().c_str());
    }
    case OpKind::kFilter: {
      const auto& s = std::get<FilterSpec>(spec);
      return "sigma(" + s.condition + ")";
    }
    case OpKind::kJoin: {
      const auto& s = std::get<JoinSpec>(spec);
      std::string win = WindowSuffix(s.window);
      return StrFormat("|><|_{%s}^{%s%s}", s.predicate.c_str(),
                       FormatDuration(s.interval).c_str(), win.c_str());
    }
    case OpKind::kTransform: {
      const auto& s = std::get<TransformSpec>(spec);
      return "diamond(" + s.attribute + " := " + s.expression + ")";
    }
    case OpKind::kTriggerOn:
    case OpKind::kTriggerOff: {
      const auto& s = std::get<TriggerSpec>(spec);
      std::string win = WindowSuffix(s.window);
      return StrFormat("(+)_{%s,%s%s}({%s}, %s)",
                       kind == OpKind::kTriggerOn ? "ON" : "OFF",
                       FormatDuration(s.interval).c_str(), win.c_str(),
                       Join(s.target_sensors, ",").c_str(),
                       s.condition.c_str());
    }
    case OpKind::kVirtualProperty: {
      const auto& s = std::get<VirtualPropertySpec>(spec);
      return "union<" + s.property + ", " + s.specification + ">";
    }
  }
  return "?";
}

Duration SpecInterval(const OpSpec& spec) {
  switch (spec.index()) {
    case 0: return std::get<AggregationSpec>(spec).interval;
    case 4: return std::get<JoinSpec>(spec).interval;
    case 6: return std::get<TriggerSpec>(spec).interval;
    default: return 0;
  }
}

size_t SpecParallelism(const OpSpec& spec) {
  switch (spec.index()) {
    case 0: return std::get<AggregationSpec>(spec).parallelism;
    case 4: return std::get<JoinSpec>(spec).parallelism;
    case 6: return std::get<TriggerSpec>(spec).parallelism;
    default: return 1;
  }
}

const std::vector<std::string>* SpecPartitionBy(const OpSpec& spec) {
  switch (spec.index()) {
    case 0: return &std::get<AggregationSpec>(spec).partition_by;
    case 4: return &std::get<JoinSpec>(spec).partition_by;
    case 6: return &std::get<TriggerSpec>(spec).partition_by;
    default: return nullptr;
  }
}

namespace {

/// Flattens the top-level `and` chain of `e` into `out` in source
/// (left-to-right) order.
void FlattenConjuncts(const expr::ExprPtr& e,
                      std::vector<expr::ExprPtr>* out) {
  if (e->kind() == expr::ExprKind::kBinary) {
    const auto& b = static_cast<const expr::BinaryExpr&>(*e);
    if (b.op() == expr::BinaryOp::kAnd) {
      FlattenConjuncts(b.left(), out);
      FlattenConjuncts(b.right(), out);
      return;
    }
  }
  out->push_back(e);
}

/// If `e` is `attr == attr` with one attribute from each side of the
/// split, returns the resolved conjunct.
std::optional<EquiConjunct> AsEquiConjunct(const expr::Expr& e,
                                           const stt::Schema& joined,
                                           size_t split) {
  if (e.kind() != expr::ExprKind::kBinary) return std::nullopt;
  const auto& b = static_cast<const expr::BinaryExpr&>(e);
  if (b.op() != expr::BinaryOp::kEq) return std::nullopt;
  if (b.left()->kind() != expr::ExprKind::kAttr ||
      b.right()->kind() != expr::ExprKind::kAttr) {
    return std::nullopt;
  }
  auto a = joined.FieldIndex(
      static_cast<const expr::AttrExpr&>(*b.left()).name());
  auto c = joined.FieldIndex(
      static_cast<const expr::AttrExpr&>(*b.right()).name());
  if (!a.ok() || !c.ok()) return std::nullopt;
  if (*a < split && *c >= split) return EquiConjunct{*a, *c};
  if (*c < split && *a >= split) return EquiConjunct{*c, *a};
  return std::nullopt;  // same-side equality is a filter, not a key
}

}  // namespace

JoinPredicateAnalysis AnalyzeJoinPredicate(const expr::ExprPtr& predicate,
                                           const stt::Schema& joined,
                                           size_t split) {
  JoinPredicateAnalysis analysis;
  if (predicate == nullptr) return analysis;
  std::vector<expr::ExprPtr> conjuncts;
  FlattenConjuncts(predicate, &conjuncts);
  std::vector<expr::ExprPtr> rest;
  for (const auto& c : conjuncts) {
    if (auto equi = AsEquiConjunct(*c, joined, split)) {
      analysis.equi.push_back(*equi);
    } else {
      rest.push_back(c);
    }
  }
  if (analysis.equi.empty()) {
    analysis.residual = predicate;  // nothing extracted: keep it whole
    return analysis;
  }
  for (const auto& c : rest) {
    analysis.residual =
        analysis.residual == nullptr
            ? c
            : std::make_shared<const expr::BinaryExpr>(
                  expr::BinaryOp::kAnd, analysis.residual, c);
  }
  return analysis;
}

}  // namespace sl::dataflow
