#include "analyze/domain.h"

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace sl::analyze {

using stt::Value;
using stt::ValueType;

AbstractValue AbstractValue::TopOf(ValueType t) {
  AbstractValue v;
  v.type = t;
  v.may_nan = (t == ValueType::kDouble);
  return v;
}

AbstractValue AbstractValue::Constant(const Value& value) {
  AbstractValue v;
  v.type = value.type();
  v.may_null = false;
  v.may_nan = false;
  switch (value.type()) {
    case ValueType::kNull:
      v.may_null = true;
      v.lo = kInf;  // empty interval: no non-null value possible
      v.hi = -kInf;
      v.may_true = v.may_false = false;
      v.strings.emplace();
      break;
    case ValueType::kBool:
      v.may_true = value.AsBool();
      v.may_false = !value.AsBool();
      break;
    case ValueType::kInt:
      v.lo = v.hi = static_cast<double>(value.AsInt());
      break;
    case ValueType::kDouble:
      v.lo = v.hi = value.AsDouble();
      v.may_nan = std::isnan(value.AsDouble());
      break;
    case ValueType::kString:
      v.strings = std::vector<std::string>{value.AsString()};
      break;
    case ValueType::kTimestamp:
      v.lo = v.hi = static_cast<double>(value.AsTime());
      break;
    case ValueType::kGeoPoint:
      break;  // no interval structure tracked for locations
  }
  return v;
}

AbstractValue AbstractValue::Interval(ValueType t, double lo, double hi) {
  AbstractValue v;
  v.type = t;
  v.lo = lo;
  v.hi = hi;
  v.may_null = false;
  v.may_nan = false;
  return v;
}

bool AbstractValue::IsConstant() const {
  if (may_null) return false;
  switch (type) {
    case ValueType::kBool:
      return may_true != may_false;
    case ValueType::kInt:
    case ValueType::kDouble:
    case ValueType::kTimestamp:
      return !may_nan && lo == hi && std::isfinite(lo);
    case ValueType::kString:
      return strings.has_value() && strings->size() == 1;
    default:
      return false;
  }
}

bool AbstractValue::IsEmptyValue() const {
  switch (type) {
    case ValueType::kBool:
      return !may_true && !may_false;
    case ValueType::kInt:
    case ValueType::kDouble:
    case ValueType::kTimestamp:
      return lo > hi && !may_nan;
    case ValueType::kString:
      return strings.has_value() && strings->empty();
    default:
      return false;
  }
}

std::string AbstractValue::ToString() const {
  std::string out;
  switch (type) {
    case ValueType::kBool:
      out = "bool{";
      if (may_true) out += "true";
      if (may_true && may_false) out += ",";
      if (may_false) out += "false";
      out += "}";
      break;
    case ValueType::kInt:
    case ValueType::kDouble:
    case ValueType::kTimestamp:
      if (lo > hi) {
        out = "(empty)";
      } else {
        out = StrFormat("[%g, %g]", lo, hi);
      }
      if (may_nan) out += " nan?";
      break;
    case ValueType::kString:
      if (strings.has_value()) {
        out += '{';
        for (size_t i = 0; i < strings->size(); ++i) {
          if (i > 0) out += ",";
          out += '"';
          out += (*strings)[i];
          out += '"';
        }
        out += "}";
      } else {
        out = "string";
      }
      break;
    default:
      out = stt::ValueTypeToString(type);
      break;
  }
  if (may_null) out += " null?";
  return out;
}

namespace {

/// Union of two string-constant sets; disengages (any string) when
/// either side is unbounded or the union exceeds kMaxStrings.
std::optional<std::vector<std::string>> JoinStrings(
    const std::optional<std::vector<std::string>>& a,
    const std::optional<std::vector<std::string>>& b) {
  if (!a.has_value() || !b.has_value()) return std::nullopt;
  std::vector<std::string> out = *a;
  for (const std::string& s : *b) {
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  }
  if (out.size() > AbstractValue::kMaxStrings) return std::nullopt;
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::vector<std::string>> MeetStrings(
    const std::optional<std::vector<std::string>>& a,
    const std::optional<std::vector<std::string>>& b) {
  if (!a.has_value()) return b;
  if (!b.has_value()) return a;
  std::vector<std::string> out;
  for (const std::string& s : *a) {
    if (std::find(b->begin(), b->end(), s) != b->end()) out.push_back(s);
  }
  return out;
}

}  // namespace

AbstractValue Join(const AbstractValue& a, const AbstractValue& b) {
  AbstractValue v;
  v.type = a.type == b.type ? a.type : stt::ValueType::kNull;
  v.lo = std::min(a.lo, b.lo);
  v.hi = std::max(a.hi, b.hi);
  v.may_null = a.may_null || b.may_null;
  v.may_nan = a.may_nan || b.may_nan;
  v.may_true = a.may_true || b.may_true;
  v.may_false = a.may_false || b.may_false;
  v.strings = JoinStrings(a.strings, b.strings);
  return v;
}

AbstractValue Meet(const AbstractValue& a, const AbstractValue& b) {
  AbstractValue v;
  v.type = a.type == stt::ValueType::kNull ? b.type : a.type;
  v.lo = std::max(a.lo, b.lo);
  v.hi = std::min(a.hi, b.hi);
  v.may_null = a.may_null && b.may_null;
  v.may_nan = a.may_nan && b.may_nan;
  v.may_true = a.may_true && b.may_true;
  v.may_false = a.may_false && b.may_false;
  v.strings = MeetStrings(a.strings, b.strings);
  return v;
}

std::string StreamFacts::ToString(const std::string& indent) const {
  std::string out;
  if (!may_produce) out += indent + "(provably empty stream)\n";
  if (schema == nullptr) return out;
  for (size_t i = 0; i < schema->fields().size() && i < props.size(); ++i) {
    out += indent + schema->fields()[i].name + ": " + props[i].ToString() +
           "\n";
  }
  return out;
}

}  // namespace sl::analyze
