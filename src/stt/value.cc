#include "stt/value.h"

#include <charconv>
#include <cmath>
#include <functional>

#include "util/strings.h"

namespace sl::stt {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull: return "null";
    case ValueType::kBool: return "bool";
    case ValueType::kInt: return "int";
    case ValueType::kDouble: return "double";
    case ValueType::kString: return "string";
    case ValueType::kTimestamp: return "timestamp";
    case ValueType::kGeoPoint: return "geopoint";
  }
  return "?";
}

Result<ValueType> ValueTypeFromString(const std::string& name) {
  std::string n = ToLower(name);
  if (n == "null") return ValueType::kNull;
  if (n == "bool" || n == "boolean") return ValueType::kBool;
  if (n == "int" || n == "int64" || n == "integer") return ValueType::kInt;
  if (n == "double" || n == "float" || n == "real") return ValueType::kDouble;
  if (n == "string" || n == "text") return ValueType::kString;
  if (n == "timestamp" || n == "time" || n == "datetime")
    return ValueType::kTimestamp;
  if (n == "geopoint" || n == "geo" || n == "point") return ValueType::kGeoPoint;
  return Status::ParseError("unknown value type '" + name + "'");
}

bool IsNumeric(ValueType type) {
  return type == ValueType::kInt || type == ValueType::kDouble;
}

ValueType Value::type() const {
  return static_cast<ValueType>(rep_.index());
}

Result<double> Value::ToNumeric() const {
  switch (type()) {
    case ValueType::kInt: return static_cast<double>(AsInt());
    case ValueType::kDouble: return AsDouble();
    default:
      return Status::TypeError(StrFormat("value of type %s is not numeric",
                                         ValueTypeToString(type())));
  }
}

Result<Value> Value::CoerceTo(ValueType target) const {
  if (type() == target || is_null()) {
    return is_null() ? Null() : *this;
  }
  switch (target) {
    case ValueType::kDouble:
      if (type() == ValueType::kInt)
        return Double(static_cast<double>(AsInt()));
      break;
    case ValueType::kInt:
      if (type() == ValueType::kDouble) {
        double d = AsDouble();
        if (!std::isfinite(d)) {
          return Status::TypeError("cannot coerce non-finite double to int");
        }
        return Int(static_cast<int64_t>(d));
      }
      if (type() == ValueType::kTimestamp) return Int(AsTime());
      break;
    case ValueType::kTimestamp:
      if (type() == ValueType::kInt) return Time(AsInt());
      break;
    case ValueType::kString:
      return String(ToString());
    default:
      break;
  }
  return Status::TypeError(StrFormat("cannot coerce %s to %s",
                                     ValueTypeToString(type()),
                                     ValueTypeToString(target)));
}

void Value::AppendTo(std::string* out) const {
  switch (type()) {
    case ValueType::kNull:
      out->append("null");
      return;
    case ValueType::kBool:
      out->append(AsBool() ? "true" : "false");
      return;
    case ValueType::kInt: {
      char buf[24];  // "-9223372036854775808" is 20 characters
      out->append(buf, std::to_chars(buf, buf + sizeof(buf), AsInt()).ptr);
      return;
    }
    case ValueType::kDouble: {
      // Precision-10 general notation is printf's "%.10g"; its longest
      // form, e.g. "-1.234567891e-308", is 17 characters.
      char buf[32];
      out->append(buf, std::to_chars(buf, buf + sizeof(buf), AsDouble(),
                                     std::chars_format::general, 10)
                           .ptr);
      return;
    }
    case ValueType::kString:
      out->append(AsString());
      return;
    case ValueType::kTimestamp:
      AppendTimestamp(AsTime(), out);
      return;
    case ValueType::kGeoPoint:
      AsGeo().AppendTo(out);
      return;
  }
  out->push_back('?');
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

int Value::Compare(const Value& a, const Value& b) {
  if (a.type() != b.type()) {
    return static_cast<int>(a.type()) < static_cast<int>(b.type()) ? -1 : 1;
  }
  switch (a.type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return static_cast<int>(a.AsBool()) - static_cast<int>(b.AsBool());
    case ValueType::kInt:
      return a.AsInt() < b.AsInt() ? -1 : (a.AsInt() > b.AsInt() ? 1 : 0);
    case ValueType::kDouble:
      return a.AsDouble() < b.AsDouble() ? -1
                                         : (a.AsDouble() > b.AsDouble() ? 1 : 0);
    case ValueType::kString:
      return a.AsString().compare(b.AsString());
    case ValueType::kTimestamp:
      return a.AsTime() < b.AsTime() ? -1 : (a.AsTime() > b.AsTime() ? 1 : 0);
    case ValueType::kGeoPoint: {
      const GeoPoint& pa = a.AsGeo();
      const GeoPoint& pb = b.AsGeo();
      if (pa.lat != pb.lat) return pa.lat < pb.lat ? -1 : 1;
      if (pa.lon != pb.lon) return pa.lon < pb.lon ? -1 : 1;
      return 0;
    }
  }
  return 0;
}

size_t Value::Hash() const {
  size_t seed = static_cast<size_t>(type()) * 0x9e3779b97f4a7c15ULL;
  auto mix = [&seed](size_t h) {
    seed ^= h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  };
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      mix(std::hash<bool>{}(AsBool()));
      break;
    case ValueType::kInt:
      mix(std::hash<int64_t>{}(AsInt()));
      break;
    case ValueType::kDouble:
      mix(std::hash<double>{}(AsDouble()));
      break;
    case ValueType::kString:
      mix(std::hash<std::string>{}(AsString()));
      break;
    case ValueType::kTimestamp:
      mix(std::hash<int64_t>{}(AsTime()));
      break;
    case ValueType::kGeoPoint:
      mix(std::hash<double>{}(AsGeo().lat));
      mix(std::hash<double>{}(AsGeo().lon));
      break;
  }
  return seed;
}

}  // namespace sl::stt
