// StreamLoader: dynamically-typed attribute values.
//
// Sensor schemas are not fixed ("data schema are not fixed but depend on
// the sensors", §3), so tuples carry dynamically typed values checked
// against a per-stream Schema.

#ifndef STREAMLOADER_STT_VALUE_H_
#define STREAMLOADER_STT_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "stt/geo.h"
#include "util/clock.h"
#include "util/result.h"

namespace sl::stt {

/// The dynamic type of a Value / the declared type of a schema field.
enum class ValueType : uint8_t {
  kNull = 0,
  kBool,
  kInt,
  kDouble,
  kString,
  kTimestamp,
  kGeoPoint,
};

const char* ValueTypeToString(ValueType type);
Result<ValueType> ValueTypeFromString(const std::string& name);

/// True for kInt and kDouble.
bool IsNumeric(ValueType type);

/// \brief A single dynamically-typed attribute value.
///
/// Timestamps are a distinct type from ints so that schema checking can
/// enforce temporal semantics; they share the underlying representation
/// (ms since the epoch).
class Value {
 public:
  /// Constructs a null value.
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Rep(v)); }
  static Value Int(int64_t v) { return Value(Rep(v)); }
  static Value Double(double v) { return Value(Rep(v)); }
  static Value String(std::string v) { return Value(Rep(std::move(v))); }
  static Value Time(Timestamp ts) { return Value(Rep(TimestampRep{ts})); }
  static Value Geo(GeoPoint p) { return Value(Rep(p)); }

  ValueType type() const;

  bool is_null() const { return type() == ValueType::kNull; }
  bool is_numeric() const { return IsNumeric(type()); }

  /// Typed accessors; calling the wrong one is undefined (asserted).
  bool AsBool() const { return std::get<bool>(rep_); }
  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const { return std::get<double>(rep_); }
  const std::string& AsString() const { return std::get<std::string>(rep_); }
  Timestamp AsTime() const { return std::get<TimestampRep>(rep_).ts; }
  const GeoPoint& AsGeo() const { return std::get<GeoPoint>(rep_); }

  /// Numeric view: int and double widen to double; fails otherwise.
  Result<double> ToNumeric() const;

  /// \brief Coerces to `target` where a safe conversion exists
  /// (int<->double with truncation toward zero, int->timestamp,
  /// timestamp->int, anything->string via ToString); fails otherwise.
  /// Null coerces to null of any type.
  Result<Value> CoerceTo(ValueType target) const;

  /// \brief Appends the display form to `out`: unquoted strings, "null"
  /// for null, ints as printf's "%lld", doubles as "%.10g" (10
  /// significant digits), timestamps as AppendTimestamp and geo points
  /// as GeoPoint::AppendTo.
  void AppendTo(std::string* out) const;

  /// The display form AppendTo writes.
  std::string ToString() const;

  /// Deep equality; null == null. Int/double compare numerically only if
  /// both are the same type (schema-level typing keeps streams uniform).
  bool operator==(const Value& o) const { return rep_ == o.rep_; }
  bool operator!=(const Value& o) const { return !(*this == o); }

  /// \brief Total order within a type for sorting / MIN / MAX; values of
  /// different types order by type id. Null sorts first.
  static int Compare(const Value& a, const Value& b);

  /// Hash for grouping.
  size_t Hash() const;

 private:
  struct TimestampRep {
    Timestamp ts;
    bool operator==(const TimestampRep& o) const { return ts == o.ts; }
  };
  using Rep = std::variant<std::monostate, bool, int64_t, double, std::string,
                           TimestampRep, GeoPoint>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}
  Rep rep_;
};

}  // namespace sl::stt

#endif  // STREAMLOADER_STT_VALUE_H_
