#include "expr/functions.h"

#include <algorithm>
#include <cmath>

#include "expr/program.h"
#include "stt/geo.h"
#include "stt/granularity.h"
#include "stt/units.h"
#include "util/strings.h"

namespace sl::expr {

using stt::Value;
using stt::ValueType;

namespace {

bool TypeIs(ValueType t, ValueType want) {
  return t == want || t == ValueType::kNull;  // null is a wildcard
}

bool TypeIsNumeric(ValueType t) {
  return stt::IsNumeric(t) || t == ValueType::kNull;
}

Status ArgError(const std::string& fn, const std::string& detail) {
  return Status::TypeError("in call to " + fn + ": " + detail);
}

// --- check helpers -------------------------------------------------------

auto CheckAllNumeric(std::string fn, ValueType result) {
  return [fn = std::move(fn), result](const std::vector<ValueType>& args)
             -> Result<ValueType> {
    for (auto t : args) {
      if (!TypeIsNumeric(t))
        return ArgError(fn, "expects numeric arguments");
    }
    return result;
  };
}

auto CheckTypes(std::string fn, std::vector<ValueType> expected,
                ValueType result) {
  return [fn = std::move(fn), expected = std::move(expected),
          result](const std::vector<ValueType>& args) -> Result<ValueType> {
    for (size_t i = 0; i < args.size() && i < expected.size(); ++i) {
      if (!TypeIs(args[i], expected[i])) {
        return ArgError(fn, StrFormat("argument %zu expects %s but got %s",
                                      i + 1,
                                      stt::ValueTypeToString(expected[i]),
                                      stt::ValueTypeToString(args[i])));
      }
    }
    return result;
  };
}

// --- eval helpers --------------------------------------------------------

double Num(const Value& v) {
  return v.type() == ValueType::kInt ? static_cast<double>(v.AsInt())
                                     : v.AsDouble();
}

Result<Value> NumUnary(const std::vector<Value>& args, double (*fn)(double)) {
  double r = fn(Num(args[0]));
  if (!std::isfinite(r)) return Value::Null();
  return Value::Double(r);
}

}  // namespace

FunctionRegistry::FunctionRegistry() {
  auto add = [this](FunctionDef def) { functions_.push_back(std::move(def)); };

  // ---- numeric ----------------------------------------------------------
  add({"abs", 1, 1, "abs(x: numeric) -> numeric",
       [](const std::vector<ValueType>& a) -> Result<ValueType> {
         if (!TypeIsNumeric(a[0])) return ArgError("abs", "expects numeric");
         return a[0] == ValueType::kInt ? ValueType::kInt : ValueType::kDouble;
       },
       true,
       [](const std::vector<Value>& a) -> Result<Value> {
         if (a[0].type() == ValueType::kInt) {
           // Wraps like unary minus: abs(INT64_MIN) is INT64_MIN.
           int64_t v = a[0].AsInt();
           return Value::Int(v < 0 ? IntNeg(v) : v);
         }
         return Value::Double(std::fabs(a[0].AsDouble()));
       }});
  add({"sqrt", 1, 1, "sqrt(x: numeric) -> double",
       CheckAllNumeric("sqrt", ValueType::kDouble), true,
       [](const std::vector<Value>& a) { return NumUnary(a, std::sqrt); }});
  add({"exp", 1, 1, "exp(x: numeric) -> double",
       CheckAllNumeric("exp", ValueType::kDouble), true,
       [](const std::vector<Value>& a) { return NumUnary(a, std::exp); }});
  add({"log", 1, 1, "log(x: numeric) -> double",
       CheckAllNumeric("log", ValueType::kDouble), true,
       [](const std::vector<Value>& a) { return NumUnary(a, std::log); }});
  add({"floor", 1, 1, "floor(x: numeric) -> int",
       CheckAllNumeric("floor", ValueType::kInt), true,
       [](const std::vector<Value>& a) -> Result<Value> {
         return Value::Int(static_cast<int64_t>(std::floor(Num(a[0]))));
       }});
  add({"ceil", 1, 1, "ceil(x: numeric) -> int",
       CheckAllNumeric("ceil", ValueType::kInt), true,
       [](const std::vector<Value>& a) -> Result<Value> {
         return Value::Int(static_cast<int64_t>(std::ceil(Num(a[0]))));
       }});
  add({"round", 1, 1, "round(x: numeric) -> int",
       CheckAllNumeric("round", ValueType::kInt), true,
       [](const std::vector<Value>& a) -> Result<Value> {
         return Value::Int(static_cast<int64_t>(std::llround(Num(a[0]))));
       }});
  add({"pow", 2, 2, "pow(x: numeric, y: numeric) -> double",
       CheckAllNumeric("pow", ValueType::kDouble), true,
       [](const std::vector<Value>& a) -> Result<Value> {
         double r = std::pow(Num(a[0]), Num(a[1]));
         if (!std::isfinite(r)) return Value::Null();
         return Value::Double(r);
       }});
  add({"min", 2, SIZE_MAX, "min(x, y, ...) -> numeric",
       CheckAllNumeric("min", ValueType::kDouble), true,
       [](const std::vector<Value>& a) -> Result<Value> {
         double best = Num(a[0]);
         for (size_t i = 1; i < a.size(); ++i) best = std::min(best, Num(a[i]));
         return Value::Double(best);
       }});
  add({"max", 2, SIZE_MAX, "max(x, y, ...) -> numeric",
       CheckAllNumeric("max", ValueType::kDouble), true,
       [](const std::vector<Value>& a) -> Result<Value> {
         double best = Num(a[0]);
         for (size_t i = 1; i < a.size(); ++i) best = std::max(best, Num(a[i]));
         return Value::Double(best);
       }});

  // ---- casts ------------------------------------------------------------
  add({"to_int", 1, 1, "to_int(x) -> int",
       [](const std::vector<ValueType>&) -> Result<ValueType> {
         return ValueType::kInt;
       },
       true,
       [](const std::vector<Value>& a) -> Result<Value> {
         return a[0].CoerceTo(ValueType::kInt);
       }});
  add({"to_double", 1, 1, "to_double(x) -> double",
       [](const std::vector<ValueType>&) -> Result<ValueType> {
         return ValueType::kDouble;
       },
       true,
       [](const std::vector<Value>& a) -> Result<Value> {
         if (a[0].type() == ValueType::kString) {
           char* end = nullptr;
           const std::string& s = a[0].AsString();
           double d = std::strtod(s.c_str(), &end);
           if (end == s.c_str() || *end != '\0') return Value::Null();
           return Value::Double(d);
         }
         return a[0].CoerceTo(ValueType::kDouble);
       }});
  add({"to_string", 1, 1, "to_string(x) -> string",
       [](const std::vector<ValueType>&) -> Result<ValueType> {
         return ValueType::kString;
       },
       true,
       [](const std::vector<Value>& a) -> Result<Value> {
         return Value::String(a[0].ToString());
       }});

  // ---- null handling ----------------------------------------------------
  add({"is_null", 1, 1, "is_null(x) -> bool",
       [](const std::vector<ValueType>&) -> Result<ValueType> {
         return ValueType::kBool;
       },
       false,
       [](const std::vector<Value>& a) -> Result<Value> {
         return Value::Bool(a[0].is_null());
       }});
  add({"coalesce", 1, SIZE_MAX, "coalesce(x, y, ...) -> first non-null",
       [](const std::vector<ValueType>& a) -> Result<ValueType> {
         ValueType t = ValueType::kNull;
         for (auto at : a) {
           if (at == ValueType::kNull) continue;
           if (t == ValueType::kNull) t = at;
           else if (t != at)
             return ArgError("coalesce", "mixed argument types");
         }
         return t == ValueType::kNull ? ValueType::kNull : t;
       },
       false,
       [](const std::vector<Value>& a) -> Result<Value> {
         for (const auto& v : a) {
           if (!v.is_null()) return v;
         }
         return Value::Null();
       }});
  add({"if", 3, 3, "if(cond: bool, then, else) -> then/else type",
       [](const std::vector<ValueType>& a) -> Result<ValueType> {
         if (!TypeIs(a[0], ValueType::kBool))
           return ArgError("if", "first argument must be bool");
         if (a[1] == ValueType::kNull) return a[2];
         if (a[2] == ValueType::kNull) return a[1];
         if (a[1] != a[2])
           return ArgError("if", "then/else branches have different types");
         return a[1];
       },
       false,
       [](const std::vector<Value>& a) -> Result<Value> {
         if (a[0].is_null()) return Value::Null();
         return a[0].AsBool() ? a[1] : a[2];
       }});

  // ---- strings ----------------------------------------------------------
  add({"lower", 1, 1, "lower(s: string) -> string",
       CheckTypes("lower", {ValueType::kString}, ValueType::kString), true,
       [](const std::vector<Value>& a) -> Result<Value> {
         return Value::String(ToLower(a[0].AsString()));
       }});
  add({"upper", 1, 1, "upper(s: string) -> string",
       CheckTypes("upper", {ValueType::kString}, ValueType::kString), true,
       [](const std::vector<Value>& a) -> Result<Value> {
         return Value::String(ToUpper(a[0].AsString()));
       }});
  add({"length", 1, 1, "length(s: string) -> int",
       CheckTypes("length", {ValueType::kString}, ValueType::kInt), true,
       [](const std::vector<Value>& a) -> Result<Value> {
         return Value::Int(static_cast<int64_t>(a[0].AsString().size()));
       }});
  add({"concat", 2, SIZE_MAX, "concat(s1, s2, ...) -> string",
       [](const std::vector<ValueType>&) -> Result<ValueType> {
         return ValueType::kString;
       },
       true,
       [](const std::vector<Value>& a) -> Result<Value> {
         std::string out;
         for (const auto& v : a) out += v.ToString();
         return Value::String(std::move(out));
       }});
  add({"contains", 2, 2, "contains(s: string, sub: string) -> bool",
       CheckTypes("contains", {ValueType::kString, ValueType::kString},
                  ValueType::kBool),
       true,
       [](const std::vector<Value>& a) -> Result<Value> {
         return Value::Bool(a[0].AsString().find(a[1].AsString()) !=
                            std::string::npos);
       }});
  add({"starts_with", 2, 2, "starts_with(s: string, prefix: string) -> bool",
       CheckTypes("starts_with", {ValueType::kString, ValueType::kString},
                  ValueType::kBool),
       true,
       [](const std::vector<Value>& a) -> Result<Value> {
         return Value::Bool(StartsWith(a[0].AsString(), a[1].AsString()));
       }});
  add({"ends_with", 2, 2, "ends_with(s: string, suffix: string) -> bool",
       CheckTypes("ends_with", {ValueType::kString, ValueType::kString},
                  ValueType::kBool),
       true,
       [](const std::vector<Value>& a) -> Result<Value> {
         return Value::Bool(EndsWith(a[0].AsString(), a[1].AsString()));
       }});
  add({"substr", 2, 3, "substr(s: string, start: int[, len: int]) -> string",
       CheckTypes("substr",
                  {ValueType::kString, ValueType::kInt, ValueType::kInt},
                  ValueType::kString),
       true,
       [](const std::vector<Value>& a) -> Result<Value> {
         const std::string& s = a[0].AsString();
         int64_t start = a[1].AsInt();
         if (start < 0) start = 0;
         if (start >= static_cast<int64_t>(s.size()))
           return Value::String("");
         size_t len = std::string::npos;
         if (a.size() == 3) {
           int64_t l = a[2].AsInt();
           len = l < 0 ? 0 : static_cast<size_t>(l);
         }
         return Value::String(s.substr(static_cast<size_t>(start), len));
       }});
  add({"matches_date", 2, 2,
       "matches_date(s: string, pattern: string) -> bool  # pattern digits: YMDhms",
       CheckTypes("matches_date", {ValueType::kString, ValueType::kString},
                  ValueType::kBool),
       true,
       [](const std::vector<Value>& a) -> Result<Value> {
         return Value::Bool(
             MatchesDatePattern(a[0].AsString(), a[1].AsString()));
       }});

  // ---- time -------------------------------------------------------------
  add({"time", 1, 1, "time(s: string) -> timestamp  # ISO-8601",
       CheckTypes("time", {ValueType::kString}, ValueType::kTimestamp), true,
       [](const std::vector<Value>& a) -> Result<Value> {
         Timestamp ts;
         if (!ParseTimestamp(a[0].AsString(), &ts)) {
           return Status::ParseError("time(): cannot parse '" +
                                     a[0].AsString() + "'");
         }
         return Value::Time(ts);
       }});
  add({"hour_of", 1, 1, "hour_of(t: timestamp) -> int  # 0..23 UTC",
       CheckTypes("hour_of", {ValueType::kTimestamp}, ValueType::kInt), true,
       [](const std::vector<Value>& a) -> Result<Value> {
         int64_t secs = a[0].AsTime() / 1000;
         int64_t sod = ((secs % 86400) + 86400) % 86400;
         return Value::Int(sod / 3600);
       }});
  add({"minute_of", 1, 1, "minute_of(t: timestamp) -> int  # 0..59",
       CheckTypes("minute_of", {ValueType::kTimestamp}, ValueType::kInt), true,
       [](const std::vector<Value>& a) -> Result<Value> {
         int64_t secs = a[0].AsTime() / 1000;
         int64_t sod = ((secs % 86400) + 86400) % 86400;
         return Value::Int(sod / 60 % 60);
       }});
  add({"truncate_time", 2, 2,
       "truncate_time(t: timestamp, g: string) -> timestamp  # e.g. '1h'",
       CheckTypes("truncate_time", {ValueType::kTimestamp, ValueType::kString},
                  ValueType::kTimestamp),
       true,
       [](const std::vector<Value>& a) -> Result<Value> {
         SL_ASSIGN_OR_RETURN(stt::TemporalGranularity g,
                             stt::TemporalGranularity::Parse(a[1].AsString()));
         return Value::Time(g.Truncate(a[0].AsTime()));
       }});
  add({"ts_ms", 1, 1, "ts_ms(t: timestamp) -> int  # ms since epoch",
       CheckTypes("ts_ms", {ValueType::kTimestamp}, ValueType::kInt), true,
       [](const std::vector<Value>& a) -> Result<Value> {
         return Value::Int(a[0].AsTime());
       }});

  // ---- units & domain transforms (§2 requirement 1 & 2) ------------------
  add({"convert_unit", 3, 3,
       "convert_unit(x: numeric, from: string, to: string) -> double",
       [](const std::vector<ValueType>& a) -> Result<ValueType> {
         if (!TypeIsNumeric(a[0]))
           return ArgError("convert_unit", "first argument must be numeric");
         if (!TypeIs(a[1], ValueType::kString) ||
             !TypeIs(a[2], ValueType::kString))
           return ArgError("convert_unit", "unit names must be strings");
         return ValueType::kDouble;
       },
       true,
       [](const std::vector<Value>& a) -> Result<Value> {
         SL_ASSIGN_OR_RETURN(double v,
                             stt::ConvertUnit(Num(a[0]), a[1].AsString(),
                                              a[2].AsString()));
         return Value::Double(v);
       }});
  add({"apparent_temp", 2, 2,
       "apparent_temp(temp_c: numeric, humidity_pct: numeric) -> double",
       CheckAllNumeric("apparent_temp", ValueType::kDouble), true,
       [](const std::vector<Value>& a) -> Result<Value> {
         return Value::Double(stt::ApparentTemperatureC(Num(a[0]), Num(a[1])));
       }});

  // ---- geometry (§2 requirement 1: coordinate standards) -----------------
  add({"point", 2, 2, "point(lat: numeric, lon: numeric) -> geopoint",
       CheckAllNumeric("point", ValueType::kGeoPoint), true,
       [](const std::vector<Value>& a) -> Result<Value> {
         return Value::Geo({Num(a[0]), Num(a[1])});
       }});
  add({"lat", 1, 1, "lat(p: geopoint) -> double",
       CheckTypes("lat", {ValueType::kGeoPoint}, ValueType::kDouble), true,
       [](const std::vector<Value>& a) -> Result<Value> {
         return Value::Double(a[0].AsGeo().lat);
       }});
  add({"lon", 1, 1, "lon(p: geopoint) -> double",
       CheckTypes("lon", {ValueType::kGeoPoint}, ValueType::kDouble), true,
       [](const std::vector<Value>& a) -> Result<Value> {
         return Value::Double(a[0].AsGeo().lon);
       }});
  add({"distance_m", 2, 2, "distance_m(a: geopoint, b: geopoint) -> double",
       CheckTypes("distance_m", {ValueType::kGeoPoint, ValueType::kGeoPoint},
                  ValueType::kDouble),
       true,
       [](const std::vector<Value>& a) -> Result<Value> {
         return Value::Double(stt::HaversineMeters(a[0].AsGeo(), a[1].AsGeo()));
       }});
  add({"in_bbox", 5, 5,
       "in_bbox(p: geopoint, lat1, lon1, lat2, lon2) -> bool",
       [](const std::vector<ValueType>& a) -> Result<ValueType> {
         if (!TypeIs(a[0], ValueType::kGeoPoint))
           return ArgError("in_bbox", "first argument must be geopoint");
         for (size_t i = 1; i < a.size(); ++i) {
           if (!TypeIsNumeric(a[i]))
             return ArgError("in_bbox", "corners must be numeric");
         }
         return ValueType::kBool;
       },
       true,
       [](const std::vector<Value>& a) -> Result<Value> {
         stt::BBox box = stt::NormalizeBBox({Num(a[1]), Num(a[2])},
                                            {Num(a[3]), Num(a[4])});
         return Value::Bool(box.Contains(a[0].AsGeo()));
       }});
  add({"convert_crs", 3, 3,
       "convert_crs(p: geopoint, from: string, to: string) -> geopoint",
       CheckTypes("convert_crs",
                  {ValueType::kGeoPoint, ValueType::kString, ValueType::kString},
                  ValueType::kGeoPoint),
       true,
       [](const std::vector<Value>& a) -> Result<Value> {
         SL_ASSIGN_OR_RETURN(stt::Crs from,
                             stt::CrsFromString(a[1].AsString()));
         SL_ASSIGN_OR_RETURN(stt::Crs to, stt::CrsFromString(a[2].AsString()));
         SL_ASSIGN_OR_RETURN(stt::GeoPoint p,
                             stt::ConvertCrs(a[0].AsGeo(), from, to));
         return Value::Geo(p);
       }});
}

const FunctionRegistry& FunctionRegistry::Global() {
  static const FunctionRegistry* registry = new FunctionRegistry();
  return *registry;
}

Result<const FunctionDef*> FunctionRegistry::Find(
    const std::string& name) const {
  std::string lower = ToLower(name);
  for (const auto& f : functions_) {
    if (f.name == lower) return &f;
  }
  return Status::NotFound("unknown function '" + name + "'");
}

std::vector<std::string> FunctionRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(functions_.size());
  for (const auto& f : functions_) names.push_back(f.name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace sl::expr
