// Unit + property tests for the expression language (src/expr):
// lexer, parser, type-checking binder, evaluator and builtin functions.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>

#include "expr/eval.h"
#include "expr/lexer.h"
#include "expr/parser.h"
#include "expr/vector_program.h"
#include "stt/column_batch.h"
#include "tests/reference/interpreter.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sl::expr {
namespace {

using sl::testing::RandomTempBatch;
using sl::testing::TempSchema;
using sl::testing::TempTuple;
using stt::Value;
using stt::ValueType;

/// Evaluates `source` against a canned temperature tuple.
Result<Value> EvalOn(const std::string& source, double temp = 25.0,
                     Timestamp ts = 1458000000000) {
  auto schema = TempSchema();
  SL_ASSIGN_OR_RETURN(BoundExpr bound, BoundExpr::Parse(source, schema));
  return bound.Eval(sl::testing::TempTuple(schema, temp, ts));
}

// ----------------------------------------------------------------- lexer --

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("foo 12 3.5 \"str\" $ts ( ) , ; == != <= >= -> @");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const auto& t : *tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kIdent, TokenKind::kInt, TokenKind::kDouble,
                TokenKind::kString, TokenKind::kDollar, TokenKind::kLParen,
                TokenKind::kRParen, TokenKind::kComma, TokenKind::kSemicolon,
                TokenKind::kEq, TokenKind::kNe, TokenKind::kLe,
                TokenKind::kGe, TokenKind::kArrow, TokenKind::kAt,
                TokenKind::kEnd}));
}

TEST(LexerTest, NumbersAndExponents) {
  auto tokens = *Tokenize("1 2.5 1e3 2.5e-2 7e");
  EXPECT_EQ(tokens[0].int_value, 1);
  EXPECT_DOUBLE_EQ(tokens[1].double_value, 2.5);
  EXPECT_DOUBLE_EQ(tokens[2].double_value, 1000.0);
  EXPECT_DOUBLE_EQ(tokens[3].double_value, 0.025);
  // "7e" is the int 7 followed by identifier e.
  EXPECT_EQ(tokens[4].kind, TokenKind::kInt);
  EXPECT_EQ(tokens[5].kind, TokenKind::kIdent);
}

TEST(LexerTest, StringsWithEscapes) {
  auto tokens = *Tokenize(R"('it\'s' "a\"b\n")");
  EXPECT_EQ(tokens[0].text, "it's");
  EXPECT_EQ(tokens[1].text, "a\"b\n");
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = *Tokenize("a # comment\n b");
  EXPECT_EQ(tokens.size(), 3u);  // a, b, end
}

TEST(LexerTest, Errors) {
  EXPECT_TRUE(Tokenize("\"open").status().IsParseError());
  EXPECT_TRUE(Tokenize("a ~ b").status().IsParseError());
  EXPECT_TRUE(Tokenize("$").status().IsParseError());
  EXPECT_TRUE(Tokenize("a ! b").status().IsParseError());
  EXPECT_TRUE(Tokenize("99999999999999999999").status().IsParseError());
}

// ---------------------------------------------------------------- parser --

TEST(ParserTest, Precedence) {
  // * binds tighter than +, + tighter than comparison, comparison
  // tighter than and/or.
  auto e = *ParseExpression("1 + 2 * 3 > 6 and not false");
  EXPECT_EQ(e->ToString(), "(((1 + (2 * 3)) > 6) and (not false))");
}

TEST(ParserTest, Associativity) {
  EXPECT_EQ((*ParseExpression("1 - 2 - 3"))->ToString(), "((1 - 2) - 3)");
  EXPECT_EQ((*ParseExpression("8 / 4 / 2"))->ToString(), "((8 / 4) / 2)");
}

TEST(ParserTest, SingleEqualsAccepted) {
  EXPECT_EQ((*ParseExpression("a = 3"))->ToString(), "(a == 3)");
}

TEST(ParserTest, UnaryMinusAndNot) {
  EXPECT_EQ((*ParseExpression("--3"))->ToString(), "(-(-3))");
  EXPECT_EQ((*ParseExpression("not not true"))->ToString(),
            "(not (not true))");
  EXPECT_EQ((*ParseExpression("-a * b"))->ToString(), "((-a) * b)");
}

TEST(ParserTest, CallsAndMeta) {
  EXPECT_EQ((*ParseExpression("max(a, b, 3)"))->ToString(), "max(a, b, 3)");
  EXPECT_EQ((*ParseExpression("$ts > time('2016-03-15')"))->ToString(),
            "($ts > time(\"2016-03-15\"))");
  EXPECT_EQ((*ParseExpression("$LAT + $lng"))->ToString(), "($lat + $lon)");
}

TEST(ParserTest, Errors) {
  EXPECT_TRUE(ParseExpression("").status().IsParseError());
  EXPECT_TRUE(ParseExpression("1 +").status().IsParseError());
  EXPECT_TRUE(ParseExpression("(1").status().IsParseError());
  EXPECT_TRUE(ParseExpression("f(1,").status().IsParseError());
  EXPECT_TRUE(ParseExpression("1 2").status().IsParseError());
  EXPECT_TRUE(ParseExpression("$speed").status().IsParseError());
}

TEST(ParserTest, ReferencedAttributes) {
  auto e = *ParseExpression("a + b * f(c, a) > d and $ts > 0");
  EXPECT_EQ(ReferencedAttributes(e),
            (std::vector<std::string>{"a", "b", "c", "d"}));
}

// Property: ToString() parses back to an identical normal form.
TEST(ParserTest, ToStringRoundTrip) {
  const char* samples[] = {
      "temp > 25 and humidity < 80",
      "convert_unit(temp, 'celsius', 'fahrenheit') >= 77",
      "-x * (y + 2) % 3 != 0 or is_null(z)",
      "if(a > b, a, b) + coalesce(c, 0)",
      "contains(lower(text), 'rain') and $lat > 34.5",
      "matches_date(d, 'YYYY-MM-DD')",
  };
  for (const char* s : samples) {
    auto once = ParseExpression(s);
    ASSERT_TRUE(once.ok()) << s;
    auto twice = ParseExpression((*once)->ToString());
    ASSERT_TRUE(twice.ok()) << (*once)->ToString();
    EXPECT_EQ((*once)->ToString(), (*twice)->ToString());
  }
}

// ---------------------------------------------------------------- binder --

TEST(BinderTest, ResolvesAttributesAndTypes) {
  auto schema = TempSchema();
  auto bound = BoundExpr::Parse("temp * 2", schema);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->result_type(), ValueType::kDouble);
  EXPECT_EQ(BoundExpr::Parse("temp > 20", schema)->result_type(),
            ValueType::kBool);
  EXPECT_EQ(BoundExpr::Parse("station", schema)->result_type(),
            ValueType::kString);
  EXPECT_EQ(BoundExpr::Parse("$ts", schema)->result_type(),
            ValueType::kTimestamp);
  EXPECT_EQ(BoundExpr::Parse("$lat", schema)->result_type(),
            ValueType::kDouble);
  EXPECT_EQ(BoundExpr::Parse("$sensor", schema)->result_type(),
            ValueType::kString);
}

TEST(BinderTest, UnknownAttribute) {
  EXPECT_TRUE(BoundExpr::Parse("wind > 3", TempSchema())
                  .status().IsNotFound());
}

TEST(BinderTest, TypeErrors) {
  auto schema = TempSchema();
  EXPECT_TRUE(BoundExpr::Parse("temp and true", schema)
                  .status().IsTypeError());
  EXPECT_TRUE(BoundExpr::Parse("station + temp", schema)
                  .status().IsTypeError());
  EXPECT_TRUE(BoundExpr::Parse("station > temp", schema)
                  .status().IsTypeError());
  EXPECT_TRUE(BoundExpr::Parse("not temp", schema).status().IsTypeError());
  EXPECT_TRUE(BoundExpr::Parse("-station", schema).status().IsTypeError());
  EXPECT_TRUE(BoundExpr::Parse("lower(temp)", schema)
                  .status().IsTypeError());
  EXPECT_TRUE(BoundExpr::Parse("abs()", schema).status().IsTypeError());
  EXPECT_TRUE(BoundExpr::Parse("abs(1, 2)", schema).status().IsTypeError());
  EXPECT_TRUE(BoundExpr::Parse("nosuchfn(1)", schema)
                  .status().IsNotFound());
}

TEST(BinderTest, TimestampArithmetic) {
  auto schema = TempSchema();
  EXPECT_EQ(BoundExpr::Parse("$ts - time('2016-01-01')", schema)
                ->result_type(),
            ValueType::kInt);
  EXPECT_EQ(BoundExpr::Parse("$ts + 3600000", schema)->result_type(),
            ValueType::kTimestamp);
  EXPECT_TRUE(BoundExpr::Parse("$ts * 2", schema).status().IsTypeError());
  EXPECT_TRUE(BoundExpr::Parse("$ts + $ts", schema).status().IsTypeError());
}

TEST(BinderTest, PredicateRequiresBool) {
  auto schema = TempSchema();
  auto bound = *BoundExpr::Parse("temp + 1", schema);
  EXPECT_TRUE(bound.EvalPredicate(TempTuple(schema, 1, 0))
                  .status().IsTypeError());
}

// ------------------------------------------------------------- evaluator --

TEST(EvalTest, Arithmetic) {
  EXPECT_DOUBLE_EQ((*EvalOn("temp + 1.5", 20.0)).AsDouble(), 21.5);
  EXPECT_DOUBLE_EQ((*EvalOn("2 * temp - 10", 20.0)).AsDouble(), 30.0);
  EXPECT_EQ((*EvalOn("7 % 3")).AsInt(), 1);
  EXPECT_EQ((*EvalOn("2 + 3 * 4")).AsInt(), 14);
  // Division always yields double.
  EXPECT_DOUBLE_EQ((*EvalOn("7 / 2")).AsDouble(), 3.5);
}

TEST(EvalTest, DivisionByZeroIsNull) {
  EXPECT_TRUE((*EvalOn("1 / 0")).is_null());
  EXPECT_TRUE((*EvalOn("1 % 0")).is_null());
  EXPECT_TRUE((*EvalOn("1.0 / 0.0")).is_null());
}

TEST(EvalTest, StringConcat) {
  EXPECT_EQ((*EvalOn("station + '!'")).AsString(), "osaka!");
}

TEST(EvalTest, Comparisons) {
  EXPECT_TRUE((*EvalOn("temp >= 25", 25.0)).AsBool());
  EXPECT_FALSE((*EvalOn("temp > 25", 25.0)).AsBool());
  EXPECT_TRUE((*EvalOn("station == 'osaka'")).AsBool());
  EXPECT_TRUE((*EvalOn("station != 'kyoto'")).AsBool());
  // Mixed int/double comparison works numerically.
  EXPECT_TRUE((*EvalOn("temp == 25", 25.0)).AsBool());
}

TEST(EvalTest, KleeneLogic) {
  // null and false -> false; null or true -> true; null and true -> null.
  auto schema = TempSchema();
  auto tuple = stt::Tuple::MakeUnsafe(
      schema, {Value::Double(1.0), Value::Null()}, 0, std::nullopt, "s");
  auto is_null_str = [&](const std::string& src) {
    return (*BoundExpr::Parse(src, schema)).Eval(tuple);
  };
  EXPECT_FALSE((*is_null_str("is_null(station) == false and false")).AsBool());
  EXPECT_FALSE((*is_null_str("(station == 'x') and false")).AsBool());
  EXPECT_TRUE((*is_null_str("(station == 'x') or true")).AsBool());
  EXPECT_TRUE((*is_null_str("(station == 'x') and true")).is_null());
  EXPECT_TRUE((*is_null_str("(station == 'x') or false")).is_null());
  EXPECT_TRUE((*is_null_str("not (station == 'x')")).is_null());
}

TEST(EvalTest, NullPredicateIsFalse) {
  auto schema = TempSchema();
  auto tuple = stt::Tuple::MakeUnsafe(
      schema, {Value::Double(1.0), Value::Null()}, 0, std::nullopt, "s");
  auto bound = *BoundExpr::Parse("station == 'x'", schema);
  EXPECT_FALSE(*bound.EvalPredicate(tuple));
}

TEST(EvalTest, MetaAttributes) {
  auto schema = TempSchema();
  auto with_loc = TempTuple(schema, 20.0, 1458000000000,
                            stt::GeoPoint{34.5, 135.25}, "sensor_7");
  EXPECT_DOUBLE_EQ(
      (*(*BoundExpr::Parse("$lat", schema)).Eval(with_loc)).AsDouble(), 34.5);
  EXPECT_EQ(
      (*(*BoundExpr::Parse("$sensor", schema)).Eval(with_loc)).AsString(),
      "sensor_7");
  EXPECT_EQ((*(*BoundExpr::Parse("$theme", schema)).Eval(with_loc)).AsString(),
            "weather/temperature");
  // Tuples without location: $lat is null.
  auto no_loc = TempTuple(schema, 20.0, 0, std::nullopt);
  EXPECT_TRUE((*(*BoundExpr::Parse("$lat", schema)).Eval(no_loc)).is_null());
}

TEST(EvalTest, TimestampArithmetic) {
  Timestamp t0 = 1458000000000;
  EXPECT_EQ((*EvalOn("$ts - time('2016-03-15')", 0, t0)).AsInt(), 0);
  EXPECT_EQ((*EvalOn("$ts + 60000", 0, t0)).AsTime(), t0 + 60000);
  EXPECT_EQ((*EvalOn("$ts - 60000", 0, t0)).AsTime(), t0 - 60000);
  EXPECT_TRUE((*EvalOn("$ts - time('2016-03-15') < 3600000", 0,
                       t0 + duration::kMinute))
                  .AsBool());
}

// ------------------------------------------------------------- functions --

TEST(FunctionsTest, NumericFamily) {
  EXPECT_EQ((*EvalOn("abs(-3)")).AsInt(), 3);
  EXPECT_DOUBLE_EQ((*EvalOn("abs(-3.5)")).AsDouble(), 3.5);
  EXPECT_DOUBLE_EQ((*EvalOn("sqrt(16)")).AsDouble(), 4.0);
  EXPECT_TRUE((*EvalOn("sqrt(-1)")).is_null());
  EXPECT_TRUE((*EvalOn("log(0)")).is_null());
  EXPECT_EQ((*EvalOn("floor(2.7)")).AsInt(), 2);
  EXPECT_EQ((*EvalOn("ceil(2.1)")).AsInt(), 3);
  EXPECT_EQ((*EvalOn("round(2.5)")).AsInt(), 3);
  EXPECT_DOUBLE_EQ((*EvalOn("pow(2, 10)")).AsDouble(), 1024.0);
  EXPECT_DOUBLE_EQ((*EvalOn("min(3, 1, 2)")).AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ((*EvalOn("max(3, 1, 2)")).AsDouble(), 3.0);
}

TEST(FunctionsTest, Casts) {
  EXPECT_EQ((*EvalOn("to_int(3.9)")).AsInt(), 3);
  EXPECT_DOUBLE_EQ((*EvalOn("to_double('2.5')")).AsDouble(), 2.5);
  EXPECT_TRUE((*EvalOn("to_double('abc')")).is_null());
  EXPECT_EQ((*EvalOn("to_string(42)")).AsString(), "42");
}

TEST(FunctionsTest, NullHandling) {
  auto schema = TempSchema();
  auto tuple = stt::Tuple::MakeUnsafe(
      schema, {Value::Double(1.0), Value::Null()}, 0, std::nullopt, "s");
  auto eval = [&](const std::string& src) {
    return *(*BoundExpr::Parse(src, schema)).Eval(tuple);
  };
  EXPECT_TRUE(eval("is_null(station)").AsBool());
  EXPECT_FALSE(eval("is_null(temp)").AsBool());
  EXPECT_EQ(eval("coalesce(station, 'fallback')").AsString(), "fallback");
  EXPECT_EQ(eval("if(temp > 0, 'pos', 'neg')").AsString(), "pos");
  // Null propagates through ordinary functions.
  EXPECT_TRUE(eval("upper(station)").is_null());
}

TEST(FunctionsTest, CoalesceTypeChecks) {
  auto schema = TempSchema();
  EXPECT_TRUE(BoundExpr::Parse("coalesce(temp, station)", schema)
                  .status().IsTypeError());
  EXPECT_TRUE(BoundExpr::Parse("if(true, temp, station)", schema)
                  .status().IsTypeError());
}

TEST(FunctionsTest, StringFamily) {
  EXPECT_EQ((*EvalOn("lower('AbC')")).AsString(), "abc");
  EXPECT_EQ((*EvalOn("upper('AbC')")).AsString(), "ABC");
  EXPECT_EQ((*EvalOn("length('hello')")).AsInt(), 5);
  EXPECT_EQ((*EvalOn("concat('a', 1, '-', 2.5)")).AsString(), "a1-2.5");
  EXPECT_TRUE((*EvalOn("contains('torrential rain', 'rain')")).AsBool());
  EXPECT_FALSE((*EvalOn("contains('sunny', 'rain')")).AsBool());
  EXPECT_TRUE((*EvalOn("starts_with('osaka_01', 'osaka')")).AsBool());
  EXPECT_TRUE((*EvalOn("ends_with('osaka_01', '01')")).AsBool());
  EXPECT_EQ((*EvalOn("substr('streamloader', 6)")).AsString(), "loader");
  EXPECT_EQ((*EvalOn("substr('streamloader', 0, 6)")).AsString(), "stream");
  EXPECT_EQ((*EvalOn("substr('abc', 10)")).AsString(), "");
}

TEST(FunctionsTest, DatePatternValidation) {
  EXPECT_TRUE((*EvalOn("matches_date('2016-03-15', 'YYYY-MM-DD')")).AsBool());
  EXPECT_FALSE((*EvalOn("matches_date('15/03/2016', 'YYYY-MM-DD')")).AsBool());
}

TEST(FunctionsTest, TimeFamily) {
  EXPECT_EQ((*EvalOn("hour_of(time('2016-03-15T14:30'))")).AsInt(), 14);
  EXPECT_EQ((*EvalOn("minute_of(time('2016-03-15T14:30'))")).AsInt(), 30);
  EXPECT_EQ((*EvalOn("truncate_time(time('2016-03-15T14:37'), '1h')")).AsTime(),
            (*EvalOn("time('2016-03-15T14:00')")).AsTime());
  EXPECT_EQ((*EvalOn("ts_ms(time('1970-01-01T00:00:01'))")).AsInt(), 1000);
  EXPECT_TRUE(EvalOn("time('bogus')").status().IsParseError());
}

TEST(FunctionsTest, UnitsAndDomain) {
  EXPECT_NEAR((*EvalOn("convert_unit(100, 'yd', 'm')")).AsDouble(), 91.44,
              1e-9);
  EXPECT_NEAR((*EvalOn("convert_unit(temp, 'celsius', 'fahrenheit')", 100.0))
                  .AsDouble(),
              212.0, 1e-9);
  EXPECT_TRUE(EvalOn("convert_unit(1, 'cubit', 'm')").status().IsNotFound());
  double at = (*EvalOn("apparent_temp(32, 80)")).AsDouble();
  EXPECT_GT(at, 32.0);
}

TEST(FunctionsTest, GeoFamily) {
  EXPECT_DOUBLE_EQ((*EvalOn("lat(point(34.5, 135.5))")).AsDouble(), 34.5);
  EXPECT_DOUBLE_EQ((*EvalOn("lon(point(34.5, 135.5))")).AsDouble(), 135.5);
  EXPECT_NEAR((*EvalOn("distance_m(point(0,0), point(1,0))")).AsDouble(),
              111195, 200);
  EXPECT_TRUE(
      (*EvalOn("in_bbox(point(34.5, 135.5), 34, 135, 35, 136)")).AsBool());
  EXPECT_FALSE(
      (*EvalOn("in_bbox(point(33.5, 135.5), 34, 135, 35, 136)")).AsBool());
  // Corner order does not matter.
  EXPECT_TRUE(
      (*EvalOn("in_bbox(point(34.5, 135.5), 35, 136, 34, 135)")).AsBool());
  // CRS conversion in-language.
  EXPECT_NEAR((*EvalOn("lat(convert_crs(convert_crs(point(34.69, 135.50), "
                       "'wgs84', 'webmercator'), 'webmercator', 'wgs84'))"))
                  .AsDouble(),
              34.69, 1e-6);
  // Distance to own location via metadata.
  auto schema = TempSchema();
  auto tuple = TempTuple(schema, 20.0, 0, stt::GeoPoint{34.70, 135.44});
  auto bound = *BoundExpr::Parse(
      "distance_m(point($lat, $lon), point(34.70, 135.44)) < 1", schema);
  EXPECT_TRUE(*bound.EvalPredicate(tuple));
}

// ------------------------------------------------------ compiled program --

/// The expression battery the compiled program is checked against: every
/// operator family, Kleene logic, short-circuits, meta attributes,
/// domain errors and function calls.
const char* const kProgramBattery[] = {
    "temp + 1.5",
    "2 * temp - 10",
    "7 % 3",
    "temp / 0",
    "temp >= 25",
    "temp == 25",
    "station == 'osaka'",
    "station != 'kyoto'",
    "station + '!'",
    "temp > 20 and station == 'osaka'",
    "temp > 100 and 1 / 0 > 0",    // short-circuit skips the null arm
    "temp > -100 or 1 / 0 > 0",
    "(station == 'x') and true",   // null and true -> null
    "(station == 'x') or false",
    "not (temp > 25)",
    "-temp * 2",
    "is_null(station)",
    "coalesce(station, 'fallback')",
    "if(temp > 0, 'pos', 'neg')",
    "abs(-temp)",
    "sqrt(temp)",                  // null for negative temp
    "floor(temp) % 4",
    "convert_unit(temp, 'celsius', 'fahrenheit') >= 77",
    "contains(lower(station), 'osa')",
    "$ts > time('2016-03-15')",
    "$ts + 60000",
    "$lat + $lon",
    "$sensor",
    "$theme",
    "distance_m(point($lat, $lon), point(34.69, 135.50)) < 100000",
    "concat(station, '-', floor(temp))",
};

/// Equality on results: same ok-ness, and equal values (type + content;
/// NaN compares equal to itself here, since ToString agrees).
void ExpectSameResult(const Result<Value>& a, const Result<Value>& b,
                      const std::string& context) {
  ASSERT_EQ(a.ok(), b.ok()) << context;
  if (!a.ok()) return;
  EXPECT_EQ(a->type(), b->type()) << context;
  EXPECT_EQ(a->ToString(), b->ToString()) << context;
}

// Property: the compiled postorder program agrees with the reference
// tree-walk over the unfolded syntax tree (reference::Interpret) on the
// battery over randomized tuples — including null attributes, missing
// locations and NaN values.
TEST(ProgramTest, CompiledMatchesInterpretedOracle) {
  sl::Rng rng(71);
  auto schema = TempSchema();
  for (const char* src : kProgramBattery) {
    auto bound = BoundExpr::Parse(src, schema);
    ASSERT_TRUE(bound.ok()) << src << ": " << bound.status();
    for (int i = 0; i < 40; ++i) {
      Value temp;
      switch (rng.NextBounded(4)) {
        case 0: temp = Value::Null(); break;
        case 1: temp = Value::Double(std::nan("")); break;
        default: temp = Value::Double(rng.NextDouble(-50, 50));
      }
      Value station = rng.NextBounded(5) == 0 ? Value::Null()
                                              : Value::String("osaka");
      std::optional<stt::GeoPoint> loc;
      if (rng.NextBounded(4) != 0) {
        loc = stt::GeoPoint{34.0 + rng.NextDouble(0, 1), 135.5};
      }
      auto tuple = stt::Tuple::MakeUnsafe(schema, {temp, station},
                                          1458000000000 + i * 60000, loc,
                                          "sensor_7");
      ExpectSameResult(bound->Eval(tuple), reference::Interpret(*bound, tuple),
                       std::string(src) + " @ tuple " + std::to_string(i));
    }
  }
}

// Property: evaluating over a PairView is indistinguishable from
// materializing the concatenated tuple first — this is what lets the
// join skip materialization for rejected pairs.
TEST(ProgramTest, PairViewMatchesMaterializedTuple) {
  sl::Rng rng(73);
  auto left_schema = TempSchema();
  auto rain = stt::Schema::Make(
      {{"rain", ValueType::kDouble, "mm/h", true}},
      *stt::TemporalGranularity::Make(duration::kMinute),
      stt::SpatialGranularity::Point(), *stt::Theme::Parse("weather/rain"));
  auto joined = stt::Schema::Make(
      {{"temp", ValueType::kDouble, "celsius", true},
       {"station", ValueType::kString, "", true},
       {"rain", ValueType::kDouble, "mm/h", true}},
      *stt::TemporalGranularity::Make(duration::kMinute),
      stt::SpatialGranularity::Point(), *stt::Theme::Parse("weather/rain"));
  ASSERT_TRUE(rain.ok() && joined.ok());
  const char* const exprs[] = {
      "temp == rain",
      "temp > rain and station == 'osaka'",
      "temp + rain",
      "$ts > time('1970-01-01') and $lat > 34.0",
      "$sensor == ''",
      "$theme",
      "coalesce(rain, temp)",
  };
  for (const char* src : exprs) {
    auto bound = BoundExpr::Parse(src, *joined);
    ASSERT_TRUE(bound.ok()) << src << ": " << bound.status();
    for (int i = 0; i < 40; ++i) {
      Value lv = rng.NextBounded(5) == 0
                     ? Value::Null()
                     : Value::Double(static_cast<double>(rng.NextBounded(6)));
      Value rv = rng.NextBounded(5) == 0
                     ? Value::Null()
                     : Value::Double(static_cast<double>(rng.NextBounded(6)));
      std::optional<stt::GeoPoint> lloc;
      if (rng.NextBounded(3) != 0) lloc = stt::GeoPoint{34.69, 135.50};
      std::optional<stt::GeoPoint> rloc;
      if (rng.NextBounded(3) != 0) rloc = stt::GeoPoint{34.60, 135.46};
      auto l = stt::Tuple::MakeUnsafe(left_schema,
                                      {lv, Value::String("osaka")},
                                      60000 + i, lloc, "t0");
      auto r = stt::Tuple::MakeUnsafe(*rain, {rv}, 90000 + i, rloc, "r0");
      Timestamp pair_ts = 60000;  // pre-truncated to the minute
      PairView pair{&l, &r, /*split=*/2, pair_ts, joined->get()};
      auto materialized = stt::Tuple::MakeUnsafe(
          *joined, {lv, Value::String("osaka"), rv}, pair_ts,
          lloc.has_value() ? lloc : rloc, "");
      ExpectSameResult(bound->EvalPair(pair), bound->Eval(materialized),
                       std::string(src) + " @ pair " + std::to_string(i));
    }
  }
}

// Bind-time constant folding: an all-literal expression collapses to a
// single push, and partially constant trees fold only their literal
// subtrees — without changing results.
TEST(ProgramTest, BindTimeConstantFolding) {
  auto schema = TempSchema();
  auto folded = *BoundExpr::Parse("2 + 3 * 4", schema);
  ASSERT_EQ(folded.program().insns().size(), 1u);
  EXPECT_EQ(folded.program().insns()[0].op, ExprInsn::Op::kPushLiteral);
  EXPECT_EQ(folded.program().insns()[0].literal.AsInt(), 14);

  // The literal subtree folds; the attribute comparison survives.
  auto partial = *BoundExpr::Parse("temp > 2 + 3 * 4", schema);
  ASSERT_EQ(partial.program().insns().size(), 3u);
  EXPECT_EQ(partial.program().insns()[1].op, ExprInsn::Op::kPushLiteral);
  EXPECT_EQ(partial.program().insns()[1].literal.AsInt(), 14);
  EXPECT_TRUE((*partial.Eval(TempTuple(schema, 20.0, 0))).AsBool());
  EXPECT_FALSE((*partial.Eval(TempTuple(schema, 10.0, 0))).AsBool());

  // Folding preserves the run-time null semantics of domain errors: a
  // constant division by zero folds to null, not an error.
  auto null_fold = *BoundExpr::Parse("1 / 0", schema);
  ASSERT_EQ(null_fold.program().insns().size(), 1u);
  EXPECT_TRUE(null_fold.program().insns()[0].literal.is_null());

  // Function calls never fold (some raise real errors at run time —
  // time('bogus') — and folding must not hide them), but their literal
  // arguments do: abs(-3) keeps the call, folds the negation.
  auto fn_kept = *BoundExpr::Parse("abs(-3)", schema);
  ASSERT_EQ(fn_kept.program().insns().size(), 2u);
  EXPECT_EQ(fn_kept.program().insns()[0].op, ExprInsn::Op::kPushLiteral);
  EXPECT_EQ(fn_kept.program().insns()[0].literal.AsInt(), -3);
  EXPECT_EQ(fn_kept.program().insns()[1].op, ExprInsn::Op::kCall);
  EXPECT_EQ((*fn_kept.Eval(TempTuple(schema, 0, 0))).AsInt(), 3);
}

// Bind-time folding against the unfolded tree: each literal-only
// expression folds wholly or in part when it is bound, and the
// reference interpreter, which walks the tree as parsed, must agree
// with the folded program.
TEST(ProgramTest, FoldedLiteralsMatchInterpreter) {
  const char* const kLiterals[] = {
      "2 + 3 * 4",        "7 % 3",           "-7 % 3",
      "7 % -3",           "1 / 0",           "1 % 0",
      "1.5 % 0",          "10 / 4",          "2.5 * 4 - 1",
      "-(3 - 5)",         "not true",        "not (1 > 2)",
      "'a' + 'b'",        "1 == 1.0",        "2 < 1.5",
      "'x' != 'y'",       "null + 1",        "null == null",
      "true and null",    "false and null",  "true or null",
      "null or false",    "1 / 0 > 0",       "-(1 / 0)",
      "abs(-3) + 1",      "if(1 > 0, 'pos', 'neg')",
  };
  auto schema = TempSchema();
  auto tuple = TempTuple(schema, 20.0, 0);
  for (const char* src : kLiterals) {
    auto bound = BoundExpr::Parse(src, schema);
    ASSERT_TRUE(bound.ok()) << src << ": " << bound.status();
    ExpectSameResult(bound->Eval(tuple), reference::Interpret(*bound, tuple),
                     src);
  }
}

// Property: evaluator agrees with a trivial reference implementation on
// random arithmetic expressions.
TEST(EvalTest, ArithmeticAgainstOracle) {
  Rng rng(23);
  auto schema = TempSchema();
  for (int i = 0; i < 300; ++i) {
    int64_t a = rng.NextInt(-50, 50);
    int64_t b = rng.NextInt(-50, 50);
    int64_t c = rng.NextInt(1, 20);
    std::string src = sl::StrFormat("(%lld + %lld) * %lld - %lld %% %lld",
                                static_cast<long long>(a),
                                static_cast<long long>(b),
                                static_cast<long long>(c),
                                static_cast<long long>(a),
                                static_cast<long long>(c));
    auto bound = BoundExpr::Parse(src, schema);
    ASSERT_TRUE(bound.ok()) << src;
    auto v = bound->Eval(TempTuple(schema, 0, 0));
    ASSERT_TRUE(v.ok());
    int64_t expect = (a + b) * c - a % c;
    EXPECT_EQ(v->AsInt(), expect) << src;
  }
}

// ---------------------------------------------------- vectorized VM --
//
// Three-way oracle: the columnar VectorProgram must reproduce the
// scalar VM row for row — same surviving rows, same values (type and
// rendering, so null/NaN/-0.0 agree), same per-row error statuses —
// while the scalar VM itself is checked against the reference
// tree-walk. One divergent row anywhere fails with its position.

/// Value-program agreement over one batch.
void ExpectVectorAgreement(const BoundExpr& bound,
                           const std::vector<stt::TupleRef>& refs,
                           const std::string& context) {
  stt::ColumnBatch batch(bound.schema(), refs.data(), refs.size());
  VectorProgram vector(&bound.program());
  std::vector<Value> values;
  std::vector<VectorProgram::RowError> errors;
  Status run = vector.RunValues(&batch, &values, &errors);
  ASSERT_TRUE(run.ok()) << context << ": " << run.ToString();
  std::map<uint32_t, Status> error_by_row;
  for (const auto& e : errors) error_by_row.emplace(e.row, e.status);
  size_t pos = 0;
  for (uint32_t r = 0; r < refs.size(); ++r) {
    std::string at = context + " @ row " + std::to_string(r);
    Result<Value> scalar = bound.Eval(*refs[r]);
    ExpectSameResult(scalar, reference::Interpret(bound, *refs[r]), at);
    if (scalar.ok()) {
      ASSERT_LT(pos, batch.selection().size()) << at;
      EXPECT_EQ(batch.selection()[pos], r) << at;
      EXPECT_EQ(values[pos].type(), scalar->type()) << at;
      EXPECT_EQ(values[pos].ToString(), scalar->ToString()) << at;
      ++pos;
    } else {
      auto it = error_by_row.find(r);
      ASSERT_TRUE(it != error_by_row.end()) << at;
      EXPECT_EQ(it->second.ToString(), scalar.status().ToString()) << at;
    }
  }
  EXPECT_EQ(pos, batch.selection().size()) << context;
}

/// Predicate agreement: RunPredicate's surviving selection must be
/// exactly the rows the scalar EvalPredicate accepts (null is false),
/// with errored rows dropped and reported identically.
void ExpectPredicateAgreement(const BoundExpr& bound,
                              const std::vector<stt::TupleRef>& refs,
                              const std::string& context) {
  stt::ColumnBatch batch(bound.schema(), refs.data(), refs.size());
  VectorProgram vector(&bound.program());
  std::vector<VectorProgram::RowError> errors;
  Status run = vector.RunPredicate(&batch, &errors);
  ASSERT_TRUE(run.ok()) << context << ": " << run.ToString();
  std::vector<uint32_t> expected;
  std::map<uint32_t, Status> expected_errors;
  for (uint32_t r = 0; r < refs.size(); ++r) {
    Result<bool> keep = bound.EvalPredicate(*refs[r]);
    if (keep.ok()) {
      if (*keep) expected.push_back(r);
    } else {
      expected_errors.emplace(r, keep.status());
    }
  }
  EXPECT_EQ(batch.selection(), expected) << context;
  ASSERT_EQ(errors.size(), expected_errors.size()) << context;
  for (const auto& e : errors) {
    auto it = expected_errors.find(e.row);
    ASSERT_TRUE(it != expected_errors.end())
        << context << " @ row " << e.row;
    EXPECT_EQ(e.status.ToString(), it->second.ToString())
        << context << " @ row " << e.row;
  }
}

// The full program battery — arithmetic, comparisons, short-circuit
// logic, meta attributes, function calls — three ways, over batches
// that include null, NaN, -0.0 and type-mismatched rows.
TEST(VectorProgramTest, ThreeWayOracleBattery) {
  sl::Rng rng(411);
  auto schema = TempSchema();
  for (const char* src : kProgramBattery) {
    auto bound = BoundExpr::Parse(src, schema);
    ASSERT_TRUE(bound.ok()) << src << ": " << bound.status();
    std::vector<stt::TupleRef> refs =
        RandomTempBatch(&rng, 64, /*with_bad_rows=*/true);
    ExpectVectorAgreement(*bound, refs, src);
  }
}

// Predicate programs: the selection-narrowing entry point, including
// the short-circuit cases where the scalar VM jumps and the vectorized
// run partitions the selection instead.
TEST(VectorProgramTest, PredicateSelectionMatchesScalar) {
  sl::Rng rng(423);
  auto schema = TempSchema();
  const char* const predicates[] = {
      "temp > 20",
      "temp >= 25 and station == 'osaka'",
      "temp > 100 and 1 / 0 > 0",  // dominant arm decides every row
      "temp > -100 or 1 / 0 > 0",
      "(station == 'x') and true",  // null and true -> null -> dropped
      "(station == 'x') or temp > 0",
      "not (temp > 25)",
      "is_null(station) or contains(station, 'osa')",
      "$lat > 34.2",
      "sqrt(temp) > 5",  // null for negative temp
  };
  for (const char* src : predicates) {
    auto bound = BoundExpr::Parse(src, schema);
    ASSERT_TRUE(bound.ok()) << src << ": " << bound.status();
    std::vector<stt::TupleRef> refs =
        RandomTempBatch(&rng, 96, /*with_bad_rows=*/true);
    ExpectPredicateAgreement(*bound, refs, src);
  }
}

// Int64 columns near the extremes (all operations kept within defined
// range): the vectorized int path must stay exact 64-bit arithmetic —
// values this size are not representable in a double, so a widening
// bug would change the rendered result. The double column adds -0.0
// and NaN mixing into comparisons and arithmetic.
TEST(VectorProgramTest, IntExtremesAndSignedZero) {
  auto tgran = stt::TemporalGranularity::Make(duration::kMinute);
  auto theme = stt::Theme::Parse("test/extremes");
  auto schema = *stt::Schema::Make(
      {{"n", ValueType::kInt, "", true}, {"d", ValueType::kDouble, "", true}},
      *tgran, stt::SpatialGranularity::Point(), *theme);
  const int64_t kBig = (int64_t{1} << 62) - 3;
  const int64_t values_n[] = {kBig,  -kBig, 1,  -1, 0,
                              kBig - 1, -kBig + 1, 41, 0, 7};
  const double values_d[] = {-0.0, 0.0, std::nan(""), 1.5, -1.5,
                             0.5,  2.0, -0.0,         3.5, 0.25};
  std::vector<stt::TupleRef> refs;
  for (size_t i = 0; i < 10; ++i) {
    Value n = i == 4 ? Value::Null() : Value::Int(values_n[i]);
    Value d = i == 8 ? Value::Null() : Value::Double(values_d[i]);
    refs.push_back(stt::Tuple::Share(stt::Tuple::MakeUnsafe(
        schema, {n, d}, 1458000000000 + Timestamp(i), std::nullopt, "x")));
  }
  const char* const exprs[] = {
      "n + 1",  // exact at 2^62: a double would round
      "n - 1",
      "n * 2",
      "n % 1000003",
      "n / 4",        // division takes the double path by design
      "-n",
      "n > 0",
      "n == n",
      "n + d",        // int/double mixing widens
      "n > d",        // cross-type comparison widens; NaN compares equal
      "d == 0.0",     // -0.0 == 0.0 must hold
      "d < 0.0",      // ... and -0.0 < 0.0 must not
      "if(d == 0.0, 'zero', 'nonzero')",
      "d * -1",
      "d % 2",
  };
  for (const char* src : exprs) {
    auto bound = BoundExpr::Parse(src, schema);
    ASSERT_TRUE(bound.ok()) << src << ": " << bound.status();
    ExpectVectorAgreement(*bound, refs, src);
  }

  // The int64 edges. + - * and unary - wrap in two's complement, a % -1
  // is 0 (INT64_MIN % -1 traps in hardware) and abs(INT64_MIN) wraps to
  // itself. Every operand pair runs once as attributes and once as
  // literals, which bind-time folding handles where it can; the scalar
  // VM, the vector VM and the reference interpreter must all give the
  // expected value.
  auto pair_schema = *stt::Schema::Make(
      {{"a", ValueType::kInt, "", true}, {"b", ValueType::kInt, "", true}},
      *tgran, stt::SpatialGranularity::Point(), *theme);
  const int64_t kEdges[] = {INT64_MIN, INT64_MAX, -1, 0};
  auto wrap = [](uint64_t v) { return static_cast<int64_t>(v); };
  auto literal = [](int64_t v) {
    return v == INT64_MIN ? std::string("(-9223372036854775807 - 1)")
                          : sl::StrFormat("(%lld)", static_cast<long long>(v));
  };
  struct Case {
    std::string attr_form, literal_form;
    Value expected;
  };
  std::vector<stt::TupleRef> pair_refs;
  std::vector<std::vector<Case>> cases;  // per row
  for (int64_t a : kEdges) {
    for (int64_t b : kEdges) {
      const uint64_t ua = static_cast<uint64_t>(a);
      const uint64_t ub = static_cast<uint64_t>(b);
      const std::string la = literal(a), lb = literal(b);
      pair_refs.push_back(stt::Tuple::Share(stt::Tuple::MakeUnsafe(
          pair_schema, {Value::Int(a), Value::Int(b)}, 1458000000000,
          std::nullopt, "x")));
      cases.push_back({
          {"a + b", la + " + " + lb, Value::Int(wrap(ua + ub))},
          {"a - b", la + " - " + lb, Value::Int(wrap(ua - ub))},
          {"a * b", la + " * " + lb, Value::Int(wrap(ua * ub))},
          {"a % b", la + " % " + lb,
           b == 0 ? Value::Null() : Value::Int(b == -1 ? 0 : a % b)},
          {"-a", "-" + la, Value::Int(wrap(uint64_t{0} - ua))},
          {"abs(a)", "abs(" + la + ")",
           Value::Int(a < 0 ? wrap(uint64_t{0} - ua) : a)},
      });
    }
  }
  auto expect_all = [](const BoundExpr& bound,
                       const std::vector<stt::TupleRef>& rows,
                       const std::vector<Value>& want,
                       const std::string& context) {
    stt::ColumnBatch batch(bound.schema(), rows.data(), rows.size());
    VectorProgram vector(&bound.program());
    std::vector<Value> values;
    std::vector<VectorProgram::RowError> errors;
    SL_ASSERT_OK(vector.RunValues(&batch, &values, &errors));
    ASSERT_TRUE(errors.empty()) << context;
    ASSERT_EQ(values.size(), rows.size()) << context;
    for (size_t r = 0; r < rows.size(); ++r) {
      std::string at = context + " @ row " + std::to_string(r);
      ExpectSameResult(bound.Eval(*rows[r]), want[r], at);
      ExpectSameResult(values[r], want[r], at);
      ExpectSameResult(reference::Interpret(bound, *rows[r]), want[r], at);
    }
  };
  for (size_t c = 0; c < cases.front().size(); ++c) {
    const std::string& src = cases.front()[c].attr_form;
    auto bound = BoundExpr::Parse(src, pair_schema);
    ASSERT_TRUE(bound.ok()) << src << ": " << bound.status();
    std::vector<Value> want;
    for (const auto& row : cases) want.push_back(row[c].expected);
    expect_all(*bound, pair_refs, want, src);
  }
  for (size_t r = 0; r < cases.size(); ++r) {
    for (const Case& k : cases[r]) {
      auto bound = BoundExpr::Parse(k.literal_form, pair_schema);
      ASSERT_TRUE(bound.ok()) << k.literal_form << ": " << bound.status();
      expect_all(*bound, {pair_refs[r]}, {k.expected}, k.literal_form);
    }
  }
}

// Re-running one VectorProgram over many batches must not leak state
// between runs (registers and masks are scratch, re-seeded per call).
TEST(VectorProgramTest, ReuseAcrossBatches) {
  sl::Rng rng(437);
  auto schema = TempSchema();
  auto bound = *BoundExpr::Parse("temp * 2 + 1", schema);
  VectorProgram vector(&bound.program());
  for (int round = 0; round < 5; ++round) {
    std::vector<stt::TupleRef> refs =
        RandomTempBatch(&rng, 16 + 16 * round, /*with_bad_rows=*/true);
    stt::ColumnBatch batch(schema, refs.data(), refs.size());
    std::vector<Value> values;
    std::vector<VectorProgram::RowError> errors;
    SL_ASSERT_OK(vector.RunValues(&batch, &values, &errors));
    size_t pos = 0;
    for (uint32_t r = 0; r < refs.size(); ++r) {
      auto scalar = bound.Eval(*refs[r]);
      if (!scalar.ok()) continue;
      ASSERT_LT(pos, values.size());
      EXPECT_EQ(values[pos].ToString(), scalar->ToString())
          << "round " << round << " row " << r;
      ++pos;
    }
    EXPECT_EQ(pos, values.size());
  }
}

}  // namespace
}  // namespace sl::expr
