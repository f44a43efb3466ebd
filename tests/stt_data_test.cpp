// Unit tests for values, schemas, tuples, batches and themes
// (src/stt/value.h, schema.h, tuple.h, theme.h).

#include <gtest/gtest.h>

#include <cmath>

#include "stt/schema.h"
#include "stt/theme.h"
#include "stt/tuple.h"
#include "stt/value.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace sl::stt {
namespace {

using sl::testing::TempSchema;
using sl::testing::TempTuple;

// ----------------------------------------------------------------- value --

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), ValueType::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).AsBool(), true);
  EXPECT_EQ(Value::Int(-7).AsInt(), -7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("x").AsString(), "x");
  EXPECT_EQ(Value::Time(1000).AsTime(), 1000);
  EXPECT_DOUBLE_EQ(Value::Geo({1, 2}).AsGeo().lat, 1.0);
}

TEST(ValueTest, ToNumeric) {
  EXPECT_DOUBLE_EQ(*Value::Int(3).ToNumeric(), 3.0);
  EXPECT_DOUBLE_EQ(*Value::Double(2.5).ToNumeric(), 2.5);
  EXPECT_TRUE(Value::String("x").ToNumeric().status().IsTypeError());
  EXPECT_TRUE(Value::Null().ToNumeric().status().IsTypeError());
}

TEST(ValueTest, CoerceSafePaths) {
  EXPECT_DOUBLE_EQ((*Value::Int(3).CoerceTo(ValueType::kDouble)).AsDouble(),
                   3.0);
  EXPECT_EQ((*Value::Double(3.9).CoerceTo(ValueType::kInt)).AsInt(), 3);
  EXPECT_EQ((*Value::Double(-3.9).CoerceTo(ValueType::kInt)).AsInt(), -3);
  EXPECT_EQ((*Value::Int(500).CoerceTo(ValueType::kTimestamp)).AsTime(), 500);
  EXPECT_EQ((*Value::Time(500).CoerceTo(ValueType::kInt)).AsInt(), 500);
  EXPECT_EQ((*Value::Int(5).CoerceTo(ValueType::kString)).AsString(), "5");
  // Null coerces to null.
  EXPECT_TRUE((*Value::Null().CoerceTo(ValueType::kInt)).is_null());
}

TEST(ValueTest, CoerceRejectsUnsafePaths) {
  EXPECT_TRUE(Value::String("5").CoerceTo(ValueType::kInt)
                  .status().IsTypeError());
  EXPECT_TRUE(Value::Bool(true).CoerceTo(ValueType::kInt)
                  .status().IsTypeError());
  EXPECT_TRUE(Value::Double(std::nan("")).CoerceTo(ValueType::kInt)
                  .status().IsTypeError());
}

TEST(ValueTest, EqualityAndCompare) {
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_NE(Value::Int(1), Value::Int(2));
  EXPECT_NE(Value::Int(1), Value::Double(1.0));  // typed equality
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_LT(Value::Compare(Value::Int(1), Value::Int(2)), 0);
  EXPECT_GT(Value::Compare(Value::String("b"), Value::String("a")), 0);
  EXPECT_EQ(Value::Compare(Value::Geo({1, 2}), Value::Geo({1, 2})), 0);
  EXPECT_LT(Value::Compare(Value::Geo({1, 2}), Value::Geo({1, 3})), 0);
  // Null sorts first (smallest type id).
  EXPECT_LT(Value::Compare(Value::Null(), Value::Int(0)), 0);
}

TEST(ValueTest, HashDistinguishesAndAgrees) {
  EXPECT_EQ(Value::Int(42).Hash(), Value::Int(42).Hash());
  EXPECT_NE(Value::Int(42).Hash(), Value::Int(43).Hash());
  EXPECT_NE(Value::Int(42).Hash(), Value::Time(42).Hash());  // type salted
  EXPECT_EQ(Value::String("ab").Hash(), Value::String("ab").Hash());
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::String("hi").ToString(), "hi");
  EXPECT_EQ(Value::Time(0).ToString(), "1970-01-01T00:00:00.000Z");
}

TEST(ValueTest, TypeNamesRoundTrip) {
  for (ValueType t : {ValueType::kNull, ValueType::kBool, ValueType::kInt,
                      ValueType::kDouble, ValueType::kString,
                      ValueType::kTimestamp, ValueType::kGeoPoint}) {
    auto back = ValueTypeFromString(ValueTypeToString(t));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, t);
  }
  EXPECT_FALSE(ValueTypeFromString("quaternion").ok());
}

// ----------------------------------------------------------------- theme --

TEST(ThemeTest, ParseAndToString) {
  auto t = Theme::Parse("weather/rain");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->depth(), 2u);
  EXPECT_EQ(t->ToString(), "weather/rain");
  EXPECT_TRUE((*Theme::Parse("")).IsAny());
  EXPECT_TRUE((*Theme::Parse("*")).IsAny());
  EXPECT_FALSE(Theme::Parse("weather/2bad!").ok());
  EXPECT_FALSE(Theme::Parse("a//b").ok());
}

TEST(ThemeTest, Subsumption) {
  auto weather = *Theme::Parse("weather");
  auto rain = *Theme::Parse("weather/rain");
  auto social = *Theme::Parse("social");
  EXPECT_TRUE(weather.Subsumes(rain));
  EXPECT_FALSE(rain.Subsumes(weather));
  EXPECT_TRUE(rain.Subsumes(rain));
  EXPECT_FALSE(weather.Subsumes(social));
  EXPECT_TRUE(Theme().Subsumes(social));
  EXPECT_TRUE(weather.ComparableWith(rain));
  EXPECT_FALSE(rain.ComparableWith(social));
}

TEST(ThemeTest, CommonAncestor) {
  auto rain = *Theme::Parse("weather/rain");
  auto temp = *Theme::Parse("weather/temperature");
  auto social = *Theme::Parse("social/tweet");
  EXPECT_EQ(rain.CommonAncestor(temp).ToString(), "weather");
  EXPECT_TRUE(rain.CommonAncestor(social).IsAny());
  EXPECT_EQ(rain.CommonAncestor(rain), rain);
}

TEST(ThemeTest, TaxonomyAddsAncestors) {
  ThemeTaxonomy tax;
  SL_EXPECT_OK(tax.Add(*Theme::Parse("a/b/c")));
  EXPECT_TRUE(tax.Contains(*Theme::Parse("a")));
  EXPECT_TRUE(tax.Contains(*Theme::Parse("a/b")));
  EXPECT_TRUE(tax.Contains(*Theme::Parse("a/b/c")));
  EXPECT_FALSE(tax.Contains(*Theme::Parse("a/b/c/d")));
  EXPECT_EQ(tax.Descendants(*Theme::Parse("a")).size(), 3u);
}

TEST(ThemeTest, DefaultTaxonomyCoversPaperDomains) {
  ThemeTaxonomy tax = ThemeTaxonomy::Default();
  EXPECT_TRUE(tax.Contains(*Theme::Parse("weather/temperature")));
  EXPECT_TRUE(tax.Contains(*Theme::Parse("social/tweet")));
  EXPECT_TRUE(tax.Contains(*Theme::Parse("mobility/traffic")));
  EXPECT_TRUE(tax.Contains(*Theme::Parse("disaster/flood")));
  EXPECT_GE(tax.Descendants(*Theme::Parse("weather")).size(), 6u);
}

// ---------------------------------------------------------------- schema --

TEST(SchemaTest, MakeRejectsBadFieldNames) {
  EXPECT_FALSE(Schema::Make({{"1bad", ValueType::kInt, "", true}}).ok());
  EXPECT_FALSE(Schema::Make({{"a", ValueType::kInt, "", true},
                             {"a", ValueType::kInt, "", true}})
                   .ok());
  EXPECT_TRUE(Schema::Make({}).ok());  // empty schema is legal
}

TEST(SchemaTest, FieldLookup) {
  auto schema = TempSchema();
  EXPECT_EQ(*schema->FieldIndex("temp"), 0u);
  EXPECT_EQ(*schema->FieldIndex("station"), 1u);
  EXPECT_TRUE(schema->FieldIndex("missing").status().IsNotFound());
  EXPECT_TRUE(schema->HasField("temp"));
  EXPECT_FALSE(schema->HasField("missing"));
  EXPECT_EQ((*schema->FieldByName("temp")).unit, "celsius");
}

TEST(SchemaTest, AddFieldAndProject) {
  auto schema = TempSchema();
  auto wider = schema->AddField({"feels", ValueType::kDouble, "celsius", true});
  ASSERT_TRUE(wider.ok());
  EXPECT_EQ((*wider)->num_fields(), 3u);
  EXPECT_TRUE(schema->AddField({"temp", ValueType::kInt, "", true})
                  .status().IsAlreadyExists());

  auto narrow = (*wider)->Project({"feels", "temp"});
  ASSERT_TRUE(narrow.ok());
  EXPECT_EQ((*narrow)->fields()[0].name, "feels");
  EXPECT_EQ((*narrow)->fields()[1].name, "temp");
  EXPECT_FALSE(schema->Project({"nope"}).ok());
}

TEST(SchemaTest, WithFieldChangedAndStt) {
  auto schema = TempSchema();
  auto changed = schema->WithFieldChanged("temp", ValueType::kDouble,
                                          "fahrenheit");
  ASSERT_TRUE(changed.ok());
  EXPECT_EQ((*changed)->fields()[0].unit, "fahrenheit");
  EXPECT_FALSE(schema->Equals(**changed));

  auto coarser = schema->WithStt(TemporalGranularity::Hour(),
                                 SpatialGranularity::Point(),
                                 schema->theme());
  EXPECT_EQ(coarser->temporal_granularity(), TemporalGranularity::Hour());
  EXPECT_EQ(coarser->fields(), schema->fields());
}

TEST(SchemaTest, ToStringIsInformative) {
  std::string s = TempSchema()->ToString();
  EXPECT_NE(s.find("temp:double[celsius]!"), std::string::npos);
  EXPECT_NE(s.find("@1m"), std::string::npos);
  EXPECT_NE(s.find("weather/temperature"), std::string::npos);
}

// ----------------------------------------------------------------- tuple --

TEST(TupleTest, MakeValidates) {
  auto schema = TempSchema();
  auto ok = Tuple::Make(schema, {Value::Double(20.0), Value::String("s")},
                        1000, GeoPoint{34, 135}, "t1");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->timestamp(), 1000);
  EXPECT_EQ(ok->sensor_id(), "t1");
  ASSERT_TRUE(ok->location().has_value());

  // Arity mismatch.
  EXPECT_TRUE(Tuple::Make(schema, {Value::Double(1.0)}, 0, std::nullopt)
                  .status().IsTypeError());
  // Type mismatch.
  EXPECT_TRUE(Tuple::Make(schema, {Value::Int(1), Value::String("s")}, 0,
                          std::nullopt)
                  .status().IsTypeError());
  // Null in non-nullable field.
  EXPECT_TRUE(Tuple::Make(schema, {Value::Null(), Value::String("s")}, 0,
                          std::nullopt)
                  .status().IsTypeError());
  // Null in nullable field is fine.
  EXPECT_TRUE(Tuple::Make(schema, {Value::Double(1.0), Value::Null()}, 0,
                          std::nullopt)
                  .ok());
  EXPECT_TRUE(Tuple::Make(nullptr, {}, 0, std::nullopt)
                  .status().IsInvalidArgument());
}

TEST(TupleTest, ValueByNameAndDerivations) {
  auto schema = TempSchema();
  Tuple t = TempTuple(schema, 21.5, 5000);
  EXPECT_DOUBLE_EQ((*t.ValueByName("temp")).AsDouble(), 21.5);
  EXPECT_TRUE(t.ValueByName("ghost").status().IsNotFound());

  auto wider = *schema->AddField({"extra", ValueType::kInt, "", true});
  TupleRef appended = t.WithAppended(wider, Value::Int(9));
  EXPECT_EQ(appended->values().size(), 3u);
  EXPECT_EQ(appended->value(2).AsInt(), 9);
  EXPECT_EQ(appended->timestamp(), t.timestamp());

  TupleRef replaced = t.WithValueAt(schema, 0, Value::Double(0.0));
  EXPECT_DOUBLE_EQ(replaced->value(0).AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(t.value(0).AsDouble(), 21.5);  // original untouched

  TupleRef restamped = t.WithStt(schema, 99999, std::nullopt);
  EXPECT_EQ(restamped->timestamp(), 99999);
  EXPECT_FALSE(restamped->location().has_value());
}

TEST(TupleTest, EqualsIgnoringSensor) {
  auto schema = TempSchema();
  Tuple a = TempTuple(schema, 1.0, 10, GeoPoint{1, 2}, "s1");
  Tuple b = TempTuple(schema, 1.0, 10, GeoPoint{1, 2}, "s2");
  Tuple c = TempTuple(schema, 2.0, 10, GeoPoint{1, 2}, "s1");
  EXPECT_TRUE(a.EqualsIgnoringSensor(b));
  EXPECT_FALSE(a.EqualsIgnoringSensor(c));
  EXPECT_FALSE(a.EqualsIgnoringSensor(
      TempTuple(schema, 1.0, 11, GeoPoint{1, 2})));
  EXPECT_FALSE(a.EqualsIgnoringSensor(
      TempTuple(schema, 1.0, 10, std::nullopt)));
}

}  // namespace
}  // namespace sl::stt
