// Unit tests for the load targets (src/sinks): Event Data Warehouse with
// STT queries, visualization (GeoJSON) sink, CSV sink, factory.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "sinks/factory.h"
#include "sinks/streams.h"
#include "sinks/warehouse.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace sl::sinks {
namespace {

using sl::testing::TempSchema;
using sl::testing::TempTuple;
using stt::Value;

class WarehouseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = TempSchema();
    // Ten readings, one per minute, alternating stations.
    for (int i = 0; i < 10; ++i) {
      stt::GeoPoint loc =
          i % 2 == 0 ? stt::GeoPoint{34.5, 135.5} : stt::GeoPoint{36.0, 137.0};
      stt::Tuple t = stt::Tuple::MakeUnsafe(
          schema,
          {Value::Double(15.0 + i), Value::String(i % 2 ? "kyoto" : "osaka")},
          i * duration::kMinute, loc, "t1");
      SL_ASSERT_OK(wh_.Load("readings", t));
    }
  }
  EventDataWarehouse wh_;
};

TEST_F(WarehouseTest, LoadAndIntrospect) {
  EXPECT_EQ(wh_.DatasetNames(), (std::vector<std::string>{"readings"}));
  EXPECT_EQ(wh_.DatasetSize("readings"), 10u);
  EXPECT_EQ(wh_.DatasetSize("ghost"), 0u);
  EXPECT_EQ(wh_.total_events(), 10u);
  ASSERT_TRUE(wh_.DatasetSchema("readings").ok());
  EXPECT_TRUE(wh_.DatasetSchema("ghost").status().IsNotFound());
}

TEST_F(WarehouseTest, RejectsBadDatasetAndSchemaDrift) {
  auto schema = TempSchema();
  EXPECT_TRUE(wh_.Load("bad name", TempTuple(schema, 1, 0))
                  .IsInvalidArgument());
  // A different schema in the same dataset is rejected.
  auto other = sl::testing::RainSchema();
  EXPECT_TRUE(wh_.Load("readings",
                       sl::testing::RainTuple(other, 1.0, 0))
                  .IsTypeError());
}

TEST_F(WarehouseTest, QueryByTimeRange) {
  EventQuery q;
  q.time_begin = 2 * duration::kMinute;
  q.time_end = 5 * duration::kMinute;
  auto rows = wh_.Query("readings", q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);  // minutes 2,3,4,5 inclusive
  for (const auto& r : *rows) {
    EXPECT_GE(r->timestamp(), *q.time_begin);
    EXPECT_LE(r->timestamp(), *q.time_end);
  }
}

TEST_F(WarehouseTest, QueryByArea) {
  EventQuery q;
  q.area = stt::BBox{{34.0, 135.0}, {35.0, 136.0}};
  auto rows = wh_.Query("readings", q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);  // only the osaka half
}

TEST_F(WarehouseTest, QueryByTheme) {
  EventQuery q;
  q.theme = *stt::Theme::Parse("weather");
  EXPECT_EQ((*wh_.Query("readings", q)).size(), 10u);
  q.theme = *stt::Theme::Parse("social");
  EXPECT_TRUE((*wh_.Query("readings", q)).empty());
}

TEST_F(WarehouseTest, QueryByCondition) {
  EventQuery q;
  q.condition = "temp >= 20 and station == 'osaka'";
  auto rows = wh_.Query("readings", q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);  // osaka temps 21 and 23
  EventQuery bad;
  bad.condition = "ghost > 1";
  EXPECT_FALSE(wh_.Query("readings", bad).ok());
}

TEST_F(WarehouseTest, QueryLimitAndCombined) {
  EventQuery q;
  q.time_begin = 0;
  q.time_end = duration::kHour;
  q.condition = "temp > 15";
  q.limit = 3;
  auto rows = wh_.Query("readings", q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  // Results in event-time order.
  EXPECT_LT((*rows)[0]->timestamp(), (*rows)[2]->timestamp());
  EXPECT_TRUE(wh_.Query("ghost", q).status().IsNotFound());
}

TEST_F(WarehouseTest, OutOfOrderLoadKeepsTimeOrder) {
  auto schema = TempSchema();
  SL_ASSERT_OK(wh_.Load("readings",
                        TempTuple(schema, 99.0, 90 * duration::kSecond)));
  EventQuery q;
  auto rows = *wh_.Query("readings", q);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1]->timestamp(), rows[i]->timestamp());
  }
}

TEST_F(WarehouseTest, DropDataset) {
  wh_.DropDataset("readings");
  EXPECT_EQ(wh_.DatasetSize("readings"), 0u);
  EXPECT_EQ(wh_.total_events(), 0u);
  wh_.DropDataset("readings");  // idempotent
}

TEST(WarehouseSinkTest, WritesThrough) {
  EventDataWarehouse wh;
  WarehouseSink sink("s", &wh, "ds");
  auto schema = TempSchema();
  SL_EXPECT_OK(sink.Write(TempTuple(schema, 20.0, 0)));
  EXPECT_EQ(sink.tuples_written(), 1u);
  EXPECT_EQ(wh.DatasetSize("ds"), 1u);
  EXPECT_EQ(sink.dataset(), "ds");
}

// --------------------------------------------------------- visualization --

TEST(VisualizationSinkTest, EmitsGeoJsonFeatures) {
  VisualizationSink sink("vis");
  auto schema = TempSchema();
  SL_EXPECT_OK(sink.Write(TempTuple(schema, 21.5, 1458000000000,
                                    stt::GeoPoint{34.69, 135.50}, "t1")));
  ASSERT_EQ(sink.lines().size(), 1u);
  const std::string& line = sink.lines()[0];
  EXPECT_NE(line.find("\"type\":\"Feature\""), std::string::npos);
  EXPECT_NE(line.find("\"coordinates\":[135.5,34.69]"), std::string::npos);
  EXPECT_NE(line.find("\"temp\":21.5"), std::string::npos);
  EXPECT_NE(line.find("\"theme\":\"weather/temperature\""), std::string::npos);
  EXPECT_NE(line.find("\"sensor\":\"t1\""), std::string::npos);
  EXPECT_NE(line.find("2016-03-15T00:00:00.000Z"), std::string::npos);
}

TEST(VisualizationSinkTest, NullGeometryWithoutLocation) {
  VisualizationSink sink("vis");
  auto schema = TempSchema();
  SL_EXPECT_OK(sink.Write(TempTuple(schema, 1.0, 0, std::nullopt)));
  EXPECT_NE(sink.lines()[0].find("\"geometry\":null"), std::string::npos);
}

TEST(VisualizationSinkTest, ConsumerReceivesLines) {
  std::vector<std::string> received;
  VisualizationSink sink("vis",
                         [&](const std::string& l) { received.push_back(l); });
  auto schema = TempSchema();
  SL_EXPECT_OK(sink.Write(TempTuple(schema, 1.0, 0)));
  EXPECT_EQ(received.size(), 1u);
  EXPECT_TRUE(sink.lines().empty());  // not double-buffered
}

// ------------------------------------------------------------------- csv --

TEST(CsvSinkTest, HeaderThenRows) {
  CsvSink sink("csv");
  auto schema = TempSchema();
  SL_EXPECT_OK(sink.Write(TempTuple(schema, 21.5, 60000)));
  SL_EXPECT_OK(sink.Write(TempTuple(schema, 22.5, 120000, std::nullopt)));
  ASSERT_EQ(sink.lines().size(), 3u);
  EXPECT_EQ(sink.lines()[0], "ts,lat,lon,sensor,temp,station");
  EXPECT_NE(sink.lines()[1].find("21.5,osaka"), std::string::npos);
  // Second row has empty lat/lon.
  EXPECT_NE(sink.lines()[2].find(",,"), std::string::npos);
}

TEST(CsvSinkTest, QuotesSpecialCharacters) {
  CsvSink sink("csv");
  auto schema = *stt::Schema::Make(
      {{"text", stt::ValueType::kString, "", false}});
  auto t = stt::Tuple::MakeUnsafe(
      schema, {Value::String("hello, \"world\"")}, 0, std::nullopt, "s");
  SL_EXPECT_OK(sink.Write(t));
  EXPECT_NE(sink.lines()[1].find("\"hello, \"\"world\"\"\""),
            std::string::npos);
}

TEST(CsvSinkTest, QuotesCarriageReturns) {
  // '\r' is quoted too, so a value ending in it is not read back as the
  // end of a CRLF line.
  CsvSink sink("csv");
  auto schema = *stt::Schema::Make(
      {{"text", stt::ValueType::kString, "", false}});
  SL_EXPECT_OK(sink.Write(stt::Tuple::MakeUnsafe(
      schema, {Value::String("end\r")}, 0, std::nullopt, "s")));
  EXPECT_EQ(sink.lines()[1], "1970-01-01T00:00:00.000Z,,,s,\"end\r\"");
}

// ------------------------------------------- encoder identity battery --
// The in-place encoder must emit exactly what the printf forms in
// tests/test_util.h emit.

/// Seeded doubles: uniform draws at several magnitudes, raw 64-bit
/// patterns (NaN payloads of both signs, infinities, subnormals), the
/// special values, and exact rounding ties of "%.10g" and "%.6f".
std::vector<double> IdentityDoubles(uint64_t seed, size_t n) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> out = {
      nan, -nan, inf, -inf, 0.0, -0.0, 5e-324, -5e-324,
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(), 1e308, -1e308, 1e-5, 1e-4,
      123456789.0, 1234567890.0, 12345678901.0, 9999999999.5, 0.5, 1.5,
      2.5, 0.0078125, 0.0234375, -0.0078125, 34.69, 135.5};
  Rng rng(seed);
  while (out.size() < n) {
    switch (rng.NextBounded(6)) {
      case 0: out.push_back(rng.NextDouble(-200.0, 200.0)); break;
      case 1: out.push_back(rng.NextDouble(-1e12, 1e12)); break;
      case 2:
        out.push_back(rng.NextDouble(0.5, 1.0) *
                      std::pow(10.0, rng.NextInt(-320, 308)));
        break;
      case 3:
      case 4: {
        const uint64_t bits = rng.Next();
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        out.push_back(d);
        break;
      }
      default: {
        // 11 significant digits ending in 5 (a "%.10g" tie) and an odd
        // multiple of 2^-7 (7 decimals ending in 5, a "%.6f" tie).
        const auto k = static_cast<double>(
            rng.NextInt(1000000000LL, 9999999999LL));
        out.push_back((rng.NextBounded(2) ? 1 : -1) * (k + 0.5) /
                      std::pow(10.0, rng.NextInt(0, 9)));
        out.push_back(k + 0.5);
        out.push_back(static_cast<double>(2 * rng.NextInt(0, 100000) + 1) *
                      0.0078125);
        break;
      }
    }
  }
  return out;
}

TEST(CsvEncoderTest, ValueDisplayFormMatchesPrintf) {
  std::vector<Value> values = {
      Value::Null(), Value::Bool(true), Value::Bool(false),
      Value::Int(std::numeric_limits<int64_t>::min()),
      Value::Int(std::numeric_limits<int64_t>::max()), Value::Int(0),
      Value::Int(-1), Value::String(""), Value::String("a, \"b\"\n"),
      Value::Time(std::numeric_limits<int64_t>::min()),
      Value::Time(std::numeric_limits<int64_t>::max()), Value::Time(-1),
      Value::Geo({34.69, 135.5}), Value::Geo({1e308, -1e308})};
  for (double d : IdentityDoubles(1, 120000)) values.push_back(Value::Double(d));
  const std::vector<double> coords = IdentityDoubles(2, 2000);
  for (size_t i = 0; i + 1 < coords.size(); i += 2) {
    values.push_back(Value::Geo({coords[i], coords[i + 1]}));
  }
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    values.push_back(Value::Int(static_cast<int64_t>(rng.Next())));
    values.push_back(Value::Time(static_cast<int64_t>(rng.Next())));
  }
  for (const Value& v : values) {
    const std::string want = sl::testing::PrintfValue(v);
    ASSERT_EQ(v.ToString(), want);
    std::string appended = "x";
    v.AppendTo(&appended);
    ASSERT_EQ(appended, "x" + want);
  }
}

TEST(CsvEncoderTest, CsvRowsMatchPrintf) {
  auto schema = *stt::Schema::Make(
      {{"d", stt::ValueType::kDouble, "", true},
       {"i", stt::ValueType::kInt, "", true},
       {"b", stt::ValueType::kBool, "", true},
       {"s", stt::ValueType::kString, "", true},
       {"t", stt::ValueType::kTimestamp, "", true},
       {"g", stt::ValueType::kGeoPoint, "", true},
       {"e", stt::ValueType::kDouble, "", true}});
  const std::vector<std::string> strings = {
      "osaka", "", " lead", "trail ", "a,b", "say \"hi\"", "\"", "two\nlines",
      ",\",\n"};
  const std::vector<double> doubles = IdentityDoubles(4, 120000);
  std::string last;
  size_t lines = 0;
  CsvSink sink("csv", [&](const std::string& line) {
    last = line;
    ++lines;
  });
  Rng rng(5);
  for (size_t i = 0; i + 3 < doubles.size(); i += 3) {
    auto pick = [&](Value v) { return rng.NextBounded(8) == 0 ? Value() : v; };
    std::optional<stt::GeoPoint> loc;
    if (rng.NextBounded(4) != 0) loc = stt::GeoPoint{doubles[i], doubles[i + 1]};
    const auto ts = static_cast<Timestamp>(rng.Next());
    const std::string& sensor = strings[rng.NextBounded(strings.size())];
    // A braced list evaluates left to right, so the draws stay seeded.
    std::vector<Value> row = {
        pick(Value::Double(doubles[i + 2])),
        pick(Value::Int(static_cast<int64_t>(rng.Next()))),
        pick(Value::Bool(rng.NextBounded(2) == 0)),
        pick(Value::String(strings[rng.NextBounded(strings.size())])),
        pick(Value::Time(rng.NextInt(-100000000000000LL, 300000000000000LL))),
        pick(Value::Geo({doubles[i + 3], doubles[i]})),
        pick(Value::Double(doubles[i + 1]))};
    stt::Tuple t =
        stt::Tuple::MakeUnsafe(schema, std::move(row), ts, loc, sensor);
    SL_ASSERT_OK(sink.WriteRow(t));
    ASSERT_EQ(last, sl::testing::PrintfCsvRow(t)) << i;
  }
  EXPECT_EQ(lines, 1 + (doubles.size() - 1) / 3);  // header + every row
}

// --------------------------------------------------------------- factory --

TEST(SinkFactoryTest, BuildsEveryKind) {
  EventDataWarehouse wh;
  SinkContext ctx;
  ctx.warehouse = &wh;
  for (auto kind :
       {dataflow::SinkKind::kWarehouse, dataflow::SinkKind::kVisualization,
        dataflow::SinkKind::kCsv, dataflow::SinkKind::kCollect}) {
    auto sink = MakeSink("s", kind, "ds", ctx);
    ASSERT_TRUE(sink.ok()) << dataflow::SinkKindToString(kind);
  }
}

TEST(SinkFactoryTest, WarehouseNeedsContext) {
  SinkContext empty;
  EXPECT_TRUE(MakeSink("s", dataflow::SinkKind::kWarehouse, "ds", empty)
                  .status().IsInvalidArgument());
}

TEST(SinkFactoryTest, CollectSinkCollects) {
  SinkContext ctx;
  auto sink = std::move(MakeSink("s", dataflow::SinkKind::kCollect, "", ctx)).ValueOrDie();
  auto schema = TempSchema();
  SL_EXPECT_OK(sink->Write(TempTuple(schema, 1.0, 0)));
  auto* collect = dynamic_cast<CollectSink*>(sink.get());
  ASSERT_NE(collect, nullptr);
  EXPECT_EQ(collect->tuples().size(), 1u);
  collect->Clear();
  EXPECT_TRUE(collect->tuples().empty());
}

}  // namespace
}  // namespace sl::sinks
