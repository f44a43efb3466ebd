// Tests for the design-environment extensions: textual canvas rendering
// (static + live), the SCN command log, the schema text notation, CSV
// stream recording/replay, warehouse aggregate queries, and executor
// live annotations.

#include <gtest/gtest.h>

#include "core/streamloader.h"
#include "dataflow/render.h"
#include "exec/scn_log.h"
#include "sensors/generators.h"
#include "sensors/recording.h"
#include "stt/schema_text.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace sl {
namespace {

using dataflow::AggFunc;
using dataflow::DataflowBuilder;
using dataflow::SinkKind;
using sl::testing::TempSchema;
using sl::testing::TempTuple;

// ----------------------------------------------------------- schema text --

TEST(SchemaTextTest, ParsesFullNotation) {
  auto schema = stt::ParseSchemaText(
      "{temp:double[celsius]!, station:string} @1m/0.01deg "
      "theme=weather/temperature");
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ((*schema)->num_fields(), 2u);
  EXPECT_EQ((*schema)->fields()[0].name, "temp");
  EXPECT_EQ((*schema)->fields()[0].unit, "celsius");
  EXPECT_FALSE((*schema)->fields()[0].nullable);
  EXPECT_TRUE((*schema)->fields()[1].nullable);
  EXPECT_EQ((*schema)->temporal_granularity().period(), duration::kMinute);
  EXPECT_DOUBLE_EQ((*schema)->spatial_granularity().cell_deg(), 0.01);
  EXPECT_EQ((*schema)->theme().ToString(), "weather/temperature");
}

TEST(SchemaTextTest, DefaultsWhenPartsOmitted) {
  auto schema = stt::ParseSchemaText("{a:int}");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ((*schema)->temporal_granularity().period(), 1);
  EXPECT_TRUE((*schema)->spatial_granularity().is_point());
  EXPECT_TRUE((*schema)->theme().IsAny());
  // Empty schema.
  EXPECT_TRUE(stt::ParseSchemaText("{}").ok());
}

TEST(SchemaTextTest, Rejections) {
  EXPECT_FALSE(stt::ParseSchemaText("").ok());
  EXPECT_FALSE(stt::ParseSchemaText("a:int").ok());
  EXPECT_FALSE(stt::ParseSchemaText("{a}").ok());
  EXPECT_FALSE(stt::ParseSchemaText("{a:widget}").ok());
  EXPECT_FALSE(stt::ParseSchemaText("{a:int} junk").ok());
  EXPECT_FALSE(stt::ParseSchemaText("{a:int[m}").ok());
  EXPECT_FALSE(stt::ParseSchemaText("{1bad:int}").ok());
}

// Property: ToString -> Parse reproduces an equal schema.
TEST(SchemaTextTest, RoundTripsSchemaToString) {
  std::vector<stt::SchemaPtr> cases;
  cases.push_back(TempSchema());
  cases.push_back(sl::testing::RainSchema());
  cases.push_back(*stt::Schema::Make({}));
  cases.push_back(*stt::Schema::Make(
      {{"ts_col", stt::ValueType::kTimestamp, "", true},
       {"where", stt::ValueType::kGeoPoint, "", false},
       {"ok", stt::ValueType::kBool, "", true}},
      *stt::TemporalGranularity::Make(90000),
      *stt::SpatialGranularity::MakeCell(0.5),
      *stt::Theme::Parse("mobility/traffic")));
  for (const auto& schema : cases) {
    auto back = stt::ParseSchemaText(schema->ToString());
    ASSERT_TRUE(back.ok()) << schema->ToString() << "  " << back.status();
    EXPECT_TRUE((*back)->Equals(*schema)) << schema->ToString();
  }
}

// ------------------------------------------------------------- recording --

TEST(RecordingTest, CsvRoundTrip) {
  auto schema = TempSchema();
  std::vector<stt::Tuple> original = {
      TempTuple(schema, 24.5, 1458000000000, stt::GeoPoint{34.69, 135.5},
                "temp_01"),
      TempTuple(schema, 18.25, 1458000060000, std::nullopt, "temp_01"),
  };
  // A null in the nullable column.
  original.push_back(stt::Tuple::MakeUnsafe(
      schema, {stt::Value::Double(30.5), stt::Value::Null()}, 1458000120000,
      stt::GeoPoint{34.0, 135.0}, "temp_02"));

  auto csv = sensors::WriteRecordingCsv(original);
  ASSERT_TRUE(csv.ok()) << csv.status();
  auto parsed = sensors::ParseRecordingCsv(*csv, schema);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << *csv;
  ASSERT_EQ(parsed->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_TRUE((*parsed)[i].EqualsIgnoringSensor(original[i])) << i;
    EXPECT_EQ((*parsed)[i].sensor_id(), original[i].sensor_id()) << i;
  }
}

TEST(RecordingTest, QuotedStringsSurvive) {
  auto schema = *stt::Schema::Make(
      {{"text", stt::ValueType::kString, "", false}});
  std::vector<stt::Tuple> original = {stt::Tuple::MakeUnsafe(
      schema, {stt::Value::String("rain, \"heavy\" rain")}, 1000,
      std::nullopt, "tw")};
  auto csv = *sensors::WriteRecordingCsv(original);
  auto parsed = sensors::ParseRecordingCsv(csv, schema);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << csv;
  EXPECT_EQ((*parsed)[0].value(0).AsString(), "rain, \"heavy\" rain");
}

// Property: WriteRecordingCsv then ParseRecordingCsv is the identity on
// non-empty strings over letters, ',', '"', '\n', '\r' and space, in the
// last column, a middle column and the sensor id. (An empty string is
// written as an empty field, which reads back as null.)
TEST(RecordingTest, RandomStringsRoundTrip) {
  auto schema = *stt::Schema::Make({{"mid", stt::ValueType::kString, "", true},
                                    {"n", stt::ValueType::kInt, "", true},
                                    {"last", stt::ValueType::kString, "", true}});
  const std::string alphabet = "abXY,\"\n\r ";
  Rng rng(2016);
  auto random_string = [&] {
    std::string text(1 + rng.NextBounded(10), ' ');
    for (char& c : text) c = alphabet[rng.NextBounded(alphabet.size())];
    return text;
  };
  std::vector<stt::Tuple> original;
  for (int i = 0; i < 300; ++i) {
    std::string mid = random_string();
    std::string last = random_string();
    original.push_back(stt::Tuple::MakeUnsafe(
        schema,
        {stt::Value::String(std::move(mid)), stt::Value::Int(i),
         stt::Value::String(std::move(last))},
        1000 * i, std::nullopt, random_string()));
  }
  auto csv = sensors::WriteRecordingCsv(original);
  ASSERT_TRUE(csv.ok()) << csv.status();
  auto parsed = sensors::ParseRecordingCsv(*csv, schema);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*parsed)[i].sensor_id(), original[i].sensor_id()) << i;
    EXPECT_EQ((*parsed)[i].timestamp(), original[i].timestamp()) << i;
    EXPECT_EQ((*parsed)[i].values(), original[i].values()) << i;
  }
  // CRLF line endings are still accepted.
  std::string crlf;
  for (char c : std::string("ts,lat,lon,sensor,mid,n,last\n"
                            "1970-01-01T00:00:01.000Z,,,s,a,1,b \n")) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  auto from_crlf = sensors::ParseRecordingCsv(crlf, schema);
  ASSERT_TRUE(from_crlf.ok()) << from_crlf.status();
  ASSERT_EQ(from_crlf->size(), 1u);
  EXPECT_EQ((*from_crlf)[0].value(2).AsString(), "b ");
}

TEST(RecordingTest, ParserRejections) {
  auto schema = TempSchema();
  EXPECT_TRUE(sensors::ParseRecordingCsv("", schema)
                  .status().IsParseError());  // no header
  EXPECT_TRUE(sensors::ParseRecordingCsv("wrong,header\n", schema)
                  .status().IsParseError());
  std::string good_header = "ts,lat,lon,sensor,temp,station\n";
  EXPECT_TRUE(sensors::ParseRecordingCsv(
                  good_header + "not-a-time,1,2,s,20,x\n", schema)
                  .status().IsParseError());
  EXPECT_TRUE(sensors::ParseRecordingCsv(
                  good_header + "2016-03-15T00:00:00.000Z,1,2,s,NOTNUM,x\n",
                  schema)
                  .status().IsParseError());
  EXPECT_TRUE(sensors::ParseRecordingCsv(
                  good_header + "2016-03-15T00:00:00.000Z,1,2,s,20\n", schema)
                  .status().IsParseError());  // missing column
  EXPECT_TRUE(sensors::ParseRecordingCsv(
                  good_header + "2016-03-15T00:00:00.000Z,1,2,\"s,20,x\n",
                  schema)
                  .status().IsParseError());  // unterminated quoted field
  // Non-nullable column empty (temp is non-nullable).
  EXPECT_TRUE(sensors::ParseRecordingCsv(
                  good_header + "2016-03-15T00:00:00.000Z,1,2,s,,x\n", schema)
                  .status().IsTypeError());
  EXPECT_TRUE(sensors::WriteRecordingCsv({}).status().IsInvalidArgument());
}

TEST(RecordingTest, ReplaySensorFromCsvEmits) {
  net::EventLoop loop;
  pubsub::Broker broker(&loop.clock());
  sensors::SensorFleet fleet(&loop, &broker);

  auto schema = TempSchema();
  std::string csv =
      "ts,lat,lon,sensor,temp,station\n"
      "2016-03-15T00:00:00.000Z,34.69,135.50,rec,21.5,osaka\n"
      "2016-03-15T00:01:00.000Z,34.69,135.50,rec,22.5,osaka\n";
  pubsub::SensorInfo info;
  info.id = "rec";
  info.type = "temperature";
  info.schema = schema;
  info.period = duration::kSecond;
  info.location = stt::GeoPoint{34.69, 135.50};
  auto sensor = sensors::MakeReplaySensorFromCsv(info, csv);
  ASSERT_TRUE(sensor.ok()) << sensor.status();

  std::vector<double> seen;
  SL_ASSERT_OK(fleet.Add(std::move(sensor).ValueOrDie()));
  auto sub = broker.SubscribeData("rec", [&](const stt::TupleRef& t) {
    seen.push_back(t->value(0).AsDouble());
  });
  ASSERT_TRUE(sub.ok());
  loop.RunFor(3 * duration::kSecond);
  EXPECT_EQ(seen, (std::vector<double>{21.5, 22.5, 21.5}));  // cycles
}

// -------------------------------------------------------------- rendering --

TEST(RenderTest, CanvasShowsEveryNodeAndSchemas) {
  VirtualClock clock;
  pubsub::Broker broker(&clock);
  pubsub::SensorInfo info;
  info.id = "t1";
  info.type = "temperature";
  info.schema = TempSchema();
  info.period = duration::kMinute;
  info.location = stt::GeoPoint{34.69, 135.50};
  SL_ASSERT_OK(broker.Publish(info));

  auto df = *DataflowBuilder("view")
                 .AddSource("src", "t1")
                 .AddFilter("hot", "src", "temp > 25")
                 .AddAggregation("hourly", "hot", duration::kHour,
                                 AggFunc::kAvg, {"temp"})
                 .AddSink("store", "hourly", SinkKind::kWarehouse, "d")
                 .Build();
  dataflow::Validator validator(&broker);
  auto report = *validator.Validate(df);
  ASSERT_TRUE(report.ok());

  std::string canvas = dataflow::RenderCanvas(df, &report.schemas);
  EXPECT_NE(canvas.find("canvas 'view'"), std::string::npos);
  EXPECT_NE(canvas.find("[source src <- sensor t1]"), std::string::npos);
  EXPECT_NE(canvas.find("sigma(temp > 25)"), std::string::npos);
  EXPECT_NE(canvas.find("WAREHOUSE d"), std::string::npos);
  // Schema panel lines are present.
  EXPECT_NE(canvas.find("avg_temp:double[celsius]"), std::string::npos);
}

TEST(RenderTest, SharedNodeMarkedOnRepeat) {
  auto df = *DataflowBuilder("diamond")
                 .AddSource("s", "t1")
                 .AddFilter("a", "s", "true")
                 .AddFilter("b", "s", "true")
                 .AddJoin("j", "a", "b", duration::kMinute, "true")
                 .AddSink("o", "j", SinkKind::kCollect)
                 .Build();
  std::string canvas = dataflow::RenderCanvas(df);
  // The join is expanded once and referenced once with '^'.
  EXPECT_NE(canvas.find("^ j"), std::string::npos);
}

TEST(RenderTest, LiveCanvasShowsAnnotations) {
  auto df = *DataflowBuilder("live")
                 .AddSource("s", "t1")
                 .AddFilter("f", "s", "true")
                 .AddSink("o", "f", SinkKind::kCollect)
                 .Build();
  std::map<std::string, dataflow::NodeAnnotation> annotations;
  annotations["f"] = {"node_2", 120.5, 60.25, 42, 3};
  annotations["s"] = {"node_0", -1, -1, 0, 0};
  std::string live = dataflow::RenderLiveCanvas(df, annotations);
  EXPECT_NE(live.find("@node_2"), std::string::npos);
  EXPECT_NE(live.find("120.5->60.2"), std::string::npos);
  EXPECT_NE(live.find("cache=42"), std::string::npos);
  EXPECT_NE(live.find("fires=3"), std::string::npos);
  EXPECT_NE(live.find("@node_0"), std::string::npos);
}

// ----------------------------------------------------------- SCN command log --

TEST(ScnLogTest, RecordsAndRenders) {
  exec::ScnLog log;
  log.Record(1458000000000, exec::ScnCommandKind::kDeployService, 1, "hourly",
             "node_1");
  log.Record(1458000001000, exec::ScnCommandKind::kMigrateService, 1, "hourly",
             "node_1 => node_2");
  log.Record(1458000002000, exec::ScnCommandKind::kActivateStream, 0,
             "rain_01", "");
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.ForDeployment(1).size(), 2u);
  EXPECT_EQ(log.ForDeployment(7).size(), 0u);
  std::string script = log.ToScript();
  EXPECT_NE(script.find("DEPLOY_SERVICE hourly -> node_1"),
            std::string::npos);
  EXPECT_NE(script.find("MIGRATE_SERVICE hourly -> node_1 => node_2"),
            std::string::npos);
  EXPECT_NE(script.find("ACTIVATE_STREAM rain_01"), std::string::npos);
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
}

TEST(ScnLogTest, ExecutorRecordsFullLifecycle) {
  StreamLoaderOptions options;
  options.network_nodes = 4;
  StreamLoader loader(options);
  sensors::PhysicalConfig config;
  config.id = "t1";
  config.period = duration::kSecond;
  config.temporal_granularity = duration::kSecond;
  config.node_id = "node_0";
  SL_ASSERT_OK(loader.AddSensor(sensors::MakeTemperatureSensor(config)));
  auto dormant = sensors::MakeTemperatureSensor([] {
    sensors::PhysicalConfig c;
    c.id = "r1";
    c.period = duration::kSecond;
    c.temporal_granularity = duration::kSecond;
    c.node_id = "node_1";
    c.seed = 2;
    return c;
  }());
  SL_ASSERT_OK(loader.AddSensor(std::move(dormant), /*start_active=*/false));

  auto df = *loader.NewDataflow("lifecycle")
                 .AddSource("src", "t1")
                 .AddTriggerOn("trig", "src", duration::kMinute, "temp > -100",
                               {"r1"})
                 .AddSink("out", "trig", SinkKind::kCollect)
                 .Build();
  auto id = *loader.Deploy(df);
  loader.RunFor(duration::kMinute + duration::kSecond);
  std::string node = *loader.executor().AssignedNode(id, "trig");
  std::string target = node == "node_2" ? "node_3" : "node_2";
  SL_ASSERT_OK(loader.executor().MigrateOperator(id, "trig", target));
  SL_ASSERT_OK(loader.Undeploy(id));

  const exec::ScnLog& log = loader.executor().scn_log();
  std::map<exec::ScnCommandKind, int> kinds;
  for (const auto& cmd : log.commands()) kinds[cmd.kind]++;
  EXPECT_EQ(kinds[exec::ScnCommandKind::kBindSource], 1);
  EXPECT_EQ(kinds[exec::ScnCommandKind::kDeployService], 2);  // trig + out
  EXPECT_EQ(kinds[exec::ScnCommandKind::kConfigureFlow], 2);
  EXPECT_EQ(kinds[exec::ScnCommandKind::kStartDataflow], 1);
  EXPECT_GE(kinds[exec::ScnCommandKind::kActivateStream], 1);
  EXPECT_EQ(kinds[exec::ScnCommandKind::kMigrateService], 1);
  EXPECT_EQ(kinds[exec::ScnCommandKind::kStopDataflow], 1);
  // Deployment-scoped view excludes the global activations.
  for (const auto& cmd : log.ForDeployment(id)) {
    EXPECT_EQ(cmd.deployment, id);
  }
}

// ----------------------------------------------- warehouse aggregates --

TEST(WarehouseAggregateTest, BucketsAndStats) {
  sinks::EventDataWarehouse wh;
  auto schema = TempSchema();
  // Two buckets of one hour: [0,1h) holds 10,20; [1h,2h) holds 30.
  SL_ASSERT_OK(wh.Load("d", TempTuple(schema, 10, 0)));
  SL_ASSERT_OK(wh.Load("d", TempTuple(schema, 20, 30 * duration::kMinute)));
  SL_ASSERT_OK(wh.Load("d", TempTuple(schema, 30, 60 * duration::kMinute)));
  auto rows = wh.QueryAggregate("d", {}, "temp", duration::kHour);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].bucket_start, 0);
  EXPECT_EQ((*rows)[0].count, 2);
  EXPECT_DOUBLE_EQ((*rows)[0].avg, 15.0);
  EXPECT_DOUBLE_EQ((*rows)[0].min, 10.0);
  EXPECT_DOUBLE_EQ((*rows)[0].max, 20.0);
  EXPECT_DOUBLE_EQ((*rows)[0].sum, 30.0);
  EXPECT_EQ((*rows)[1].bucket_start, duration::kHour);
  EXPECT_EQ((*rows)[1].count, 1);
}

TEST(WarehouseAggregateTest, HonorsQueryFilters) {
  sinks::EventDataWarehouse wh;
  auto schema = TempSchema();
  for (int i = 0; i < 10; ++i) {
    SL_ASSERT_OK(wh.Load("d", TempTuple(schema, i, i * duration::kMinute)));
  }
  sinks::EventQuery q;
  q.condition = "temp >= 5";
  auto rows = wh.QueryAggregate("d", q, "temp", duration::kHour);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].count, 5);
  EXPECT_DOUBLE_EQ((*rows)[0].min, 5.0);
}

TEST(WarehouseAggregateTest, Rejections) {
  sinks::EventDataWarehouse wh;
  auto schema = TempSchema();
  SL_ASSERT_OK(wh.Load("d", TempTuple(schema, 1, 0)));
  EXPECT_TRUE(wh.QueryAggregate("ghost", {}, "temp", 1000)
                  .status().IsNotFound());
  EXPECT_TRUE(wh.QueryAggregate("d", {}, "station", 1000)
                  .status().IsTypeError());
  EXPECT_TRUE(wh.QueryAggregate("d", {}, "ghost", 1000)
                  .status().IsNotFound());
  EXPECT_TRUE(wh.QueryAggregate("d", {}, "temp", 0)
                  .status().IsInvalidArgument());
}

TEST(WarehouseCsvTest, ExportImportRoundTrip) {
  sinks::EventDataWarehouse wh;
  auto schema = TempSchema();
  for (int i = 0; i < 5; ++i) {
    SL_ASSERT_OK(wh.Load(
        "d", TempTuple(schema, 20.0 + i, i * duration::kMinute)));
  }
  auto csv = wh.ExportCsv("d");
  ASSERT_TRUE(csv.ok()) << csv.status();
  EXPECT_NE(csv->find("# schema: {temp:double[celsius]!"),
            std::string::npos);

  sinks::EventDataWarehouse other;
  SL_ASSERT_OK(other.ImportCsv("restored", *csv));
  EXPECT_EQ(other.DatasetSize("restored"), 5u);
  EXPECT_TRUE((*other.DatasetSchema("restored"))->Equals(*schema));
  // Queries behave identically on the restored dataset.
  sinks::EventQuery q;
  q.condition = "temp >= 22";
  EXPECT_EQ((*other.Query("restored", q)).size(), 3u);

  // The export is a valid replay-sensor recording too.
  pubsub::SensorInfo info;
  info.id = "replay";
  info.type = "temperature";
  info.schema = schema;
  info.period = duration::kSecond;
  info.location = stt::GeoPoint{34.69, 135.50};
  EXPECT_TRUE(sensors::MakeReplaySensorFromCsv(info, *csv).ok());

  EXPECT_TRUE(wh.ExportCsv("ghost").status().IsNotFound());
  EXPECT_TRUE(other.ImportCsv("x", "ts,lat,lon,sensor,temp\n")
                  .IsParseError());  // no schema comment
}

// -------------------------------------------------- live annotations --

TEST(LiveAnnotationsTest, ReflectPlacementAndRates) {
  StreamLoaderOptions options;
  options.network_nodes = 4;
  options.monitor_window = 10 * duration::kSecond;
  StreamLoader loader(options);
  sensors::PhysicalConfig config;
  config.id = "t1";
  config.period = duration::kSecond;
  config.temporal_granularity = duration::kSecond;
  config.node_id = "node_0";
  SL_ASSERT_OK(loader.AddSensor(sensors::MakeTemperatureSensor(config)));
  auto df = *loader.NewDataflow("live")
                 .AddSource("src", "t1")
                 .AddFilter("f", "src", "temp > -100")
                 .AddSink("o", "f", SinkKind::kCollect)
                 .Build();
  auto id = *loader.Deploy(df);
  loader.RunFor(20 * duration::kSecond);

  auto annotations = loader.executor().LiveAnnotations(id);
  ASSERT_TRUE(annotations.ok()) << annotations.status();
  ASSERT_EQ(annotations->size(), 3u);  // src, f, o
  EXPECT_EQ(annotations->at("src").node_id, "node_0");
  EXPECT_FALSE(annotations->at("f").node_id.empty());
  // The monitor tick populated the filter's rates.
  EXPECT_NEAR(annotations->at("f").in_per_sec, 1.0, 0.3);
  // Rendered live canvas carries the annotations.
  std::string live = dataflow::RenderLiveCanvas(
      **loader.executor().DeployedDataflow(id), *annotations);
  EXPECT_NE(live.find("@node_0"), std::string::npos);
  EXPECT_TRUE(loader.executor().LiveAnnotations(999).status().IsNotFound());
}

}  // namespace
}  // namespace sl
