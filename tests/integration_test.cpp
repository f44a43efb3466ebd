// Integration tests over the StreamLoader facade (src/core): the full
// paper pipeline — discovery, design, validation, sample debugging,
// DSN translation, network deployment, triggering, monitoring,
// warehouse loading, and P3-style live reconfiguration.

#include <gtest/gtest.h>

#include "core/streamloader.h"
#include "sensors/osaka.h"
#include "tests/test_util.h"

namespace sl {
namespace {

using dataflow::AggFunc;
using dataflow::SinkKind;

StreamLoaderOptions FastOptions() {
  StreamLoaderOptions options;
  options.network_nodes = 4;
  options.monitor_window = duration::kMinute;
  return options;
}

std::unique_ptr<sensors::SensorSimulator> FastTempSensor(
    const std::string& id, const std::string& node, uint64_t seed = 1) {
  sensors::PhysicalConfig config;
  config.id = id;
  config.period = duration::kSecond;
  config.temporal_granularity = duration::kSecond;
  config.node_id = node;
  config.seed = seed;
  return sensors::MakeTemperatureSensor(config);
}

TEST(StreamLoaderTest, FullDesignDeployMonitorCycle) {
  StreamLoader loader(FastOptions());
  SL_ASSERT_OK(loader.AddSensor(FastTempSensor("t1", "node_0")));

  // Discovery.
  EXPECT_EQ(loader.broker().All().size(), 1u);

  // Design + validation.
  auto df = loader.NewDataflow("full")
                .AddSource("src", "t1")
                .AddFilter("any", "src", "temp > -100")
                .AddVirtualProperty("tagged", "any", "hour", "hour_of($ts)")
                .AddSink("store", "tagged", SinkKind::kWarehouse, "d1")
                .Build();
  ASSERT_TRUE(df.ok()) << df.status();
  auto report = loader.Validate(*df);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->ToString();

  // Translation produces parseable DSN text.
  auto dsn_text = loader.Translate(*df);
  ASSERT_TRUE(dsn_text.ok()) << dsn_text.status();
  EXPECT_NE(dsn_text->find("dataflow full {"), std::string::npos);

  // Deployment through the full textual path.
  auto id = loader.Deploy(*df);
  ASSERT_TRUE(id.ok()) << id.status();
  loader.RunFor(2 * duration::kMinute + 100);

  // Data landed in the warehouse.
  EXPECT_EQ(loader.warehouse().DatasetSize("d1"), 120u);
  // Monitoring produced reports.
  ASSERT_NE(loader.monitor().latest(), nullptr);
  EXPECT_FALSE(loader.MonitorView().empty());
  EXPECT_GE(loader.monitor().reports().size(), 2u);
  // Undeploy stops the flow.
  SL_EXPECT_OK(loader.Undeploy(*id));
  size_t frozen = loader.warehouse().DatasetSize("d1");
  loader.RunFor(duration::kMinute);
  EXPECT_EQ(loader.warehouse().DatasetSize("d1"), frozen);
}

TEST(StreamLoaderTest, TranslateRefusesUnsoundDataflow) {
  StreamLoader loader(FastOptions());
  auto df = *loader.NewDataflow("broken")
                 .AddSource("src", "ghost")
                 .AddSink("out", "src", SinkKind::kCollect)
                 .Build();
  EXPECT_TRUE(loader.Translate(df).status().IsValidationError());
  EXPECT_TRUE(loader.Deploy(df).status().IsValidationError());
}

TEST(StreamLoaderTest, ExecutorOptionsReachTheExecutor) {
  // The session builds its executor with options.executor unchanged: an
  // event-time watermark that routes late data to a side output gives a
  // deployed aggregation a late sink, which a default session does not.
  auto has_late_sink = [](const StreamLoaderOptions& options) {
    StreamLoader loader(options);
    EXPECT_TRUE(loader.AddSensor(FastTempSensor("t1", "node_0")).ok());
    auto df = *loader.NewDataflow("late")
                   .AddSource("src", "t1")
                   .AddAggregation("avg", "src", duration::kMinute,
                                   AggFunc::kAvg, {"temp"})
                   .AddSink("out", "avg", SinkKind::kCollect)
                   .Build();
    auto id = loader.Deploy(df);
    EXPECT_TRUE(id.ok()) << id.status();
    if (!id.ok()) return false;
    auto late = loader.executor().LateSinkOf(*id);
    EXPECT_TRUE(late.ok()) << late.status();
    return late.ok() && *late != nullptr;
  };
  StreamLoaderOptions event_time = FastOptions();
  event_time.executor.watermark.time_policy = ops::TimePolicy::kEvent;
  event_time.executor.watermark.late_policy = ops::LatePolicy::kSideOutput;
  EXPECT_TRUE(has_late_sink(event_time));
  EXPECT_FALSE(has_late_sink(FastOptions()));
}

TEST(StreamLoaderTest, DebugRunMatchesDeployedSemantics) {
  StreamLoader loader(FastOptions());
  SL_ASSERT_OK(loader.AddSensor(FastTempSensor("t1", "node_0")));
  auto df = *loader.NewDataflow("dbg")
                 .AddSource("src", "t1")
                 .AddFilter("hot", "src", "temp > 17")
                 .AddSink("out", "hot", SinkKind::kCollect)
                 .Build();
  auto schema = (*loader.broker().Find("t1")).schema;
  std::map<std::string, std::vector<stt::Tuple>> samples;
  samples["src"] = {
      stt::Tuple::MakeUnsafe(schema, {stt::Value::Double(15.0),
                                      stt::Value::String("a")},
                             1000, std::nullopt, "t1"),
      stt::Tuple::MakeUnsafe(schema, {stt::Value::Double(18.0),
                                      stt::Value::String("b")},
                             2000, std::nullopt, "t1"),
  };
  auto result = loader.DebugRun(df, samples);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->outputs.at("hot").size(), 1u);
  EXPECT_EQ(result->outputs.at("out").size(), 1u);
}

TEST(StreamLoaderTest, OsakaScenarioTriggersReactiveAcquisition) {
  // The §3 scenario end-to-end with a fast clock: hourly mean
  // temperature > 25 C activates rain/tweet/traffic streams.
  StreamLoaderOptions options;
  options.network_nodes = 6;
  options.monitor_window = 10 * duration::kMinute;
  options.start_time = 1458000000000 + 10 * duration::kHour;  // mid-morning
  StreamLoader loader(options);

  sensors::OsakaFleetOptions fleet_options;
  fleet_options.node_ids = {"node_0", "node_1", "node_2",
                            "node_3", "node_4", "node_5"};
  auto manifest = sensors::BuildOsakaFleet(&loader.fleet(), fleet_options);
  ASSERT_TRUE(manifest.ok()) << manifest.status();

  auto df = loader.NewDataflow("osaka")
                .AddSource("t", manifest->temperature[0])
                .AddAggregation("hourly", "t", duration::kHour, AggFunc::kAvg,
                                {"temp"})
                .AddTriggerOn("hot", "hourly", duration::kHour,
                              "avg_temp > 25", manifest->reactive())
                .AddSink("track", "hot", SinkKind::kWarehouse, "hourly_temp")
                .AddSource("rain", manifest->rain[0])
                .AddFilter("torrential", "rain", "rain > 10")
                .AddSink("alerts", "torrential", SinkKind::kWarehouse,
                         "torrential")
                .Build();
  ASSERT_TRUE(df.ok()) << df.status();
  auto id = loader.Deploy(*df);
  ASSERT_TRUE(id.ok()) << id.status();

  // Before the hot hours, reactive sensors are silent.
  EXPECT_FALSE((*loader.fleet().Find(manifest->rain[0]))->running());
  loader.RunFor(8 * duration::kHour);

  auto trigger_stats = *loader.executor().OperatorStatsOf(*id, "hot");
  EXPECT_GE(trigger_stats.trigger_fires, 1u);
  EXPECT_TRUE((*loader.fleet().Find(manifest->rain[0]))->running());
  EXPECT_TRUE((*loader.fleet().Find(manifest->tweets[0]))->running());
  EXPECT_GT(loader.warehouse().DatasetSize("hourly_temp"), 0u);

  // The trigger reaction is bounded by its interval: the first fire
  // happened within one check interval of the first hot hour.
  sinks::EventQuery hot_query;
  hot_query.condition = "avg_temp > 25";
  auto rows = *loader.warehouse().Query("hourly_temp", hot_query);
  ASSERT_FALSE(rows.empty());
  EXPECT_GE((*loader.executor().stats(*id))->activations, 1u);
}

TEST(StreamLoaderTest, PlugAndPlayWhileRunning) {
  StreamLoader loader(FastOptions());
  SL_ASSERT_OK(loader.AddSensor(FastTempSensor("t1", "node_0", 1)));
  auto df = *loader.NewDataflow("pnp")
                 .AddSource("src", "t1")
                 .AddFilter("keep", "src", "temp > -100")
                 .AddSink("out", "keep", SinkKind::kCollect)
                 .Build();
  auto id = *loader.Deploy(df);
  loader.RunFor(30 * duration::kSecond);

  // New sensor joins mid-run; discovery sees it immediately.
  int joins = 0;
  loader.broker().SubscribeRegistry(
      [&](const pubsub::SensorEvent& e) {
        if (e.kind == pubsub::SensorEvent::Kind::kPublished) ++joins;
      });
  SL_ASSERT_OK(loader.AddSensor(FastTempSensor("t2", "node_2", 2)));
  EXPECT_EQ(joins, 1);
  pubsub::DiscoveryQuery q;
  q.type = "temperature";
  EXPECT_EQ(loader.broker().Discover(q).size(), 2u);

  // Operator modified on the fly.
  SL_EXPECT_OK(loader.executor().ReplaceOperator(
      id, "keep", dataflow::FilterSpec{"temp > 1000"}));
  loader.RunFor(200);  // drain tuples already in flight past the filter
  uint64_t delivered = (*loader.executor().stats(id))->tuples_delivered;
  loader.RunFor(30 * duration::kSecond);
  EXPECT_EQ((*loader.executor().stats(id))->tuples_delivered, delivered);

  // Manual migration while running.
  std::string node = *loader.executor().AssignedNode(id, "keep");
  std::string target = node == "node_1" ? "node_2" : "node_1";
  SL_EXPECT_OK(loader.executor().MigrateOperator(id, "keep", target));
  EXPECT_EQ(*loader.executor().AssignedNode(id, "keep"), target);
  // Sensor leaves.
  SL_EXPECT_OK(loader.fleet().Remove("t2"));
  EXPECT_FALSE(loader.broker().IsPublished("t2"));
  loader.RunFor(10 * duration::kSecond);  // system stays healthy
  EXPECT_EQ((*loader.executor().stats(id))->process_errors, 0u);
}

TEST(StreamLoaderTest, HeterogeneousUnitsReconciledEndToEnd) {
  // A Fahrenheit sensor and a Celsius sensor feed one comparison join.
  StreamLoader loader(FastOptions());
  sensors::PhysicalConfig c;
  c.id = "tc";
  c.period = duration::kSecond;
  c.temporal_granularity = duration::kSecond;
  c.node_id = "node_0";
  c.seed = 1;
  SL_ASSERT_OK(loader.AddSensor(sensors::MakeTemperatureSensor(c)));
  sensors::PhysicalConfig f = c;
  f.id = "tf";
  f.node_id = "node_1";
  f.seed = 2;
  SL_ASSERT_OK(loader.AddSensor(
      sensors::MakeTemperatureSensor(f, 23.0, 7.0, 0.5, "fahrenheit")));

  auto df = *loader.NewDataflow("mixed")
                 .AddSource("a", "tc")
                 .AddSource("b", "tf")
                 .AddTransform("b_c", "b", "temp",
                               "convert_unit(temp, 'fahrenheit', 'celsius')",
                               "celsius")
                 .AddJoin("j", "a", "b_c", duration::kMinute,
                          "abs(a_temp - b_c_temp) < 5")
                 .AddSink("out", "j", SinkKind::kCollect)
                 .Build();
  auto report = loader.Validate(df);
  ASSERT_TRUE(report->ok()) << report->ToString();
  // Both sides of the join are in Celsius now.
  EXPECT_EQ((*report->schemas.at("j")->FieldByName("b_c_temp")).unit, "celsius");
  auto id = *loader.Deploy(df);
  loader.RunFor(3 * duration::kMinute + 100);
  auto* sink = dynamic_cast<sinks::CollectSink*>(
      *loader.executor().SinkOf(id, "out"));
  ASSERT_NE(sink, nullptr);
  // Both generators share the same diurnal base: most pairs are close.
  EXPECT_GT(sink->tuples().size(), 0u);
}

TEST(StreamLoaderTest, EmptyNetworkOptionAllowsCustomTopology) {
  StreamLoaderOptions options;
  options.network_nodes = 0;
  StreamLoader loader(options);
  EXPECT_EQ(loader.network().num_nodes(), 0u);
  SL_ASSERT_OK(loader.network().AddNode({"hub", 1000.0, {}}));
  SL_ASSERT_OK(loader.AddSensor(FastTempSensor("t1", "hub")));
  auto df = *loader.NewDataflow("tiny")
                 .AddSource("src", "t1")
                 .AddSink("out", "src", SinkKind::kCollect)
                 .Build();
  auto id = loader.Deploy(df);
  ASSERT_TRUE(id.ok()) << id.status();
  loader.RunFor(10 * duration::kSecond);
  EXPECT_EQ((*loader.executor().stats(*id))->tuples_delivered, 10u);
}

TEST(StreamLoaderTest, MultipleDataflowsMonitoredTogether) {
  // Figure 3 shows "this and other dataflows that are under control".
  StreamLoader loader(FastOptions());
  SL_ASSERT_OK(loader.AddSensor(FastTempSensor("t1", "node_0")));
  auto df1 = *loader.NewDataflow("one")
                  .AddSource("s", "t1")
                  .AddFilter("f", "s", "temp > -100")
                  .AddSink("o", "f", SinkKind::kCollect)
                  .Build();
  auto df2 = *loader.NewDataflow("two")
                  .AddSource("s", "t1")
                  .AddAggregation("a", "s", duration::kMinute, AggFunc::kMax,
                                  {"temp"})
                  .AddSink("o", "a", SinkKind::kCollect)
                  .Build();
  auto id1 = *loader.Deploy(df1);
  auto id2 = *loader.Deploy(df2);
  (void)id1;
  (void)id2;
  loader.RunFor(2 * duration::kMinute);
  ASSERT_NE(loader.monitor().latest(), nullptr);
  std::set<std::string> dataflows;
  for (const auto& op : loader.monitor().latest()->operators) {
    dataflows.insert(op.dataflow);
  }
  EXPECT_EQ(dataflows, (std::set<std::string>{"one", "two"}));
}

}  // namespace
}  // namespace sl
