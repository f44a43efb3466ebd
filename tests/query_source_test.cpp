// Tests for characteristic-bound sources (§2: "sources of dataflows
// should be specified by means of the sensor and location
// characteristics"): validation against the registry, DSN round-trip,
// and the plug-and-play behaviour — sensors joining after deployment
// feed the running dataflow automatically.

#include <gtest/gtest.h>

#include "core/streamloader.h"
#include "dsn/parser.h"
#include "dsn/translate.h"
#include "sensors/generators.h"
#include "sinks/streams.h"
#include "tests/test_util.h"

namespace sl {
namespace {

using dataflow::DataflowBuilder;
using dataflow::SinkKind;

std::unique_ptr<sensors::SensorSimulator> TempAt(const std::string& id,
                                                 stt::GeoPoint where,
                                                 const std::string& node,
                                                 uint64_t seed) {
  sensors::PhysicalConfig config;
  config.id = id;
  config.location = where;
  config.period = duration::kSecond;
  config.temporal_granularity = duration::kSecond;
  config.node_id = node;
  config.seed = seed;
  return sensors::MakeTemperatureSensor(config);
}

pubsub::DiscoveryQuery OsakaTemps() {
  pubsub::DiscoveryQuery query;
  query.type = "temperature";
  query.area = stt::BBox{{34.0, 135.0}, {35.0, 136.0}};
  return query;
}

TEST(QuerySourceTest, BuilderRejectsUnconstrainedQuery) {
  auto df = DataflowBuilder("q")
                .AddSourceByQuery("src", pubsub::DiscoveryQuery{})
                .Build();
  EXPECT_TRUE(df.status().IsValidationError());
}

TEST(QuerySourceTest, ValidatorResolvesSchemaFromMatches) {
  StreamLoaderOptions options;
  options.network_nodes = 2;
  StreamLoader loader(options);
  SL_ASSERT_OK(loader.AddSensor(TempAt("a", {34.5, 135.5}, "node_0", 1)));
  SL_ASSERT_OK(loader.AddSensor(TempAt("b", {34.6, 135.4}, "node_1", 2)));
  // Outside the area: ignored by the query.
  SL_ASSERT_OK(loader.AddSensor(TempAt("tokyo", {35.7, 139.7}, "node_0", 3)));

  auto df = *loader.NewDataflow("q")
                 .AddSourceByQuery("src", OsakaTemps())
                 .AddSink("out", "src", SinkKind::kCollect)
                 .Build();
  auto report = loader.Validate(df);
  ASSERT_TRUE(report->ok()) << report->ToString();
  EXPECT_TRUE(report->schemas.at("src")->HasField("temp"));
}

TEST(QuerySourceTest, ValidatorRejectsNoMatchesAndMixedSchemas) {
  StreamLoaderOptions options;
  options.network_nodes = 2;
  StreamLoader loader(options);
  auto df = *loader.NewDataflow("q")
                 .AddSourceByQuery("src", OsakaTemps())
                 .AddSink("out", "src", SinkKind::kCollect)
                 .Build();
  // No sensors at all.
  EXPECT_FALSE((*loader.Validate(df)).ok());

  // Two matching sensors with differing schemas (celsius/fahrenheit
  // units differ structurally).
  SL_ASSERT_OK(loader.AddSensor(TempAt("a", {34.5, 135.5}, "node_0", 1)));
  sensors::PhysicalConfig f;
  f.id = "b";
  f.location = {34.6, 135.4};
  f.period = duration::kSecond;
  f.temporal_granularity = duration::kSecond;
  f.node_id = "node_1";
  f.seed = 2;
  SL_ASSERT_OK(loader.AddSensor(
      sensors::MakeTemperatureSensor(f, 23, 7, 0.5, "fahrenheit")));
  auto report = *loader.Validate(df);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("differing schemas"), std::string::npos);
}

TEST(QuerySourceTest, DsnRoundTripKeepsQuery) {
  pubsub::DiscoveryQuery query = OsakaTemps();
  query.theme = *stt::Theme::Parse("weather/temperature");
  query.max_period = duration::kMinute;
  query.node_id = "node_0";
  auto df = *DataflowBuilder("q")
                 .AddSourceByQuery("src", query)
                 .AddSink("out", "src", SinkKind::kCollect)
                 .Build();
  auto spec = *dsn::TranslateToDsn(df);
  auto parsed = *dsn::ParseDsn(spec.ToString());
  EXPECT_EQ(parsed, spec);
  auto lifted = *dsn::TranslateFromDsn(parsed);
  const dataflow::Node& src = **lifted.node("src");
  ASSERT_TRUE(src.by_query);
  EXPECT_EQ(src.source_query.type, "temperature");
  EXPECT_EQ(src.source_query.theme.ToString(), "weather/temperature");
  ASSERT_TRUE(src.source_query.area.has_value());
  EXPECT_DOUBLE_EQ(src.source_query.area->lo.lat, 34.0);
  EXPECT_EQ(src.source_query.max_period, duration::kMinute);
  EXPECT_EQ(src.source_query.node_id, "node_0");
}

TEST(QuerySourceTest, ConsumesAllMatchesAndFutureJoiners) {
  StreamLoaderOptions options;
  options.network_nodes = 4;
  StreamLoader loader(options);
  SL_ASSERT_OK(loader.AddSensor(TempAt("a", {34.5, 135.5}, "node_0", 1)));
  SL_ASSERT_OK(loader.AddSensor(TempAt("b", {34.6, 135.4}, "node_1", 2)));
  SL_ASSERT_OK(loader.AddSensor(TempAt("tokyo", {35.7, 139.7}, "node_2", 3)));

  auto df = *loader.NewDataflow("q")
                 .AddSourceByQuery("src", OsakaTemps())
                 .AddFilter("keep", "src", "temp > -100")
                 .AddSink("out", "keep", SinkKind::kCollect)
                 .Build();
  auto id = *loader.Deploy(df);
  loader.RunFor(10 * duration::kSecond + 100);
  // Two matching sensors at 1 Hz: ~20 tuples; the Tokyo sensor excluded.
  auto* sink = dynamic_cast<sinks::CollectSink*>(
      *loader.executor().SinkOf(id, "out"));
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->tuples().size(), 20u);
  std::set<std::string> producers;
  for (const auto& t : sink->tuples()) producers.insert(t->sensor_id());
  EXPECT_EQ(producers, (std::set<std::string>{"a", "b"}));

  // Plug-and-play: a third Osaka sensor joins mid-run and its stream
  // enters the SAME deployment without any reconfiguration.
  SL_ASSERT_OK(loader.AddSensor(TempAt("c", {34.7, 135.6}, "node_3", 4)));
  loader.RunFor(10 * duration::kSecond + 100);
  producers.clear();
  for (const auto& t : sink->tuples()) producers.insert(t->sensor_id());
  EXPECT_EQ(producers, (std::set<std::string>{"a", "b", "c"}));
  EXPECT_EQ(sink->tuples().size(), 50u);  // 20 + 2*10 + 10
  EXPECT_EQ((*loader.executor().stats(id))->process_errors, 0u);
}

TEST(QuerySourceTest, ReplaceOperatorKeepsTheQueryBoundSource) {
  // An on-the-fly replacement rebuilds the deployed dataflow with the
  // new spec. A source bound by query must come through that rebuild as
  // it was, and the replacement must apply whole: the new filter live,
  // the deployed dataflow showing it, the SCN log recording it.
  StreamLoaderOptions options;
  options.network_nodes = 2;
  StreamLoader loader(options);
  SL_ASSERT_OK(loader.AddSensor(TempAt("a", {34.5, 135.5}, "node_0", 1)));
  auto df = *loader.NewDataflow("q")
                 .AddSourceByQuery("src", OsakaTemps())
                 .AddFilter("keep", "src", "temp > -100")
                 .AddSink("out", "keep", SinkKind::kCollect)
                 .Build();
  auto id = *loader.Deploy(df);
  loader.RunFor(5 * duration::kSecond);
  auto* sink = dynamic_cast<sinks::CollectSink*>(
      *loader.executor().SinkOf(id, "out"));
  ASSERT_NE(sink, nullptr);
  const size_t before = sink->tuples().size();
  EXPECT_GT(before, 0u);

  SL_ASSERT_OK(loader.executor().ReplaceOperator(
      id, "keep", dataflow::FilterSpec{"temp > 1000"}));
  loader.RunFor(30 * duration::kSecond);
  // At most the tuple already in flight lands; the new filter passes
  // nothing.
  EXPECT_LE(sink->tuples().size(), before + 1);

  const dataflow::Dataflow* deployed =
      *loader.executor().DeployedDataflow(id);
  const dataflow::Node& src = **deployed->node("src");
  EXPECT_TRUE(src.by_query);
  EXPECT_EQ(src.source_query.type, "temperature");
  EXPECT_NE((*deployed->node("keep"))->ToString().find("temp > 1000"),
            std::string::npos);
  size_t replaced = 0;
  for (const auto& command : loader.executor().scn_log().ForDeployment(id)) {
    if (command.kind == exec::ScnCommandKind::kReplaceService) ++replaced;
  }
  EXPECT_EQ(replaced, 1u);
}

TEST(QuerySourceTest, LiveCanvasRendersQuerySource) {
  StreamLoaderOptions options;
  options.network_nodes = 2;
  StreamLoader loader(options);
  SL_ASSERT_OK(loader.AddSensor(TempAt("a", {34.5, 135.5}, "node_0", 1)));
  auto df = *loader.NewDataflow("q")
                 .AddSourceByQuery("src", OsakaTemps())
                 .AddSink("out", "src", SinkKind::kCollect)
                 .Build();
  std::string canvas = dataflow::RenderCanvas(df);
  EXPECT_NE(canvas.find("discover[type=temperature"), std::string::npos);
}

}  // namespace
}  // namespace sl
