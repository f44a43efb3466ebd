// Unit tests for the conceptual dataflow graph, builder and soundness
// checker (src/dataflow).

#include <gtest/gtest.h>

#include "dataflow/graph.h"
#include "dataflow/validate.h"
#include "pubsub/broker.h"
#include "tests/test_util.h"

namespace sl::dataflow {
namespace {

using sl::testing::RainSchema;
using sl::testing::TempSchema;
using stt::ValueType;

// ---------------------------------------------------------------- builder --

TEST(BuilderTest, MinimalPipeline) {
  auto df = DataflowBuilder("flow")
                .AddSource("src", "t1")
                .AddFilter("f", "src", "temp > 20")
                .AddSink("out", "f", SinkKind::kCollect)
                .Build();
  ASSERT_TRUE(df.ok()) << df.status();
  EXPECT_EQ(df->topological_order(),
            (std::vector<std::string>{"src", "f", "out"}));
  EXPECT_EQ(df->SourceNames(), (std::vector<std::string>{"src"}));
  EXPECT_EQ(df->OperatorNames(), (std::vector<std::string>{"f"}));
  EXPECT_EQ(df->SinkNames(), (std::vector<std::string>{"out"}));
  EXPECT_EQ(df->Downstream("src"), (std::vector<std::string>{"f"}));
  EXPECT_TRUE(df->HasNode("f"));
  EXPECT_TRUE(df->node("ghost").status().IsNotFound());
}

TEST(BuilderTest, RejectsDuplicateNames) {
  auto df = DataflowBuilder("flow")
                .AddSource("x", "t1")
                .AddFilter("x", "x", "true")
                .Build();
  EXPECT_TRUE(df.status().IsValidationError());
}

TEST(BuilderTest, RejectsUnknownInput) {
  auto df = DataflowBuilder("flow")
                .AddSource("src", "t1")
                .AddFilter("f", "ghost", "true")
                .Build();
  EXPECT_TRUE(df.status().IsValidationError());
}

TEST(BuilderTest, RejectsWrongArity) {
  // Join with one input (via AddOperator).
  JoinSpec join;
  join.interval = 1000;
  join.predicate = "true";
  auto df = DataflowBuilder("flow")
                .AddSource("a", "t1")
                .AddOperator("j", OpKind::kJoin, join, {"a"})
                .Build();
  EXPECT_TRUE(df.status().IsValidationError());
}

TEST(BuilderTest, RejectsCycle) {
  auto df = DataflowBuilder("flow")
                .AddSource("src", "t1")
                .AddOperator("f1", OpKind::kFilter, FilterSpec{"true"}, {"f2"})
                .AddOperator("f2", OpKind::kFilter, FilterSpec{"true"}, {"f1"})
                .Build();
  EXPECT_TRUE(df.status().IsValidationError());
  EXPECT_NE(df.status().message().find("cycle"), std::string::npos);
}

TEST(BuilderTest, RejectsSelfLoop) {
  auto df = DataflowBuilder("flow")
                .AddSource("src", "t1")
                .AddOperator("f", OpKind::kFilter, FilterSpec{"true"}, {"f"})
                .Build();
  EXPECT_TRUE(df.status().IsValidationError());
}

TEST(BuilderTest, RejectsSinkFeedingNode) {
  auto df = DataflowBuilder("flow")
                .AddSource("src", "t1")
                .AddSink("out", "src", SinkKind::kCollect)
                .AddFilter("f", "out", "true")
                .Build();
  EXPECT_TRUE(df.status().IsValidationError());
  EXPECT_NE(df.status().message().find("cannot feed"), std::string::npos);
}

TEST(BuilderTest, RejectsBadSpecParameters) {
  EXPECT_FALSE(DataflowBuilder("f").AddSource("s", "t")
                   .AddFilter("x", "s", "   ").Build().ok());
  EXPECT_FALSE(DataflowBuilder("f").AddSource("s", "t")
                   .AddCullTime("x", "s", 100, 50, 0.5).Build().ok());
  EXPECT_FALSE(DataflowBuilder("f").AddSource("s", "t")
                   .AddCullTime("x", "s", 0, 100, 1.5).Build().ok());
  EXPECT_FALSE(DataflowBuilder("f").AddSource("s", "t")
                   .AddCullSpace("x", "s", {0, 0}, {1, 1}, -0.1).Build().ok());
  EXPECT_FALSE(DataflowBuilder("f").AddSource("s", "t")
                   .AddAggregation("x", "s", 0, AggFunc::kAvg, {"a"})
                   .Build().ok());
  EXPECT_FALSE(DataflowBuilder("f").AddSource("s", "t")
                   .AddAggregation("x", "s", 1000, AggFunc::kAvg, {})
                   .Build().ok());
  EXPECT_FALSE(DataflowBuilder("f").AddSource("s", "t")
                   .AddTriggerOn("x", "s", 1000, "true", {}).Build().ok());
  EXPECT_FALSE(DataflowBuilder("f").AddSource("s", "t")
                   .AddTransform("x", "s", "bad name", "1").Build().ok());
  EXPECT_FALSE(DataflowBuilder("f").AddSource("s", "t")
                   .AddVirtualProperty("x", "s", "ok", "  ").Build().ok());
  EXPECT_FALSE(DataflowBuilder("bad name").AddSource("s", "t")
                   .AddSink("o", "s", SinkKind::kCollect).Build().ok());
  // COUNT with no attributes is legal.
  EXPECT_TRUE(DataflowBuilder("f").AddSource("s", "t")
                  .AddAggregation("x", "s", 60000, AggFunc::kCount, {})
                  .AddSink("o", "x", SinkKind::kCollect)
                  .Build().ok());
}

TEST(BuilderTest, CollectsMultipleErrors) {
  auto df = DataflowBuilder("flow")
                .AddSource("src", "")           // no sensor
                .AddFilter("f", "ghost", "")    // unknown input + empty cond
                .Build();
  ASSERT_FALSE(df.ok());
  // All three problems are reported at once.
  const std::string& msg = df.status().message();
  EXPECT_NE(msg.find("has no sensor id"), std::string::npos);
  EXPECT_NE(msg.find("unknown node 'ghost'"), std::string::npos);
  EXPECT_NE(msg.find("empty condition"), std::string::npos);
}

TEST(BuilderTest, DiamondTopologyOrder) {
  auto df = DataflowBuilder("flow")
                .AddSource("s", "t1")
                .AddFilter("left", "s", "temp > 0")
                .AddFilter("right", "s", "temp < 100")
                .AddJoin("j", "left", "right", 60000, "true")
                .AddSink("o", "j", SinkKind::kCollect)
                .Build();
  ASSERT_TRUE(df.ok()) << df.status();
  const auto& topo = df->topological_order();
  auto pos = [&topo](const std::string& n) {
    return std::find(topo.begin(), topo.end(), n) - topo.begin();
  };
  EXPECT_LT(pos("s"), pos("left"));
  EXPECT_LT(pos("left"), pos("j"));
  EXPECT_LT(pos("right"), pos("j"));
  EXPECT_LT(pos("j"), pos("o"));
}

// -------------------------------------------------------------- validator --

class ValidatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pubsub::SensorInfo temp;
    temp.id = "t1";
    temp.type = "temperature";
    temp.schema = TempSchema();
    temp.period = duration::kMinute;
    temp.location = stt::GeoPoint{34.69, 135.50};
    SL_ASSERT_OK(broker_.Publish(temp));

    pubsub::SensorInfo rain;
    rain.id = "r1";
    rain.type = "rain";
    rain.schema = RainSchema();
    rain.period = duration::kMinute;
    rain.location = stt::GeoPoint{34.60, 135.46};
    SL_ASSERT_OK(broker_.Publish(rain));
  }

  dataflow::ValidationReport Validate(const Dataflow& df) {
    Validator validator(&broker_);
    auto report = validator.Validate(df);
    EXPECT_TRUE(report.ok());
    return *report;
  }

  VirtualClock clock_;
  pubsub::Broker broker_{&clock_};
};

TEST_F(ValidatorTest, HappyPathPropagatesSchemas) {
  auto df = *DataflowBuilder("flow")
                 .AddSource("src", "t1")
                 .AddFilter("f", "src", "temp > 20")
                 .AddVirtualProperty("v", "f", "feels",
                                     "apparent_temp(temp, 60)", "celsius")
                 .AddSink("out", "v", SinkKind::kWarehouse, "ds")
                 .Build();
  auto report = Validate(df);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(report.schemas.at("f")->Equals(*TempSchema()));
  EXPECT_TRUE(report.schemas.at("v")->HasField("feels"));
  EXPECT_EQ((*report.schemas.at("v")->FieldByName("feels")).type,
            ValueType::kDouble);
  EXPECT_EQ(report.schemas.at("out"), report.schemas.at("v"));
}

TEST_F(ValidatorTest, UnpublishedSensorIsError) {
  auto df = *DataflowBuilder("flow")
                 .AddSource("src", "ghost")
                 .AddSink("out", "src", SinkKind::kCollect)
                 .Build();
  auto report = Validate(df);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.error_count(), 1u);
  // No cascade: downstream nodes are skipped, not re-reported.
  EXPECT_EQ(report.schemas.count("out"), 0u);
}

TEST_F(ValidatorTest, BadConditionIsError) {
  auto df = *DataflowBuilder("flow")
                 .AddSource("src", "t1")
                 .AddFilter("f", "src", "wind > 3")  // no such attribute
                 .AddSink("out", "f", SinkKind::kCollect)
                 .Build();
  auto report = Validate(df);
  EXPECT_FALSE(report.ok());
}

TEST_F(ValidatorTest, NonBoolConditionIsError) {
  auto df = *DataflowBuilder("flow")
                 .AddSource("src", "t1")
                 .AddFilter("f", "src", "temp + 1")
                 .AddSink("out", "f", SinkKind::kCollect)
                 .Build();
  auto report = Validate(df);
  EXPECT_FALSE(report.ok());
}

TEST_F(ValidatorTest, AggregationSchemaAndGranularity) {
  auto df = *DataflowBuilder("flow")
                 .AddSource("src", "t1")
                 .AddAggregation("agg", "src", duration::kHour, AggFunc::kAvg,
                                 {"temp"}, {"station"})
                 .AddSink("out", "agg", SinkKind::kCollect)
                 .Build();
  auto report = Validate(df);
  ASSERT_TRUE(report.ok()) << report.ToString();
  auto schema = report.schemas.at("agg");
  ASSERT_EQ(schema->num_fields(), 2u);
  EXPECT_EQ(schema->fields()[0].name, "station");
  EXPECT_EQ(schema->fields()[1].name, "avg_temp");
  EXPECT_EQ(schema->fields()[1].type, ValueType::kDouble);
  EXPECT_EQ(schema->fields()[1].unit, "celsius");
  EXPECT_EQ(schema->temporal_granularity().period(), duration::kHour);
}

TEST_F(ValidatorTest, AggregationIntervalMustDivide) {
  // 90 s is not a multiple of the 1-minute input granularity.
  auto df = *DataflowBuilder("flow")
                 .AddSource("src", "t1")
                 .AddAggregation("agg", "src", 90 * duration::kSecond,
                                 AggFunc::kAvg, {"temp"})
                 .AddSink("out", "agg", SinkKind::kCollect)
                 .Build();
  EXPECT_FALSE(Validate(df).ok());
}

TEST_F(ValidatorTest, AggregationNonNumericIsError) {
  auto df = *DataflowBuilder("flow")
                 .AddSource("src", "t1")
                 .AddAggregation("agg", "src", duration::kHour, AggFunc::kSum,
                                 {"station"})
                 .AddSink("out", "agg", SinkKind::kCollect)
                 .Build();
  EXPECT_FALSE(Validate(df).ok());
}

TEST_F(ValidatorTest, CountSchema) {
  auto df = *DataflowBuilder("flow")
                 .AddSource("src", "t1")
                 .AddAggregation("agg", "src", duration::kHour,
                                 AggFunc::kCount, {})
                 .AddSink("out", "agg", SinkKind::kCollect)
                 .Build();
  auto report = Validate(df);
  ASSERT_TRUE(report.ok());
  auto schema = report.schemas.at("agg");
  ASSERT_EQ(schema->num_fields(), 1u);
  EXPECT_EQ(schema->fields()[0].name, "count");
  EXPECT_EQ(schema->fields()[0].type, ValueType::kInt);
}

TEST_F(ValidatorTest, JoinMergesSchemasWithPrefixes) {
  auto df = *DataflowBuilder("flow")
                 .AddSource("a", "t1")
                 .AddSource("b", "t1")  // same schema: all names collide
                 .AddJoin("j", "a", "b", duration::kMinute, "a_temp < b_temp")
                 .AddSink("out", "j", SinkKind::kCollect)
                 .Build();
  auto report = Validate(df);
  ASSERT_TRUE(report.ok()) << report.ToString();
  auto schema = report.schemas.at("j");
  EXPECT_TRUE(schema->HasField("a_temp"));
  EXPECT_TRUE(schema->HasField("b_temp"));
  EXPECT_TRUE(schema->HasField("a_station"));
  EXPECT_TRUE(schema->HasField("b_station"));
}

TEST_F(ValidatorTest, JoinWithoutCollisionKeepsNames) {
  auto df = *DataflowBuilder("flow")
                 .AddSource("t", "t1")
                 .AddSource("r", "r1")
                 .AddJoin("j", "t", "r", duration::kMinute,
                          "temp > 25 and rain > 5")
                 .AddSink("out", "j", SinkKind::kCollect)
                 .Build();
  auto report = Validate(df);
  ASSERT_TRUE(report.ok()) << report.ToString();
  auto schema = report.schemas.at("j");
  EXPECT_TRUE(schema->HasField("temp"));
  EXPECT_TRUE(schema->HasField("rain"));
  // Theme of the join: deepest common ancestor of the operand themes.
  EXPECT_EQ(schema->theme().ToString(), "weather");
}

TEST_F(ValidatorTest, JoinGranularityConsistency) {
  // A 90 s sensor and a 60 s sensor have incomparable granularities.
  pubsub::SensorInfo odd;
  odd.id = "odd";
  odd.type = "temperature";
  odd.schema = TempSchema(90 * duration::kSecond);
  odd.period = duration::kMinute;
  odd.location = stt::GeoPoint{34.0, 135.0};
  SL_ASSERT_OK(broker_.Publish(odd));

  auto df = *DataflowBuilder("flow")
                 .AddSource("a", "t1")
                 .AddSource("b", "odd")
                 .AddJoin("j", "a", "b", duration::kHour, "true")
                 .AddSink("out", "j", SinkKind::kCollect)
                 .Build();
  auto report = Validate(df);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("incomparable"), std::string::npos);
}

TEST_F(ValidatorTest, TransformChangesTypeAndUnit) {
  auto df = *DataflowBuilder("flow")
                 .AddSource("src", "t1")
                 .AddTransform("tr", "src", "temp",
                               "convert_unit(temp, 'celsius', 'fahrenheit')",
                               "fahrenheit")
                 .AddSink("out", "tr", SinkKind::kCollect)
                 .Build();
  auto report = Validate(df);
  ASSERT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ((*report.schemas.at("tr")->FieldByName("temp")).unit,
            "fahrenheit");
}

TEST_F(ValidatorTest, TransformUnknownUnitIsError) {
  auto df = *DataflowBuilder("flow")
                 .AddSource("src", "t1")
                 .AddTransform("tr", "src", "temp", "temp * 2", "wibbles")
                 .AddSink("out", "tr", SinkKind::kCollect)
                 .Build();
  EXPECT_FALSE(Validate(df).ok());
}

TEST_F(ValidatorTest, TriggerPassThroughAndTargetWarning) {
  auto df = *DataflowBuilder("flow")
                 .AddSource("src", "t1")
                 .AddTriggerOn("trig", "src", duration::kHour, "temp > 25",
                               {"r1", "future_sensor"})
                 .AddSink("out", "trig", SinkKind::kCollect)
                 .Build();
  auto report = Validate(df);
  EXPECT_TRUE(report.ok());  // warnings only
  EXPECT_EQ(report.warning_count(), 1u);  // future_sensor not published
  EXPECT_TRUE(report.schemas.at("trig")->Equals(*TempSchema()));
}

TEST_F(ValidatorTest, WarehouseSinkNeedsDatasetName) {
  auto df = *DataflowBuilder("flow")
                 .AddSource("src", "t1")
                 .AddSink("out", "src", SinkKind::kWarehouse, "bad name!")
                 .Build();
  EXPECT_FALSE(Validate(df).ok());
}

TEST_F(ValidatorTest, NoSourcesIsError) {
  auto df = DataflowBuilder("flow").Build();
  ASSERT_TRUE(df.ok());  // structurally empty is fine
  auto report = Validate(*df);
  EXPECT_FALSE(report.ok());
}

TEST_F(ValidatorTest, NoSinksIsWarning) {
  auto df = *DataflowBuilder("flow").AddSource("src", "t1").Build();
  auto report = Validate(df);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.warning_count(), 1u);
}

// ------------------------------------------------------- graph lints --

namespace {

bool HasIssue(const ValidationReport& report, diag::Code code,
              const std::string& node = "") {
  for (const auto& issue : report.issues) {
    if (issue.code == code && (node.empty() || issue.node == node)) {
      return true;
    }
  }
  return false;
}

}  // namespace

TEST_F(ValidatorTest, UnreachableNodeIsWarning) {
  auto df = *DataflowBuilder("flow")
                 .AddSource("src", "t1")
                 .AddFilter("hot", "src", "temp > 25")
                 .AddFilter("orphan", "src", "temp < 0")
                 .AddSink("out", "hot", SinkKind::kCollect)
                 .Build();
  auto report = Validate(df);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(HasIssue(report, diag::Code::kUnreachableNode, "orphan"));
  EXPECT_FALSE(HasIssue(report, diag::Code::kUnreachableNode, "hot"));
}

TEST_F(ValidatorTest, DeadVirtualPropertyIsWarning) {
  // 'feels' is added, then aggregated away without ever being read.
  auto df = *DataflowBuilder("flow")
                 .AddSource("src", "t1")
                 .AddVirtualProperty("v", "src", "feels",
                                     "apparent_temp(temp, 60)", "celsius")
                 .AddAggregation("agg", "v", duration::kHour, AggFunc::kAvg,
                                 {"temp"})
                 .AddSink("out", "agg", SinkKind::kCollect)
                 .Build();
  auto report = Validate(df);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(HasIssue(report, diag::Code::kDeadVirtualProperty, "v"));

  // Referencing the property downstream silences the lint.
  auto used = *DataflowBuilder("flow")
                   .AddSource("src", "t1")
                   .AddVirtualProperty("v", "src", "feels",
                                       "apparent_temp(temp, 60)", "celsius")
                   .AddFilter("warm", "v", "feels > 20")
                   .AddSink("out", "warm", SinkKind::kCollect)
                   .Build();
  auto used_report = Validate(used);
  EXPECT_FALSE(HasIssue(used_report, diag::Code::kDeadVirtualProperty));

  // So does flowing it into a sink unchanged.
  auto sunk = *DataflowBuilder("flow")
                  .AddSource("src", "t1")
                  .AddVirtualProperty("v", "src", "feels",
                                      "apparent_temp(temp, 60)", "celsius")
                  .AddSink("out", "v", SinkKind::kCollect)
                  .Build();
  auto sunk_report = Validate(sunk);
  EXPECT_FALSE(HasIssue(sunk_report, diag::Code::kDeadVirtualProperty));
}

TEST_F(ValidatorTest, ConstantPredicateIsWarning) {
  auto df = *DataflowBuilder("flow")
                 .AddSource("src", "t1")
                 .AddFilter("none", "src", "temp > 25 and false")
                 .AddSink("out", "none", SinkKind::kCollect)
                 .Build();
  auto report = Validate(df);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(HasIssue(report, diag::Code::kConstantPredicate, "none"));

  // The idiomatic cross join stays clean.
  auto cross = *DataflowBuilder("flow")
                   .AddSource("a", "t1")
                   .AddSource("b", "r1")
                   .AddJoin("j", "a", "b", duration::kHour, "true")
                   .AddSink("out", "j", SinkKind::kCollect)
                   .Build();
  auto cross_report = Validate(cross);
  EXPECT_FALSE(HasIssue(cross_report, diag::Code::kConstantPredicate));
}

TEST_F(ValidatorTest, NoEquiJoinIsWarning) {
  auto df = *DataflowBuilder("flow")
                 .AddSource("a", "t1")
                 .AddSource("b", "r1")
                 .AddJoin("j", "a", "b", duration::kHour, "temp > rain")
                 .AddSink("out", "j", SinkKind::kCollect)
                 .Build();
  auto report = Validate(df);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(HasIssue(report, diag::Code::kNoEquiJoin, "j"));

  // An equality between the two sides makes the join hashable.
  auto keyed = *DataflowBuilder("flow")
                   .AddSource("a", "t1")
                   .AddSource("b", "r1")
                   .AddJoin("j", "a", "b", duration::kHour,
                            "temp == rain and temp > 20")
                   .AddSink("out", "j", SinkKind::kCollect)
                   .Build();
  EXPECT_FALSE(HasIssue(Validate(keyed), diag::Code::kNoEquiJoin));

  // The idiomatic constant-true cross join is exempt, like SL3004.
  auto cross = *DataflowBuilder("flow")
                   .AddSource("a", "t1")
                   .AddSource("b", "r1")
                   .AddJoin("j", "a", "b", duration::kHour, "true")
                   .AddSink("out", "j", SinkKind::kCollect)
                   .Build();
  EXPECT_FALSE(HasIssue(Validate(cross), diag::Code::kNoEquiJoin));
}

TEST_F(ValidatorTest, DivisionByZeroIsWarning) {
  auto df = *DataflowBuilder("flow")
                 .AddSource("src", "t1")
                 .AddTransform("t", "src", "temp", "temp / 0")
                 .AddSink("out", "t", SinkKind::kCollect)
                 .Build();
  auto report = Validate(df);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(HasIssue(report, diag::Code::kDivisionByZero, "t"));
}

TEST_F(ValidatorTest, WindowShorterThanIntervalIsWarning) {
  auto df = *DataflowBuilder("flow")
                 .AddSource("src", "t1")
                 .AddAggregation("agg", "src", duration::kHour, AggFunc::kAvg,
                                 {"temp"}, {}, duration::kMinute)
                 .AddSink("out", "agg", SinkKind::kCollect)
                 .Build();
  auto report = Validate(df);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(HasIssue(report, diag::Code::kWindowNeverFires, "agg"));
}

TEST_F(ValidatorTest, InstantGranularityBlockingOpIsWarning) {
  pubsub::SensorInfo adhoc;
  adhoc.id = "probe";
  adhoc.type = "probe";
  auto schema = stt::Schema::Make(
      {{"v", ValueType::kDouble, "", false}},
      stt::TemporalGranularity::Millisecond(),
      stt::SpatialGranularity::Point(),
      *stt::Theme::Parse("misc/adhoc"));
  adhoc.schema = *schema;
  adhoc.period = duration::kSecond;
  adhoc.location = stt::GeoPoint{34.69, 135.50};
  SL_ASSERT_OK(broker_.Publish(adhoc));

  auto df = *DataflowBuilder("flow")
                 .AddSource("src", "probe")
                 .AddAggregation("agg", "src", duration::kMinute,
                                 AggFunc::kAvg, {"v"})
                 .AddSink("out", "agg", SinkKind::kCollect)
                 .Build();
  auto report = Validate(df);
  EXPECT_TRUE(HasIssue(report, diag::Code::kInstantGranularity, "agg"));
}

TEST_F(ValidatorTest, IssueRenderingCarriesCodeAndCaret) {
  auto df = *DataflowBuilder("flow")
                 .AddSource("src", "t1")
                 .AddFilter("f", "src", "wind > 3")
                 .AddSink("out", "f", SinkKind::kCollect)
                 .Build();
  auto report = Validate(df);
  ASSERT_FALSE(report.ok());
  bool rendered = false;
  for (const auto& issue : report.issues) {
    if (issue.code != diag::Code::kUnknownColumn) continue;
    rendered = true;
    EXPECT_NE(issue.ToString().find("SL1001"), std::string::npos);
    std::string render = issue.Render();
    EXPECT_NE(render.find('^'), std::string::npos) << render;
    EXPECT_NE(render.find("wind > 3"), std::string::npos) << render;
  }
  EXPECT_TRUE(rendered);
}

}  // namespace
}  // namespace sl::dataflow
