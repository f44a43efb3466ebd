// Tests for the event-time layer: watermark primitives (stt/watermark.h),
// broker minting, event-time firing of the blocking operators, lateness
// policies, and the half-open [begin, end) boundary conventions.

#include <gtest/gtest.h>

#include "ops/operator.h"
#include "pubsub/broker.h"
#include "stt/watermark.h"
#include "tests/test_util.h"

namespace sl {
namespace {

using dataflow::AggFunc;
using dataflow::AggregationSpec;
using dataflow::CullTimeSpec;
using dataflow::JoinSpec;
using dataflow::OpKind;
using dataflow::TriggerSpec;
using sl::testing::RainSchema;
using sl::testing::RainTuple;
using sl::testing::TempSchema;
using sl::testing::TempTuple;
using stt::kNoWatermark;

// ------------------------------------------------------------ primitives --

TEST(WatermarkFrontierTest, SinglePortMaxMerges) {
  stt::WatermarkFrontier f(1);
  EXPECT_EQ(f.Min(), kNoWatermark);
  EXPECT_TRUE(f.Observe(0, 100));
  EXPECT_EQ(f.Min(), 100);
  // Reordered deliveries carry older promises; the frontier never moves
  // backwards.
  EXPECT_FALSE(f.Observe(0, 50));
  EXPECT_EQ(f.Min(), 100);
  EXPECT_TRUE(f.Observe(0, 200));
  EXPECT_EQ(f.Min(), 200);
}

TEST(WatermarkFrontierTest, MinAcrossPortsGatesOnAllSeen) {
  stt::WatermarkFrontier f(2);
  // One silent port pins the frontier at "no promise yet" — a join must
  // not close windows while one side has said nothing.
  EXPECT_FALSE(f.Observe(0, 100));
  EXPECT_EQ(f.Min(), kNoWatermark);
  EXPECT_TRUE(f.Observe(1, 50));
  EXPECT_EQ(f.Min(), 50);
  EXPECT_TRUE(f.Observe(1, 80));
  EXPECT_EQ(f.Min(), 80);
  // Advancing the already-ahead port does not move the minimum.
  EXPECT_FALSE(f.Observe(0, 120));
  EXPECT_EQ(f.Min(), 80);
}

TEST(WatermarkFrontierTest, IgnoresNoWatermarkAndBadPorts) {
  stt::WatermarkFrontier f(1);
  EXPECT_FALSE(f.Observe(0, kNoWatermark));
  EXPECT_FALSE(f.Observe(7, 100));
  EXPECT_EQ(f.Min(), kNoWatermark);
}

TEST(AlignDownTest, FloorsToTheGrid) {
  EXPECT_EQ(stt::AlignDown(130000, 60000), 120000);
  EXPECT_EQ(stt::AlignDown(120000, 60000), 120000);
  EXPECT_EQ(stt::AlignDown(59999, 60000), 0);
  EXPECT_EQ(stt::AlignDown(0, 60000), 0);
  // Floor (not truncation toward zero) for negative timestamps.
  EXPECT_EQ(stt::AlignDown(-1, 60000), -60000);
  EXPECT_EQ(stt::AlignDown(-60000, 60000), -60000);
  EXPECT_EQ(stt::AlignDown(-60001, 60000), -120000);
  // Degenerate step passes through.
  EXPECT_EQ(stt::AlignDown(5, 0), 5);
}

// -------------------------------------------------------- broker minting --

pubsub::SensorInfo WmInfo(const std::string& id,
                          const std::string& type = "temperature") {
  pubsub::SensorInfo info;
  info.id = id;
  info.type = type;
  info.schema = TempSchema();  // 1-minute granularity
  info.period = duration::kMinute;
  info.location = stt::GeoPoint{34.69, 135.50};
  info.node_id = "node_0";
  return info;
}

class BrokerWatermarkTest : public ::testing::Test {
 protected:
  VirtualClock clock_{1000};
  pubsub::Broker broker_{&clock_};
};

TEST_F(BrokerWatermarkTest, MintsTruncatedMonotoneWatermarks) {
  SL_ASSERT_OK(broker_.Publish(WmInfo("t1")));
  EXPECT_EQ(broker_.WatermarkOf("t1"), kNoWatermark);

  auto schema = TempSchema();
  SL_ASSERT_OK(broker_.PublishTuple("t1", TempTuple(schema, 20.0, 90000)));
  // The watermark is the *enriched* event time: 90 s truncated to the
  // schema's minute granularity.
  EXPECT_EQ(broker_.WatermarkOf("t1"), 60000);

  SL_ASSERT_OK(broker_.PublishTuple("t1", TempTuple(schema, 21.0, 150000)));
  EXPECT_EQ(broker_.WatermarkOf("t1"), 120000);
  // An out-of-order publish never regresses the promise.
  SL_ASSERT_OK(broker_.PublishTuple("t1", TempTuple(schema, 22.0, 30000)));
  EXPECT_EQ(broker_.WatermarkOf("t1"), 120000);
}

TEST_F(BrokerWatermarkTest, UnknownSensorHasNoWatermark) {
  EXPECT_EQ(broker_.WatermarkOf("nope"), kNoWatermark);
}

TEST_F(BrokerWatermarkTest, QueryWatermarkIsMinOverMatchingSensors) {
  SL_ASSERT_OK(broker_.Publish(WmInfo("t1")));
  SL_ASSERT_OK(broker_.Publish(WmInfo("t2")));
  pubsub::DiscoveryQuery query;
  query.type = "temperature";

  // A merged stream promises no more than its slowest member: one
  // silent sensor keeps the query watermark at "no promise yet".
  auto schema = TempSchema();
  SL_ASSERT_OK(broker_.PublishTuple("t1", TempTuple(schema, 20.0, 180000)));
  EXPECT_EQ(broker_.WatermarkOf(query), kNoWatermark);

  SL_ASSERT_OK(broker_.PublishTuple("t2", TempTuple(schema, 20.0, 60000)));
  EXPECT_EQ(broker_.WatermarkOf(query), 60000);

  pubsub::DiscoveryQuery none;
  none.type = "rain";
  EXPECT_EQ(broker_.WatermarkOf(none), kNoWatermark);
}

TEST_F(BrokerWatermarkTest, QueryWatermarkFollowsRegistryChanges) {
  // The query's member set is warmed first, so every registry change
  // below has to reach an already-cached query watermark.
  auto schema = TempSchema();
  pubsub::DiscoveryQuery query;
  query.type = "temperature";
  SL_ASSERT_OK(broker_.Publish(WmInfo("t1")));
  SL_ASSERT_OK(broker_.Publish(WmInfo("t2")));
  SL_ASSERT_OK(broker_.PublishTuple("t1", TempTuple(schema, 20.0, 180000)));
  SL_ASSERT_OK(broker_.PublishTuple("t2", TempTuple(schema, 20.0, 120000)));
  EXPECT_EQ(broker_.WatermarkOf(query), 120000);

  // A matching late joiner has promised nothing yet.
  SL_ASSERT_OK(broker_.Publish(WmInfo("t3")));
  EXPECT_EQ(broker_.WatermarkOf(query), kNoWatermark);

  // Once it produces below the minimum, the merged watermark drops.
  SL_ASSERT_OK(broker_.PublishTuple("t3", TempTuple(schema, 20.0, 60000)));
  EXPECT_EQ(broker_.WatermarkOf(query), 60000);

  // Unpublishing the slowest member raises the minimum.
  SL_ASSERT_OK(broker_.Unpublish("t3"));
  EXPECT_EQ(broker_.WatermarkOf(query), 120000);

  // A sensor the query does not match changes nothing, silent or not.
  SL_ASSERT_OK(broker_.Publish(WmInfo("r1", "rain")));
  EXPECT_EQ(broker_.WatermarkOf(query), 120000);
  SL_ASSERT_OK(broker_.PublishTuple("r1", TempTuple(schema, 1.0, 0)));
  EXPECT_EQ(broker_.WatermarkOf(query), 120000);
}

TEST_F(BrokerWatermarkTest, SuppressedTuplesDoNotAdvanceTheWatermark) {
  SL_ASSERT_OK(broker_.Publish(WmInfo("t1")));
  auto schema = TempSchema();
  SL_ASSERT_OK(broker_.PublishTuple("t1", TempTuple(schema, 20.0, 60000)));
  EXPECT_EQ(broker_.WatermarkOf("t1"), 60000);

  // A crashed node's sensors are gated: their tuples never reach a
  // subscriber, so they must not make event-time promises either.
  broker_.set_node_gate([](const std::string&) { return false; });
  SL_ASSERT_OK(broker_.PublishTuple("t1", TempTuple(schema, 21.0, 180000)));
  EXPECT_EQ(broker_.tuples_suppressed(), 1u);
  EXPECT_EQ(broker_.WatermarkOf("t1"), 60000);
}

// --------------------------------------------------- event-time operators --

class RecordingActivation : public ops::ActivationHandler {
 public:
  void ActivateSensors(const std::vector<std::string>&, Timestamp) override {
    ++activations;
  }
  void DeactivateSensors(const std::vector<std::string>&, Timestamp) override {
    ++deactivations;
  }
  int activations = 0;
  int deactivations = 0;
};

struct WmHarness {
  WmHarness(OpKind op, dataflow::OpSpec spec, ops::WatermarkOptions wm,
            std::vector<stt::SchemaPtr> inputs = {TempSchema()},
            std::vector<std::string> names = {"in"}) {
    ops::OperatorOptions options;
    options.activation = &activation;
    options.watermark = wm;
    auto result =
        ops::MakeOperator("op", op, std::move(spec), inputs, names, options);
    EXPECT_TRUE(result.ok()) << result.status();
    op_ = std::move(result).ValueOrDie();
    op_->set_emit([this](const stt::TupleRef& t) { out.push_back(*t); });
    op_->set_late_emit([this](const stt::TupleRef& t) { late.push_back(*t); });
  }
  std::unique_ptr<ops::Operator> op_;
  std::vector<stt::Tuple> out;
  std::vector<stt::Tuple> late;
  RecordingActivation activation;
};

ops::WatermarkOptions EventMode(
    ops::LatePolicy late = ops::LatePolicy::kAdmit, Duration lateness = 0) {
  ops::WatermarkOptions wm;
  wm.time_policy = ops::TimePolicy::kEvent;
  wm.late_policy = late;
  wm.allowed_lateness = lateness;
  return wm;
}

TEST(EventAggregationTest, FiresOnWatermarkProgressNotFlushTime) {
  AggregationSpec spec;
  spec.interval = duration::kMinute;
  spec.func = AggFunc::kAvg;
  spec.attributes = {"temp"};
  WmHarness h(OpKind::kAggregation, spec, EventMode());
  auto schema = TempSchema();
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(schema, 10.0, 10000)));
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(schema, 20.0, 70000)));

  // However far the processing clock runs, nothing fires before the
  // input stream has promised event-time progress.
  SL_ASSERT_OK(h.op_->Flush(10 * duration::kMinute));
  EXPECT_TRUE(h.out.empty());
  EXPECT_EQ(h.op_->output_watermark(), kNoWatermark);

  h.op_->ObserveWatermark(0, 130000);
  SL_ASSERT_OK(h.op_->Flush(10 * duration::kMinute));
  // Two aligned windows fired: [0, 60s) and [60s, 120s), stamped with
  // their closing granule.
  ASSERT_EQ(h.out.size(), 2u);
  EXPECT_DOUBLE_EQ(h.out[0].value(0).AsDouble(), 10.0);
  EXPECT_EQ(h.out[0].timestamp(), 0);
  EXPECT_DOUBLE_EQ(h.out[1].value(0).AsDouble(), 20.0);
  EXPECT_EQ(h.out[1].timestamp(), 60000);
  // The output promise is the fired horizon, not the input frontier.
  EXPECT_EQ(h.op_->output_watermark(), 120000);
}

TEST(EventAggregationTest, HalfOpenWindowBoundaries) {
  AggregationSpec spec;
  spec.interval = duration::kMinute;
  spec.func = AggFunc::kCount;
  spec.attributes = {};
  WmHarness h(OpKind::kAggregation, spec, EventMode());
  auto schema = TempSchema();
  // begin is inclusive, end is exclusive: 60 s belongs to [60s, 120s),
  // 120 s to [120s, 180s).
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(schema, 1.0, 60000)));
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(schema, 1.0, 119999)));
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(schema, 1.0, 120000)));
  h.op_->ObserveWatermark(0, 180000);
  SL_ASSERT_OK(h.op_->Flush(0));
  ASSERT_EQ(h.out.size(), 2u);
  EXPECT_EQ(h.out[0].value(0).AsInt(), 2);  // [60s, 120s)
  EXPECT_EQ(h.out[1].value(0).AsInt(), 1);  // [120s, 180s)
}

TEST(EventAggregationTest, LateDropPolicyCountsAndDiscards) {
  AggregationSpec spec;
  spec.interval = duration::kMinute;
  spec.func = AggFunc::kCount;
  spec.attributes = {};
  WmHarness h(OpKind::kAggregation, spec, EventMode(ops::LatePolicy::kDrop));
  auto schema = TempSchema();
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(schema, 1.0, 10000)));
  h.op_->ObserveWatermark(0, 130000);
  SL_ASSERT_OK(h.op_->Flush(0));
  ASSERT_EQ(h.out.size(), 1u);

  // Every window containing 50 s has fired (horizon 120 s): dropped.
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(schema, 1.0, 50000)));
  EXPECT_EQ(h.op_->stats().late_dropped, 1u);
  h.op_->ObserveWatermark(0, 190000);
  SL_ASSERT_OK(h.op_->Flush(0));
  EXPECT_EQ(h.out.size(), 1u);  // the late tuple resurrects no window
}

TEST(EventAggregationTest, LateSideOutputDiverts) {
  AggregationSpec spec;
  spec.interval = duration::kMinute;
  spec.func = AggFunc::kCount;
  spec.attributes = {};
  WmHarness h(OpKind::kAggregation, spec,
              EventMode(ops::LatePolicy::kSideOutput));
  auto schema = TempSchema();
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(schema, 1.0, 10000)));
  h.op_->ObserveWatermark(0, 130000);
  SL_ASSERT_OK(h.op_->Flush(0));

  SL_ASSERT_OK(h.op_->Process(0, TempTuple(schema, 1.0, 50000)));
  EXPECT_EQ(h.op_->stats().late_routed, 1u);
  ASSERT_EQ(h.late.size(), 1u);
  EXPECT_EQ(h.late[0].timestamp(), 50000);
}

TEST(EventAggregationTest, AllowedLatenessHoldsWindowsOpen) {
  AggregationSpec spec;
  spec.interval = duration::kMinute;
  spec.func = AggFunc::kCount;
  spec.attributes = {};
  WmHarness h(OpKind::kAggregation, spec,
              EventMode(ops::LatePolicy::kDrop, duration::kMinute));
  auto schema = TempSchema();
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(schema, 1.0, 10000)));
  h.op_->ObserveWatermark(0, 130000);
  SL_ASSERT_OK(h.op_->Flush(0));
  // Horizon is 130 s - 60 s lateness = 70 s: only [0, 60s) fired.
  ASSERT_EQ(h.out.size(), 1u);
  // A tuple one window behind the frontier is within the lateness bound.
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(schema, 1.0, 70000)));
  EXPECT_EQ(h.op_->stats().late_dropped, 0u);
  h.op_->ObserveWatermark(0, 190000);
  SL_ASSERT_OK(h.op_->Flush(0));
  ASSERT_EQ(h.out.size(), 2u);
  EXPECT_EQ(h.out[1].value(0).AsInt(), 1);  // [60s, 120s) counts it
}

TEST(EventJoinTest, PairsFireAtExactlyOneWindowEnd) {
  JoinSpec spec;
  spec.interval = duration::kMinute;
  spec.predicate = "true";
  WmHarness h(OpKind::kJoin, spec, EventMode(),
              {TempSchema(), RainSchema()}, {"l", "r"});
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(TempSchema(), 1.0, 10000)));
  SL_ASSERT_OK(h.op_->Process(1, RainTuple(RainSchema(), 2.0, 20000)));

  // The frontier is the min over ports: one silent side blocks firing.
  h.op_->ObserveWatermark(0, 60000);
  SL_ASSERT_OK(h.op_->Flush(0));
  EXPECT_TRUE(h.out.empty());

  h.op_->ObserveWatermark(1, 60000);
  SL_ASSERT_OK(h.op_->Flush(0));
  ASSERT_EQ(h.out.size(), 1u);

  // Later ends do not re-emit the pair.
  h.op_->ObserveWatermark(0, 120000);
  h.op_->ObserveWatermark(1, 120000);
  SL_ASSERT_OK(h.op_->Flush(0));
  EXPECT_EQ(h.out.size(), 1u);
}

TEST(EventJoinTest, SlidingWindowPairsAcrossIntervals) {
  JoinSpec spec;
  spec.interval = duration::kMinute;
  spec.window = 2 * duration::kMinute;
  spec.predicate = "true";
  WmHarness h(OpKind::kJoin, spec, EventMode(),
              {TempSchema(), RainSchema()}, {"l", "r"});
  // Members one interval apart: only a sliding window pairs them — and
  // the pair fires at the single end whose closing granule holds the
  // pair time (70 s -> end 120 s).
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(TempSchema(), 1.0, 10000)));
  SL_ASSERT_OK(h.op_->Process(1, RainTuple(RainSchema(), 2.0, 70000)));
  h.op_->ObserveWatermark(0, 120000);
  h.op_->ObserveWatermark(1, 120000);
  SL_ASSERT_OK(h.op_->Flush(0));
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_EQ(h.out[0].timestamp(), 60000);  // minute granule of 70 s

  h.op_->ObserveWatermark(0, 180000);
  h.op_->ObserveWatermark(1, 180000);
  SL_ASSERT_OK(h.op_->Flush(0));
  EXPECT_EQ(h.out.size(), 1u);  // not re-emitted at 180 s
}

TEST(EventTriggerTest, PassesThroughAndFiresOnWatermark) {
  TriggerSpec spec;
  spec.interval = duration::kMinute;
  spec.condition = "temp > 25";
  spec.target_sensors = {"r1"};
  WmHarness h(OpKind::kTriggerOn, spec, EventMode());
  auto schema = TempSchema();
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(schema, 30.0, 10000)));
  // The monitored stream passes through immediately, unconditionally.
  EXPECT_EQ(h.out.size(), 1u);
  EXPECT_EQ(h.activation.activations, 0);

  h.op_->ObserveWatermark(0, 60000);
  SL_ASSERT_OK(h.op_->Flush(5000));
  EXPECT_EQ(h.op_->stats().trigger_fires, 1u);
  EXPECT_EQ(h.activation.activations, 1);
  // Pass-through output: the promise stays the input frontier.
  EXPECT_EQ(h.op_->output_watermark(), 60000);

  // An empty later window does not fire.
  h.op_->ObserveWatermark(0, 120000);
  SL_ASSERT_OK(h.op_->Flush(5000));
  EXPECT_EQ(h.op_->stats().trigger_fires, 1u);
}

// --------------------------------------------------- boundary regressions --

TEST(CullTimeBoundaryTest, UpperBoundIsExclusive) {
  CullTimeSpec spec;
  spec.t_begin = 0;
  spec.t_end = 60000;
  spec.rate = 1.0;  // decimate everything inside the range
  WmHarness h(OpKind::kCullTime, spec, ops::WatermarkOptions{});
  auto schema = TempSchema();
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(schema, 1.0, 59999)));  // culled
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(schema, 1.0, 60000)));  // outside
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_EQ(h.out[0].timestamp(), 60000);
}

TEST(SlidingAggregationDedupTest, UnchangedWindowIsNotReEmitted) {
  AggregationSpec spec;
  spec.interval = duration::kMinute;
  spec.window = 2 * duration::kMinute;
  spec.func = AggFunc::kCount;
  spec.attributes = {};
  WmHarness h(OpKind::kAggregation, spec, ops::WatermarkOptions{});
  auto schema = TempSchema();
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(schema, 1.0, 10000)));
  SL_ASSERT_OK(h.op_->Flush(duration::kMinute));
  ASSERT_EQ(h.out.size(), 1u);
  // Same window content at the next check: re-emitting would
  // double-count the row downstream.
  SL_ASSERT_OK(h.op_->Flush(2 * duration::kMinute));
  EXPECT_EQ(h.out.size(), 1u);
  // New content resumes emission.
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(schema, 1.0, 130000)));
  SL_ASSERT_OK(h.op_->Flush(3 * duration::kMinute));
  ASSERT_EQ(h.out.size(), 2u);
  EXPECT_EQ(h.out[1].value(0).AsInt(), 1);  // the 10 s tuple expired
}

TEST(MakeOperatorTest, RejectsZeroCacheForBlockingKinds) {
  ops::OperatorOptions options;
  options.max_cache_tuples = 0;
  RecordingActivation activation;
  options.activation = &activation;

  AggregationSpec agg;
  agg.interval = duration::kMinute;
  agg.func = AggFunc::kCount;
  EXPECT_TRUE(ops::MakeOperator("a", OpKind::kAggregation, agg, {TempSchema()},
                                {"in"}, options)
                  .status()
                  .IsInvalidArgument());

  JoinSpec join;
  join.interval = duration::kMinute;
  join.predicate = "true";
  EXPECT_TRUE(ops::MakeOperator("j", OpKind::kJoin, join,
                                {TempSchema(), RainSchema()}, {"l", "r"},
                                options)
                  .status()
                  .IsInvalidArgument());

  TriggerSpec trig;
  trig.interval = duration::kMinute;
  trig.condition = "true";
  trig.target_sensors = {"x"};
  EXPECT_TRUE(ops::MakeOperator("t", OpKind::kTriggerOn, trig, {TempSchema()},
                                {"in"}, options)
                  .status()
                  .IsInvalidArgument());

  // Non-blocking operations have no cache and are unaffected.
  dataflow::FilterSpec filter;
  filter.condition = "true";
  EXPECT_TRUE(ops::MakeOperator("f", OpKind::kFilter, filter, {TempSchema()},
                                {"in"}, options)
                  .ok());
}

}  // namespace
}  // namespace sl
