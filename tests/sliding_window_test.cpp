// Tests for the sliding-window regime of the blocking operations
// (AggregationSpec/JoinSpec/TriggerSpec::window): the "last hour of
// data, checked every t" semantics of the paper's §3 scenario.

#include <gtest/gtest.h>

#include "core/streamloader.h"
#include "dataflow/validate.h"
#include "dsn/parser.h"
#include "dsn/translate.h"
#include "ops/operator.h"
#include "sensors/generators.h"
#include "tests/reference/blocking.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace sl {
namespace {

using dataflow::AggFunc;
using dataflow::AggregationSpec;
using dataflow::DataflowBuilder;
using dataflow::JoinSpec;
using dataflow::OpKind;
using dataflow::SinkKind;
using dataflow::TriggerSpec;
using sl::testing::RainSchema;
using sl::testing::RainTuple;
using sl::testing::TempSchema;
using sl::testing::TempTuple;
using stt::Tuple;

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

struct Harness {
  Harness(OpKind op, dataflow::OpSpec spec,
          std::vector<stt::SchemaPtr> inputs = {TempSchema()},
          std::vector<std::string> names = {"in"}, bool naive = false) {
    ops::OperatorOptions options;
    options.activation = &activation;
    auto result = naive ? reference::MakeBlockingReference(
                              "op", op, spec, inputs, names, options)
                        : ops::MakeOperator("op", op, spec, inputs, names,
                                            options);
    EXPECT_TRUE(result.ok()) << result.status();
    op_ = std::move(result).ValueOrDie();
    op_->set_emit([this](const stt::TupleRef& t) { out.push_back(*t); });
  }
  std::unique_ptr<ops::Operator> op_;
  std::vector<Tuple> out;
  RecordingActivation activation;
};

// ----------------------------------------------------------- aggregation --

TEST(SlidingAggregationTest, WindowRetainsAcrossChecks) {
  AggregationSpec spec;
  spec.interval = duration::kMinute;
  spec.window = duration::kHour;
  spec.func = AggFunc::kCount;
  spec.attributes = {};
  Harness h(OpKind::kAggregation, spec);
  auto schema = TempSchema();

  // 3 tuples in the first minute; the first check counts 3.
  for (int i = 0; i < 3; ++i) {
    SL_ASSERT_OK(h.op_->Process(0, TempTuple(schema, i, i * 1000)));
  }
  SL_ASSERT_OK(h.op_->Flush(duration::kMinute));
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_EQ(h.out[0].value(0).AsInt(), 3);

  // 2 more tuples in the second minute; a sliding check counts 5
  // (a tumbling one would count 2).
  for (int i = 0; i < 2; ++i) {
    SL_ASSERT_OK(h.op_->Process(
        0, TempTuple(schema, i, duration::kMinute + i * 1000)));
  }
  SL_ASSERT_OK(h.op_->Flush(2 * duration::kMinute));
  ASSERT_EQ(h.out.size(), 2u);
  EXPECT_EQ(h.out[1].value(0).AsInt(), 5);
}

TEST(SlidingAggregationTest, OldTuplesExpire) {
  AggregationSpec spec;
  spec.interval = duration::kMinute;
  spec.window = 2 * duration::kMinute;
  spec.func = AggFunc::kCount;
  spec.attributes = {};
  Harness h(OpKind::kAggregation, spec);
  auto schema = TempSchema();
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(schema, 1.0, 0)));
  // At t = 3 min the tuple (event time 0) is older than the window.
  SL_ASSERT_OK(h.op_->Flush(3 * duration::kMinute));
  EXPECT_TRUE(h.out.empty());  // empty window emits nothing
  EXPECT_EQ(h.op_->stats().cache_size, 0u);
}

TEST(SlidingAggregationTest, TumblingStillClears) {
  AggregationSpec spec;
  spec.interval = duration::kMinute;
  spec.window = 0;  // tumbling
  spec.func = AggFunc::kCount;
  spec.attributes = {};
  Harness h(OpKind::kAggregation, spec);
  auto schema = TempSchema();
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(schema, 1.0, 0)));
  SL_ASSERT_OK(h.op_->Flush(duration::kMinute));
  SL_ASSERT_OK(h.op_->Flush(2 * duration::kMinute));
  ASSERT_EQ(h.out.size(), 1u);  // second (empty) check emits nothing
}

// ----------------------------------------------------------------- join --

TEST(SlidingJoinTest, PairsEmittedExactlyOnce) {
  JoinSpec spec;
  spec.interval = duration::kMinute;
  spec.window = duration::kHour;
  spec.predicate = "true";
  Harness h(OpKind::kJoin, spec, {TempSchema(), RainSchema()}, {"l", "r"});
  auto ts_schema = TempSchema();
  auto rs = RainSchema();

  SL_ASSERT_OK(h.op_->Process(0, TempTuple(ts_schema, 1.0, 1000)));
  SL_ASSERT_OK(h.op_->Process(1, RainTuple(rs, 2.0, 2000)));
  SL_ASSERT_OK(h.op_->Flush(duration::kMinute));
  EXPECT_EQ(h.out.size(), 1u);  // (l1, r1)

  // Without new arrivals a second check emits nothing new.
  SL_ASSERT_OK(h.op_->Flush(2 * duration::kMinute));
  EXPECT_EQ(h.out.size(), 1u);

  // A new right tuple pairs with the *retained* left tuple — the pair a
  // tumbling join would have missed across the boundary.
  SL_ASSERT_OK(h.op_->Process(
      1, RainTuple(rs, 3.0, 2 * duration::kMinute + 1000)));
  SL_ASSERT_OK(h.op_->Flush(3 * duration::kMinute));
  ASSERT_EQ(h.out.size(), 2u);
  EXPECT_DOUBLE_EQ((*h.out[1].ValueByName("rain")).AsDouble(), 3.0);
}

TEST(SlidingJoinTest, ExpiredElementsStopPairing) {
  JoinSpec spec;
  spec.interval = duration::kMinute;
  spec.window = 2 * duration::kMinute;
  spec.predicate = "true";
  Harness h(OpKind::kJoin, spec, {TempSchema(), RainSchema()}, {"l", "r"});
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(TempSchema(), 1.0, 0)));
  SL_ASSERT_OK(h.op_->Flush(duration::kMinute));
  // Left tuple (event time 0) expires by t = 3 min; a right arrival
  // after that finds an empty left side.
  SL_ASSERT_OK(h.op_->Process(
      1, RainTuple(RainSchema(), 2.0, 3 * duration::kMinute + 1000)));
  SL_ASSERT_OK(h.op_->Flush(4 * duration::kMinute));
  EXPECT_TRUE(h.out.empty());
}

// -------------------------------------------------------------- trigger --

TEST(SlidingTriggerTest, ConditionSeenAcrossChecks) {
  // A hot tuple keeps firing the trigger for the whole window — "the
  // temperature identified in the last hour is above 25 C" stays true
  // until the reading leaves the hour.
  TriggerSpec spec;
  spec.interval = 10 * duration::kMinute;
  spec.window = duration::kHour;
  spec.condition = "temp > 25";
  spec.target_sensors = {"r1"};
  Harness h(OpKind::kTriggerOn, spec);
  auto schema = TempSchema();
  SL_ASSERT_OK(h.op_->Process(0, TempTuple(schema, 30.0, 5 * 60000)));
  // Checks at 10, 20, ..., 60 minutes: the reading (t = 5 min) is inside
  // the hour for all six; at 70 min it has expired (65 min old... still
  // inside; at 70 min cutoff = 10 min > 5 min -> expired).
  int fired = 0;
  for (int check = 1; check <= 7; ++check) {
    SL_ASSERT_OK(h.op_->Flush(check * 10 * duration::kMinute));
    fired = static_cast<int>(h.op_->stats().trigger_fires);
  }
  EXPECT_EQ(fired, 6);
  EXPECT_EQ(h.activation.activations, 6);

  // Tumbling comparison: the same input fires exactly once.
  TriggerSpec tumbling = spec;
  tumbling.window = 0;
  Harness t(OpKind::kTriggerOn, tumbling);
  SL_ASSERT_OK(t.op_->Process(0, TempTuple(schema, 30.0, 5 * 60000)));
  for (int check = 1; check <= 7; ++check) {
    SL_ASSERT_OK(t.op_->Flush(check * 10 * duration::kMinute));
  }
  EXPECT_EQ(t.op_->stats().trigger_fires, 1u);
}

// ------------------------------------------ fast vs naive sliding oracles --
//
// The sliding regime layers retention, expiry and emit-once dedup on
// top of the per-flush work, so the hash-join / pre-bucketed-group fast
// paths have more state to keep consistent here than in the tumbling
// case. Property: for random windows, arrival patterns and flush
// cadences, the fast and reference implementations emit bit-identical
// row sequences.

void ExpectSameRows(const std::vector<Tuple>& fast,
                    const std::vector<Tuple>& naive, uint64_t seed,
                    const char* what) {
  ASSERT_EQ(fast.size(), naive.size()) << what << ", seed " << seed;
  for (size_t i = 0; i < fast.size(); ++i) {
    ASSERT_EQ(fast[i].ToString(), naive[i].ToString())
        << what << ", row " << i << ", seed " << seed;
  }
}

TEST(SlidingOracleTest, JoinFastMatchesNaive) {
  const char* kPredicates[] = {"temp == rain", "temp == rain and temp > 2",
                               "temp > rain"};
  for (uint64_t seed = 500; seed < 550; ++seed) {
    Rng rng(seed);
    JoinSpec spec;
    spec.interval = duration::kMinute;
    spec.window = (1 + rng.NextBounded(4)) * duration::kMinute;
    spec.predicate = kPredicates[rng.NextBounded(3)];
    Harness fast(OpKind::kJoin, spec, {TempSchema(), RainSchema()},
                 {"l", "r"}, /*naive=*/false);
    Harness naive(OpKind::kJoin, spec, {TempSchema(), RainSchema()},
                  {"l", "r"}, /*naive=*/true);
    auto ls = TempSchema();
    auto rs = RainSchema();
    for (int round = 1; round <= 6; ++round) {
      Timestamp now = round * duration::kMinute;
      size_t nl = rng.NextBounded(12), nr = rng.NextBounded(12);
      for (size_t i = 0; i < nl; ++i) {
        // Selective integer-valued keys so the hash index sees real
        // bucket collisions; some stragglers land in prior minutes.
        double key = static_cast<double>(rng.NextBounded(6));
        Timestamp ts = now - duration::kMinute - rng.NextBounded(120000);
        Tuple t = TempTuple(ls, key, ts);
        SL_ASSERT_OK(fast.op_->Process(0, t));
        SL_ASSERT_OK(naive.op_->Process(0, t));
      }
      for (size_t i = 0; i < nr; ++i) {
        double key = static_cast<double>(rng.NextBounded(6));
        Timestamp ts = now - duration::kMinute - rng.NextBounded(120000);
        Tuple t = RainTuple(rs, key, ts);
        SL_ASSERT_OK(fast.op_->Process(1, t));
        SL_ASSERT_OK(naive.op_->Process(1, t));
      }
      // Occasionally skip a flush so arrivals pile up across intervals.
      if (rng.NextBounded(4) != 0) {
        SL_ASSERT_OK(fast.op_->Flush(now));
        SL_ASSERT_OK(naive.op_->Flush(now));
      }
    }
    SL_ASSERT_OK(fast.op_->Flush(7 * duration::kMinute));
    SL_ASSERT_OK(naive.op_->Flush(7 * duration::kMinute));
    ExpectSameRows(fast.out, naive.out, seed, "sliding join");
    // Emit-once dedup held on both sides (same stats, same rows).
    EXPECT_EQ(fast.op_->stats().tuples_out, naive.op_->stats().tuples_out);
  }
}

TEST(SlidingOracleTest, AggregationFastMatchesNaive) {
  const AggFunc kFuncs[] = {AggFunc::kAvg, AggFunc::kSum, AggFunc::kMin,
                            AggFunc::kMax, AggFunc::kCount};
  const char* kStations[] = {"osaka", "kyoto", "nara", "kobe"};
  for (uint64_t seed = 600; seed < 650; ++seed) {
    Rng rng(seed);
    AggregationSpec spec;
    spec.interval = duration::kMinute;
    spec.window = (1 + rng.NextBounded(4)) * duration::kMinute;
    spec.func = kFuncs[rng.NextBounded(5)];
    spec.attributes = {"temp"};
    if (rng.NextBounded(2) == 0) spec.group_by = {"station"};
    Harness fast(OpKind::kAggregation, spec, {TempSchema()}, {"in"},
                 /*naive=*/false);
    Harness naive(OpKind::kAggregation, spec, {TempSchema()}, {"in"},
                  /*naive=*/true);
    auto schema = TempSchema();
    size_t stations = 1 + rng.NextBounded(4);
    for (int round = 1; round <= 6; ++round) {
      Timestamp now = round * duration::kMinute;
      size_t n = rng.NextBounded(80);
      for (size_t i = 0; i < n; ++i) {
        stt::Value temp = rng.NextBounded(20) == 0
                              ? stt::Value::Null()
                              : stt::Value::Double(rng.NextDouble(-10, 35));
        Timestamp ts = now - duration::kMinute - rng.NextBounded(180000);
        Tuple t = Tuple::MakeUnsafe(
            schema,
            {std::move(temp),
             stt::Value::String(kStations[rng.NextBounded(stations)])},
            ts, stt::GeoPoint{34.5, 135.5}, "s");
        SL_ASSERT_OK(fast.op_->Process(0, t));
        SL_ASSERT_OK(naive.op_->Process(0, t));
      }
      // Sometimes flush twice in a row: the second pass sees an
      // unchanged window and both sides must suppress the re-emission.
      int flushes = 1 + (rng.NextBounded(3) == 0 ? 1 : 0);
      for (int f = 0; f < flushes; ++f) {
        SL_ASSERT_OK(fast.op_->Flush(now));
        SL_ASSERT_OK(naive.op_->Flush(now));
      }
    }
    ExpectSameRows(fast.out, naive.out, seed, "sliding aggregation");
    EXPECT_EQ(fast.op_->stats().cache_size, naive.op_->stats().cache_size);
  }
}

// ------------------------------------------------- builder + translation --

TEST(SlidingWindowSpecTest, WindowSmallerThanIntervalBuildsButLints) {
  // A window shorter than the check interval is deployable — old tuples
  // are evicted unprocessed — so the builder accepts it and the static
  // analyzer warns (SL3006, kWindowNeverFires).
  EXPECT_TRUE(DataflowBuilder("f").AddSource("s", "t")
                  .AddAggregation("a", "s", duration::kHour, AggFunc::kAvg,
                                  {"temp"}, {}, duration::kMinute)
                  .AddSink("o", "a", SinkKind::kCollect)
                  .Build().ok());

  AggregationSpec spec;
  spec.interval = duration::kHour;
  spec.window = duration::kMinute;
  spec.func = AggFunc::kAvg;
  spec.attributes = {"temp"};
  std::vector<dataflow::Issue> issues;
  dataflow::Validator::CheckOp(OpKind::kAggregation, spec, {TempSchema()},
                               {"in"}, &issues);
  bool warned = false;
  for (const auto& issue : issues) {
    if (issue.code == diag::Code::kWindowNeverFires) warned = true;
  }
  EXPECT_TRUE(warned);

  // window == interval is legal and clean.
  EXPECT_TRUE(DataflowBuilder("f").AddSource("s", "t")
                  .AddTriggerOn("tr", "s", duration::kHour, "true", {"x"},
                                duration::kHour)
                  .AddSink("o", "tr", SinkKind::kCollect)
                  .Build().ok());
}

TEST(SlidingWindowSpecTest, WindowSurvivesDsnRoundTrip) {
  auto df = *DataflowBuilder("win")
                 .AddSource("s", "t1")
                 .AddSource("s2", "t2")
                 .AddAggregation("a", "s", duration::kMinute, AggFunc::kAvg,
                                 {"temp"}, {}, duration::kHour)
                 .AddJoin("j", "a", "s2", duration::kMinute, "true",
                          10 * duration::kMinute)
                 .AddTriggerOn("tr", "j", duration::kMinute, "true", {"x"},
                               duration::kHour)
                 .AddSink("o", "tr", SinkKind::kCollect)
                 .Build();
  auto spec = *dsn::TranslateToDsn(df);
  auto parsed = *dsn::ParseDsn(spec.ToString());
  EXPECT_EQ(parsed, spec);
  auto lifted = *dsn::TranslateFromDsn(parsed);
  const auto& agg = std::get<AggregationSpec>((*lifted.node("a"))->spec);
  EXPECT_EQ(agg.window, duration::kHour);
  const auto& join = std::get<JoinSpec>((*lifted.node("j"))->spec);
  EXPECT_EQ(join.window, 10 * duration::kMinute);
  const auto& trig = std::get<TriggerSpec>((*lifted.node("tr"))->spec);
  EXPECT_EQ(trig.window, duration::kHour);
  // The paper-notation rendering shows the window.
  EXPECT_NE(dataflow::SpecToString(OpKind::kAggregation, agg).find("1m/1h"),
            std::string::npos);
}

// ------------------------------------------------------------ end to end --

TEST(SlidingWindowSystemTest, ScenarioWithSlidingHourCheckedEveryTenMinutes) {
  // The paper's scenario phrased precisely: every 10 minutes, check the
  // mean temperature of the LAST HOUR; trigger when it exceeds 25 C.
  StreamLoaderOptions options;
  options.network_nodes = 4;
  options.start_time = 1458000000000 + 11 * duration::kHour;  // near peak
  StreamLoader loader(options);

  sensors::PhysicalConfig temp;
  temp.id = "t1";
  temp.period = duration::kMinute;
  temp.temporal_granularity = duration::kMinute;
  temp.node_id = "node_0";
  SL_ASSERT_OK(loader.AddSensor(
      sensors::MakeTemperatureSensor(temp, 23.0, 7.0, 0.2)));
  sensors::PhysicalConfig rain = temp;
  rain.id = "r1";
  rain.node_id = "node_1";
  rain.seed = 9;
  SL_ASSERT_OK(loader.AddSensor(sensors::MakeRainSensor(rain),
                                /*start_active=*/false));

  auto df = *loader.NewDataflow("sliding_scenario")
                 .AddSource("src", "t1")
                 .AddAggregation("hourly_mean", "src",
                                 10 * duration::kMinute, AggFunc::kAvg,
                                 {"temp"}, {}, duration::kHour)
                 .AddTriggerOn("hot", "hourly_mean", 10 * duration::kMinute,
                               "avg_temp > 25", {"r1"},
                               duration::kHour)
                 .AddSink("track", "hot", SinkKind::kCollect)
                 .Build();
  auto id = *loader.Deploy(df);
  loader.RunFor(3 * duration::kHour);
  auto agg_stats = *loader.executor().OperatorStatsOf(id, "hourly_mean");
  // 6 checks per hour instead of 1: the reaction granularity improved.
  EXPECT_EQ(agg_stats.flushes, 18u);
  EXPECT_TRUE((*loader.fleet().Find("r1"))->running());
  EXPECT_GE((*loader.executor().stats(id))->activations, 1u);
}

}  // namespace
}  // namespace sl
