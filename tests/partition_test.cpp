// The key-partitioning oracle: a blocking operator deployed with
// `parallelism` N must be bit-identical to the N = 1 deployment — same
// sink rows for tumbling, sliding and event-time aggregations,
// equi-joins and triggers, under delay faults, genuinely late data and
// a tight cache bound, and across elastic scale-out/in mid-stream. The
// streams are keyed replays, so every run of a seed is reproducible
// bit-for-bit.
//
// Replay one failing seed with SL_CHAOS_SEED=<seed> ./partition_test

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "dsn/translate.h"
#include "net/fault.h"
#include "ops/operator.h"
#include "sensors/generators.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace sl {
namespace {

using sl::testing::ChaosSeeds;

// ------------------------------------------------------ keyed streams --

/// {temp: double, station: string} @1s — a groupable temperature stream.
stt::SchemaPtr KeyedTempSchema() {
  auto tgran = stt::TemporalGranularity::Make(duration::kSecond);
  auto theme = stt::Theme::Parse("weather/temperature");
  return *stt::Schema::Make(
      {{"temp", stt::ValueType::kDouble, "celsius", false},
       {"station", stt::ValueType::kString, "", false}},
      *tgran, stt::SpatialGranularity::Point(), *theme);
}

/// {rain: double, station: string} @1s — the join partner.
stt::SchemaPtr KeyedRainSchema() {
  auto tgran = stt::TemporalGranularity::Make(duration::kSecond);
  auto theme = stt::Theme::Parse("weather/rain");
  return *stt::Schema::Make(
      {{"rain", stt::ValueType::kDouble, "mm/h", false},
       {"station", stt::ValueType::kString, "", false}},
      *tgran, stt::SpatialGranularity::Point(), *theme);
}

/// A seeded recording cycling through 8 station keys with random values
/// (the ReplaySensor re-stamps each tuple at emission time).
std::vector<stt::Tuple> KeyedRecording(const stt::SchemaPtr& schema,
                                       uint64_t seed,
                                       const std::string& sensor) {
  Rng rng(seed);
  std::vector<stt::Tuple> recording;
  for (int i = 0; i < 48; ++i) {
    std::string station = "s" + std::to_string(rng.NextBounded(8));
    recording.push_back(stt::Tuple::MakeUnsafe(
        schema,
        {stt::Value::Double(rng.NextDouble(-5.0, 30.0)),
         stt::Value::String(station)},
        0, stt::GeoPoint{34.69, 135.50}, sensor));
  }
  return recording;
}

Result<std::unique_ptr<sensors::SensorSimulator>> KeyedSensor(
    const std::string& id, const stt::SchemaPtr& schema,
    const std::string& node_id, uint64_t seed) {
  pubsub::SensorInfo info;
  info.id = id;
  info.type = "keyed_replay";
  info.schema = schema;
  info.period = duration::kSecond;
  info.location = stt::GeoPoint{34.69, 135.50};
  info.provides_timestamp = true;
  info.provides_location = true;
  info.node_id = node_id;
  return sensors::MakeReplaySensor(std::move(info),
                                   KeyedRecording(schema, seed, id));
}

// ------------------------------------------------- partitioned specs --

/// Grouped average, `parallelism` instances partitioned by the group key.
dataflow::AggregationSpec PartAgg(size_t parallelism, Duration window,
                                  Duration interval = 5 * duration::kSecond) {
  dataflow::AggregationSpec agg;
  agg.interval = interval;
  agg.window = window;
  agg.func = dataflow::AggFunc::kAvg;
  agg.attributes = {"temp"};
  agg.group_by = {"station"};
  agg.parallelism = parallelism;
  return agg;
}

dsn::DsnSpec PartAggSpec(size_t parallelism, Duration window,
                         Duration interval = 5 * duration::kSecond) {
  dataflow::AggregationSpec agg = PartAgg(parallelism, window, interval);
  auto df = *dataflow::DataflowBuilder("pt_agg")
                 .AddSource("src", "pt_t0")
                 .AddOperator("agg", dataflow::OpKind::kAggregation, agg,
                              {"src"})
                 .AddSink("out", "agg", dataflow::SinkKind::kCollect)
                 .Build();
  return *dsn::TranslateToDsn(df);
}

/// Equi-join on the station key ("station" collides, so the joined
/// schema carries left_station/right_station).
dataflow::JoinSpec PartJoin(size_t parallelism, Duration window) {
  dataflow::JoinSpec join;
  join.interval = 5 * duration::kSecond;
  join.window = window;
  join.predicate = "left_station == right_station";
  join.parallelism = parallelism;
  return join;
}

dsn::DsnSpec PartJoinSpec(size_t parallelism, Duration window) {
  dataflow::JoinSpec join = PartJoin(parallelism, window);
  auto df = *dataflow::DataflowBuilder("pt_join")
                 .AddSource("left", "pt_t0")
                 .AddSource("right", "pt_r0")
                 .AddOperator("join", dataflow::OpKind::kJoin, join,
                              {"left", "right"})
                 .AddSink("out", "join", dataflow::SinkKind::kCollect)
                 .Build();
  return *dsn::TranslateToDsn(df);
}

/// Trigger partitioned by an explicit key; the target is a ghost sensor
/// so activations cannot perturb the streams under comparison.
dsn::DsnSpec PartTriggerSpec(size_t parallelism, Duration window) {
  dataflow::TriggerSpec trig;
  trig.interval = 5 * duration::kSecond;
  trig.window = window;
  trig.condition = "temp > 20";
  trig.target_sensors = {"pt_ghost"};
  trig.parallelism = parallelism;
  trig.partition_by = {"station"};
  auto df = *dataflow::DataflowBuilder("pt_trig")
                 .AddSource("src", "pt_t0")
                 .AddOperator("trig", dataflow::OpKind::kTriggerOn, trig,
                              {"src"})
                 .AddSink("out", "trig", dataflow::SinkKind::kCollect)
                 .Build();
  return *dsn::TranslateToDsn(df);
}

// ----------------------------------------------------------- harness --

struct PartitionOptions {
  bool event_time = false;
  ops::LatePolicy late_policy = ops::LatePolicy::kAdmit;
  Duration allowed_lateness = 5 * duration::kSecond;
  bool install_plan = true;
  bool with_rain = false;
  bool reliable = false;
  Duration active_for = 30 * duration::kSecond;
  Duration drain_for = 15 * duration::kSecond;
  /// Mid-run elastic rescale (rescale_at = 0 disables): at `rescale_at`
  /// of virtual time, `rescale_op` is rescaled to `rescale_to` instances.
  Duration rescale_at = 0;
  std::string rescale_op;
  size_t rescale_to = 0;
};

struct PartitionResult {
  bool deployed = false;
  std::string deploy_error;
  std::vector<std::string> sink_rows;  ///< sorted sink tuple ToStrings
  std::vector<std::string> late_rows;  ///< sorted late-side ToStrings
  std::map<std::string, ops::OperatorStats> op_stats;
  exec::DeploymentStats stats;
  Status rescale_status;
  monitor::MonitorReport report;  ///< one final sample (skew gauges)

  bool operator==(const PartitionResult& other) const {
    return deployed == other.deployed && sink_rows == other.sink_rows &&
           late_rows == other.late_rows && stats == other.stats;
  }
};

/// Deploys `spec` over keyed replay streams under the faults of `plan`
/// and drains. Reproducible: equal arguments ⇒ equal PartitionResult.
PartitionResult PartitionRun(uint64_t seed, const net::FaultPlan& plan,
                             const dsn::DsnSpec& spec,
                             const PartitionOptions& options = {}) {
  PartitionResult result;

  net::EventLoop loop;
  net::Network net(&loop);
  if (!net::BuildRingTopology(&net, 5, 10000.0, 1, 1e5).ok()) {
    result.deploy_error = "topology construction failed";
    return result;
  }

  pubsub::Broker broker(&loop.clock());
  sensors::SensorFleet fleet(&loop, &broker);
  auto temp = KeyedSensor("pt_t0", KeyedTempSchema(), "node_2", seed);
  if (!temp.ok() || !fleet.Add(std::move(*temp)).ok()) {
    result.deploy_error = "temp sensor construction failed";
    return result;
  }
  if (options.with_rain) {
    auto rain = KeyedSensor("pt_r0", KeyedRainSchema(), "node_3", seed + 1);
    if (!rain.ok() || !fleet.Add(std::move(*rain)).ok()) {
      result.deploy_error = "rain sensor construction failed";
      return result;
    }
  }

  monitor::Monitor monitor(&loop, &net);

  sinks::EventDataWarehouse warehouse;
  sinks::SinkContext sink_context;
  sink_context.warehouse = &warehouse;
  exec::ExecutorOptions exec_options;
  if (options.event_time) {
    exec_options.watermark.time_policy = ops::TimePolicy::kEvent;
    exec_options.watermark.late_policy = options.late_policy;
    exec_options.watermark.allowed_lateness = options.allowed_lateness;
  }
  exec_options.reliable_delivery = options.reliable;
  exec::Executor executor(&loop, &net, &broker, &monitor, sink_context,
                          exec_options);
  executor.set_fleet(&fleet);

  if (options.install_plan && !net.InstallFaultPlan(plan).ok()) {
    result.deploy_error = "fault plan installation failed";
    return result;
  }

  auto id = executor.Deploy(spec);
  if (!id.ok()) {
    result.deploy_error = id.status().ToString();
    return result;
  }
  result.deployed = true;

  if (options.rescale_at > 0 && options.rescale_at < options.active_for) {
    loop.RunFor(options.rescale_at);
    result.rescale_status = executor.RescaleOperator(
        *id, options.rescale_op, options.rescale_to);
    loop.RunFor(options.active_for - options.rescale_at);
  } else {
    loop.RunFor(options.active_for);
  }
  (void)fleet.Deactivate("pt_t0");
  if (options.with_rain) (void)fleet.Deactivate("pt_r0");
  loop.RunFor(options.drain_for);

  result.report = monitor.Sample();
  result.stats = **executor.stats(*id);
  const dataflow::Dataflow* df = *executor.DeployedDataflow(*id);
  for (const auto& name : df->OperatorNames()) {
    result.op_stats[name] = *executor.OperatorStatsOf(*id, name);
  }
  auto* out = static_cast<sinks::CollectSink*>(*executor.SinkOf(*id, "out"));
  for (const auto& t : out->tuples()) {
    result.sink_rows.push_back(t->ToString());
  }
  std::sort(result.sink_rows.begin(), result.sink_rows.end());
  if (auto late = executor.LateSinkOf(*id); late.ok() && *late != nullptr) {
    for (const auto& t : (*late)->tuples()) {
      result.late_rows.push_back(t->ToString());
    }
    std::sort(result.late_rows.begin(), result.late_rows.end());
  }
  return result;
}

std::string Context(uint64_t seed) {
  return "failing seed " + std::to_string(seed) + " — replay with " +
         "SL_CHAOS_SEED=" + std::to_string(seed);
}

/// One seed of the oracle: the N=1 deployment vs N ∈ {2, 4, 8}, same
/// plan and options on both sides.
void ExpectPartitionIdentity(uint64_t seed,
                             const std::function<dsn::DsnSpec(size_t)>& spec,
                             const net::FaultPlan& plan,
                             const PartitionOptions& options) {
  PartitionResult base = PartitionRun(seed, plan, spec(1), options);
  ASSERT_TRUE(base.deployed) << base.deploy_error << "\n" << Context(seed);
  // A vacuous oracle proves nothing: the single instance must emit.
  ASSERT_FALSE(base.sink_rows.empty()) << Context(seed);
  for (size_t n : {size_t{2}, size_t{4}, size_t{8}}) {
    PartitionResult part = PartitionRun(seed, plan, spec(n), options);
    ASSERT_TRUE(part.deployed)
        << part.deploy_error << "\nN=" << n << "\n" << Context(seed);
    EXPECT_EQ(part.sink_rows, base.sink_rows)
        << "sink rows diverge at N=" << n << "\n" << Context(seed);
    EXPECT_EQ(part.late_rows, base.late_rows)
        << "late rows diverge at N=" << n << "\n" << Context(seed);
  }
}

// ------------------------------------------------------------- oracle --

TEST(PartitionedVsSingleOracleTest, TumblingAggMatchesSingle) {
  for (uint64_t seed : ChaosSeeds(50, 7000)) {
    net::FaultPlan zero(seed);
    PartitionOptions options;
    options.install_plan = false;
    ExpectPartitionIdentity(
        seed, [](size_t n) { return PartAggSpec(n, 0); }, zero, options);
  }
}

TEST(PartitionedVsSingleOracleTest, SlidingAggMatchesSingle) {
  for (uint64_t seed : ChaosSeeds(50, 7100)) {
    net::FaultPlan zero(seed);
    PartitionOptions options;
    options.install_plan = false;
    ExpectPartitionIdentity(
        seed,
        [](size_t n) { return PartAggSpec(n, 10 * duration::kSecond); },
        zero, options);
  }
}

TEST(PartitionedVsSingleOracleTest, EventTimeAggMatchesSingleUnderDelays) {
  for (uint64_t seed : ChaosSeeds(50, 7200)) {
    net::FaultPlan delays = net::MakeDelayOnlyFaultPlan(seed, 400);
    PartitionOptions options;
    options.event_time = true;
    ExpectPartitionIdentity(
        seed,
        [](size_t n) { return PartAggSpec(n, 10 * duration::kSecond); },
        delays, options);
  }
}

TEST(PartitionedVsSingleOracleTest, EventTimeLateDataMatchesSingle) {
  // Tight tumbling windows, lateness shorter than the injected delays:
  // some tuples are genuinely late, and the instances must agree with
  // the single operator on every admit/divert verdict.
  for (uint64_t seed : ChaosSeeds(50, 7300)) {
    net::FaultPlan delays = net::MakeDelayOnlyFaultPlan(seed, 3000, 0.7);
    PartitionOptions options;
    options.event_time = true;
    options.late_policy = ops::LatePolicy::kSideOutput;
    options.allowed_lateness = 1 * duration::kSecond;
    ExpectPartitionIdentity(
        seed,
        [](size_t n) { return PartAggSpec(n, 0, 2 * duration::kSecond); },
        delays, options);
  }
}

TEST(PartitionedVsSingleOracleTest, EquiJoinMatchesSingle) {
  for (uint64_t seed : ChaosSeeds(50, 7400)) {
    net::FaultPlan zero(seed);
    PartitionOptions options;
    options.install_plan = false;
    options.with_rain = true;
    ExpectPartitionIdentity(
        seed,
        [](size_t n) { return PartJoinSpec(n, 10 * duration::kSecond); },
        zero, options);
  }
}

TEST(PartitionedVsSingleOracleTest, EventTimeJoinMatchesSingleUnderDelays) {
  for (uint64_t seed : ChaosSeeds(50, 7500)) {
    net::FaultPlan delays = net::MakeDelayOnlyFaultPlan(seed, 400);
    PartitionOptions options;
    options.event_time = true;
    options.with_rain = true;
    ExpectPartitionIdentity(
        seed,
        [](size_t n) { return PartJoinSpec(n, 10 * duration::kSecond); },
        delays, options);
  }
}

TEST(PartitionedVsSingleOracleTest, TriggerMatchesSingle) {
  for (uint64_t seed : ChaosSeeds(25, 7600)) {
    net::FaultPlan zero(seed);
    PartitionOptions options;
    options.install_plan = false;
    PartitionResult base =
        PartitionRun(seed, zero, PartTriggerSpec(1, 10 * duration::kSecond),
                     options);
    ASSERT_TRUE(base.deployed) << base.deploy_error << "\n" << Context(seed);
    for (size_t n : {size_t{2}, size_t{4}}) {
      PartitionResult part = PartitionRun(
          seed, zero, PartTriggerSpec(n, 10 * duration::kSecond), options);
      ASSERT_TRUE(part.deployed) << part.deploy_error << "\n" << Context(seed);
      // Pass-through rows, firing count and executed activations all
      // match the single instance.
      EXPECT_EQ(part.sink_rows, base.sink_rows) << Context(seed);
      EXPECT_EQ(part.op_stats.at("trig").trigger_fires,
                base.op_stats.at("trig").trigger_fires)
          << Context(seed);
      EXPECT_EQ(part.stats.activations, base.stats.activations)
          << Context(seed);
    }
  }
}

/// What one operator emits, sorted, and how many tuples it dropped.
struct CacheBoundRun {
  std::vector<std::string> rows;
  uint64_t dropped = 0;
};

/// Builds `spec` through MakeOperator with a cache of 3 tuples per input
/// and feeds it what the keyed replay sensors of a PartitionRun emit:
/// the seeded recording of each input port (port p from seeds[p]),
/// stamped one second apart for 30 s, in time order, with a Flush every
/// 5 s interval until 15 s after the last input.
CacheBoundRun RunCacheBound(const std::string& name, dataflow::OpKind kind,
                            const dataflow::OpSpec& spec,
                            const std::vector<stt::SchemaPtr>& schemas,
                            const std::vector<std::string>& names,
                            const std::vector<uint64_t>& seeds) {
  constexpr Timestamp kStart = 1458000000000;
  constexpr Duration kInterval = 5 * duration::kSecond;
  CacheBoundRun run;
  ops::OperatorOptions options;
  options.max_cache_tuples = 3;
  auto built = ops::MakeOperator(name, kind, spec, schemas, names, options);
  EXPECT_TRUE(built.ok()) << built.status();
  if (!built.ok()) return run;
  ops::Operator& op = **built;
  op.set_emit(
      [&run](const stt::TupleRef& t) { run.rows.push_back(t->ToString()); });
  std::vector<std::vector<stt::Tuple>> recordings;
  const char* sensors[] = {"pt_t0", "pt_r0"};
  for (size_t p = 0; p < schemas.size(); ++p) {
    recordings.push_back(KeyedRecording(schemas[p], seeds[p], sensors[p]));
  }
  for (int i = 0; i <= 45; ++i) {
    const Timestamp now = kStart + i * duration::kSecond;
    if (i > 0 && now % kInterval == 0) SL_EXPECT_OK(op.Flush(now));
    if (i >= 30) continue;
    for (size_t p = 0; p < recordings.size(); ++p) {
      const stt::Tuple& t = recordings[p][i];
      SL_EXPECT_OK(op.Process(p, t.WithStt(t.schema(), now, t.location())));
    }
  }
  std::sort(run.rows.begin(), run.rows.end());
  run.dropped = op.stats().dropped;
  return run;
}

TEST(PartitionedVsSingleOracleTest, CacheBoundMatchesSingle) {
  // A cache of 3 tuples evicts within every interval. The bound applies
  // per operator input at every N, so N > 1 evicts the tuples N = 1
  // evicts and emits the same rows. Every N runs the one operator, so
  // the operator alone is under test: it is built through MakeOperator,
  // which takes the cache bound as an option.
  auto expect_same = [](uint64_t seed, const std::string& op,
                        const std::function<CacheBoundRun(size_t)>& run,
                        std::vector<size_t> ns) {
    CacheBoundRun base = run(1);
    ASSERT_FALSE(base.rows.empty()) << Context(seed);
    ASSERT_GT(base.dropped, 0u) << Context(seed);
    for (size_t n : ns) {
      CacheBoundRun part = run(n);
      EXPECT_EQ(part.rows, base.rows)
          << op << " sink rows diverge at N=" << n << "\n" << Context(seed);
      EXPECT_EQ(part.dropped, base.dropped)
          << op << " drops diverge at N=" << n << "\n" << Context(seed);
    }
  };
  for (uint64_t seed : ChaosSeeds(20, 7000)) {
    expect_same(
        seed, "agg",
        [seed](size_t n) {
          return RunCacheBound("agg", dataflow::OpKind::kAggregation,
                               PartAgg(n, 0), {KeyedTempSchema()}, {"src"},
                               {seed});
        },
        {2, 4, 8});
    expect_same(
        seed, "join",
        [seed](size_t n) {
          return RunCacheBound("join", dataflow::OpKind::kJoin,
                               PartJoin(n, 10 * duration::kSecond),
                               {KeyedTempSchema(), KeyedRainSchema()},
                               {"left", "right"}, {seed, seed + 1});
        },
        {2, 4});
  }
}

// -------------------------------------------------- elastic scaling --

TEST(PartitionedVsSingleOracleTest, ScaleOutMidStreamMatchesSingle) {
  // Tumbling grouped aggregation, scaled 2 → 4 mid-stream: the state
  // re-partitioning replay must leave the output stream exactly the
  // single instance's.
  for (uint64_t seed : ChaosSeeds(25, 7700)) {
    net::FaultPlan zero(seed);
    PartitionOptions options;
    options.install_plan = false;
    PartitionResult base = PartitionRun(seed, zero, PartAggSpec(1, 0), options);
    ASSERT_TRUE(base.deployed) << base.deploy_error << "\n" << Context(seed);

    PartitionOptions grow = options;
    grow.rescale_at = 13 * duration::kSecond;  // mid-interval, cache loaded
    grow.rescale_op = "agg";
    grow.rescale_to = 4;
    PartitionResult scaled = PartitionRun(seed, zero, PartAggSpec(2, 0), grow);
    ASSERT_TRUE(scaled.deployed) << scaled.deploy_error << "\n"
                                 << Context(seed);
    SL_EXPECT_OK(scaled.rescale_status);
    EXPECT_EQ(scaled.sink_rows, base.sink_rows)
        << "scale-out 2 -> 4 diverges\n" << Context(seed);

    PartitionOptions shrink = options;
    shrink.rescale_at = 13 * duration::kSecond;
    shrink.rescale_op = "agg";
    shrink.rescale_to = 2;
    PartitionResult shrunk =
        PartitionRun(seed, zero, PartAggSpec(4, 0), shrink);
    ASSERT_TRUE(shrunk.deployed) << shrunk.deploy_error << "\n"
                                 << Context(seed);
    SL_EXPECT_OK(shrunk.rescale_status);
    EXPECT_EQ(shrunk.sink_rows, base.sink_rows)
        << "scale-in 4 -> 2 diverges\n" << Context(seed);
  }
}

TEST(PartitionedVsSingleOracleTest, SlidingAggRescaleDoesNotReemit) {
  // A sliding window holds every result row alive for several flush
  // intervals, so a rescale that disturbed the window state or the
  // last-emission signature would re-emit (or lose) rows after it. A
  // mid-window rescale must be bit-identical to the never-rescaled
  // single instance, duplicates included (sink_rows is a sorted
  // multiset — one extra copy fails).
  for (uint64_t seed : ChaosSeeds(25, 12000)) {
    net::FaultPlan zero(seed);
    PartitionOptions options;
    options.install_plan = false;
    PartitionResult base = PartitionRun(
        seed, zero, PartAggSpec(1, 10 * duration::kSecond), options);
    ASSERT_TRUE(base.deployed) << base.deploy_error << "\n" << Context(seed);
    ASSERT_FALSE(base.sink_rows.empty()) << Context(seed);

    PartitionOptions grow = options;
    grow.rescale_at = 13 * duration::kSecond;  // window spans the rescale
    grow.rescale_op = "agg";
    grow.rescale_to = 4;
    PartitionResult scaled = PartitionRun(
        seed, zero, PartAggSpec(2, 10 * duration::kSecond), grow);
    ASSERT_TRUE(scaled.deployed) << scaled.deploy_error << "\n"
                                 << Context(seed);
    SL_EXPECT_OK(scaled.rescale_status);
    EXPECT_EQ(scaled.sink_rows, base.sink_rows)
        << "sliding-window scale-out 2 -> 4 re-emitted or lost rows\n"
        << Context(seed);

    PartitionOptions shrink = options;
    shrink.rescale_at = 13 * duration::kSecond;
    shrink.rescale_op = "agg";
    shrink.rescale_to = 2;
    PartitionResult shrunk = PartitionRun(
        seed, zero, PartAggSpec(4, 10 * duration::kSecond), shrink);
    ASSERT_TRUE(shrunk.deployed) << shrunk.deploy_error << "\n"
                                 << Context(seed);
    SL_EXPECT_OK(shrunk.rescale_status);
    EXPECT_EQ(shrunk.sink_rows, base.sink_rows)
        << "sliding-window scale-in 4 -> 2 re-emitted or lost rows\n"
        << Context(seed);
  }
}

TEST(PartitionedVsSingleOracleTest, JoinScaleOutMidStreamMatchesSingle) {
  for (uint64_t seed : ChaosSeeds(10, 7800)) {
    net::FaultPlan zero(seed);
    PartitionOptions options;
    options.install_plan = false;
    options.with_rain = true;
    PartitionResult base =
        PartitionRun(seed, zero, PartJoinSpec(1, 10 * duration::kSecond),
                     options);
    ASSERT_TRUE(base.deployed) << base.deploy_error << "\n" << Context(seed);

    PartitionOptions grow = options;
    grow.rescale_at = 13 * duration::kSecond;
    grow.rescale_op = "join";
    grow.rescale_to = 4;
    PartitionResult scaled = PartitionRun(
        seed, zero, PartJoinSpec(2, 10 * duration::kSecond), grow);
    ASSERT_TRUE(scaled.deployed) << scaled.deploy_error << "\n"
                                 << Context(seed);
    SL_EXPECT_OK(scaled.rescale_status);
    EXPECT_EQ(scaled.sink_rows, base.sink_rows)
        << "join scale-out 2 -> 4 diverges\n" << Context(seed);
  }
}

TEST(PartitionedVsSingleOracleTest, RescaleRejectsUnpartitionedOperator) {
  net::FaultPlan zero(1);
  PartitionOptions options;
  options.install_plan = false;
  options.rescale_at = 7 * duration::kSecond;
  options.rescale_op = "agg";
  options.rescale_to = 4;
  PartitionResult run = PartitionRun(1, zero, PartAggSpec(1, 0), options);
  ASSERT_TRUE(run.deployed) << run.deploy_error;
  EXPECT_FALSE(run.rescale_status.ok())
      << "a single-instance operator must not rescale";
}

// --------------------------------------------------- monitor gauges --

TEST(PartitionMonitorTest, SkewGaugeAndInstanceLoadAreReported) {
  net::FaultPlan zero(11);
  PartitionOptions options;
  options.install_plan = false;
  PartitionResult run = PartitionRun(11, zero, PartAggSpec(4, 0), options);
  ASSERT_TRUE(run.deployed) << run.deploy_error;
  const monitor::OperatorSample* agg = nullptr;
  for (const auto& sample : run.report.operators) {
    if (sample.op_name == "agg") agg = &sample;
  }
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->parallelism, 4u);
  ASSERT_EQ(agg->instance_load.size(), 4u);
  // Station keys are never NaN, so each arrival counts in one range: the
  // instance loads partition the operator's input exactly.
  uint64_t sum = std::accumulate(agg->instance_load.begin(),
                                 agg->instance_load.end(), uint64_t{0});
  EXPECT_EQ(sum, agg->total_in);
  // Max/mean skew is >= 1 by construction once tuples flowed.
  EXPECT_GE(agg->key_skew, 1.0);
  // The report renders the gauge ("x4 skew ...").
  EXPECT_NE(run.report.ToString().find("x4 skew"), std::string::npos);
}

// ------------------------------------------------------------- chaos --

TEST(PartitionChaosTest, PartitionedDeploymentSurvivesMessageChaos) {
  // Drop/duplicate/delay chaos (no crashes — blocking caches are not
  // crash-durable) over a partitioned aggregation with reliable
  // delivery: the run must stay healthy and replay bit-identically.
  for (uint64_t seed : ChaosSeeds(10, 7900)) {
    net::RandomFaultOptions fault_options;
    fault_options.max_crashes = 0;
    fault_options.max_link_cuts = 1;
    net::FaultPlan plan = net::MakeRandomFaultPlan(
        seed, {"node_0", "node_1", "node_2", "node_3", "node_4"},
        sl::testing::RingLinks(5), fault_options);
    PartitionOptions options;
    options.reliable = true;
    PartitionResult run = PartitionRun(seed, plan, PartAggSpec(4, 0), options);
    ASSERT_TRUE(run.deployed) << run.deploy_error << "\n" << Context(seed);
    EXPECT_EQ(run.stats.process_errors, 0u)
        << run.stats.ToString() << "\n" << Context(seed);
    // Seeded replay identity: the same seed reproduces the run exactly.
    PartitionResult again =
        PartitionRun(seed, plan, PartAggSpec(4, 0), options);
    EXPECT_TRUE(again == run) << "chaos replay diverged\n"
                              << again.stats.ToString() << "\nvs\n"
                              << run.stats.ToString() << "\n" << Context(seed);
  }
}

TEST(PartitionChaosTest, ScaleOutUnderMessageChaosReplaysIdentically) {
  for (uint64_t seed : ChaosSeeds(5, 8000)) {
    net::RandomFaultOptions fault_options;
    fault_options.max_crashes = 0;
    fault_options.max_link_cuts = 0;
    net::FaultPlan plan = net::MakeRandomFaultPlan(
        seed, {"node_0", "node_1", "node_2", "node_3", "node_4"},
        sl::testing::RingLinks(5), fault_options);
    PartitionOptions options;
    options.reliable = true;
    options.rescale_at = 13 * duration::kSecond;
    options.rescale_op = "agg";
    options.rescale_to = 8;
    PartitionResult run = PartitionRun(seed, plan, PartAggSpec(2, 0), options);
    ASSERT_TRUE(run.deployed) << run.deploy_error << "\n" << Context(seed);
    SL_EXPECT_OK(run.rescale_status);
    PartitionResult again =
        PartitionRun(seed, plan, PartAggSpec(2, 0), options);
    EXPECT_TRUE(again == run) << "rescale replay diverged\n" << Context(seed);
  }
}

}  // namespace
}  // namespace sl
