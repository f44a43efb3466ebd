// The sim-vs-threaded differential harness: the deterministic
// discrete-event simulator is the semantic reference, and the wall-clock
// ThreadedRuntime must reproduce it. Every oracle test runs a deployment
// on the simulator with ExecutorOptions::source_tap capturing the input
// trace (tuple, virtual ingestion time, piggybacked watermark per
// source), replays the trace through the threaded runtime with the same
// deploy anchor, and asserts sorted sink-row identity plus per-operator
// counter identity. Zero-fault plans only: a simulated delay fault could
// carry a tuple across a flush boundary the punctuation alignment cannot
// see (DESIGN.md §12 spells out the contract).
//
// Replay one failing seed with SL_CHAOS_SEED=<seed> ./threaded_test
//
// The *Chaos* suites are picked up by the repeat-until-fail loop in
// scripts/ci.sh, under both ASan and TSan configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/streamloader.h"
#include "dsn/translate.h"
#include "exec/spsc_queue.h"
#include "exec/threaded_runtime.h"
#include "sensors/generators.h"
#include "tests/test_util.h"
#include "util/logging.h"
#include "util/rng.h"

namespace sl {
namespace {

using sl::testing::ChaosSeeds;

// ------------------------------------------------------ keyed streams --

/// {temp: double, station: string} @1s — a groupable temperature stream.
stt::SchemaPtr ThTempSchema() {
  auto tgran = stt::TemporalGranularity::Make(duration::kSecond);
  auto theme = stt::Theme::Parse("weather/temperature");
  return *stt::Schema::Make(
      {{"temp", stt::ValueType::kDouble, "celsius", false},
       {"station", stt::ValueType::kString, "", false}},
      *tgran, stt::SpatialGranularity::Point(), *theme);
}

/// {rain: double, station: string} @1s — the join partner.
stt::SchemaPtr ThRainSchema() {
  auto tgran = stt::TemporalGranularity::Make(duration::kSecond);
  auto theme = stt::Theme::Parse("weather/rain");
  return *stt::Schema::Make(
      {{"rain", stt::ValueType::kDouble, "mm/h", false},
       {"station", stt::ValueType::kString, "", false}},
      *tgran, stt::SpatialGranularity::Point(), *theme);
}

std::vector<stt::Tuple> ThRecording(const stt::SchemaPtr& schema,
                                    uint64_t seed, const std::string& sensor) {
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

Result<std::unique_ptr<sensors::SensorSimulator>> ThSensor(
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
                                   ThRecording(schema, seed, id));
}

// ------------------------------------------------------------- specs --

dsn::DsnSpec ThAggSpec(
    Duration window, size_t parallelism = 1,
    Duration interval = 5 * duration::kSecond,
    dataflow::SinkKind sink = dataflow::SinkKind::kCollect) {
  dataflow::AggregationSpec agg;
  agg.interval = interval;
  agg.window = window;
  agg.func = dataflow::AggFunc::kAvg;
  agg.attributes = {"temp"};
  agg.group_by = {"station"};
  agg.parallelism = parallelism;
  auto df = *dataflow::DataflowBuilder("th_agg")
                 .AddSource("src", "th_t0")
                 .AddOperator("agg", dataflow::OpKind::kAggregation, agg,
                              {"src"})
                 .AddSink("out", "agg", sink)
                 .Build();
  return *dsn::TranslateToDsn(df);
}

dsn::DsnSpec ThJoinSpec(Duration window, size_t parallelism = 1) {
  dataflow::JoinSpec join;
  join.interval = 5 * duration::kSecond;
  join.window = window;
  join.predicate = "left_station == right_station";
  join.parallelism = parallelism;
  auto df = *dataflow::DataflowBuilder("th_join")
                 .AddSource("left", "th_t0")
                 .AddSource("right", "th_r0")
                 .AddOperator("join", dataflow::OpKind::kJoin, join,
                              {"left", "right"})
                 .AddSink("out", "join", dataflow::SinkKind::kCollect)
                 .Build();
  return *dsn::TranslateToDsn(df);
}

dsn::DsnSpec ThTriggerSpec(Duration window) {
  dataflow::TriggerSpec trig;
  trig.interval = 5 * duration::kSecond;
  trig.window = window;
  trig.condition = "temp > 20";
  trig.target_sensors = {"th_ghost"};
  auto df = *dataflow::DataflowBuilder("th_trig")
                 .AddSource("src", "th_t0")
                 .AddOperator("trig", dataflow::OpKind::kTriggerOn, trig,
                              {"src"})
                 .AddSink("out", "trig", dataflow::SinkKind::kCollect)
                 .Build();
  return *dsn::TranslateToDsn(df);
}

/// A non-blocking filter → transform chain (no flush schedule at all —
/// exercises the pure streaming path).
dsn::DsnSpec ThFilterTransformSpec(
    dataflow::SinkKind sink = dataflow::SinkKind::kCollect) {
  dataflow::FilterSpec filter;
  filter.condition = "temp > 5";
  dataflow::TransformSpec transform;
  transform.attribute = "temp";
  transform.expression = "temp * 1.8 + 32";
  auto df = *dataflow::DataflowBuilder("th_ft")
                 .AddSource("src", "th_t0")
                 .AddOperator("flt", dataflow::OpKind::kFilter, filter,
                              {"src"})
                 .AddOperator("f2c", dataflow::OpKind::kTransform, transform,
                              {"flt"})
                 .AddSink("out", "f2c", sink)
                 .Build();
  return *dsn::TranslateToDsn(df);
}

// ----------------------------------------------------------- harness --

struct DiffOptions {
  bool event_time = false;
  bool with_rain = false;
  Duration active_for = 30 * duration::kSecond;
  Duration drain_for = 15 * duration::kSecond;
  size_t queue_capacity = 1024;
  // Execution-mode matrix (each axis independently oracle-checked):
  bool feed = false;        ///< Start, Feed per event, Finish (no RunTrace)
  size_t pool_size = 0;     ///< pooled workers (0 = thread per stage)
  size_t shard_threads = 0; ///< partitioned-instance flush threads
  size_t batch_max = 1;     ///< ring-message coalescing bound
};

struct DiffResult {
  bool deployed = false;
  std::string error;
  // The simulated (reference) side.
  std::vector<std::string> sim_rows;
  std::vector<std::string> sim_late;
  std::map<std::string, ops::OperatorStats> sim_stats;
  // The threaded side, replaying the captured trace.
  exec::InputTrace trace;
  exec::ThreadedRunResult threaded;
  std::vector<std::string> threaded_rows() const {
    auto it = threaded.sink_rows.find("out");
    return it == threaded.sink_rows.end() ? std::vector<std::string>{}
                                          : it->second;
  }
};

/// Runs `spec` on the simulator (capturing the source trace), then
/// replays the identical trace through a ThreadedRuntime validated
/// against the same broker. Zero faults; the ring network's deterministic
/// link latency is fine (it never carries a tuple across a staggered
/// flush boundary — see the contract in exec/threaded_runtime.h).
DiffResult RunSimVsThreaded(uint64_t seed, const dsn::DsnSpec& spec,
                            const DiffOptions& options = {}) {
  DiffResult result;

  net::EventLoop loop;
  net::Network net(&loop);
  if (!net::BuildRingTopology(&net, 5, 10000.0, 1, 1e5).ok()) {
    result.error = "topology construction failed";
    return result;
  }
  pubsub::Broker broker(&loop.clock());
  sensors::SensorFleet fleet(&loop, &broker);
  auto temp = ThSensor("th_t0", ThTempSchema(), "node_2", seed);
  if (!temp.ok() || !fleet.Add(std::move(*temp)).ok()) {
    result.error = "temp sensor construction failed";
    return result;
  }
  if (options.with_rain) {
    auto rain = ThSensor("th_r0", ThRainSchema(), "node_3", seed + 1);
    if (!rain.ok() || !fleet.Add(std::move(*rain)).ok()) {
      result.error = "rain sensor construction failed";
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
  }
  exec_options.source_tap = [&result](const std::string& source,
                                      const stt::TupleRef& tuple,
                                      Timestamp at, Timestamp watermark) {
    result.trace.push_back({at, source, tuple, watermark});
  };
  exec::Executor executor(&loop, &net, &broker, &monitor, sink_context,
                          exec_options);
  executor.set_fleet(&fleet);

  const Timestamp deploy_time = loop.Now();
  auto id = executor.Deploy(spec);
  if (!id.ok()) {
    result.error = id.status().ToString();
    return result;
  }
  result.deployed = true;

  loop.RunFor(options.active_for);
  (void)fleet.Deactivate("th_t0");
  if (options.with_rain) (void)fleet.Deactivate("th_r0");
  loop.RunFor(options.drain_for);
  const Timestamp end_time = loop.Now();

  const dataflow::Dataflow* df = *executor.DeployedDataflow(*id);
  for (const auto& name : df->OperatorNames()) {
    result.sim_stats[name] = *executor.OperatorStatsOf(*id, name);
  }
  auto* out = static_cast<sinks::CollectSink*>(*executor.SinkOf(*id, "out"));
  for (const auto& t : out->tuples()) {
    result.sim_rows.push_back(t->ToString());
  }
  std::sort(result.sim_rows.begin(), result.sim_rows.end());
  if (auto late = executor.LateSinkOf(*id); late.ok() && *late != nullptr) {
    for (const auto& t : (*late)->tuples()) {
      result.sim_late.push_back(t->ToString());
    }
    std::sort(result.sim_late.begin(), result.sim_late.end());
  }

  // The threaded replay: same translated dataflow, same broker (for
  // validation), same deploy anchor and watermark regime.
  auto threaded_df = dsn::TranslateFromDsn(spec);
  if (!threaded_df.ok()) {
    result.error = threaded_df.status().ToString();
    result.deployed = false;
    return result;
  }
  sinks::EventDataWarehouse threaded_warehouse;
  sinks::SinkContext threaded_context;
  threaded_context.warehouse = &threaded_warehouse;
  exec::ThreadedOptions threaded_options;
  threaded_options.watermark = exec_options.watermark;
  threaded_options.deploy_time = deploy_time;
  threaded_options.queue_capacity = options.queue_capacity;
  threaded_options.pool_size = options.pool_size;
  threaded_options.shard_threads = options.shard_threads;
  threaded_options.batch_max = options.batch_max;
  exec::ThreadedRuntime runtime(*threaded_df, &broker, threaded_context,
                                threaded_options);
  // The ingestion path perfbench drives: one Feed call per trace event.
  auto feed = [&]() -> Result<exec::ThreadedRunResult> {
    SL_RETURN_IF_ERROR(runtime.Start());
    for (const exec::TraceEvent& e : result.trace) {
      SL_RETURN_IF_ERROR(runtime.Feed(e.source, e.tuple, e.at, e.watermark));
    }
    return runtime.Finish(end_time);
  };
  auto run = options.feed ? feed() : runtime.RunTrace(result.trace, end_time);
  if (!run.ok()) {
    result.error = run.status().ToString();
    result.deployed = false;
    return result;
  }
  result.threaded = std::move(*run);
  return result;
}

std::string Context(uint64_t seed) {
  return "failing seed " + std::to_string(seed) + " — replay with " +
         "SL_CHAOS_SEED=" + std::to_string(seed);
}

/// One seed of the oracle: the simulated run is the reference; the
/// threaded replay must match rows, late rows and operator counters.
void ExpectIdentity(uint64_t seed, const DiffResult& r) {
  ASSERT_TRUE(r.deployed) << r.error << "\n" << Context(seed);
  // A vacuous oracle proves nothing: the simulator must emit.
  ASSERT_FALSE(r.sim_rows.empty()) << Context(seed);
  ASSERT_FALSE(r.trace.empty()) << Context(seed);
  EXPECT_EQ(r.threaded_rows(), r.sim_rows)
      << "threaded sink rows diverge from the simulated reference\n"
      << Context(seed);
  EXPECT_EQ(r.threaded.late_rows, r.sim_late)
      << "late-side rows diverge\n" << Context(seed);
  EXPECT_EQ(r.threaded.process_errors, 0u) << Context(seed);
  for (const auto& [name, sim] : r.sim_stats) {
    auto it = r.threaded.op_stats.find(name);
    ASSERT_NE(it, r.threaded.op_stats.end()) << name << "\n" << Context(seed);
    EXPECT_EQ(it->second.tuples_in, sim.tuples_in)
        << name << " consumed a different tuple count\n" << Context(seed);
    EXPECT_EQ(it->second.tuples_out, sim.tuples_out)
        << name << " emitted a different tuple count\n" << Context(seed);
    EXPECT_EQ(it->second.flushes, sim.flushes)
        << name << " flushed a different number of times\n" << Context(seed);
    EXPECT_EQ(it->second.trigger_fires, sim.trigger_fires)
        << name << " fired a different number of times\n" << Context(seed);
  }
}

void ExpectSimThreadedIdentity(uint64_t seed, const dsn::DsnSpec& spec,
                               const DiffOptions& options = {}) {
  ExpectIdentity(seed, RunSimVsThreaded(seed, spec, options));
}

// ------------------------------------------------------- SPSC basics --

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  exec::SpscRing<int> ring(3);
  EXPECT_EQ(ring.capacity(), 4u);
  exec::SpscRing<int> one(1);
  EXPECT_EQ(one.capacity(), 2u);
  exec::SpscRing<int> exact(8);
  EXPECT_EQ(exact.capacity(), 8u);
}

TEST(SpscRingTest, PushPopWrapsAround) {
  exec::SpscRing<int> ring(4);
  int out = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 3; ++i) {
      int v = round * 10 + i;
      ASSERT_TRUE(ring.TryPush(v));
    }
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.TryPop(&out));
      EXPECT_EQ(out, round * 10 + i);
    }
    EXPECT_TRUE(ring.Empty());
  }
}

TEST(SpscRingTest, FullRingRejectsUntilPopped) {
  exec::SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) {
    int v = i;
    ASSERT_TRUE(ring.TryPush(v));
  }
  int v = 99;
  EXPECT_FALSE(ring.TryPush(v));  // out of credits
  EXPECT_EQ(v, 99);               // rejected push must not consume
  int out = 0;
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_TRUE(ring.TryPush(v));  // one pop = one credit
}

TEST(SpscRingChaosTest, TwoThreadStressPreservesSequence) {
  // One producer, one consumer, a deliberately tiny ring: every value
  // must arrive exactly once, in order. Run under TSan this doubles as
  // the memory-ordering proof of the acquire/release index scheme.
  // Yield on every failed poll: on a single-core box a busy spin makes
  // the two threads take turns only at scheduler-quantum granularity,
  // which turns this into minutes of wall time for no extra coverage.
  constexpr int kCount = 50000;
  exec::SpscRing<int> ring(8);
  std::atomic<bool> fail{false};
  std::thread consumer([&] {
    int expected = 0;
    int out;
    while (expected < kCount) {
      if (ring.TryPop(&out)) {
        if (out != expected) {
          fail.store(true);
          return;
        }
        ++expected;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (int i = 0; i < kCount; ++i) {
    int v = i;
    while (!ring.TryPush(v)) {
      std::this_thread::yield();
    }
  }
  consumer.join();
  EXPECT_FALSE(fail.load()) << "consumer saw a gap or reorder";
}

// ------------------------------------------------------------- oracle --

TEST(SimVsThreadedOracleTest, TumblingAggMatchesSim) {
  for (uint64_t seed : ChaosSeeds(50, 8000)) {
    ExpectSimThreadedIdentity(seed, ThAggSpec(0));
  }
}

TEST(SimVsThreadedOracleTest, SlidingAggMatchesSim) {
  for (uint64_t seed : ChaosSeeds(50, 8100)) {
    ExpectSimThreadedIdentity(seed, ThAggSpec(10 * duration::kSecond));
  }
}

TEST(SimVsThreadedOracleTest, TumblingJoinMatchesSim) {
  DiffOptions options;
  options.with_rain = true;
  for (uint64_t seed : ChaosSeeds(50, 8200)) {
    ExpectSimThreadedIdentity(seed, ThJoinSpec(0), options);
  }
}

TEST(SimVsThreadedOracleTest, TriggerMatchesSim) {
  for (uint64_t seed : ChaosSeeds(50, 8300)) {
    ExpectSimThreadedIdentity(seed, ThTriggerSpec(5 * duration::kSecond));
  }
}

TEST(SimVsThreadedOracleTest, EventTimeAggMatchesSim) {
  DiffOptions options;
  options.event_time = true;
  for (uint64_t seed : ChaosSeeds(50, 8400)) {
    ExpectSimThreadedIdentity(seed, ThAggSpec(10 * duration::kSecond),
                              options);
  }
}

TEST(SimVsThreadedOracleTest, PartitionedAggMatchesSim) {
  for (uint64_t seed : ChaosSeeds(25, 8500)) {
    ExpectSimThreadedIdentity(seed, ThAggSpec(0, /*parallelism=*/2));
    ExpectSimThreadedIdentity(seed, ThAggSpec(0, /*parallelism=*/4));
  }
}

TEST(SimVsThreadedOracleTest, PartitionedJoinMatchesSim) {
  DiffOptions options;
  options.with_rain = true;
  for (uint64_t seed : ChaosSeeds(25, 8600)) {
    ExpectSimThreadedIdentity(seed, ThJoinSpec(0, /*parallelism=*/2),
                              options);
    ExpectSimThreadedIdentity(seed, ThJoinSpec(0, /*parallelism=*/4),
                              options);
  }
}

TEST(SimVsThreadedOracleTest, FilterTransformMatchesSim) {
  for (uint64_t seed : ChaosSeeds(50, 8700)) {
    DiffResult r = RunSimVsThreaded(seed, ThFilterTransformSpec());
    ExpectIdentity(seed, r);
    // A run of one travels as kData: at the default batch_max = 1 no
    // stage ever receives a kBatch message.
    for (const auto& [name, stats] : r.threaded.op_stats) {
      EXPECT_EQ(stats.batches, 0u) << name << "\n" << Context(seed);
    }
  }
}

// ----------------------------------------------- pooled-worker oracle --

TEST(SimVsThreadedOracleTest, PooledSingleWorkerMatchesSim) {
  // One worker multiplexing every stage: maximal interleaving of stage
  // quanta, and the driver must help when a ring fills.
  DiffOptions options;
  options.pool_size = 1;
  options.with_rain = true;
  for (uint64_t seed : ChaosSeeds(50, 10800)) {
    ExpectSimThreadedIdentity(seed, ThJoinSpec(0), options);
  }
}

TEST(SimVsThreadedOracleTest, PooledTwoWorkersMatchesSim) {
  DiffOptions options;
  options.pool_size = 2;
  for (uint64_t seed : ChaosSeeds(50, 10900)) {
    ExpectSimThreadedIdentity(seed, ThAggSpec(10 * duration::kSecond),
                              options);
  }
}

TEST(SimVsThreadedOracleTest, PooledCoresWorkersMatchesSim) {
  DiffOptions options;
  options.pool_size =
      std::max<size_t>(2, std::thread::hardware_concurrency());
  for (uint64_t seed : ChaosSeeds(50, 11000)) {
    ExpectSimThreadedIdentity(seed, ThTriggerSpec(5 * duration::kSecond),
                              options);
  }
}

TEST(SimVsThreadedOracleTest, PooledTinyRingsExerciseHelping) {
  // 4-slot rings force producers into the help-run path constantly; the
  // claim protocol must keep every stage single-threaded regardless.
  DiffOptions options;
  options.pool_size = 2;
  options.queue_capacity = 4;
  options.with_rain = true;
  for (uint64_t seed : ChaosSeeds(25, 11100)) {
    ExpectSimThreadedIdentity(seed, ThJoinSpec(0), options);
  }
}

// ------------------------------------------------ shard-thread oracle --

TEST(SimVsThreadedOracleTest, ShardThreadsPartitionedAggMatchesSim) {
  for (uint64_t seed : ChaosSeeds(25, 11200)) {
    for (size_t shard_threads : {size_t{2}, size_t{4}}) {
      DiffOptions options;
      options.shard_threads = shard_threads;
      ExpectSimThreadedIdentity(seed, ThAggSpec(0, /*parallelism=*/2),
                                options);
      ExpectSimThreadedIdentity(
          seed, ThAggSpec(10 * duration::kSecond, /*parallelism=*/4),
          options);
    }
  }
}

TEST(SimVsThreadedOracleTest, ShardThreadsPartitionedJoinMatchesSim) {
  DiffOptions options;
  options.with_rain = true;
  options.shard_threads = 4;
  for (uint64_t seed : ChaosSeeds(25, 11300)) {
    ExpectSimThreadedIdentity(seed, ThJoinSpec(0, /*parallelism=*/2),
                              options);
    ExpectSimThreadedIdentity(seed, ThJoinSpec(0, /*parallelism=*/4),
                              options);
  }
}

// --------------------------------------------- batched-transfer oracle --

TEST(SimVsThreadedOracleTest, BatchedTransferMatchesSim) {
  DiffOptions options;
  options.batch_max = 8;
  for (uint64_t seed : ChaosSeeds(25, 11400)) {
    ExpectSimThreadedIdentity(seed, ThAggSpec(0), options);
    ExpectSimThreadedIdentity(seed, ThFilterTransformSpec(), options);
  }
}

TEST(SimVsThreadedOracleTest, BatchedJoinMatchesSim) {
  DiffOptions options;
  options.batch_max = 8;
  options.with_rain = true;
  for (uint64_t seed : ChaosSeeds(25, 11500)) {
    ExpectSimThreadedIdentity(seed, ThJoinSpec(0), options);
  }
}

TEST(SimVsThreadedOracleTest, BatchedEventTimeAggMatchesSim) {
  // The sealed batch watermark (max over the run) must be equivalent to
  // per-tuple observation for event-window firing.
  DiffOptions options;
  options.batch_max = 8;
  options.event_time = true;
  for (uint64_t seed : ChaosSeeds(25, 11600)) {
    ExpectSimThreadedIdentity(seed, ThAggSpec(10 * duration::kSecond),
                              options);
  }
}

TEST(SimVsThreadedOracleTest, AllModesCombinedMatchesSim) {
  // Every axis at once: trace replay into pooled workers with
  // shard-threaded partitioned flushes and batched rings.
  DiffOptions options;
  options.pool_size = 2;
  options.shard_threads = 2;
  options.batch_max = 8;
  options.queue_capacity = 64;
  for (uint64_t seed : ChaosSeeds(25, 11700)) {
    ExpectSimThreadedIdentity(seed, ThAggSpec(0, /*parallelism=*/4),
                              options);
  }
  options.with_rain = true;
  for (uint64_t seed : ChaosSeeds(25, 11750)) {
    ExpectSimThreadedIdentity(seed, ThJoinSpec(0, /*parallelism=*/2),
                              options);
  }
}

// ------------------------------------------------ feed-driven oracle --

TEST(SimVsThreadedOracleTest, FeedDrivenMatchesSim) {
  // Start, one Feed per trace event, Finish: the only ingestion path
  // perfbench drives, at its configuration (two pooled workers, emission
  // batches of up to 64). Feed sends one kData message per tuple, so the
  // batches form between stages only.
  DiffOptions options;
  options.feed = true;
  options.pool_size = 2;
  options.batch_max = 64;
  for (uint64_t seed : ChaosSeeds(25, 12200)) {
    ExpectSimThreadedIdentity(seed, ThAggSpec(0), options);
  }
  DiffOptions join = options;
  join.with_rain = true;
  for (uint64_t seed : ChaosSeeds(25, 12300)) {
    ExpectSimThreadedIdentity(seed, ThJoinSpec(0), join);
  }
  DiffOptions event_time = options;
  event_time.event_time = true;
  for (uint64_t seed : ChaosSeeds(25, 12400)) {
    ExpectSimThreadedIdentity(seed, ThAggSpec(10 * duration::kSecond),
                              event_time);
  }
}

// ------------------------------------------------- columnar oracle --
//
// Columnar batch execution at the batchable (stateless expression)
// stages — the threaded runtime's vectorized ProcessBatch path, with the
// simulator's per-tuple path as its oracle.

/// Virtual property → selective filter → transform: every stage is
/// batchable, so a kBatch ring message walks the whole chain through
/// the columnar path.
dsn::DsnSpec ThColumnarChainSpec() {
  auto df = *dataflow::DataflowBuilder("th_columnar")
                 .AddSource("src", "th_t0")
                 .AddVirtualProperty("heat", "src", "heat_index",
                                     "temp * 1.8 + 32", "fahrenheit")
                 .AddFilter("keep", "heat", "heat_index > 41 and temp < 29")
                 .AddTransform("scale", "keep", "temp", "temp * 2 + 1")
                 .AddSink("out", "scale", dataflow::SinkKind::kCollect)
                 .Build();
  return *dsn::TranslateToDsn(df);
}

TEST(SimVsThreadedOracleTest, ColumnarChainMatchesSim) {
  // Batched rings + columnar stages against the per-tuple simulator.
  DiffOptions options;
  options.batch_max = 8;
  uint64_t batched_tuples = 0;
  for (uint64_t seed : ChaosSeeds(25, 11800)) {
    DiffResult r = RunSimVsThreaded(seed, ThColumnarChainSpec(), options);
    ASSERT_TRUE(r.deployed) << r.error << "\n" << Context(seed);
    ASSERT_FALSE(r.sim_rows.empty()) << Context(seed);
    EXPECT_EQ(r.threaded_rows(), r.sim_rows) << Context(seed);
    EXPECT_EQ(r.threaded.process_errors, 0u) << Context(seed);
    for (const auto& [name, stats] : r.threaded.op_stats) {
      batched_tuples += stats.batched_tuples;
    }
  }
  // Multi-tuple ring messages must actually have taken the batch path.
  EXPECT_GT(batched_tuples, 0u);
}

TEST(SimVsThreadedOracleTest, ColumnarEventTimeChainMatchesSim) {
  // Watermarked chain into an event-time aggregation: the sealed batch
  // watermark must preserve window firing.
  DiffOptions options;
  options.batch_max = 8;
  options.event_time = true;
  auto spec = [] {
    auto df = *dataflow::DataflowBuilder("th_columnar_agg")
                   .AddSource("src", "th_t0")
                   .AddVirtualProperty("heat", "src", "heat_index",
                                       "temp * 1.8 + 32", "fahrenheit")
                   .AddFilter("keep", "heat", "heat_index > 41")
                   .AddAggregation("agg", "keep", 5 * duration::kSecond,
                                   dataflow::AggFunc::kAvg, {"temp"}, {},
                                   10 * duration::kSecond)
                   .AddSink("out", "agg", dataflow::SinkKind::kCollect)
                   .Build();
    return *dsn::TranslateToDsn(df);
  }();
  for (uint64_t seed : ChaosSeeds(25, 12000)) {
    ExpectSimThreadedIdentity(seed, spec, options);
  }
}

TEST(SimVsThreadedOracleTest, ColumnarAllModesCombinedMatchesSim) {
  // Columnar stages under every concurrency axis at once: pooled
  // workers, shard threads, batched rings.
  DiffOptions options;
  options.pool_size = 2;
  options.shard_threads = 2;
  options.batch_max = 8;
  options.queue_capacity = 64;
  for (uint64_t seed : ChaosSeeds(25, 12100)) {
    ExpectSimThreadedIdentity(seed, ThColumnarChainSpec(), options);
  }
}

// ------------------------------------------------- stress / property --

/// Direct-drive harness (no simulator): hand-built trace against a
/// hand-built broker, for stress knobs the differential runs don't need.
class DirectThreaded {
 public:
  explicit DirectThreaded(uint64_t seed) : seed_(seed) {
    loop_ = std::make_unique<net::EventLoop>();
    broker_ = std::make_unique<pubsub::Broker>(&loop_->clock());
    pubsub::SensorInfo info;
    info.id = "th_t0";
    info.type = "keyed_replay";
    info.schema = ThTempSchema();
    info.period = duration::kSecond;
    info.location = stt::GeoPoint{34.69, 135.50};
    info.provides_timestamp = true;
    info.provides_location = true;
    info.node_id = "node_0";
    (void)broker_->Publish(info);
  }

  exec::InputTrace MakeTrace(size_t count) {
    exec::InputTrace trace;
    Rng rng(seed_);
    auto schema = ThTempSchema();
    Timestamp at = loop_->Now();
    for (size_t i = 0; i < count; ++i) {
      std::string station = "s" + std::to_string(rng.NextBounded(8));
      auto tuple = stt::Tuple::Share(stt::Tuple::MakeUnsafe(
          schema,
          {stt::Value::Double(rng.NextDouble(-5.0, 30.0)),
           stt::Value::String(station)},
          at, stt::GeoPoint{34.69, 135.50}, "th_t0"));
      trace.push_back({at, "src", tuple, stt::kNoWatermark});
      at += 10;  // 100 tuples per virtual second
    }
    return trace;
  }

  pubsub::Broker* broker() { return broker_.get(); }
  Timestamp now() const { return loop_->Now(); }

 private:
  uint64_t seed_;
  std::unique_ptr<net::EventLoop> loop_;
  std::unique_ptr<pubsub::Broker> broker_;
};

/// A deliberately slow consumer for backpressure stress: a CSV sink
/// whose line consumer busy-waits `ns` wall-clock nanoseconds per line
/// (a sleep would round up to scheduler quanta and hide the queue
/// math).
sinks::SinkContext SlowCsvSink(int64_t ns) {
  sinks::SinkContext context;
  context.csv_consumer = [ns](const std::string&) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  return context;
}

TEST(ThreadedChaosTest, BackpressureSaturationLosesNothing) {
  // Tiny rings and a deliberately slow sink: the credit chain must stall
  // the driver instead of dropping or deadlocking, and every fed tuple
  // must reach the sink.
  for (uint64_t seed : ChaosSeeds(5, 9000)) {
    DirectThreaded direct(seed);
    exec::InputTrace trace = direct.MakeTrace(5000);
    exec::ThreadedOptions options;
    options.queue_capacity = 4;
    auto df = *dsn::TranslateFromDsn(
        ThFilterTransformSpec(dataflow::SinkKind::kCsv));
    exec::ThreadedRuntime runtime(df, direct.broker(), SlowCsvSink(2000),
                                  options);
    auto result = runtime.RunTrace(trace, trace.back().at + 1000);
    ASSERT_TRUE(result.ok()) << result.status().ToString() << "\n"
                             << Context(seed);
    // Filter drops some tuples, but sink deliveries must equal the
    // filter's survivors: nothing lost in the queues.
    EXPECT_EQ(result->tuples_fed, 5000u) << Context(seed);
    EXPECT_EQ(result->tuples_delivered,
              result->op_stats.at("f2c").tuples_out)
        << Context(seed);
    EXPECT_EQ(result->op_stats.at("flt").tuples_in, 5000u) << Context(seed);
    EXPECT_GT(result->backpressure_waits, 0u)
        << "4-slot rings with a slow sink must saturate\n" << Context(seed);
  }
}

TEST(ThreadedChaosTest, ShutdownWhileDrainingStopsPromptly) {
  // Abort mid-stream from the driver thread while queues are full: all
  // workers must exit (no deadlock on credit waits), and the runtime
  // must not crash on teardown. Regression note: Abort must notify the
  // *channel* gates too — a producer parked on a full ring's space gate
  // would otherwise wait out its poll period holding no lock anyone
  // releases.
  for (uint64_t seed : ChaosSeeds(10, 9100)) {
    DirectThreaded direct(seed);
    Rng rng(seed ^ 0xabcd);
    const size_t feed_before_abort = 100 + rng.NextBounded(2000);
    exec::InputTrace trace = direct.MakeTrace(3000);
    exec::ThreadedOptions options;
    options.queue_capacity = 8;
    auto df = *dsn::TranslateFromDsn(ThAggSpec(
        0, 1, 5 * duration::kSecond, dataflow::SinkKind::kCsv));
    exec::ThreadedRuntime runtime(df, direct.broker(), SlowCsvSink(1000),
                                  options);
    SL_ASSERT_OK(runtime.Start());
    for (size_t i = 0; i < feed_before_abort; ++i) {
      const auto& event = trace[i];
      SL_ASSERT_OK(runtime.Feed(event.source, event.tuple, event.at,
                                event.watermark));
    }
    runtime.Abort();  // joins all workers; queued tuples are dropped
    SUCCEED();
  }
}

TEST(ThreadedChaosTest, AbortFromSecondThreadUnblocksSaturatedFeed) {
  // The driver blocks on a full source ring (sink is very slow); a
  // second thread calls Abort. Feed must unblock and the join must
  // complete — the shutdown-while-draining deadlock case.
  DirectThreaded direct(4242);
  exec::InputTrace trace = direct.MakeTrace(20000);
  exec::ThreadedOptions options;
  options.queue_capacity = 2;
  auto df = *dsn::TranslateFromDsn(
      ThFilterTransformSpec(dataflow::SinkKind::kCsv));
  // 0.1 ms per tuple: instant saturation.
  exec::ThreadedRuntime runtime(df, direct.broker(), SlowCsvSink(100000),
                                options);
  SL_ASSERT_OK(runtime.Start());
  std::thread aborter([&runtime] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    runtime.Abort();
  });
  for (const auto& event : trace) {
    Status s = runtime.Feed(event.source, event.tuple, event.at,
                            event.watermark);
    if (!s.ok()) break;  // aborted mid-feed is fine
  }
  aborter.join();
  SUCCEED();
}

TEST(ThreadedChaosTest, SameTraceTwiceIsIdentical) {
  // Thread scheduling varies between runs; the output must not.
  for (uint64_t seed : ChaosSeeds(10, 9200)) {
    DiffOptions options;
    DiffResult a = RunSimVsThreaded(seed, ThAggSpec(0), options);
    DiffResult b = RunSimVsThreaded(seed, ThAggSpec(0), options);
    ASSERT_TRUE(a.deployed) << a.error << "\n" << Context(seed);
    ASSERT_TRUE(b.deployed) << b.error << "\n" << Context(seed);
    EXPECT_EQ(a.threaded_rows(), b.threaded_rows()) << Context(seed);
    EXPECT_EQ(a.threaded.late_rows, b.threaded.late_rows) << Context(seed);
  }
}

TEST(ThreadedChaosTest, LiveStageSamplesAreSane) {
  // SampleStages concurrently with the run: gauges must be readable
  // without tearing (they are relaxed atomics) and end up consistent.
  DirectThreaded direct(777);
  exec::InputTrace trace = direct.MakeTrace(20000);
  exec::ThreadedOptions options;
  options.queue_capacity = 64;
  auto df = *dsn::TranslateFromDsn(
      ThFilterTransformSpec(dataflow::SinkKind::kCsv));
  exec::ThreadedRuntime runtime(df, direct.broker(), SlowCsvSink(500),
                                options);
  SL_ASSERT_OK(runtime.Start());
  std::atomic<bool> stop{false};
  std::thread sampler([&] {
    while (!stop.load()) {
      for (const auto& sample : runtime.SampleStages()) {
        EXPECT_LE(sample.queue_depth, options.queue_capacity);
      }
    }
  });
  for (const auto& event : trace) {
    SL_ASSERT_OK(runtime.Feed(event.source, event.tuple, event.at,
                              event.watermark));
  }
  auto result = runtime.Finish(trace.back().at + 1000);
  stop.store(true);
  sampler.join();
  SL_ASSERT_OK(result.status());
  EXPECT_EQ(result->tuples_fed, 20000u);
  // Pure streaming pipeline: every sink delivery descends from a Feed,
  // so each one carries a latency sample.
  EXPECT_EQ(result->latency.count, result->tuples_delivered);
  EXPECT_GE(result->latency.p99_ns, result->latency.p50_ns);
  // The final samples surface the monitor gauges this PR adds.
  bool saw_queue_activity = false;
  for (const auto& sample : result->stage_samples) {
    if (sample.queue_depth > 0) saw_queue_activity = true;
    EXPECT_LE(sample.queue_depth, options.queue_capacity);  // peak depth
  }
  EXPECT_TRUE(saw_queue_activity);
  // And they render through the monitor report paths.
  monitor::MonitorReport report;
  report.operators = result->stage_samples;
  EXPECT_NE(report.ToString().find(" q "), std::string::npos);
  EXPECT_NE(report.ToJson().find("queue_depth"), std::string::npos);
  EXPECT_NE(report.ToJson().find("backpressure_waits"), std::string::npos);
}

TEST(ThreadedChaosTest, PooledReleaseStrandsNoInput) {
  // A producer's push races the runner's release of the stage's claim.
  // If the producer acts on a stale claim state while the releasing
  // runner misses the push, the stage idles with input queued and the
  // run never finishes. Many short pooled runs; a watchdog aborts one
  // that stalls so the failure is reported instead of hanging.
  DirectThreaded direct(4242);
  const exec::InputTrace trace = direct.MakeTrace(100);
  const auto df = *dsn::TranslateFromDsn(ThFilterTransformSpec());
  exec::ThreadedOptions options;
  options.pool_size = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (int run = 0; run < 3000; ++run) {
    exec::ThreadedRuntime runtime(df, direct.broker(), {}, options);
    SL_ASSERT_OK(runtime.Start());
    std::mutex mu;
    std::condition_variable cv;
    bool finished = false;
    bool stalled = false;
    std::thread watchdog([&] {
      std::unique_lock<std::mutex> lock(mu);
      if (!cv.wait_for(lock, std::chrono::seconds(10),
                       [&] { return finished; })) {
        stalled = true;
        runtime.Abort();
      }
    });
    // No assertion may return before the watchdog is joined.
    Status fed = Status::OK();
    for (const auto& event : trace) {
      fed = runtime.Feed(event.source, event.tuple, event.at, event.watermark);
      if (!fed.ok()) break;
    }
    auto result = runtime.Finish(trace.back().at + 1000);
    {
      std::lock_guard<std::mutex> lock(mu);
      finished = true;
    }
    cv.notify_one();
    watchdog.join();
    ASSERT_FALSE(stalled) << "run " << run << " stalled with input queued";
    SL_ASSERT_OK(fed);
    SL_ASSERT_OK(result.status());
  }
}

// ------------------------------------------------------------ driver --

/// A kCsv sink context whose consumer appends every line (header first)
/// to `lines` under `mu`; the sink stage's worker calls it.
sinks::SinkContext CapturingCsvSink(std::mutex* mu,
                                    std::vector<std::string>* lines) {
  sinks::SinkContext context;
  context.csv_consumer = [mu, lines](const std::string& line) {
    std::lock_guard<std::mutex> lock(*mu);
    lines->push_back(line);
  };
  return context;
}

TEST(ThreadedRuntimeTest, FailingStageLogsFirstFailureAndTotal) {
  // Every tuple's temp is a string, so the filter fails on each one.
  // All 1,000 failures are counted, but the log gets the first one with
  // its Status and one total per failing stage, not a line per tuple —
  // on the per-tuple path (batch 1) and the columnar one (batch 64).
  DirectThreaded direct(99);
  const stt::SchemaPtr schema = ThTempSchema();
  exec::InputTrace trace;
  for (Timestamp i = 0; i < 1000; ++i) {
    const Timestamp at = direct.now() + 10 * i;
    trace.push_back(
        {at, "src",
         stt::Tuple::Share(stt::Tuple::MakeUnsafe(
             schema, {stt::Value::String("hot"), stt::Value::String("s1")},
             at, stt::GeoPoint{34.69, 135.50}, "th_t0")),
         stt::kNoWatermark});
  }
  const auto df = *dsn::TranslateFromDsn(ThFilterTransformSpec());
  Logger& logger = Logger::Get();
  for (size_t batch_max : {size_t{1}, size_t{64}}) {
    std::mutex mu;
    std::vector<std::string> lines;
    logger.set_sink([&](LogLevel, const std::string& line) {
      std::lock_guard<std::mutex> lock(mu);
      lines.push_back(line);
    });
    exec::ThreadedOptions options;
    options.batch_max = batch_max;
    exec::ThreadedRuntime runtime(df, direct.broker(), {}, options);
    auto result = runtime.RunTrace(trace, trace.back().at + 1000);
    logger.set_sink(nullptr);
    SL_ASSERT_OK(result.status());
    EXPECT_EQ(result->process_errors, 1000u) << "batch_max " << batch_max;
    size_t first = 0;
    size_t total = 0;
    for (const std::string& line : lines) {
      if (line.find("threaded process of flt failed") != std::string::npos) {
        ++first;
        EXPECT_NE(line.find("TypeError"), std::string::npos) << line;
      }
      if (line.find("threaded stage flt failed 1000 times") !=
          std::string::npos) {
        ++total;
      }
    }
    EXPECT_EQ(first, 1u) << "batch_max " << batch_max;
    EXPECT_EQ(total, 1u) << "batch_max " << batch_max;
    EXPECT_EQ(lines.size(), 2u) << "batch_max " << batch_max;
  }
}

TEST(ThreadedRuntimeTest, FeedRejectsTimeGoingBack) {
  // Once the driver has reached a time, the punctuation for every
  // boundary up to it has gone out; a tuple stamped behind it would
  // land in a window that may already be flushed.
  DirectThreaded direct(5);
  const exec::InputTrace trace = direct.MakeTrace(800);  // 8 virtual s
  const auto df = *dsn::TranslateFromDsn(ThAggSpec(0));
  exec::ThreadedRuntime runtime(df, direct.broker());
  SL_ASSERT_OK(runtime.Start());
  const exec::TraceEvent& early = trace[100];  // 1 s
  const exec::TraceEvent& late = trace[700];   // 7 s
  SL_ASSERT_OK(runtime.Feed(late.source, late.tuple, late.at, late.watermark));
  Status back =
      runtime.Feed(early.source, early.tuple, early.at, early.watermark);
  EXPECT_EQ(back.code(), StatusCode::kInvalidArgument) << back.ToString();
  // The same time again is not going back.
  SL_EXPECT_OK(
      runtime.Feed(late.source, late.tuple, late.at, late.watermark));
  // AdvanceTime moves the reached time too.
  runtime.AdvanceTime(late.at + 1000);
  Status behind = runtime.Feed(late.source, late.tuple, late.at + 500,
                               late.watermark);
  EXPECT_EQ(behind.code(), StatusCode::kInvalidArgument)
      << behind.ToString();
  auto result = runtime.Finish(late.at + 2000);
  SL_ASSERT_OK(result.status());
  EXPECT_EQ(result->tuples_fed, 2u);
}

TEST(ThreadedRuntimeTest, RunTraceChecksTraceBeforeStart) {
  // A trace whose times decrease, or that names a source the dataflow
  // lacks, is refused before any worker starts: the same runtime can
  // still run a good trace afterwards.
  DirectThreaded direct(6);
  const exec::InputTrace trace = direct.MakeTrace(200);
  const Timestamp end_time = trace.back().at + 1000;
  const auto df = *dsn::TranslateFromDsn(ThAggSpec(0));
  exec::ThreadedRuntime runtime(df, direct.broker());

  exec::InputTrace swapped = trace;
  std::swap(swapped[50], swapped[150]);
  auto back = runtime.RunTrace(swapped, end_time);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument)
      << back.status().ToString();

  exec::InputTrace unknown = trace;
  unknown[120].source = "nowhere";
  auto missing = runtime.RunTrace(unknown, end_time);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound)
      << missing.status().ToString();

  auto good = runtime.RunTrace(trace, end_time);
  SL_ASSERT_OK(good.status());
  EXPECT_EQ(good->tuples_fed, 200u);
}

TEST(ThreadedRuntimeTest, AdvanceTimeFlushesWithoutData) {
  // A driver with nothing to feed calls AdvanceTime to make a due flush
  // fire: the first 5 s window's rows reach the sink with no tuple fed
  // behind them, and the run as a whole matches RunTrace.
  DirectThreaded direct(7);
  const exec::InputTrace trace = direct.MakeTrace(1000);  // 10 virtual s
  const Timestamp end_time = trace.back().at + 1000;
  const auto df = *dsn::TranslateFromDsn(
      ThAggSpec(0, 1, 5 * duration::kSecond, dataflow::SinkKind::kCsv));
  const Timestamp boundary = direct.now() + 5 * duration::kSecond;
  size_t first_window = 0;  // trace events before the first boundary
  std::set<std::string> stations;
  while (trace[first_window].at < boundary) {
    stations.insert(trace[first_window].tuple->value(1).AsString());
    ++first_window;
  }

  std::mutex mu;
  std::vector<std::string> lines;
  exec::ThreadedRuntime runtime(df, direct.broker(),
                                CapturingCsvSink(&mu, &lines));
  SL_ASSERT_OK(runtime.Start());
  for (size_t i = 0; i < first_window; ++i) {
    SL_ASSERT_OK(runtime.Feed(trace[i].source, trace[i].tuple, trace[i].at,
                              trace[i].watermark));
  }
  runtime.AdvanceTime(boundary);
  // The header plus one row per station of the first window.
  const size_t want = 1 + stations.size();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  size_t got = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard<std::mutex> lock(mu);
      got = lines.size();
    }
    if (got >= want) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(got, want) << "the flush AdvanceTime made due did not fire";
  for (size_t i = first_window; i < trace.size(); ++i) {
    SL_ASSERT_OK(runtime.Feed(trace[i].source, trace[i].tuple, trace[i].at,
                              trace[i].watermark));
  }
  auto fed = runtime.Finish(end_time);
  SL_ASSERT_OK(fed.status());

  std::mutex replay_mu;
  std::vector<std::string> replay_lines;
  exec::ThreadedRuntime replay(df, direct.broker(),
                               CapturingCsvSink(&replay_mu, &replay_lines));
  auto replayed = replay.RunTrace(trace, end_time);
  SL_ASSERT_OK(replayed.status());
  std::sort(lines.begin(), lines.end());
  std::sort(replay_lines.begin(), replay_lines.end());
  EXPECT_GT(replay_lines.size(), want);
  EXPECT_EQ(lines, replay_lines);
}

// ------------------------------------------- latent-race regressions --

TEST(ThreadedChaosTest, TupleByteMemoizationIsThreadSafe) {
  // Regression: Tuple::ApproxValueBytes memoized its result in a plain
  // mutable size_t — benign single-threaded, a data race once the
  // threaded runtime charges byte gauges from every producer thread
  // that pushes the same shared tuple onto a fan-out edge. The field is
  // now a relaxed atomic; this test hammers one shared tuple from many
  // threads (TSan verifies the fix, the assert verifies the value).
  auto schema = ThTempSchema();
  auto tuple = stt::Tuple::Share(stt::Tuple::MakeUnsafe(
      schema,
      {stt::Value::Double(21.5), stt::Value::String("s1")},
      0, stt::GeoPoint{34.69, 135.50}, "th_t0"));
  const size_t expected = tuple->ApproxValueBytes();
  for (int round = 0; round < 20; ++round) {
    auto fresh = stt::Tuple::Share(stt::Tuple::MakeUnsafe(
        schema,
        {stt::Value::Double(21.5), stt::Value::String("s1")},
        0, stt::GeoPoint{34.69, 135.50}, "th_t0"));
    std::vector<std::thread> threads;
    std::atomic<size_t> disagreements{0};
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 1000; ++i) {
          if (fresh->ApproxValueBytes() != expected) {
            disagreements.fetch_add(1);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(disagreements.load(), 0u);
  }
}

TEST(ThreadedChaosTest, LoggerSinkSwapIsThreadSafe) {
  // Regression: Logger::Log read sink_ without synchronization while
  // set_sink replaced it — fine when everything ran on the event loop,
  // a use-after-free candidate once worker threads log process errors
  // concurrently with a test installing a capture sink. Both now take
  // the logger mutex; the level check is a relaxed atomic.
  auto& logger = Logger::Get();
  const LogLevel old_level = logger.level();
  logger.set_level(LogLevel::kError);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> captured{0};
  std::thread swapper([&] {
    while (!stop.load()) {
      logger.set_sink([&captured](LogLevel, const std::string&) {
        captured.fetch_add(1);
      });
      logger.set_sink(nullptr);  // restore default
    }
  });
  std::vector<std::thread> loggers;
  for (int t = 0; t < 2; ++t) {
    loggers.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        // Below kError: filtered after the level load, never reaches the
        // sink — so the stress exercises the lock, not stderr volume.
        logger.Log(LogLevel::kDebug, "threaded logger stress");
      }
      logger.Log(LogLevel::kNone, "never emitted");
    });
  }
  for (auto& thread : loggers) thread.join();
  stop.store(true);
  swapper.join();
  logger.set_sink(nullptr);
  logger.set_level(old_level);
  SUCCEED();
}

// ----------------------------------------------------------- facade --

TEST(ThreadedFacadeTest, StreamLoaderRunThreadedMatchesDeploy) {
  // The designer-facing path: same platform session, simulated Deploy
  // as reference, RunThreaded on the captured trace.
  StreamLoaderOptions options;
  options.network_nodes = 5;
  StreamLoader sl(options);
  auto sensor = ThSensor("th_t0", ThTempSchema(), "node_2", 42);
  SL_ASSERT_OK(sensor.status());
  SL_ASSERT_OK(sl.AddSensor(std::move(*sensor)));

  exec::InputTrace trace;
  sl.executor().set_source_tap(
      [&trace](const std::string& source, const stt::TupleRef& tuple,
               Timestamp at, Timestamp watermark) {
        trace.push_back({at, source, tuple, watermark});
      });

  const dsn::DsnSpec spec = ThAggSpec(0);
  const Timestamp deploy_time = sl.Now();
  auto df = *dsn::TranslateFromDsn(spec);
  auto id = sl.executor().Deploy(spec);
  SL_ASSERT_OK(id.status());
  sl.RunFor(30 * duration::kSecond);
  (void)sl.fleet().Deactivate("th_t0");
  sl.RunFor(15 * duration::kSecond);

  std::vector<std::string> sim_rows;
  auto* out =
      static_cast<sinks::CollectSink*>(*sl.executor().SinkOf(*id, "out"));
  for (const auto& t : out->tuples()) sim_rows.push_back(t->ToString());
  std::sort(sim_rows.begin(), sim_rows.end());
  ASSERT_FALSE(sim_rows.empty());

  exec::ThreadedOptions threaded_options;
  threaded_options.deploy_time = deploy_time;
  auto result = sl.RunThreaded(df, trace, sl.Now(), threaded_options);
  SL_ASSERT_OK(result.status());
  EXPECT_EQ(result->sink_rows.at("out"), sim_rows);
  EXPECT_GT(result->tuples_per_sec, 0.0);
}

TEST(ThreadedFacadeTest, RunThreadedRejectsFaultPlan) {
  // The threaded runtime does not simulate faults; a session whose
  // network carries a plan that would actually perturb delivery must be
  // rejected rather than silently diverge from the simulated reference.
  StreamLoaderOptions options;
  options.network_nodes = 5;
  StreamLoader sl(options);
  auto sensor = ThSensor("th_t0", ThTempSchema(), "node_2", 42);
  SL_ASSERT_OK(sensor.status());
  SL_ASSERT_OK(sl.AddSensor(std::move(*sensor)));
  auto df = *dsn::TranslateFromDsn(ThAggSpec(0));

  // An all-zero plan is harmless: faults are "enabled" but no roll can
  // ever fire, so the run proceeds.
  net::FaultPlan zero_plan(/*seed=*/11);
  SL_ASSERT_OK(sl.network().InstallFaultPlan(zero_plan));
  exec::InputTrace trace;  // empty trace: the gate fires before feeding
  exec::ThreadedOptions run_options;
  run_options.deploy_time = sl.Now();  // anchor flush timers at the session
  auto ok_run =
      sl.RunThreaded(df, trace, sl.Now() + duration::kSecond, run_options);
  SL_ASSERT_OK(ok_run.status());

  // A plan with a non-zero profile is refused...
  net::FaultPlan lossy_plan(/*seed=*/11);
  net::FaultProfile profile;
  profile.drop_probability = 0.1;
  lossy_plan.set_default_profile(profile);
  SL_ASSERT_OK(sl.network().InstallFaultPlan(lossy_plan));
  auto rejected = sl.RunThreaded(df, trace, sl.Now() + duration::kSecond);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.status().message().find("fault plan"),
            std::string::npos);

  // ...unless the caller explicitly opts in.
  exec::ThreadedOptions opt_in = run_options;
  opt_in.allow_fault_plan = true;
  auto allowed =
      sl.RunThreaded(df, trace, sl.Now() + duration::kSecond, opt_in);
  SL_ASSERT_OK(allowed.status());
}

}  // namespace
}  // namespace sl
