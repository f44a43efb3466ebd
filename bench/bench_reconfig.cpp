// E6 (demo P3): plug-and-play and on-the-fly reconfiguration — how fast
// a joining sensor becomes discoverable, what an operator migration
// costs, and how the system behaves under sensor churn.
//
// Expected shape: join->discoverable is microseconds (registry insert +
// notification fan-out, linear in subscribers); migration cost is
// dominated by the simulated state transfer and grows with cache size;
// churn does not disturb unrelated deployments.

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "core/streamloader.h"
#include "sensors/generators.h"
#include "util/strings.h"

namespace sl {
namespace {

using dataflow::AggFunc;
using dataflow::SinkKind;

std::unique_ptr<sensors::SensorSimulator> FastSensor(const std::string& id,
                                                     const std::string& node,
                                                     uint64_t seed) {
  sensors::PhysicalConfig config;
  config.id = id;
  config.period = duration::kSecond;
  config.temporal_granularity = duration::kSecond;
  config.node_id = node;
  config.seed = seed;
  return sensors::MakeTemperatureSensor(config);
}

/// Publish -> discoverable, with a growing number of registry
/// subscribers watching (the notification fan-out).
void BM_SensorJoinDiscoverable(benchmark::State& state) {
  size_t watchers = static_cast<size_t>(state.range(0));
  VirtualClock clock;
  pubsub::Broker broker(&clock);
  uint64_t notified = 0;
  for (size_t i = 0; i < watchers; ++i) {
    broker.SubscribeRegistry(
        [&notified](const pubsub::SensorEvent&) { ++notified; });
  }
  auto schema = *stt::Schema::Make(
      {{"temp", stt::ValueType::kDouble, "celsius", false}});
  uint64_t serial = 0;
  for (auto _ : state) {
    pubsub::SensorInfo info;
    info.id = StrFormat("s_%llu", static_cast<unsigned long long>(serial++));
    info.type = "temperature";
    info.schema = schema;
    info.period = duration::kSecond;
    info.location = stt::GeoPoint{34.69, 135.50};
    Status s = broker.Publish(info);
    benchmark::DoNotOptimize(s);
    pubsub::DiscoveryQuery q;
    q.type = "temperature";
    benchmark::DoNotOptimize(broker.Discover(q).size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["watchers"] =
      benchmark::Counter(static_cast<double>(watchers));
}
BENCHMARK(BM_SensorJoinDiscoverable)->Arg(0)->Arg(8)->Arg(64);

/// Migration cost: move a blocking operator with a cache of N tuples to
/// another node (includes the simulated state transfer).
void BM_OperatorMigration(benchmark::State& state) {
  size_t cache_fill_seconds = static_cast<size_t>(state.range(0));
  StreamLoaderOptions options;
  options.network_nodes = 8;
  options.executor.rebalance_threshold = 0;  // manual migrations only
  StreamLoader loader(options);
  if (!loader.AddSensor(FastSensor("t1", "node_0", 1)).ok()) {
    state.SkipWithError("sensor failed");
    return;
  }
  auto df = *loader.NewDataflow("mig")
                 .AddSource("src", "t1")
                 .AddAggregation("agg", "src", duration::kHour, AggFunc::kAvg,
                                 {"temp"})
                 .AddSink("out", "agg", SinkKind::kCollect)
                 .Build();
  auto id = *loader.Deploy(df);
  // Fill the cache.
  loader.RunFor(static_cast<Duration>(cache_fill_seconds) *
                duration::kSecond);
  std::vector<std::string> nodes = loader.network().NodeIds();
  size_t next = 0;
  for (auto _ : state) {
    const std::string& target = nodes[next++ % nodes.size()];
    Status s = loader.executor().MigrateOperator(id, "agg", target);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["cached_tuples"] = benchmark::Counter(
      static_cast<double>((*loader.executor()
                               .OperatorStatsOf(id, "agg"))
                              .cache_size));
}
BENCHMARK(BM_OperatorMigration)->Arg(0)->Arg(600)->Arg(3000);

/// On-the-fly operator replacement while the stream runs.
void BM_OperatorReplacement(benchmark::State& state) {
  StreamLoaderOptions options;
  options.network_nodes = 4;
  StreamLoader loader(options);
  if (!loader.AddSensor(FastSensor("t1", "node_0", 1)).ok()) {
    state.SkipWithError("sensor failed");
    return;
  }
  auto df = *loader.NewDataflow("rep")
                 .AddSource("src", "t1")
                 .AddFilter("keep", "src", "temp > 0")
                 .AddSink("out", "keep", SinkKind::kCollect)
                 .Build();
  auto id = *loader.Deploy(df);
  loader.RunFor(10 * duration::kSecond);
  int flip = 0;
  for (auto _ : state) {
    Status s = loader.executor().ReplaceOperator(
        id, "keep",
        dataflow::FilterSpec{(flip++ % 2) ? "temp > 0" : "temp > 10"});
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_OperatorReplacement);

/// Sensor churn: wall time to simulate a stream-minute during which
/// `churn` sensors join and leave, alongside a steady deployment.
void BM_ChurnDuringExecution(benchmark::State& state) {
  size_t churn = static_cast<size_t>(state.range(0));
  uint64_t errors = 0;
  for (auto _ : state) {
    state.PauseTiming();
    StreamLoaderOptions options;
    options.network_nodes = 4;
    StreamLoader loader(options);
    if (!loader.AddSensor(FastSensor("steady", "node_0", 1)).ok()) {
      state.SkipWithError("sensor failed");
      return;
    }
    auto df = *loader.NewDataflow("steady_flow")
                   .AddSource("src", "steady")
                   .AddFilter("keep", "src", "temp > -100")
                   .AddSink("out", "keep", SinkKind::kCollect)
                   .Build();
    auto id = *loader.Deploy(df);
    // Schedule churn events across the simulated minute.
    state.ResumeTiming();
    for (size_t i = 0; i < churn; ++i) {
      std::string sid = StrFormat("churn_%03zu", i);
      Status add = loader.AddSensor(
          FastSensor(sid, StrFormat("node_%zu", i % 4), 100 + i));
      benchmark::DoNotOptimize(add);
      loader.RunFor(duration::kMinute / (churn + 1));
      Status rm = loader.fleet().Remove(sid);
      benchmark::DoNotOptimize(rm);
    }
    loader.RunFor(duration::kMinute / (churn + 1));
    state.PauseTiming();
    errors += (*loader.executor().stats(id))->process_errors;
    state.ResumeTiming();
  }
  state.counters["churn_sensors"] =
      benchmark::Counter(static_cast<double>(churn));
  state.counters["process_errors"] =
      benchmark::Counter(static_cast<double>(errors));
}
BENCHMARK(BM_ChurnDuringExecution)
    ->Arg(1)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sl

SL_BENCH_MAIN("reconfig");
