// E8 (Table 1 blocking semantics, ablation): sweep of the blocking
// interval t for aggregation, join and trigger — cache occupancy,
// output rate and result staleness as t grows.
//
// Expected shape: larger t means larger caches and fewer, larger
// outputs; staleness (age of the oldest cached tuple at flush) grows
// linearly with t; join flush cost grows quadratically in per-interval
// arrivals.

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
                                                     uint64_t seed) {
  sensors::PhysicalConfig config;
  config.id = id;
  config.period = duration::kSecond;
  config.temporal_granularity = duration::kSecond;
  config.node_id = "node_0";
  config.seed = seed;
  return sensors::MakeTemperatureSensor(config);
}

/// Aggregation interval sweep over one simulated hour of 1 Hz input.
void BM_AggregationIntervalSweep(benchmark::State& state) {
  Duration interval = state.range(0);
  uint64_t outputs = 0;
  uint64_t inputs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    StreamLoaderOptions options;
    options.network_nodes = 2;
    StreamLoader loader(options);
    if (!loader.AddSensor(FastSensor("t1", 1)).ok()) {
      state.SkipWithError("sensor failed");
      return;
    }
    auto df = *loader.NewDataflow("sweep")
                   .AddSource("src", "t1")
                   .AddAggregation("agg", "src", interval, AggFunc::kAvg,
                                   {"temp"})
                   .AddSink("out", "agg", SinkKind::kCollect)
                   .Build();
    auto id = *loader.Deploy(df);
    state.ResumeTiming();
    loader.RunFor(duration::kHour);
    state.PauseTiming();
    auto stats = *loader.executor().OperatorStatsOf(id, "agg");
    outputs += stats.tuples_out;
    inputs += stats.tuples_in;
    state.ResumeTiming();
  }
  double runs = static_cast<double>(state.iterations());
  state.counters["interval_ms"] =
      benchmark::Counter(static_cast<double>(interval));
  state.counters["outputs_per_hour"] =
      benchmark::Counter(static_cast<double>(outputs) / runs);
  state.counters["reduction_ratio"] = benchmark::Counter(
      outputs > 0 ? static_cast<double>(inputs) / static_cast<double>(outputs)
                  : 0.0);
  // Worst-case staleness of data inside one aggregate = the interval.
  state.counters["staleness_bound_ms"] =
      benchmark::Counter(static_cast<double>(interval));
}
BENCHMARK(BM_AggregationIntervalSweep)
    ->Arg(duration::kSecond)
    ->Arg(10 * duration::kSecond)
    ->Arg(duration::kMinute)
    ->Arg(10 * duration::kMinute)
    ->Unit(benchmark::kMillisecond);

/// Join interval sweep: two 1 Hz inputs; cache per side ~= t seconds, so
/// flush work grows ~t^2 while output count per hour falls as 1/t.
void BM_JoinIntervalSweep(benchmark::State& state) {
  Duration interval = state.range(0);
  uint64_t outputs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    StreamLoaderOptions options;
    options.network_nodes = 2;
    StreamLoader loader(options);
    if (!loader.AddSensor(FastSensor("a", 1)).ok() ||
        !loader.AddSensor(FastSensor("b", 2)).ok()) {
      state.SkipWithError("sensor failed");
      return;
    }
    auto df = *loader.NewDataflow("jsweep")
                   .AddSource("sa", "a")
                   .AddSource("sb", "b")
                   .AddJoin("j", "sa", "sb", interval,
                            "abs(sa_temp - sb_temp) < 1")
                   .AddSink("out", "j", SinkKind::kCollect)
                   .Build();
    auto id = *loader.Deploy(df);
    state.ResumeTiming();
    loader.RunFor(10 * duration::kMinute);
    state.PauseTiming();
    outputs += (*loader.executor().OperatorStatsOf(id, "j")).tuples_out;
    state.ResumeTiming();
  }
  state.counters["interval_ms"] =
      benchmark::Counter(static_cast<double>(interval));
  state.counters["join_outputs"] = benchmark::Counter(
      static_cast<double>(outputs) / static_cast<double>(state.iterations()));
  state.counters["cache_per_side"] =
      benchmark::Counter(static_cast<double>(interval / duration::kSecond));
}
BENCHMARK(BM_JoinIntervalSweep)
    ->Arg(10 * duration::kSecond)
    ->Arg(duration::kMinute)
    ->Arg(5 * duration::kMinute)
    ->Unit(benchmark::kMillisecond);

/// Trigger interval sweep: reaction opportunity count per hour is 1/t
/// (bounded staleness of the reactive behaviour).
void BM_TriggerIntervalSweep(benchmark::State& state) {
  Duration interval = state.range(0);
  uint64_t flushes = 0;
  uint64_t fires = 0;
  for (auto _ : state) {
    state.PauseTiming();
    StreamLoaderOptions options;
    options.network_nodes = 2;
    StreamLoader loader(options);
    if (!loader.AddSensor(FastSensor("t1", 1)).ok()) {
      state.SkipWithError("sensor failed");
      return;
    }
    auto dormant = FastSensor("r1", 2);
    if (!loader.AddSensor(std::move(dormant), /*start_active=*/false).ok()) {
      state.SkipWithError("dormant sensor failed");
      return;
    }
    auto df = *loader.NewDataflow("tsweep")
                   .AddSource("src", "t1")
                   .AddTriggerOn("trig", "src", interval, "temp > 10",
                                 {"r1"})
                   .AddSink("out", "trig", SinkKind::kCollect)
                   .Build();
    auto id = *loader.Deploy(df);
    state.ResumeTiming();
    loader.RunFor(duration::kHour);
    state.PauseTiming();
    auto stats = *loader.executor().OperatorStatsOf(id, "trig");
    flushes += stats.flushes;
    fires += stats.trigger_fires;
    state.ResumeTiming();
  }
  double runs = static_cast<double>(state.iterations());
  state.counters["interval_ms"] =
      benchmark::Counter(static_cast<double>(interval));
  state.counters["checks_per_hour"] =
      benchmark::Counter(static_cast<double>(flushes) / runs);
  state.counters["fires_per_hour"] =
      benchmark::Counter(static_cast<double>(fires) / runs);
}
BENCHMARK(BM_TriggerIntervalSweep)
    ->Arg(duration::kMinute)
    ->Arg(10 * duration::kMinute)
    ->Arg(duration::kHour)
    ->Unit(benchmark::kMillisecond);

/// Sliding vs tumbling ablation: the §3 scenario phrased precisely
/// ("mean of the LAST HOUR, checked every 10 minutes") against the
/// tumbling formulation ("hourly mean, checked hourly"). Sliding buys
/// 6x more reaction opportunities at the cost of a persistently full
/// cache.
void BM_SlidingVsTumbling(benchmark::State& state) {
  bool sliding = state.range(0) != 0;
  uint64_t checks = 0;
  uint64_t cache_at_end = 0;
  for (auto _ : state) {
    state.PauseTiming();
    StreamLoaderOptions options;
    options.network_nodes = 2;
    StreamLoader loader(options);
    if (!loader.AddSensor(FastSensor("t1", 1)).ok()) {
      state.SkipWithError("sensor failed");
      return;
    }
    Duration interval = sliding ? 10 * duration::kMinute : duration::kHour;
    Duration window = sliding ? duration::kHour : 0;
    auto df = *loader.NewDataflow("abl")
                   .AddSource("src", "t1")
                   .AddAggregation("mean", "src", interval, AggFunc::kAvg,
                                   {"temp"}, {}, window)
                   .AddSink("out", "mean", SinkKind::kCollect)
                   .Build();
    auto id = *loader.Deploy(df);
    state.ResumeTiming();
    loader.RunFor(6 * duration::kHour);
    state.PauseTiming();
    auto stats = *loader.executor().OperatorStatsOf(id, "mean");
    checks += stats.flushes;
    cache_at_end = stats.cache_size;
    state.ResumeTiming();
  }
  state.counters["sliding"] = benchmark::Counter(sliding ? 1 : 0);
  state.counters["checks_per_run"] = benchmark::Counter(
      static_cast<double>(checks) / static_cast<double>(state.iterations()));
  state.counters["cache_at_end"] =
      benchmark::Counter(static_cast<double>(cache_at_end));
}
BENCHMARK(BM_SlidingVsTumbling)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---- blocking paths at system level -------------------------------------
//
// Whole deployments through the hash-join / incremental-aggregation
// paths; the output counts pin what each run produced. (The reference
// implementations are test-only; bench_operators pairs them with the
// fast paths at operator level.)

/// A 1-hour tumbling aggregation over a ~3 Hz sensor: 12k tuples in
/// the cache at every flush, the window size the flush-latency claim
/// is made at.
void BM_Agg10kWindow(benchmark::State& state) {
  uint64_t outputs = 0;
  uint64_t inputs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    StreamLoaderOptions options;
    options.network_nodes = 2;
    StreamLoader loader(options);
    sensors::PhysicalConfig config;
    config.id = "t1";
    config.period = 300;  // ms → 12k tuples per hour-long window
    config.temporal_granularity = 300;
    config.node_id = "node_0";
    config.seed = 1;
    if (!loader.AddSensor(sensors::MakeTemperatureSensor(config)).ok()) {
      state.SkipWithError("sensor failed");
      return;
    }
    auto df = loader.NewDataflow("agg10k")
                  .AddSource("src", "t1")
                  .AddAggregation("agg", "src", duration::kHour,
                                  AggFunc::kAvg, {"temp"})
                  .AddSink("out", "agg", SinkKind::kCollect)
                  .Build();
    if (!df.ok()) {
      state.SkipWithError(df.status().ToString().c_str());
      return;
    }
    auto deployed = loader.Deploy(*df);
    if (!deployed.ok()) {
      state.SkipWithError(deployed.status().ToString().c_str());
      return;
    }
    auto id = *deployed;
    state.ResumeTiming();
    loader.RunFor(2 * duration::kHour);
    state.PauseTiming();
    auto stats = *loader.executor().OperatorStatsOf(id, "agg");
    outputs += stats.tuples_out;
    inputs += stats.tuples_in;
    state.ResumeTiming();
  }
  double runs = static_cast<double>(state.iterations());
  state.counters["window_tuples"] = benchmark::Counter(
      static_cast<double>(inputs) / (2 * runs));
  state.counters["outputs_per_run"] =
      benchmark::Counter(static_cast<double>(outputs) / runs);
}
BENCHMARK(BM_Agg10kWindow)->Unit(benchmark::kMillisecond);

/// Equi-join of two 1 Hz temperature streams over 10-minute intervals:
/// ~600 tuples per side per flush, so a nested loop would pay ~360k
/// predicate evaluations where the hash probe pays ~1.2k.
void BM_EquiJoin10MinInterval(benchmark::State& state) {
  uint64_t outputs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    StreamLoaderOptions options;
    options.network_nodes = 2;
    StreamLoader loader(options);
    if (!loader.AddSensor(FastSensor("a", 1)).ok() ||
        !loader.AddSensor(FastSensor("b", 2)).ok()) {
      state.SkipWithError("sensor failed");
      return;
    }
    auto df = *loader.NewDataflow("ejoin")
                   .AddSource("sa", "a")
                   .AddSource("sb", "b")
                   .AddJoin("j", "sa", "sb", 10 * duration::kMinute,
                            "sa_temp == sb_temp")
                   .AddSink("out", "j", SinkKind::kCollect)
                   .Build();
    auto id = *loader.Deploy(df);
    state.ResumeTiming();
    loader.RunFor(duration::kHour);
    state.PauseTiming();
    outputs += (*loader.executor().OperatorStatsOf(id, "j")).tuples_out;
    state.ResumeTiming();
  }
  state.counters["join_outputs"] = benchmark::Counter(
      static_cast<double>(outputs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_EquiJoin10MinInterval)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sl

SL_BENCH_MAIN("blocking");
