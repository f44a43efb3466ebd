// E8 (Table 1 blocking semantics, ablation): sweep of the blocking
// interval t for aggregation, join and trigger — cache occupancy,
// output rate and result staleness as t grows.
//
// Expected shape: larger t means larger caches and fewer, larger
// outputs; staleness (age of the oldest cached tuple at flush) grows
// linearly with t; join flush cost grows quadratically in per-interval
// arrivals.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>

#include "bench_util.h"

#include "core/streamloader.h"
#include "ops/operator.h"
#include "sensors/generators.h"
#include "tests/reference/blocking.h"
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

// ---- the blocking operators alone, in the shape of live_windows ---------
//
// perfbench's live_windows workload without the runtime around it: 1,000
// stations, temperature and rain readings 1 ms apart, 1 s event-time
// windows with 200 ms allowed lateness, 3 % of the readings reordered
// within the lateness and 0.5 % beyond it (dropped as late), and the 1 %
// of temperatures its filter rejects left out. A per-station average
// and a station equi-join are fed single-threaded, each port's
// watermark at its latest reading, and flushed on every 1 s boundary.
// Process and Flush are timed separately, per input of the operator.
// Arg 0 runs the production operators, arg 1 the test-only reference
// (nested-loop join, full-recompute aggregation) on the same input.

struct LiveInput {
  size_t port;  ///< 0 temperature, 1 rain
  stt::TupleRef tuple;
  Timestamp watermark;  ///< the port's watermark after this reading
};

constexpr Timestamp kLiveT0 = 1458000000000;
constexpr size_t kLiveInputs = 100000;

stt::SchemaPtr StationSchema(const std::string& attribute,
                             const std::string& theme) {
  return *stt::Schema::Make(
      {{attribute, stt::ValueType::kDouble, "", false},
       {"station", stt::ValueType::kString, "", false},
       {"seq", stt::ValueType::kInt, "", false}},
      *stt::TemporalGranularity::Make(duration::kSecond),
      stt::SpatialGranularity::Point(), *stt::Theme::Parse(theme));
}

/// The schema of port 0 (temperature) or 1 (rain).
const stt::SchemaPtr& LiveSchema(size_t port) {
  static const stt::SchemaPtr schemas[2] = {
      StationSchema("temp", "weather/temperature"),
      StationSchema("rain", "weather/rain")};
  return schemas[port];
}

const std::vector<LiveInput>& LiveWindowsInputs() {
  static const std::vector<LiveInput> inputs = [] {
    Rng rng(7);
    std::vector<LiveInput> out;
    Timestamp watermark[2] = {kLiveT0, kLiveT0};
    for (size_t i = 0; i < kLiveInputs; ++i) {
      const size_t port = rng.NextBool(0.5) ? 0 : 1;
      const std::string station = StrFormat(
          "s%03llu", static_cast<unsigned long long>(rng.NextBounded(1000)));
      const double value = port == 0 ? rng.NextDouble(-5.0, 35.0)
                                     : 5.0 * -std::log(1.0 - rng.NextDouble());
      const bool filtered = port == 0 && rng.NextBool(0.01);
      Timestamp ts = kLiveT0 + static_cast<Timestamp>(i);
      const double u = rng.NextDouble();
      if (u < 0.005) {
        ts -= 2300 + static_cast<Timestamp>(rng.NextBounded(600));
      } else if (u < 0.035) {
        ts -= 1 + static_cast<Timestamp>(rng.NextBounded(100));
      }
      ts = std::max(ts, kLiveT0);
      watermark[port] = std::max(watermark[port], ts);
      if (filtered) continue;
      out.push_back(
          {port,
           stt::Tuple::Share(stt::Tuple::MakeUnsafe(
               LiveSchema(port),
               {stt::Value::Double(value), stt::Value::String(station),
                stt::Value::Int(static_cast<int64_t>(i))},
               ts, stt::GeoPoint{34.69, 135.50}, port == 0 ? "t" : "r")),
           watermark[port]});
    }
    return out;
  }();
  return inputs;
}

void BM_LiveWindowsOperators(benchmark::State& state) {
  const bool reference = state.range(0) != 0;
  const auto& inputs = LiveWindowsInputs();
  const stt::SchemaPtr& temp_schema = LiveSchema(0);
  const stt::SchemaPtr& rain_schema = LiveSchema(1);
  dataflow::AggregationSpec agg_spec;
  agg_spec.interval = duration::kSecond;
  agg_spec.func = AggFunc::kAvg;
  agg_spec.attributes = {"temp"};
  agg_spec.group_by = {"station"};
  dataflow::JoinSpec join_spec;
  join_spec.interval = duration::kSecond;
  join_spec.predicate = "valid_station == rain_station";
  ops::OperatorOptions options;
  options.watermark.time_policy = ops::TimePolicy::kEvent;
  options.watermark.late_policy = ops::LatePolicy::kDrop;
  options.watermark.allowed_lateness = 200;
  auto make = [&](dataflow::OpKind kind, const dataflow::OpSpec& spec,
                  std::vector<stt::SchemaPtr> schemas,
                  std::vector<std::string> names) {
    return reference ? reference::MakeBlockingReference("op", kind, spec,
                                                        schemas, names, options)
                     : ops::MakeOperator("op", kind, spec, schemas, names,
                                         options);
  };
  using Clock = std::chrono::steady_clock;
  auto ns = [](Clock::duration d) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  };
  double agg_process = 0, agg_flush = 0, join_process = 0, join_flush = 0;
  uint64_t rows = 0, agg_inputs = 0, join_inputs = 0;
  for (auto _ : state) {
    auto agg_made = make(dataflow::OpKind::kAggregation, agg_spec,
                         {temp_schema}, {"valid"});
    auto join_made = make(dataflow::OpKind::kJoin, join_spec,
                          {temp_schema, rain_schema}, {"valid", "rain"});
    if (!agg_made.ok() || !join_made.ok()) {
      state.SkipWithError("operator construction failed");
      return;
    }
    std::unique_ptr<ops::Operator> agg = std::move(agg_made).ValueOrDie();
    std::unique_ptr<ops::Operator> join = std::move(join_made).ValueOrDie();
    agg->set_emit([&rows](const stt::TupleRef&) { ++rows; });
    join->set_emit([&rows](const stt::TupleRef&) { ++rows; });
    // Runs of one second of input, then the flush of that boundary.
    size_t begin = 0;
    Timestamp boundary = kLiveT0 + duration::kSecond;
    while (begin < inputs.size()) {
      size_t end = begin;
      while (end < inputs.size() &&
             inputs[end].tuple->timestamp() < boundary + 1000) {
        ++end;
      }
      if (end == begin) end = begin + 1;
      auto t0 = Clock::now();
      for (size_t i = begin; i < end; ++i) {
        if (inputs[i].port != 0) continue;
        agg->ObserveWatermark(0, inputs[i].watermark);
        benchmark::DoNotOptimize(agg->Process(0, inputs[i].tuple));
        ++agg_inputs;
      }
      auto t1 = Clock::now();
      for (size_t i = begin; i < end; ++i) {
        join->ObserveWatermark(inputs[i].port, inputs[i].watermark);
        benchmark::DoNotOptimize(
            join->Process(inputs[i].port, inputs[i].tuple));
        ++join_inputs;
      }
      auto t2 = Clock::now();
      benchmark::DoNotOptimize(agg->Flush(boundary));
      auto t3 = Clock::now();
      benchmark::DoNotOptimize(join->Flush(boundary));
      auto t4 = Clock::now();
      agg_process += ns(t1 - t0);
      join_process += ns(t2 - t1);
      agg_flush += ns(t3 - t2);
      join_flush += ns(t4 - t3);
      boundary += duration::kSecond;
      begin = end;
    }
  }
  const double per_agg = agg_inputs > 0 ? 1.0 / static_cast<double>(agg_inputs) : 0;
  const double per_join =
      join_inputs > 0 ? 1.0 / static_cast<double>(join_inputs) : 0;
  state.counters["reference"] = benchmark::Counter(reference ? 1 : 0);
  state.counters["agg_process_ns"] = benchmark::Counter(agg_process * per_agg);
  state.counters["agg_flush_ns"] = benchmark::Counter(agg_flush * per_agg);
  state.counters["join_process_ns"] =
      benchmark::Counter(join_process * per_join);
  state.counters["join_flush_ns"] = benchmark::Counter(join_flush * per_join);
  state.counters["total_ns"] =
      benchmark::Counter((agg_process + agg_flush) * per_agg +
                         (join_process + join_flush) * per_join);
  state.counters["rows_per_run"] = benchmark::Counter(
      static_cast<double>(rows) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_LiveWindowsOperators)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sl

SL_BENCH_MAIN("blocking");
