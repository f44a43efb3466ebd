// E13 (key-partitioned operator parallelism): throughput and flush
// latency of a blocking operator deployed as N key-partitioned
// instances, N in {1, 2, 4, 8}, under uniform and Zipf-skewed key
// distributions.
//
// Expected shape: both operators run their production paths, the hash
// equi-join and the incremental grouped aggregation. Their flush work
// is linear in the cache (plus the join's matches), so partitioning the
// key space N ways re-divides that work instead of cutting it: on the
// single-threaded simulator both curves stay roughly flat in N, and the
// partitioned wrapper's splitter/merger overhead shows as N grows. Zipf
// keys pile the matches onto the hottest shard (key_skew in the monitor
// names it).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <vector>

#include "bench_util.h"

#include "core/streamloader.h"
#include "sensors/generators.h"

namespace sl {
namespace {

using dataflow::AggFunc;
using dataflow::SinkKind;

// High key cardinality keeps the join's match rate, and with it the
// output-materialization cost, low.
constexpr size_t kKeys = 256;
constexpr Duration kPeriod = 100;  // ms → 10 Hz per stream

/// CDF of a Zipf(s) distribution over kKeys ranks.
std::vector<double> ZipfCdf(double s) {
  std::vector<double> cdf(kKeys);
  double sum = 0;
  for (size_t i = 0; i < kKeys; ++i) sum += 1.0 / std::pow(i + 1.0, s);
  double acc = 0;
  for (size_t i = 0; i < kKeys; ++i) {
    acc += 1.0 / std::pow(i + 1.0, s) / sum;
    cdf[i] = acc;
  }
  return cdf;
}

/// {value: double, station: string} keyed replay sensor. Uniform keys
/// cycle evenly over kKeys stations; Zipf keys concentrate on the low
/// ranks (s = 1.5, ~58% of tuples on the two hottest keys).
Result<std::unique_ptr<sensors::SensorSimulator>> KeyedSensor(
    const std::string& id, const std::string& field, const std::string& theme,
    uint64_t seed, bool zipf) {
  auto tgran = stt::TemporalGranularity::Make(kPeriod);
  auto schema = *stt::Schema::Make(
      {{field, stt::ValueType::kDouble, "", false},
       {"station", stt::ValueType::kString, "", false}},
      *tgran, stt::SpatialGranularity::Point(), *stt::Theme::Parse(theme));

  Rng rng(seed);
  std::vector<double> cdf = ZipfCdf(1.5);
  std::vector<stt::Tuple> recording;
  for (int i = 0; i < 4096; ++i) {
    size_t key = 0;
    if (zipf) {
      double u = rng.NextDouble(0, 1);
      while (key + 1 < kKeys && cdf[key] < u) ++key;
    } else {
      key = rng.NextBounded(kKeys);
    }
    recording.push_back(stt::Tuple::MakeUnsafe(
        schema,
        {stt::Value::Double(rng.NextDouble(0, 100)),
         stt::Value::String(std::string("s").append(std::to_string(key)))},
        0, stt::GeoPoint{34.69, 135.50}, id));
  }

  pubsub::SensorInfo info;
  info.id = id;
  info.type = "keyed_replay";
  info.schema = schema;
  info.period = kPeriod;
  info.location = stt::GeoPoint{34.69, 135.50};
  info.node_id = "node_0";
  return sensors::MakeReplaySensor(std::move(info), std::move(recording));
}

/// Headline: hash equi-join, key-partitioned N ways. 10 Hz per side,
/// 60 s interval → ~600 tuples per side per flush; each left tuple
/// probes only its key's bucket, so a flush costs O(L + R + matches) at
/// every N.
void BM_PartitionedEquiJoin(benchmark::State& state) {
  size_t parallelism = static_cast<size_t>(state.range(0));
  bool zipf = state.range(1) != 0;
  uint64_t inputs = 0;
  uint64_t outputs = 0;
  uint64_t flushes = 0;
  double flush_seconds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    StreamLoaderOptions options;
    options.network_nodes = 2;
    StreamLoader loader(options);
    auto left = KeyedSensor("pb_l", "temp", "weather/temperature", 21, zipf);
    auto right = KeyedSensor("pb_r", "rain", "weather/rain", 22, zipf);
    if (!left.ok() || !loader.AddSensor(std::move(*left)).ok() ||
        !right.ok() || !loader.AddSensor(std::move(*right)).ok()) {
      state.SkipWithError("sensor failed");
      return;
    }
    dataflow::JoinSpec spec;
    spec.interval = duration::kMinute;
    spec.window = 0;
    spec.predicate = "left_station == right_station";
    spec.parallelism = parallelism;
    auto df = loader.NewDataflow("pjoin")
                  .AddSource("left", "pb_l")
                  .AddSource("right", "pb_r")
                  .AddOperator("join", dataflow::OpKind::kJoin, spec,
                               {"left", "right"})
                  .AddSink("out", "join", SinkKind::kCollect)
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
    state.ResumeTiming();
    auto start = std::chrono::steady_clock::now();
    loader.RunFor(5 * duration::kMinute);
    auto elapsed = std::chrono::steady_clock::now() - start;
    state.PauseTiming();
    auto stats = *loader.executor().OperatorStatsOf(*deployed, "join");
    inputs += stats.tuples_in;
    outputs += stats.tuples_out;
    flushes += stats.flushes;
    flush_seconds += std::chrono::duration<double>(elapsed).count();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(inputs));
  double runs = static_cast<double>(state.iterations());
  state.counters["parallelism"] =
      benchmark::Counter(static_cast<double>(parallelism));
  state.counters["zipf"] = benchmark::Counter(zipf ? 1 : 0);
  // Output count is the cross-N equivalence check: same keys ⇒ same
  // joined pairs no matter how the key space is sharded.
  state.counters["join_outputs"] =
      benchmark::Counter(static_cast<double>(outputs) / runs);
  if (flushes > 0) {
    state.counters["flush_ms"] = benchmark::Counter(
        flush_seconds * 1e3 / static_cast<double>(flushes));
  }
}
BENCHMARK(BM_PartitionedEquiJoin)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

/// Contrast: grouped tumbling average. Aggregation flush work is
/// linear in the cache, so sharding only re-divides it — the curve
/// stays flat and the splitter/merger overhead becomes visible.
void BM_PartitionedAggregation(benchmark::State& state) {
  size_t parallelism = static_cast<size_t>(state.range(0));
  bool zipf = state.range(1) != 0;
  uint64_t inputs = 0;
  uint64_t outputs = 0;
  uint64_t flushes = 0;
  double flush_seconds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    StreamLoaderOptions options;
    options.network_nodes = 2;
    StreamLoader loader(options);
    auto temp = KeyedSensor("pb_t", "temp", "weather/temperature", 23, zipf);
    if (!temp.ok() || !loader.AddSensor(std::move(*temp)).ok()) {
      state.SkipWithError("sensor failed");
      return;
    }
    dataflow::AggregationSpec spec;
    spec.interval = duration::kMinute;
    spec.window = 0;
    spec.func = AggFunc::kAvg;
    spec.attributes = {"temp"};
    spec.group_by = {"station"};
    spec.parallelism = parallelism;
    auto df = loader.NewDataflow("pagg")
                  .AddSource("src", "pb_t")
                  .AddOperator("agg", dataflow::OpKind::kAggregation, spec,
                               {"src"})
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
    state.ResumeTiming();
    auto start = std::chrono::steady_clock::now();
    loader.RunFor(5 * duration::kMinute);
    auto elapsed = std::chrono::steady_clock::now() - start;
    state.PauseTiming();
    auto stats = *loader.executor().OperatorStatsOf(*deployed, "agg");
    inputs += stats.tuples_in;
    outputs += stats.tuples_out;
    flushes += stats.flushes;
    flush_seconds += std::chrono::duration<double>(elapsed).count();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(inputs));
  double runs = static_cast<double>(state.iterations());
  state.counters["parallelism"] =
      benchmark::Counter(static_cast<double>(parallelism));
  state.counters["zipf"] = benchmark::Counter(zipf ? 1 : 0);
  state.counters["agg_outputs"] =
      benchmark::Counter(static_cast<double>(outputs) / runs);
  if (flushes > 0) {
    state.counters["flush_ms"] = benchmark::Counter(
        flush_seconds * 1e3 / static_cast<double>(flushes));
  }
}
BENCHMARK(BM_PartitionedAggregation)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sl

SL_BENCH_MAIN("partition");
