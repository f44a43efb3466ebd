// Benchmarks for the wall-clock multithreaded runtime
// (exec/threaded_runtime.h): SPSC ring transport, then end-to-end
// pipelines measured in delivered tuples/sec with p50/p95/p99 Feed→sink
// latency percentiles exported as counters (and into
// BENCH_threaded.json via the shared JSON reporter).
//
// The pipeline benchmarks use count_only_sinks so they measure the
// transport and operator path, not sink-side row retention, and a large
// ring so the driver thread is never the bottleneck under measurement.

#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "dataflow/graph.h"
#include "dsn/translate.h"
#include "exec/spsc_queue.h"
#include "exec/threaded_runtime.h"
#include "net/event_loop.h"
#include "pubsub/broker.h"
#include "util/rng.h"

namespace sl::bench {
namespace {

// --------------------------------------------------------- transport --

void BM_SpscRingPushPop(benchmark::State& state) {
  exec::SpscRing<int> ring(static_cast<size_t>(state.range(0)));
  int out = 0;
  for (auto _ : state) {
    int v = out;
    benchmark::DoNotOptimize(ring.TryPush(v));
    benchmark::DoNotOptimize(ring.TryPop(&out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscRingPushPop)->Arg(8)->Arg(1024);

// ---------------------------------------------------------- pipelines --

/// Keyed temperature stream and broker registration matching the
/// differential-test harness (tests/threaded_test.cpp).
stt::SchemaPtr KeyedTempSchema() {
  auto tgran = stt::TemporalGranularity::Make(duration::kSecond);
  auto theme = stt::Theme::Parse("weather/temperature");
  return *stt::Schema::Make(
      {{"temp", stt::ValueType::kDouble, "celsius", false},
       {"station", stt::ValueType::kString, "", false}},
      *tgran, stt::SpatialGranularity::Point(), *theme);
}

class PipelineFixture {
 public:
  PipelineFixture() {
    loop_ = std::make_unique<net::EventLoop>();
    broker_ = std::make_unique<pubsub::Broker>(&loop_->clock());
    pubsub::SensorInfo info;
    info.id = "bt_t0";
    info.type = "keyed_replay";
    info.schema = KeyedTempSchema();
    info.period = duration::kSecond;
    info.location = stt::GeoPoint{34.69, 135.50};
    info.provides_timestamp = true;
    info.provides_location = true;
    info.node_id = "node_0";
    (void)broker_->Publish(info);
  }

  /// `count` tuples at 10 ms virtual spacing across 8 stations.
  exec::InputTrace MakeTrace(size_t count, uint64_t seed = 42) {
    exec::InputTrace trace;
    trace.reserve(count);
    Rng rng(seed);
    auto schema = KeyedTempSchema();
    Timestamp at = loop_->Now();
    for (size_t i = 0; i < count; ++i) {
      std::string station = "s" + std::to_string(rng.NextBounded(8));
      auto tuple = stt::Tuple::Share(stt::Tuple::MakeUnsafe(
          schema,
          {stt::Value::Double(rng.NextDouble(-5.0, 30.0)),
           stt::Value::String(station)},
          at, stt::GeoPoint{34.69, 135.50}, "bt_t0"));
      trace.push_back({at, "src", tuple, stt::kNoWatermark});
      at += 10;
    }
    return trace;
  }

  const pubsub::Broker* broker() const { return broker_.get(); }

 private:
  std::unique_ptr<net::EventLoop> loop_;
  std::unique_ptr<pubsub::Broker> broker_;
};

dataflow::Dataflow FilterTransformFlow() {
  dataflow::FilterSpec filter;
  filter.condition = "temp > 5";
  dataflow::TransformSpec transform;
  transform.attribute = "temp";
  transform.expression = "temp * 1.8 + 32";
  auto df = *dataflow::DataflowBuilder("bt_ft")
                 .AddSource("src", "bt_t0")
                 .AddOperator("flt", dataflow::OpKind::kFilter, filter,
                              {"src"})
                 .AddOperator("f2c", dataflow::OpKind::kTransform, transform,
                              {"flt"})
                 .AddSink("out", "f2c", dataflow::SinkKind::kCollect)
                 .Build();
  return df;
}

dataflow::Dataflow TumblingAggFlow(size_t parallelism) {
  dataflow::AggregationSpec agg;
  agg.func = dataflow::AggFunc::kAvg;
  agg.interval = 5 * duration::kSecond;
  agg.window = 0;
  agg.attributes = {"temp"};
  agg.group_by = {"station"};
  agg.parallelism = parallelism;
  auto df = *dataflow::DataflowBuilder("bt_agg")
                 .AddSource("src", "bt_t0")
                 .AddOperator("agg", dataflow::OpKind::kAggregation, agg,
                              {"src"})
                 .AddSink("out", "agg", dataflow::SinkKind::kCollect)
                 .Build();
  return df;
}

/// Runs `flow` over a fresh `tuples`-long trace each iteration and
/// reports delivered-tuple throughput plus Feed→sink wall latency
/// percentiles from the final iteration. `knobs` layers the execution
/// modes (pool_size, shard_threads, batch_max) onto the shared
/// large-ring, count-only-sink baseline.
struct PipelineKnobs {
  size_t pool_size = 0;
  size_t shard_threads = 0;
  size_t batch_max = 1;
};

void RunPipeline(benchmark::State& state, const dataflow::Dataflow& flow,
                 size_t tuples, const PipelineKnobs& knobs = {}) {
  PipelineFixture fixture;
  exec::InputTrace trace = fixture.MakeTrace(tuples);
  const Timestamp end_time = trace.back().at + duration::kSecond;
  exec::ThreadedOptions options;
  options.queue_capacity = 8192;
  options.count_only_sinks = true;
  options.pool_size = knobs.pool_size;
  options.shard_threads = knobs.shard_threads;
  options.batch_max = knobs.batch_max;
  uint64_t delivered = 0;
  exec::LatencySummary latency;
  for (auto _ : state) {
    exec::ThreadedRuntime runtime(flow, fixture.broker(), {}, options);
    auto result = runtime.RunTrace(trace, end_time);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    delivered += result->tuples_delivered;
    latency = result->latency;
  }
  state.SetItemsProcessed(static_cast<int64_t>(delivered));
  state.counters["latency_p50_ns"] = static_cast<double>(latency.p50_ns);
  state.counters["latency_p95_ns"] = static_cast<double>(latency.p95_ns);
  state.counters["latency_p99_ns"] = static_cast<double>(latency.p99_ns);
  state.counters["latency_max_ns"] = static_cast<double>(latency.max_ns);
}

void BM_ThreadedFilterTransform(benchmark::State& state) {
  RunPipeline(state, FilterTransformFlow(),
              static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_ThreadedFilterTransform)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_ThreadedTumblingAgg(benchmark::State& state) {
  RunPipeline(state, TumblingAggFlow(1), static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_ThreadedTumblingAgg)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_ThreadedPartitionedAgg(benchmark::State& state) {
  RunPipeline(state, TumblingAggFlow(static_cast<size_t>(state.range(0))),
              100000);
}
BENCHMARK(BM_ThreadedPartitionedAgg)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

// ------------------------------------------------ phase-2 mode knobs --

/// Pooled scheduling: every stage multiplexed over Arg(0) workers
/// instead of one dedicated thread per stage.
void BM_ThreadedPooledFilterTransform(benchmark::State& state) {
  PipelineKnobs knobs;
  knobs.pool_size = static_cast<size_t>(state.range(0));
  RunPipeline(state, FilterTransformFlow(), 100000, knobs);
}
BENCHMARK(BM_ThreadedPooledFilterTransform)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Batched ring transfer: RefBatch messages of up to Arg(0) tuples per
/// ring slot amortize the per-message push/pop and wakeup costs.
void BM_ThreadedBatchedFilterTransform(benchmark::State& state) {
  PipelineKnobs knobs;
  knobs.batch_max = static_cast<size_t>(state.range(0));
  RunPipeline(state, FilterTransformFlow(), 100000, knobs);
}
BENCHMARK(BM_ThreadedBatchedFilterTransform)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

/// Shard-threaded partitioned flush: N-way instances flush concurrently
/// on a shared shard pool (Arg(0) = parallelism, Arg(1) = shard threads).
void BM_ThreadedShardedPartitionedAgg(benchmark::State& state) {
  PipelineKnobs knobs;
  knobs.shard_threads = static_cast<size_t>(state.range(1));
  RunPipeline(state, TumblingAggFlow(static_cast<size_t>(state.range(0))),
              100000, knobs);
}
BENCHMARK(BM_ThreadedShardedPartitionedAgg)
    ->Args({4, 2})
    ->Args({4, 4})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sl::bench

SL_BENCH_MAIN("threaded")
