// E1 (Table 1): per-operator semantics cost — tuples/second through each
// of the nine stream-processing operations, with parameter sweeps for
// selectivity and blocking interval.
//
// Expected shape: non-blocking operations (filter, cull, transform,
// virtual property) sustain higher per-tuple rates than blocking ones
// (aggregation, join, trigger), whose Flush amortizes over the cache.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "dataflow/op_spec.h"
#include "ops/operator.h"
#include "tests/reference/blocking.h"
#include "util/strings.h"

namespace sl {
namespace {

using bench::MakeRainTuples;
using bench::MakeTempTuples;
using bench::RainSchema;
using bench::TempSchema;
using dataflow::AggFunc;
using dataflow::OpKind;

class NullActivation : public ops::ActivationHandler {
 public:
  void ActivateSensors(const std::vector<std::string>&, Timestamp) override {}
  void DeactivateSensors(const std::vector<std::string>&, Timestamp) override {
  }
};

std::unique_ptr<ops::Operator> Build(OpKind op, dataflow::OpSpec spec,
                                     std::vector<stt::SchemaPtr> inputs,
                                     std::vector<std::string> names,
                                     bool naive = false) {
  static NullActivation activation;
  ops::OperatorOptions options;
  options.activation = &activation;
  auto result =
      naive ? reference::MakeBlockingReference("bench", op, spec, inputs,
                                               names, options)
            : ops::MakeOperator("bench", op, spec, inputs, names, options);
  if (!result.ok()) {
    std::fprintf(stderr, "operator build failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).ValueOrDie();
}

/// Pushes all tuples through a non-blocking operator once per iteration.
void RunNonBlocking(benchmark::State& state, OpKind op,
                    dataflow::OpSpec spec) {
  auto tuples = MakeTempTuples(4096);
  auto oper = Build(op, std::move(spec), {TempSchema()}, {"in"});
  uint64_t sink = 0;
  oper->set_emit([&sink](const stt::TupleRef&) { ++sink; });
  for (auto _ : state) {
    for (const auto& t : tuples) {
      benchmark::DoNotOptimize(oper->Process(0, t));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tuples.size()));
  state.counters["selectivity"] = benchmark::Counter(
      static_cast<double>(oper->stats().tuples_out) /
      static_cast<double>(oper->stats().tuples_in));
}

// ---- non-blocking operations (Table 1: applied on each tuple) ----------

void BM_Filter(benchmark::State& state) {
  // Selectivity sweep via the threshold: temp in [10, 35).
  double threshold = static_cast<double>(state.range(0));
  RunNonBlocking(state, OpKind::kFilter,
                 dataflow::FilterSpec{
                     StrFormat("temp > %.1f", threshold)});
}
BENCHMARK(BM_Filter)->Arg(10)->Arg(22)->Arg(34);

void BM_FilterComplexCondition(benchmark::State& state) {
  RunNonBlocking(
      state, OpKind::kFilter,
      dataflow::FilterSpec{"temp > 15 and temp < 30 and "
                           "contains(station, 'osa') and $lat > 34.0"});
}
BENCHMARK(BM_FilterComplexCondition);

void BM_Transform(benchmark::State& state) {
  RunNonBlocking(state, OpKind::kTransform,
                 dataflow::TransformSpec{
                     "temp", "convert_unit(temp, 'celsius', 'fahrenheit')",
                     "fahrenheit"});
}
BENCHMARK(BM_Transform);

void BM_VirtualProperty(benchmark::State& state) {
  RunNonBlocking(state, OpKind::kVirtualProperty,
                 dataflow::VirtualPropertySpec{
                     "feels", "apparent_temp(temp, 65)", "celsius"});
}
BENCHMARK(BM_VirtualProperty);

void BM_CullTime(benchmark::State& state) {
  dataflow::CullTimeSpec spec;
  spec.t_begin = 0;
  spec.t_end = 4096 * duration::kSecond;
  spec.rate = static_cast<double>(state.range(0)) / 100.0;
  RunNonBlocking(state, OpKind::kCullTime, spec);
}
BENCHMARK(BM_CullTime)->Arg(0)->Arg(50)->Arg(90);

void BM_CullSpace(benchmark::State& state) {
  dataflow::CullSpaceSpec spec;
  spec.corner1 = {34.6, 135.4};
  spec.corner2 = {34.8, 135.6};
  spec.rate = static_cast<double>(state.range(0)) / 100.0;
  RunNonBlocking(state, OpKind::kCullSpace, spec);
}
BENCHMARK(BM_CullSpace)->Arg(0)->Arg(50)->Arg(90);

// ---- blocking operations (Table 1: cache processed every t) -------------

void BM_Aggregation(benchmark::State& state) {
  // Cache size sweep: cost of one flush over N cached tuples.
  size_t cache = static_cast<size_t>(state.range(0));
  auto tuples = MakeTempTuples(cache);
  dataflow::AggregationSpec spec;
  spec.interval = duration::kHour;
  spec.func = AggFunc::kAvg;
  spec.attributes = {"temp"};
  auto oper = Build(OpKind::kAggregation, spec, {TempSchema()}, {"in"});
  uint64_t sink = 0;
  oper->set_emit([&sink](const stt::TupleRef&) { ++sink; });
  for (auto _ : state) {
    for (const auto& t : tuples) {
      benchmark::DoNotOptimize(oper->Process(0, t));
    }
    benchmark::DoNotOptimize(oper->Flush(duration::kHour));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(cache));
}
BENCHMARK(BM_Aggregation)->Arg(64)->Arg(1024)->Arg(8192);

void BM_AggregationGrouped(benchmark::State& state) {
  size_t cache = 4096;
  auto tuples = MakeTempTuples(cache);
  dataflow::AggregationSpec spec;
  spec.interval = duration::kHour;
  spec.func = AggFunc::kAvg;
  spec.attributes = {"temp"};
  spec.group_by = {"station"};
  auto oper = Build(OpKind::kAggregation, spec, {TempSchema()}, {"in"});
  oper->set_emit([](const stt::TupleRef&) {});
  for (auto _ : state) {
    for (const auto& t : tuples) {
      benchmark::DoNotOptimize(oper->Process(0, t));
    }
    benchmark::DoNotOptimize(oper->Flush(duration::kHour));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(cache));
}
BENCHMARK(BM_AggregationGrouped);

void BM_Join(benchmark::State& state) {
  // Cache size per side: flush cost is the nested-loop product.
  size_t per_side = static_cast<size_t>(state.range(0));
  auto left = MakeTempTuples(per_side);
  auto right = MakeRainTuples(per_side);
  dataflow::JoinSpec spec;
  spec.interval = duration::kHour;
  spec.predicate = "temp > 25 and rain > 10";
  auto oper = Build(OpKind::kJoin, spec, {TempSchema(), RainSchema()},
                    {"l", "r"});
  uint64_t sink = 0;
  oper->set_emit([&sink](const stt::TupleRef&) { ++sink; });
  for (auto _ : state) {
    for (const auto& t : left) {
      benchmark::DoNotOptimize(oper->Process(0, t));
    }
    for (const auto& t : right) {
      benchmark::DoNotOptimize(oper->Process(1, t));
    }
    benchmark::DoNotOptimize(oper->Flush(duration::kHour));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(per_side * per_side));
  state.counters["pairs_per_flush"] =
      benchmark::Counter(static_cast<double>(per_side * per_side));
}
BENCHMARK(BM_Join)->Arg(16)->Arg(64)->Arg(256);

// ---- hash equi-join vs nested-loop reference (before/after series) ------
//
// Selective integer-valued keys drawn from a small domain, so the hash
// index groups each side into ~per_side/64 rows per key and the probe
// replaces the O(n·m) cross product. The *Nested variants run the same
// data through the test-only reference implementation
// (reference::MakeBlockingReference, tests/reference) — the
// tuples_per_sec ratio between paired entries in BENCH_operators.json is
// the measured speedup.

/// Temperature tuples whose temp is an integer-valued double in
/// [0, domain) — an equi-join key with realistic collision rates.
std::vector<stt::TupleRef> MakeKeyedTempTuples(size_t n, uint64_t domain,
                                               uint64_t seed = 11) {
  Rng rng(seed);
  auto schema = TempSchema();
  std::vector<stt::TupleRef> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(stt::Tuple::Share(stt::Tuple::MakeUnsafe(
        schema,
        {stt::Value::Double(static_cast<double>(rng.NextBounded(domain))),
         stt::Value::String("osaka")},
        static_cast<Timestamp>(i) * duration::kSecond,
        stt::GeoPoint{34.7, 135.5}, "bench_sensor")));
  }
  return out;
}

std::vector<stt::TupleRef> MakeKeyedRainTuples(size_t n, uint64_t domain,
                                               uint64_t seed = 12) {
  Rng rng(seed);
  auto schema = RainSchema();
  std::vector<stt::TupleRef> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(stt::Tuple::Share(stt::Tuple::MakeUnsafe(
        schema,
        {stt::Value::Double(static_cast<double>(rng.NextBounded(domain)))},
        static_cast<Timestamp>(i) * duration::kSecond,
        stt::GeoPoint{34.6, 135.5}, "bench_rain")));
  }
  return out;
}

void RunEquiJoin(benchmark::State& state, bool naive,
                 const std::string& predicate) {
  size_t per_side = static_cast<size_t>(state.range(0));
  constexpr uint64_t kKeyDomain = 64;
  auto left = MakeKeyedTempTuples(per_side, kKeyDomain);
  auto right = MakeKeyedRainTuples(per_side, kKeyDomain);
  dataflow::JoinSpec spec;
  spec.interval = duration::kHour;
  spec.predicate = predicate;
  auto oper = Build(OpKind::kJoin, spec, {TempSchema(), RainSchema()},
                    {"l", "r"}, naive);
  uint64_t sink = 0;
  oper->set_emit([&sink](const stt::TupleRef&) { ++sink; });
  for (auto _ : state) {
    for (const auto& t : left) {
      benchmark::DoNotOptimize(oper->Process(0, t));
    }
    for (const auto& t : right) {
      benchmark::DoNotOptimize(oper->Process(1, t));
    }
    benchmark::DoNotOptimize(oper->Flush(duration::kHour));
  }
  // Throughput in *input* tuples: the work a hash join avoids is
  // quadratic in these, so the fast/naive ratio is the speedup.
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * per_side));
  state.counters["matches_per_flush"] = benchmark::Counter(
      static_cast<double>(sink) / static_cast<double>(state.iterations()));
}

void BM_JoinEquiHash(benchmark::State& state) {
  RunEquiJoin(state, /*naive=*/false, "temp == rain");
}
BENCHMARK(BM_JoinEquiHash)->Arg(64)->Arg(256)->Arg(1024);

void BM_JoinEquiNested(benchmark::State& state) {
  RunEquiJoin(state, /*naive=*/true, "temp == rain");
}
BENCHMARK(BM_JoinEquiNested)->Arg(64)->Arg(256)->Arg(1024);

void BM_JoinEquiResidualHash(benchmark::State& state) {
  // A residual conjunct forces the pair-view program on every key match.
  RunEquiJoin(state, /*naive=*/false, "temp == rain and temp > 4");
}
BENCHMARK(BM_JoinEquiResidualHash)->Arg(256);

void BM_JoinEquiResidualNested(benchmark::State& state) {
  RunEquiJoin(state, /*naive=*/true, "temp == rain and temp > 4");
}
BENCHMARK(BM_JoinEquiResidualNested)->Arg(256);

// ---- incremental aggregation flush latency (before/after series) --------
//
// Only the Flush is timed (processing happens with the clock paused):
// the fast path drains per-group running states, the naive reference
// recomputes the aggregate over the whole cached window.

void RunAggFlush(benchmark::State& state, bool naive) {
  size_t cache = static_cast<size_t>(state.range(0));
  auto tuples = MakeTempTuples(cache);
  dataflow::AggregationSpec spec;
  spec.interval = duration::kHour;
  spec.func = AggFunc::kAvg;
  spec.attributes = {"temp"};
  auto oper =
      Build(OpKind::kAggregation, spec, {TempSchema()}, {"in"}, naive);
  oper->set_emit([](const stt::TupleRef&) {});
  // Flush strictly after the newest cached timestamp so the fast path's
  // completeness guard holds and both variants cover every tuple.
  Duration flush_at =
      static_cast<Duration>(cache + 1) * duration::kSecond;
  for (auto _ : state) {
    state.PauseTiming();
    for (const auto& t : tuples) {
      benchmark::DoNotOptimize(oper->Process(0, t));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(oper->Flush(flush_at));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(cache));
}

void BM_AggregationFlushFast(benchmark::State& state) {
  RunAggFlush(state, /*naive=*/false);
}
BENCHMARK(BM_AggregationFlushFast)->Arg(1024)->Arg(10000);

void BM_AggregationFlushNaive(benchmark::State& state) {
  RunAggFlush(state, /*naive=*/true);
}
BENCHMARK(BM_AggregationFlushNaive)->Arg(1024)->Arg(10000);

void BM_TriggerOn(benchmark::State& state) {
  size_t cache = static_cast<size_t>(state.range(0));
  auto tuples = MakeTempTuples(cache);
  dataflow::TriggerSpec spec;
  spec.interval = duration::kHour;
  spec.condition = "temp > 34.9";  // rarely true: scans the whole cache
  spec.target_sensors = {"rain_01"};
  auto oper = Build(OpKind::kTriggerOn, spec, {TempSchema()}, {"in"});
  oper->set_emit([](const stt::TupleRef&) {});
  for (auto _ : state) {
    for (const auto& t : tuples) {
      benchmark::DoNotOptimize(oper->Process(0, t));
    }
    benchmark::DoNotOptimize(oper->Flush(duration::kHour));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(cache));
}
BENCHMARK(BM_TriggerOn)->Arg(64)->Arg(1024)->Arg(8192);

}  // namespace
}  // namespace sl

SL_BENCH_MAIN("operators");
