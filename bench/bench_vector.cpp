// E17: columnar batch execution — the vectorized expression VM and the
// batch-aware operators against the per-tuple scalar path, at batch
// sizes 1 / 64 / 1024. The *Scalar entries are the reference series
// (one VM run per tuple); the *Vector entries walk the same tuples in
// ColumnBatch chunks. Batch 1 shows the fixed per-batch overhead, 1024
// the amortized vectorized rate. BM_ThreadedChain closes the loop at
// system level: the same pipeline through the threaded runtime, whose
// batchable stages run kBatch messages through ProcessBatch.

#include <benchmark/benchmark.h>

#include <thread>

#include "bench/bench_util.h"
#include "dataflow/graph.h"
#include "dataflow/op_spec.h"
#include "exec/threaded_runtime.h"
#include "expr/eval.h"
#include "expr/vector_program.h"
#include "net/event_loop.h"
#include "ops/operator.h"
#include "pubsub/broker.h"
#include "stt/column_batch.h"
#include "tests/reference/blocking.h"
#include "util/strings.h"

namespace sl {
namespace {

using bench::MakeTempTuples;
using bench::TempSchema;
using dataflow::OpKind;

class NullActivation : public ops::ActivationHandler {
 public:
  void ActivateSensors(const std::vector<std::string>&, Timestamp) override {}
  void DeactivateSensors(const std::vector<std::string>&, Timestamp) override {
  }
};

std::unique_ptr<ops::Operator> Build(OpKind op, dataflow::OpSpec spec,
                                     std::vector<stt::SchemaPtr> inputs,
                                     std::vector<std::string> names) {
  static NullActivation activation;
  ops::OperatorOptions options;
  options.activation = &activation;
  auto result =
      ops::MakeOperator("bench", op, std::move(spec), inputs, names, options);
  if (!result.ok()) {
    std::fprintf(stderr, "operator build failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).ValueOrDie();
}

// An arithmetic predicate heavy enough that expression evaluation —
// not tuple plumbing — is what the two paths are spending on.
constexpr char kPredicate[] =
    "temp * 1.8 + 32 > 60 and temp * temp < 1000 and "
    "temp * 0.5 + temp * 0.25 < 25 and temp >= -40";
constexpr char kTransformExpr[] = "temp * temp * 0.01 + temp * 1.8 + 32";

// ---- raw expression VM: scalar Eval loop vs VectorProgram ------------

void BM_ExprPredicateScalar(benchmark::State& state) {
  auto schema = TempSchema();
  auto bound = *expr::BoundExpr::Parse(kPredicate, schema);
  auto tuples = MakeTempTuples(4096);
  for (auto _ : state) {
    for (const auto& t : tuples) {
      benchmark::DoNotOptimize(bound.EvalPredicate(*t));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_ExprPredicateScalar);

void BM_ExprPredicateVector(benchmark::State& state) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  auto schema = TempSchema();
  auto bound = *expr::BoundExpr::Parse(kPredicate, schema);
  expr::VectorProgram vector(&bound.program());
  auto tuples = MakeTempTuples(4096);
  std::vector<expr::VectorProgram::RowError> errors;
  for (auto _ : state) {
    for (size_t i = 0; i < tuples.size(); i += batch_size) {
      const size_t n = std::min(batch_size, tuples.size() - i);
      stt::ColumnBatch batch(schema, &tuples[i], n);
      errors.clear();
      benchmark::DoNotOptimize(vector.RunPredicate(&batch, &errors));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_ExprPredicateVector)->Arg(1)->Arg(64)->Arg(1024);

// ---- single operators: Process loop vs ProcessBatch ------------------

void RunScalarOp(benchmark::State& state, OpKind op, dataflow::OpSpec spec) {
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
}

void RunVectorOp(benchmark::State& state, OpKind op, dataflow::OpSpec spec) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  auto tuples = MakeTempTuples(4096);
  auto oper = Build(op, std::move(spec), {TempSchema()}, {"in"});
  uint64_t sink = 0;
  oper->set_emit([&sink](const stt::TupleRef&) { ++sink; });
  ops::Operator::BatchContext ctx;
  for (auto _ : state) {
    for (size_t i = 0; i < tuples.size(); i += batch_size) {
      const size_t n = std::min(batch_size, tuples.size() - i);
      ctx.errors.clear();
      benchmark::DoNotOptimize(oper->ProcessBatch(0, &tuples[i], n, &ctx));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tuples.size()));
}

void BM_FilterScalar(benchmark::State& state) {
  RunScalarOp(state, OpKind::kFilter, dataflow::FilterSpec{kPredicate});
}
BENCHMARK(BM_FilterScalar);

void BM_FilterVector(benchmark::State& state) {
  RunVectorOp(state, OpKind::kFilter, dataflow::FilterSpec{kPredicate});
}
BENCHMARK(BM_FilterVector)->Arg(1)->Arg(64)->Arg(1024);

void BM_TransformScalar(benchmark::State& state) {
  RunScalarOp(state, OpKind::kTransform,
              dataflow::TransformSpec{"temp", kTransformExpr, "fahrenheit"});
}
BENCHMARK(BM_TransformScalar);

void BM_TransformVector(benchmark::State& state) {
  RunVectorOp(state, OpKind::kTransform,
              dataflow::TransformSpec{"temp", kTransformExpr, "fahrenheit"});
}
BENCHMARK(BM_TransformVector)->Arg(1)->Arg(64)->Arg(1024);

// ---- chains: selection narrowing carried across stages ----------------
//
// The acceptance series: filter → transform. The scalar side wires
// emit() stage to stage (exactly the per-tuple delivery path); the
// vectorized side re-batches the filter's survivors for the transform,
// the way a drained pending batch re-coalesces in the executor.

/// Builds the filter → transform pair used by both sides.
struct Chain {
  std::unique_ptr<ops::Operator> filter;
  std::unique_ptr<ops::Operator> transform;
  Chain() {
    filter = Build(OpKind::kFilter, dataflow::FilterSpec{kPredicate},
                   {TempSchema()}, {"in"});
    transform = Build(
        OpKind::kTransform,
        dataflow::TransformSpec{"temp", kTransformExpr, "fahrenheit"},
        {TempSchema()}, {"flt"});
  }
};

void BM_ChainFilterTransformScalar(benchmark::State& state) {
  auto tuples = MakeTempTuples(4096);
  Chain chain;
  uint64_t sink = 0;
  ops::Operator* transform = chain.transform.get();
  chain.filter->set_emit([transform](const stt::TupleRef& t) {
    (void)transform->Process(0, t);
  });
  chain.transform->set_emit([&sink](const stt::TupleRef&) { ++sink; });
  for (auto _ : state) {
    for (const auto& t : tuples) {
      benchmark::DoNotOptimize(chain.filter->Process(0, t));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_ChainFilterTransformScalar);

void BM_ChainFilterTransformVector(benchmark::State& state) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  auto tuples = MakeTempTuples(4096);
  Chain chain;
  uint64_t sink = 0;
  std::vector<stt::TupleRef> survivors;
  survivors.reserve(batch_size);
  chain.filter->set_emit(
      [&survivors](const stt::TupleRef& t) { survivors.push_back(t); });
  chain.transform->set_emit([&sink](const stt::TupleRef&) { ++sink; });
  ops::Operator::BatchContext ctx;
  for (auto _ : state) {
    for (size_t i = 0; i < tuples.size(); i += batch_size) {
      const size_t n = std::min(batch_size, tuples.size() - i);
      survivors.clear();
      ctx.errors.clear();
      benchmark::DoNotOptimize(
          chain.filter->ProcessBatch(0, &tuples[i], n, &ctx));
      if (!survivors.empty()) {
        ctx.errors.clear();
        benchmark::DoNotOptimize(chain.transform->ProcessBatch(
            0, survivors.data(), survivors.size(), &ctx));
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_ChainFilterTransformVector)->Arg(1)->Arg(64)->Arg(1024);

// Virtual-property chain: vprop → filter on the computed attribute →
// transform. The vprop output schema feeds the downstream stages.
struct VpropChain {
  std::unique_ptr<ops::Operator> vprop;
  std::unique_ptr<ops::Operator> filter;
  std::unique_ptr<ops::Operator> transform;
  VpropChain() {
    vprop = Build(OpKind::kVirtualProperty,
                  dataflow::VirtualPropertySpec{"heat_index", kTransformExpr,
                                                "fahrenheit"},
                  {TempSchema()}, {"in"});
    auto mid = vprop->output_schema();
    filter = Build(OpKind::kFilter,
                   dataflow::FilterSpec{"heat_index > 70 and temp < 34"},
                   {mid}, {"vp"});
    transform = Build(
        OpKind::kTransform,
        dataflow::TransformSpec{"heat_index", "heat_index * 0.5 + 10", ""},
        {mid}, {"flt"});
  }
};

void BM_ChainVpropScalar(benchmark::State& state) {
  auto tuples = MakeTempTuples(4096);
  VpropChain chain;
  uint64_t sink = 0;
  ops::Operator* filter = chain.filter.get();
  ops::Operator* transform = chain.transform.get();
  chain.vprop->set_emit(
      [filter](const stt::TupleRef& t) { (void)filter->Process(0, t); });
  chain.filter->set_emit(
      [transform](const stt::TupleRef& t) { (void)transform->Process(0, t); });
  chain.transform->set_emit([&sink](const stt::TupleRef&) { ++sink; });
  for (auto _ : state) {
    for (const auto& t : tuples) {
      benchmark::DoNotOptimize(chain.vprop->Process(0, t));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_ChainVpropScalar);

void BM_ChainVpropVector(benchmark::State& state) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  auto tuples = MakeTempTuples(4096);
  VpropChain chain;
  uint64_t sink = 0;
  std::vector<stt::TupleRef> stage1, stage2;
  chain.vprop->set_emit(
      [&stage1](const stt::TupleRef& t) { stage1.push_back(t); });
  chain.filter->set_emit(
      [&stage2](const stt::TupleRef& t) { stage2.push_back(t); });
  chain.transform->set_emit([&sink](const stt::TupleRef&) { ++sink; });
  ops::Operator::BatchContext ctx;
  for (auto _ : state) {
    for (size_t i = 0; i < tuples.size(); i += batch_size) {
      const size_t n = std::min(batch_size, tuples.size() - i);
      stage1.clear();
      stage2.clear();
      ctx.errors.clear();
      benchmark::DoNotOptimize(
          chain.vprop->ProcessBatch(0, &tuples[i], n, &ctx));
      if (!stage1.empty()) {
        ctx.errors.clear();
        benchmark::DoNotOptimize(chain.filter->ProcessBatch(
            0, stage1.data(), stage1.size(), &ctx));
      }
      if (!stage2.empty()) {
        ctx.errors.clear();
        benchmark::DoNotOptimize(chain.transform->ProcessBatch(
            0, stage2.data(), stage2.size(), &ctx));
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_ChainVpropVector)->Arg(1)->Arg(64)->Arg(1024);

// ---- hash-join probe: grouped batch probe over clustered keys ---------
//
// The probe-side batching (one key pass up front + candidate-list reuse
// across key-clustered runs) against the reference nested loop
// (tests/reference), at cache sizes matching the batch sweep.

void RunJoinProbe(benchmark::State& state, bool naive) {
  const size_t cache = static_cast<size_t>(state.range(0));
  auto schema = TempSchema();
  // Key-clustered streams: runs of identical stations, the shape the
  // grouped probe exploits.
  auto make_side = [&schema](size_t n, uint64_t seed,
                             const char* sensor) {
    Rng rng(seed);
    std::vector<stt::TupleRef> out;
    for (size_t i = 0; i < n; ++i) {
      std::string station = "s" + std::to_string((i / 16) % 8);
      out.push_back(stt::Tuple::Share(stt::Tuple::MakeUnsafe(
          schema,
          {stt::Value::Double(rng.NextDouble(10, 35)),
           stt::Value::String(station)},
          static_cast<Timestamp>(i), stt::GeoPoint{34.69, 135.50}, sensor)));
    }
    return out;
  };
  auto left = make_side(cache, 11, "l0");
  auto right = make_side(cache, 12, "r0");
  dataflow::JoinSpec spec;
  spec.interval = duration::kHour;
  spec.predicate = "left_station == right_station and left_temp > right_temp";
  ops::OperatorOptions options;
  static NullActivation activation;
  options.activation = &activation;
  auto made =
      naive ? reference::MakeBlockingReference("bench_join", OpKind::kJoin,
                                               spec, {schema, schema},
                                               {"left", "right"}, options)
            : ops::MakeOperator("bench_join", OpKind::kJoin, spec,
                                {schema, schema}, {"left", "right"},
                                options);
  if (!made.ok()) {
    state.SkipWithError(made.status().ToString().c_str());
    return;
  }
  auto oper = std::move(made).ValueOrDie();
  uint64_t sink = 0;
  oper->set_emit([&sink](const stt::TupleRef&) { ++sink; });
  for (auto _ : state) {
    for (size_t i = 0; i < cache; ++i) {
      benchmark::DoNotOptimize(oper->Process(0, left[i]));
      benchmark::DoNotOptimize(oper->Process(1, right[i]));
    }
    benchmark::DoNotOptimize(oper->Flush(duration::kHour));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * cache));
  state.counters["pairs_emitted"] =
      benchmark::Counter(static_cast<double>(sink));
}

void BM_JoinProbeGrouped(benchmark::State& state) {
  RunJoinProbe(state, /*naive=*/false);
}
BENCHMARK(BM_JoinProbeGrouped)->Arg(64)->Arg(1024);

void BM_JoinProbeNested(benchmark::State& state) {
  RunJoinProbe(state, /*naive=*/true);
}
BENCHMARK(BM_JoinProbeNested)->Arg(64)->Arg(1024);

// ---- end-to-end: the threaded runtime with the columnar path ----------

stt::SchemaPtr KeyedTempSchema() {
  auto tgran = stt::TemporalGranularity::Make(duration::kSecond);
  auto theme = stt::Theme::Parse("weather/temperature");
  return *stt::Schema::Make(
      {{"temp", stt::ValueType::kDouble, "celsius", false},
       {"station", stt::ValueType::kString, "", false}},
      *tgran, stt::SpatialGranularity::Point(), *theme);
}

void BM_ThreadedChain(benchmark::State& state) {
  net::EventLoop loop;
  pubsub::Broker broker(&loop.clock());
  pubsub::SensorInfo info;
  info.id = "bv_t0";
  info.type = "keyed_replay";
  info.schema = KeyedTempSchema();
  info.period = duration::kSecond;
  info.location = stt::GeoPoint{34.69, 135.50};
  info.provides_timestamp = true;
  info.provides_location = true;
  info.node_id = "node_0";
  (void)broker.Publish(info);

  dataflow::FilterSpec filter;
  filter.condition = kPredicate;
  dataflow::TransformSpec transform;
  transform.attribute = "temp";
  transform.expression = kTransformExpr;
  auto flow = *dataflow::DataflowBuilder("bv_ft")
                   .AddSource("src", "bv_t0")
                   .AddOperator("flt", OpKind::kFilter, filter, {"src"})
                   .AddOperator("f2c", OpKind::kTransform, transform, {"flt"})
                   .AddSink("out", "f2c", dataflow::SinkKind::kCollect)
                   .Build();

  const size_t count = 100000;
  exec::InputTrace trace;
  trace.reserve(count);
  Rng rng(42);
  auto schema = KeyedTempSchema();
  Timestamp at = loop.Now();
  for (size_t i = 0; i < count; ++i) {
    auto tuple = stt::Tuple::Share(stt::Tuple::MakeUnsafe(
        schema,
        {stt::Value::Double(rng.NextDouble(-5.0, 35.0)),
         stt::Value::String("s" + std::to_string(rng.NextBounded(8)))},
        at, stt::GeoPoint{34.69, 135.50}, "bv_t0"));
    trace.push_back({at, "src", tuple, stt::kNoWatermark});
    at += 10;
  }
  const Timestamp end_time = trace.back().at + duration::kSecond;

  exec::ThreadedOptions options;
  options.queue_capacity = 8192;
  options.batch_max = 1024;
  options.count_only_sinks = true;
  uint64_t delivered = 0;
  for (auto _ : state) {
    exec::ThreadedRuntime runtime(flow, &broker, {}, options);
    auto result = runtime.RunTrace(trace, end_time);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    delivered += result->tuples_delivered;
  }
  state.SetItemsProcessed(static_cast<int64_t>(delivered));
}
BENCHMARK(BM_ThreadedChain)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sl

SL_BENCH_MAIN("vector");
