// Isolated replays for the traced run: the public calls of one layer,
// re-issued on one thread over the traffic captured at that layer's
// boundary, each call timed with steady_clock. Nothing here runs during
// the untraced measurements.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "dataflow/graph.h"
#include "harness.h"
#include "ops/operator.h"
#include "sinks/factory.h"

namespace perfbench {

/// One input at a dataflow source, as the runtime received it.
struct SourceInput {
  std::string source;
  sl::stt::TupleRef tuple;
  sl::Timestamp at = 0;
  sl::Timestamp watermark = sl::stt::kNoWatermark;
};

struct ReplayOptions {
  /// 1: one Process call per tuple (the simulator's path). > 1: runs of
  /// up to this many tuples go through ProcessBatch at batch-capable
  /// stages (the threaded runtime's ring batching).
  size_t batch = 1;
  sl::ops::WatermarkOptions watermark;
  sl::Timestamp deploy_time = 0;
  /// Time every operator call (per-stage costs) or only the whole
  /// replay (the single-thread baseline, which also writes the sinks).
  bool time_calls = true;
  sl::sinks::SinkContext sink_context;
  /// Sampled spans (every 64th chunk) go here when set.
  SpanLog* spans = nullptr;
};

/// Per-stage cost of one replay.
struct StageCost {
  std::string name;
  sl::dataflow::OpKind kind = sl::dataflow::OpKind::kFilter;
  std::string expression;  ///< filter/transform/vprop expression text
  double process_ns = 0;   ///< Process / ProcessBatch
  double flush_ns = 0;
  uint64_t in = 0;
  uint64_t out = 0;
  uint64_t flushes = 0;
  uint64_t flush_out = 0;
  size_t cache_peak = 0;   ///< cache size at a flush, maximum
  uint64_t late = 0;
  double eval_ns = 0;      ///< expression evaluation alone (see EvalStage)
  std::vector<sl::stt::TupleRef> captured;  ///< stateless stages' inputs
  sl::stt::SchemaPtr input_schema;
};

struct ReplayResult {
  std::vector<StageCost> stages;  ///< operators, topological order
  std::map<std::string, std::vector<sl::stt::TupleRef>> sink_inputs;
  double total_ns = 0;
};

/// Runs the dataflow's operators on the calling thread over `inputs`
/// (in order), firing blocking operators at the same punctuation
/// boundaries as the runtimes (deploy + interval + stagger * depth + k *
/// interval, depth counting earlier blocking operators), until
/// `end_time`.
sl::Result<ReplayResult> ReplayOperators(
    const sl::dataflow::Dataflow& dataflow,
    const std::map<std::string, sl::stt::SchemaPtr>& schemas,
    const std::vector<SourceInput>& inputs, sl::Timestamp end_time,
    const ReplayOptions& options);

/// Times the stage's expression alone over its captured inputs: the
/// vectorized VM over column batches when batch > 1, the scalar VM per
/// tuple otherwise. Fills stage->eval_ns.
sl::Status EvalStage(StageCost* stage, size_t batch);

/// Times sinks::MakeSink + Write over every sink's captured inputs;
/// returns total ns and sets *writes.
sl::Result<double> ReplaySinks(
    const sl::dataflow::Dataflow& dataflow,
    const std::map<std::string, std::vector<sl::stt::TupleRef>>& sink_inputs,
    const sl::sinks::SinkContext& context, uint64_t* writes);

/// ns per push + pop of a message-sized payload through exec::SpscRing.
double RingPushPopNs();

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
