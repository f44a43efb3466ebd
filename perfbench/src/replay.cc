#include "replay.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "exec/spsc_queue.h"
#include "expr/eval.h"
#include "expr/vector_program.h"
#include "stt/column_batch.h"
#include "workload.h"

namespace perfbench {

namespace {

using sl::dataflow::NodeKind;
using sl::dataflow::OpKind;

// Flush stagger per blocking operator, the runtimes' default.
constexpr sl::Duration kFlushStaggerMs = 50;

struct Pending {
  sl::stt::TupleRef tuple;
  sl::Timestamp watermark;
};

struct ReplayNode {
  const sl::dataflow::Node* spec = nullptr;
  std::unique_ptr<sl::ops::Operator> op;  ///< null for sinks
  std::unique_ptr<sl::sinks::Sink> sink;  ///< baseline replays only
  std::vector<std::vector<Pending>> in;   ///< per input port
  std::vector<std::pair<size_t, size_t>> downstream;  ///< (node, port)
  std::vector<Pending> emitted;
  size_t cost = 0;  ///< index into ReplayResult::stages (operators)
  sl::Timestamp next_flush = std::numeric_limits<sl::Timestamp>::max();
};

std::string ExpressionOf(const sl::dataflow::Node& node) {
  if (const auto* f = std::get_if<sl::dataflow::FilterSpec>(&node.spec)) {
    return f->condition;
  }
  if (const auto* t = std::get_if<sl::dataflow::TransformSpec>(&node.spec)) {
    return t->expression;
  }
  if (const auto* v =
          std::get_if<sl::dataflow::VirtualPropertySpec>(&node.spec)) {
    return v->specification;
  }
  return "";
}

class Replayer {
 public:
  Replayer(const ReplayOptions& options, ReplayResult* result)
      : options_(options), result_(result) {}

  sl::Status Build(const sl::dataflow::Dataflow& dataflow,
                   const std::map<std::string, sl::stt::SchemaPtr>& schemas) {
    std::map<std::string, size_t> index;
    for (const std::string& name : dataflow.topological_order()) {
      const sl::dataflow::Node& node = **dataflow.node(name);
      if (node.kind == NodeKind::kSource) continue;
      index[name] = nodes_.size();
      nodes_.emplace_back();
      ReplayNode& rn = nodes_.back();
      rn.spec = &node;
      rn.in.resize(std::max<size_t>(1, node.inputs.size()));
    }
    sl::Duration stagger_depth = 0;
    for (ReplayNode& rn : nodes_) {
      const sl::dataflow::Node& node = *rn.spec;
      for (size_t port = 0; port < node.inputs.size(); ++port) {
        const std::string& up = node.inputs[port];
        size_t self = static_cast<size_t>(&rn - nodes_.data());
        auto it = index.find(up);
        if (it == index.end()) {
          source_downstream_[up].push_back({self, port});
        } else {
          nodes_[it->second].downstream.push_back({self, port});
        }
      }
      if (node.kind == NodeKind::kSink) {
        if (!options_.time_calls) {
          SL_ASSIGN_OR_RETURN(rn.sink,
                              sl::sinks::MakeSink(node.name, node.sink,
                                                  node.sink_target,
                                                  options_.sink_context));
        }
        continue;
      }
      std::vector<sl::stt::SchemaPtr> input_schemas;
      for (const std::string& up : node.inputs) {
        auto s = schemas.find(up);
        if (s == schemas.end()) {
          return sl::Status::NotFound("no schema for node '" + up + "'");
        }
        input_schemas.push_back(s->second);
      }
      sl::ops::OperatorOptions op_options;
      op_options.watermark = options_.watermark;
      SL_ASSIGN_OR_RETURN(rn.op, sl::ops::MakeOperator(node.name, node.op,
                                                       node.spec, input_schemas,
                                                       node.inputs, op_options));
      ReplayNode* self = &rn;
      sl::ops::Operator* op = rn.op.get();
      op->set_emit([self, op](const sl::stt::TupleRef& t) {
        self->emitted.push_back({t, op->output_watermark()});
      });
      rn.cost = result_->stages.size();
      StageCost cost;
      cost.name = node.name;
      cost.kind = node.op;
      cost.expression = ExpressionOf(node);
      cost.input_schema = input_schemas.front();
      result_->stages.push_back(std::move(cost));
      if (op->is_blocking()) {
        rn.next_flush = options_.deploy_time + op->interval() +
                        kFlushStaggerMs * stagger_depth;
        ++stagger_depth;
      }
    }
    return sl::Status::OK();
  }

  void Feed(const SourceInput& input) {
    FlushUpTo(input.at);
    auto it = source_downstream_.find(input.source);
    if (it == source_downstream_.end()) return;
    for (const auto& [node, port] : it->second) {
      nodes_[node].in[port].push_back({input.tuple, input.watermark});
    }
    if (++chunk_fill_ >= options_.batch) RunPass();
  }

  void Finish(sl::Timestamp end_time) {
    RunPass();
    FlushUpTo(end_time);
  }

 private:
  /// Fires every flush boundary B <= limit in time order, carrying each
  /// flush's output downstream before the next boundary.
  void FlushUpTo(sl::Timestamp limit) {
    for (;;) {
      sl::Timestamp next = std::numeric_limits<sl::Timestamp>::max();
      for (const ReplayNode& rn : nodes_) next = std::min(next, rn.next_flush);
      if (next > limit) return;
      RunPass();
      for (ReplayNode& rn : nodes_) {
        if (rn.next_flush != next) continue;
        StageCost& cost = result_->stages[rn.cost];
        cost.cache_peak = std::max(cost.cache_peak, rn.op->stats().cache_size);
        int64_t t = options_.time_calls ? NowNs() : 0;
        (void)rn.op->Flush(next);
        if (options_.time_calls) cost.flush_ns += static_cast<double>(NowNs() - t);
        ++cost.flushes;
        cost.flush_out += rn.emitted.size();
        Forward(&rn);
        rn.next_flush += rn.op->interval();
        RunPass();
      }
    }
  }

  void Forward(ReplayNode* rn) {
    for (const Pending& p : rn->emitted) {
      for (const auto& [node, port] : rn->downstream) {
        nodes_[node].in[port].push_back(p);
      }
    }
    if (rn->op != nullptr) result_->stages[rn->cost].out += rn->emitted.size();
    rn->emitted.clear();
  }

  /// Pushes everything accumulated so far through the graph in
  /// topological order.
  void RunPass() {
    chunk_fill_ = 0;
    const bool sampled = options_.spans != nullptr && pass_++ % 64 == 0;
    uint64_t root = 0;
    if (sampled) {
      root = options_.spans->Add("replay.pass", NowNs(), NowNs(), 0,
                                 static_cast<int64_t>(pass_ - 1));
    }
    for (ReplayNode& rn : nodes_) {
      for (size_t port = 0; port < rn.in.size(); ++port) {
        std::vector<Pending> batch;
        batch.swap(rn.in[port]);
        if (batch.empty()) continue;
        const int64_t start = sampled ? NowNs() : 0;
        if (rn.op == nullptr) {
          Sink(&rn, batch);
        } else {
          Process(&rn, port, batch);
          Forward(&rn);
        }
        if (sampled) {
          std::string layer =
              rn.op == nullptr ? "sinks." + rn.spec->name
                               : "ops." + rn.spec->name;
          options_.spans->Add(layer, start, NowNs(), root,
                              static_cast<int64_t>(pass_ - 1));
        }
      }
    }
    if (sampled) options_.spans->SetEnd(root, NowNs());
  }

  void Sink(ReplayNode* rn, const std::vector<Pending>& batch) {
    if (rn->sink != nullptr) {
      for (const Pending& p : batch) (void)rn->sink->Write(p.tuple);
      return;
    }
    auto& captured = result_->sink_inputs[rn->spec->name];
    for (const Pending& p : batch) captured.push_back(p.tuple);
  }

  void Process(ReplayNode* rn, size_t port, const std::vector<Pending>& batch) {
    StageCost& cost = result_->stages[rn->cost];
    cost.in += batch.size();
    sl::ops::Operator* op = rn->op.get();
    const bool capture = options_.time_calls && !op->is_blocking();
    if (options_.batch > 1 && op->batchable(port)) {
      std::vector<sl::stt::TupleRef> refs;
      for (size_t i = 0; i < batch.size(); i += options_.batch) {
        const size_t n = std::min(options_.batch, batch.size() - i);
        refs.clear();
        for (size_t k = 0; k < n; ++k) {
          refs.push_back(batch[i + k].tuple);
          op->ObserveWatermark(port, batch[i + k].watermark);
        }
        if (capture) {
          cost.captured.insert(cost.captured.end(), refs.begin(), refs.end());
        }
        sl::ops::Operator::BatchContext ctx;
        int64_t t = options_.time_calls ? NowNs() : 0;
        (void)op->ProcessBatch(port, refs.data(), n, &ctx);
        if (options_.time_calls) cost.process_ns += static_cast<double>(NowNs() - t);
      }
      return;
    }
    for (const Pending& p : batch) {
      op->ObserveWatermark(port, p.watermark);
      if (capture) cost.captured.push_back(p.tuple);
      int64_t t = options_.time_calls ? NowNs() : 0;
      (void)op->Process(port, p.tuple);
      if (options_.time_calls) cost.process_ns += static_cast<double>(NowNs() - t);
    }
  }

 public:
  void CollectLate() {
    for (ReplayNode& rn : nodes_) {
      if (rn.op == nullptr) continue;
      const auto& stats = rn.op->stats();
      result_->stages[rn.cost].late = stats.late_dropped + stats.late_routed;
    }
  }

 private:
  const ReplayOptions& options_;
  ReplayResult* result_;
  std::vector<ReplayNode> nodes_;
  std::map<std::string, std::vector<std::pair<size_t, size_t>>>
      source_downstream_;
  size_t chunk_fill_ = 0;
  uint64_t pass_ = 0;
};

}  // namespace

sl::Result<ReplayResult> ReplayOperators(
    const sl::dataflow::Dataflow& dataflow,
    const std::map<std::string, sl::stt::SchemaPtr>& schemas,
    const std::vector<SourceInput>& inputs, sl::Timestamp end_time,
    const ReplayOptions& options) {
  ReplayResult result;
  Replayer replayer(options, &result);
  SL_RETURN_IF_ERROR(replayer.Build(dataflow, schemas));
  int64_t start = NowNs();
  for (const SourceInput& input : inputs) replayer.Feed(input);
  replayer.Finish(end_time);
  result.total_ns = static_cast<double>(NowNs() - start);
  replayer.CollectLate();
  return result;
}

sl::Status EvalStage(StageCost* stage, size_t batch) {
  if (stage->expression.empty() || stage->captured.empty()) {
    return sl::Status::OK();
  }
  SL_ASSIGN_OR_RETURN(sl::expr::BoundExpr bound,
                      sl::expr::BoundExpr::Parse(stage->expression,
                                                 stage->input_schema));
  const bool predicate = stage->kind == OpKind::kFilter;
  const auto& tuples = stage->captured;
  int64_t start = NowNs();
  if (batch > 1) {
    sl::expr::VectorProgram program(&bound.program());
    std::vector<sl::expr::VectorProgram::RowError> errors;
    std::vector<sl::stt::Value> values;
    for (size_t i = 0; i < tuples.size(); i += batch) {
      const size_t n = std::min(batch, tuples.size() - i);
      sl::stt::ColumnBatch columns(stage->input_schema, &tuples[i], n);
      errors.clear();
      values.clear();
      sl::Status s = predicate ? program.RunPredicate(&columns, &errors)
                               : program.RunValues(&columns, &values, &errors);
      SL_RETURN_IF_ERROR(s);
    }
  } else {
    for (const auto& t : tuples) {
      if (predicate) {
        (void)bound.EvalPredicate(*t);
      } else {
        (void)bound.Eval(*t);
      }
    }
  }
  stage->eval_ns = static_cast<double>(NowNs() - start);
  return sl::Status::OK();
}

sl::Result<double> ReplaySinks(
    const sl::dataflow::Dataflow& dataflow,
    const std::map<std::string, std::vector<sl::stt::TupleRef>>& sink_inputs,
    const sl::sinks::SinkContext& context, uint64_t* writes) {
  double total = 0;
  *writes = 0;
  for (const auto& [name, tuples] : sink_inputs) {
    SL_ASSIGN_OR_RETURN(const sl::dataflow::Node* node, dataflow.node(name));
    SL_ASSIGN_OR_RETURN(
        std::unique_ptr<sl::sinks::Sink> sink,
        sl::sinks::MakeSink(name, node->sink, node->sink_target, context));
    int64_t start = NowNs();
    for (const auto& t : tuples) SL_RETURN_IF_ERROR(sink->Write(t));
    total += static_cast<double>(NowNs() - start);
    *writes += tuples.size();
  }
  return total;
}

double RingPushPopNs() {
  // The shape of a ring message: a tuple ref plus a few scalar fields.
  struct Message {
    sl::stt::TupleRef tuple;
    int64_t watermark = 0;
    int64_t ingest_ns = 0;
    int kind = 0;
  };
  sl::exec::SpscRing<Message> ring(1024);
  auto tuple = std::make_shared<const sl::stt::Tuple>();
  constexpr int kRounds = 1 << 20;
  Message in, out;
  int64_t start = NowNs();
  for (int i = 0; i < kRounds; ++i) {
    in.tuple = tuple;
    in.watermark = i;
    (void)ring.TryPush(in);
    (void)ring.TryPop(&out);
  }
  double ns = static_cast<double>(NowNs() - start) / kRounds;
  return out.watermark == kRounds - 1 ? ns : -1;
}

// ---------------------------------------------------------------------------

void PrintLedgerLine(const std::string& name, double value,
                     const std::string& unit, const std::string& note) {
  std::printf("ledger %-34s %14.4f %-6s%s%s\n", name.c_str(), value,
              unit.c_str(), note.empty() ? "" : "  # ", note.c_str());
}

const Metric* FindMetric(const std::vector<Metric>& metrics,
                         const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void AddSetupMetrics(const std::vector<SetupTimes>& samples,
                     LedgerParts* parts) {
  auto median_ms = [&samples](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : samples) v.push_back(s.*field * 1e3);
    return Median(v);
  };
  parts->metrics.push_back(
      {"dataflow.validate_ms", median_ms(&SetupTimes::validate_s), "ms"});
  parts->metrics.push_back(
      {"dsn.translate_ms", median_ms(&SetupTimes::translate_s), "ms"});
  parts->metrics.push_back(
      {"dsn.parse_ms", median_ms(&SetupTimes::parse_s), "ms"});
  parts->metrics.push_back(
      {"exec.deploy_ms", median_ms(&SetupTimes::deploy_s), "ms"});
}

void AddReplayMetrics(const ReplayResult& replay, double inputs,
                      double sink_write_ns_total, LedgerParts* parts) {
  double ops = 0, eval = 0, materialize = 0;
  size_t cache_peak = 0;
  uint64_t pairs = 0, join_flushes = 0;
  for (const StageCost& s : replay.stages) {
    const std::string& n = s.name;
    ops += (s.process_ns + s.flush_ns) / inputs;
    if (sl::dataflow::IsBlocking(s.kind)) {
      PrintLedgerLine("ops." + n + ".process_ns", s.process_ns / inputs, "ns");
      PrintLedgerLine("ops." + n + ".flush_ns", s.flush_ns / inputs, "ns");
      PrintLedgerLine("ops." + n + ".cache_peak",
                      static_cast<double>(s.cache_peak), "count");
      cache_peak = std::max(cache_peak, s.cache_peak);
      if (s.kind == OpKind::kJoin) {
        PrintLedgerLine("ops." + n + ".pairs_per_flush",
                        s.flushes > 0 ? static_cast<double>(s.flush_out) /
                                            static_cast<double>(s.flushes)
                                      : 0,
                        "count");
        pairs += s.flush_out;
        join_flushes += s.flushes;
      }
      continue;
    }
    PrintLedgerLine("ops." + n + ".batch_ns", s.process_ns / inputs, "ns");
    if (s.expression.empty()) continue;
    PrintLedgerLine("expr." + n + ".eval_ns", s.eval_ns / inputs, "ns");
    PrintLedgerLine("stt." + n + ".materialize_ns",
                    (s.process_ns - s.eval_ns) / inputs, "ns");
    eval += s.eval_ns / inputs;
    materialize += (s.process_ns - s.eval_ns) / inputs;
  }
  parts->ops_ns = ops;
  parts->sinks_ns = sink_write_ns_total / inputs;
  parts->metrics.push_back({"ops.process_ns", ops, "ns"});
  parts->metrics.push_back({"expr.eval_ns", eval, "ns"});
  parts->metrics.push_back({"stt.materialize_ns", materialize, "ns"});
  parts->metrics.push_back(
      {"ops.cache_peak", static_cast<double>(cache_peak), "count"});
  parts->metrics.push_back(
      {"ops.join.pairs_per_flush",
       join_flushes > 0 ? static_cast<double>(pairs) /
                              static_cast<double>(join_flushes)
                        : 0,
       "count"});
  parts->metrics.push_back({"sinks.write_ns", parts->sinks_ns, "ns"});
}

}  // namespace perfbench
