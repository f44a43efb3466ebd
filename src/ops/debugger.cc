#include "ops/debugger.h"

#include <algorithm>
#include <deque>
#include <memory>

#include "util/strings.h"

namespace sl::ops {

using dataflow::Dataflow;
using dataflow::Node;
using dataflow::NodeKind;

std::string ActivationRecord::ToString() const {
  return StrFormat("%s {%s} at %s", activate ? "ACTIVATE" : "DEACTIVATE",
                   Join(sensor_ids, ", ").c_str(),
                   FormatTimestamp(at).c_str());
}

void ActivationRecorder::ActivateSensors(const std::vector<std::string>& ids,
                                         Timestamp at) {
  MutexLock lock(&mu_);
  records_.push_back({true, ids, at});
}

void ActivationRecorder::DeactivateSensors(
    const std::vector<std::string>& ids, Timestamp at) {
  MutexLock lock(&mu_);
  records_.push_back({false, ids, at});
}

std::vector<ActivationRecord> ActivationRecorder::Take() {
  MutexLock lock(&mu_);
  return std::move(records_);
}

std::string DebugResult::ToString(const Dataflow& dataflow) const {
  std::string out = "debug run of dataflow '" + dataflow.name() + "'\n";
  out += report.ToString();
  if (!EndsWith(out, "\n")) out += "\n";
  if (!report.ok()) return out;
  for (const auto& name : dataflow.topological_order()) {
    const Node& node = **dataflow.node(name);
    out += "-- " + node.ToString() + "\n";
    auto sit = report.schemas.find(name);
    if (sit != report.schemas.end()) {
      out += "   schema: " + sit->second->ToString() + "\n";
    }
    auto oit = outputs.find(name);
    size_t n = oit == outputs.end() ? 0 : oit->second.size();
    out += StrFormat("   emits %zu tuple(s)\n", n);
    size_t shown = std::min<size_t>(n, 5);
    for (size_t i = 0; i < shown; ++i) {
      out += "     " + oit->second[i]->ToString() + "\n";
    }
    if (n > shown) out += StrFormat("     ... %zu more\n", n - shown);
  }
  for (const auto& a : activations) {
    out += "!! " + a.ToString() + "\n";
  }
  return out;
}

Result<DebugResult> DataflowDebugger::Run(
    const Dataflow& dataflow,
    const std::map<std::string, std::vector<stt::Tuple>>& samples) const {
  ActivationRecorder activation;
  OperatorOptions options;
  options.activation = &activation;
  SL_ASSIGN_OR_RETURN(BuiltDataflow built,
                      BuildDataflow(dataflow, broker_, options));
  for (const auto& entry : samples) {
    auto node = dataflow.node(entry.first);
    if (!node.ok() || (*node)->kind != NodeKind::kSource) {
      return Status::InvalidArgument("samples provided for '" + entry.first +
                                     "', which is not a source of the "
                                     "dataflow");
    }
  }
  DebugResult result;
  result.report = std::move(built.report);

  // Wire node -> downstream consumers; every emission is also recorded.
  // Delivery is breadth-first through a FIFO work queue so that
  // emissions inside Flush cascade correctly.
  struct Delivery {
    std::string to;
    size_t port;
    stt::TupleRef tuple;
  };
  std::deque<Delivery> queue;

  auto fanout = [&](const std::string& from, const stt::TupleRef& tuple) {
    result.outputs[from].push_back(tuple);
    for (const auto& consumer : dataflow.Downstream(from)) {
      const Node& cnode = **dataflow.node(consumer);
      for (size_t port = 0; port < cnode.inputs.size(); ++port) {
        if (cnode.inputs[port] == from) {
          queue.push_back({consumer, port, tuple});
        }
      }
    }
  };

  for (auto& [name, b] : built.operators) {
    const std::string node_name = name;
    b.op->set_emit([&fanout, node_name](const stt::TupleRef& t) {
      fanout(node_name, t);
    });
  }

  auto drain = [&]() -> Status {
    while (!queue.empty()) {
      Delivery d = std::move(queue.front());
      queue.pop_front();
      const Node& node = **dataflow.node(d.to);
      if (node.kind == NodeKind::kSink) {
        result.outputs[d.to].push_back(d.tuple);
        continue;
      }
      SL_RETURN_IF_ERROR(built.operators.at(d.to).op->Process(d.port, d.tuple));
    }
    return Status::OK();
  };

  // Feed samples interleaved by event time; each sample is shared once
  // and the same ref flows through the whole run.
  struct Feed {
    Timestamp ts;
    std::string source;
    stt::TupleRef tuple;
  };
  std::vector<Feed> feeds;
  Timestamp max_ts = 0;
  for (const auto& [source, tuples] : samples) {
    for (const auto& t : tuples) {
      feeds.push_back({t.timestamp(), source, stt::Tuple::Share(t)});
      max_ts = std::max(max_ts, t.timestamp());
    }
  }
  std::stable_sort(feeds.begin(), feeds.end(),
                   [](const Feed& a, const Feed& b) { return a.ts < b.ts; });
  for (const auto& feed : feeds) {
    fanout(feed.source, feed.tuple);
    SL_RETURN_IF_ERROR(drain());
  }

  // One flush per blocking operator, in topological order, so cascaded
  // blocking stages see their upstream's aggregates.
  Timestamp flush_at = max_ts + duration::kSecond;
  for (const auto& name : dataflow.OperatorNames()) {
    Operator* op = built.operators.at(name).op.get();
    if (op->is_blocking()) {
      SL_RETURN_IF_ERROR(op->Flush(flush_at));
      SL_RETURN_IF_ERROR(drain());
    }
  }
  result.activations = activation.Take();
  return result;
}

}  // namespace sl::ops
