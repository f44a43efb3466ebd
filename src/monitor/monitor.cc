#include "monitor/monitor.h"

#include <algorithm>

#include "ops/operator.h"
#include "util/json.h"
#include "util/strings.h"

namespace sl::monitor {

void SetOperatorCounters(const ops::Operator& op, OperatorSample* sample) {
  const ops::OperatorStats& stats = op.stats();
  sample->total_in = stats.tuples_in;
  sample->total_out = stats.tuples_out;
  sample->cache_size = stats.cache_size;
  sample->trigger_fires = stats.trigger_fires;
  sample->late_dropped = stats.late_dropped;
  sample->late_routed = stats.late_routed;
  sample->batches = stats.batches;
  if (stats.batches > 0) {
    sample->batch_fill = static_cast<double>(stats.batched_tuples) /
                         static_cast<double>(stats.batches);
  }
  sample->parallelism = op.parallelism();
  // Instance gauges: the per-range arrival counts and their max over
  // mean; left unset below two ranges.
  const std::vector<uint64_t>& range_counts = op.range_counts();
  if (range_counts.size() < 2) return;
  sample->instance_load = range_counts;
  uint64_t max_in = 0;
  uint64_t sum_in = 0;
  for (uint64_t in : range_counts) {
    max_in = std::max(max_in, in);
    sum_in += in;
  }
  if (sum_in > 0) {
    sample->key_skew = static_cast<double>(max_in) *
                       static_cast<double>(range_counts.size()) /
                       static_cast<double>(sum_in);
  }
}

std::string AssignmentChange::ToString() const {
  if (from_node.empty()) {
    return StrFormat("%s  %s/%s placed on %s", FormatTimestamp(at).c_str(),
                     dataflow.c_str(), op_name.c_str(), to_node.c_str());
  }
  return StrFormat("%s  %s/%s migrated %s -> %s", FormatTimestamp(at).c_str(),
                   dataflow.c_str(), op_name.c_str(), from_node.c_str(),
                   to_node.c_str());
}

const NodeSample* MonitorReport::BusiestNode() const {
  const NodeSample* best = nullptr;
  for (const auto& n : nodes) {
    if (best == nullptr || n.utilization > best->utilization) best = &n;
  }
  return best;
}

std::string MonitorReport::ToString() const {
  std::string out = StrFormat("=== monitor @ %s (window %s) ===\n",
                              FormatTimestamp(at).c_str(),
                              FormatDuration(window).c_str());
  out += "operations:\n";
  for (const auto& op : operators) {
    std::string extras;
    if (op.trigger_fires > 0) {
      extras += StrFormat("  fires %llu",
                          static_cast<unsigned long long>(op.trigger_fires));
    }
    if (op.watermark_lag_ms >= 0) {
      extras += StrFormat("  wm_lag %lldms",
                          static_cast<long long>(op.watermark_lag_ms));
    }
    if (op.late_dropped > 0 || op.late_routed > 0) {
      extras += StrFormat("  late %llu/%llu",
                          static_cast<unsigned long long>(op.late_dropped),
                          static_cast<unsigned long long>(op.late_routed));
    }
    if (op.parallelism > 1) {
      extras += StrFormat("  x%zu skew %.2f", op.parallelism, op.key_skew);
    }
    if (op.queue_depth > 0 || op.backpressure_waits > 0) {
      extras += StrFormat("  q %zu bp %llu", op.queue_depth,
                          static_cast<unsigned long long>(
                              op.backpressure_waits));
    }
    if (op.pool_size > 0) {
      extras += StrFormat("  pool %zu quanta %llu", op.pool_size,
                          static_cast<unsigned long long>(op.quanta));
    }
    if (op.batches > 0) {
      extras += StrFormat("  batches %llu fill %.1f",
                          static_cast<unsigned long long>(op.batches),
                          op.batch_fill);
    }
    out += StrFormat(
        "  %-24s on %-10s  in %8.1f t/s  out %8.1f t/s  cache %6zu%s\n",
        (op.dataflow + "/" + op.op_name).c_str(), op.node_id.c_str(),
        op.in_per_sec, op.out_per_sec, op.cache_size, extras.c_str());
  }
  out += "nodes:\n";
  const NodeSample* busiest = BusiestNode();
  for (const auto& n : nodes) {
    out += StrFormat("  %-10s util %6.1f%%  procs %2d%s%s\n",
                     n.node_id.c_str(), n.utilization * 100.0,
                     n.process_count, n.up ? "" : "  << DOWN",
                     (busiest != nullptr && &n == busiest &&
                      n.utilization > 0.8)
                         ? "  << HIGH LOAD"
                         : "");
  }
  if (faults.Any()) {
    out += StrFormat(
        "faults: dropped %llu dup %llu retransmits %llu lost %llu "
        "node_failures %llu recoveries %llu late_dropped %llu "
        "late_routed %llu\n",
        static_cast<unsigned long long>(faults.messages_dropped),
        static_cast<unsigned long long>(faults.messages_duplicated),
        static_cast<unsigned long long>(faults.retransmits),
        static_cast<unsigned long long>(faults.messages_lost),
        static_cast<unsigned long long>(faults.node_failures),
        static_cast<unsigned long long>(faults.recoveries),
        static_cast<unsigned long long>(faults.late_dropped),
        static_cast<unsigned long long>(faults.late_routed));
  }
  return out;
}

std::string MonitorReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("at");
  w.String(FormatTimestamp(at));
  w.Key("window_ms");
  w.Int(window);
  w.Key("operators");
  w.BeginArray();
  for (const auto& op : operators) {
    w.BeginObject();
    w.Key("dataflow"); w.String(op.dataflow);
    w.Key("op"); w.String(op.op_name);
    w.Key("node"); w.String(op.node_id);
    w.Key("in_per_sec"); w.Double(op.in_per_sec);
    w.Key("out_per_sec"); w.Double(op.out_per_sec);
    w.Key("total_in"); w.Int(static_cast<int64_t>(op.total_in));
    w.Key("total_out"); w.Int(static_cast<int64_t>(op.total_out));
    w.Key("cache_size"); w.Int(static_cast<int64_t>(op.cache_size));
    w.Key("trigger_fires"); w.Int(static_cast<int64_t>(op.trigger_fires));
    w.Key("watermark_lag_ms"); w.Int(op.watermark_lag_ms);
    w.Key("late_dropped"); w.Int(static_cast<int64_t>(op.late_dropped));
    w.Key("late_routed"); w.Int(static_cast<int64_t>(op.late_routed));
    if (op.parallelism > 1) {
      w.Key("parallelism"); w.Int(static_cast<int64_t>(op.parallelism));
      w.Key("key_skew"); w.Double(op.key_skew);
      w.Key("instance_load");
      w.BeginArray();
      for (uint64_t load : op.instance_load) {
        w.Int(static_cast<int64_t>(load));
      }
      w.EndArray();
    }
    if (op.queue_depth > 0 || op.backpressure_waits > 0) {
      w.Key("queue_depth"); w.Int(static_cast<int64_t>(op.queue_depth));
      w.Key("backpressure_waits");
      w.Int(static_cast<int64_t>(op.backpressure_waits));
    }
    if (op.pool_size > 0) {
      w.Key("pool_size"); w.Int(static_cast<int64_t>(op.pool_size));
      w.Key("quanta"); w.Int(static_cast<int64_t>(op.quanta));
    }
    if (op.batches > 0) {
      w.Key("batches"); w.Int(static_cast<int64_t>(op.batches));
      w.Key("batch_fill"); w.Double(op.batch_fill);
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("nodes");
  w.BeginArray();
  for (const auto& n : nodes) {
    w.BeginObject();
    w.Key("node"); w.String(n.node_id);
    w.Key("utilization"); w.Double(n.utilization);
    w.Key("work"); w.Double(n.work_in_window);
    w.Key("processes"); w.Int(n.process_count);
    w.Key("up"); w.Bool(n.up);
    w.EndObject();
  }
  w.EndArray();
  w.Key("faults");
  w.BeginObject();
  w.Key("messages_dropped");
  w.Int(static_cast<int64_t>(faults.messages_dropped));
  w.Key("messages_duplicated");
  w.Int(static_cast<int64_t>(faults.messages_duplicated));
  w.Key("retransmits"); w.Int(static_cast<int64_t>(faults.retransmits));
  w.Key("messages_lost"); w.Int(static_cast<int64_t>(faults.messages_lost));
  w.Key("node_failures"); w.Int(static_cast<int64_t>(faults.node_failures));
  w.Key("recoveries"); w.Int(static_cast<int64_t>(faults.recoveries));
  w.Key("late_dropped"); w.Int(static_cast<int64_t>(faults.late_dropped));
  w.Key("late_routed"); w.Int(static_cast<int64_t>(faults.late_routed));
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

Status Monitor::Start() {
  if (running()) return Status::FailedPrecondition("monitor already running");
  if (window_ <= 0) return Status::InvalidArgument("monitor window must be > 0");
  last_tick_ = loop_->Now();
  timer_ = loop_->SchedulePeriodic(window_, [this] { Tick(); });
  return Status::OK();
}

void Monitor::Stop() {
  if (timer_ != 0) {
    loop_->Cancel(timer_);
    timer_ = 0;
  }
}

void Monitor::RecordAssignment(const std::string& dataflow,
                               const std::string& op,
                               const std::string& from_node,
                               const std::string& to_node) {
  assignment_changes_.push_back(
      {loop_->Now(), dataflow, op, from_node, to_node});
}

void Monitor::Log(const std::string& message) {
  log_lines_.push_back(FormatTimestamp(loop_->Now()) + "  " + message);
}

MonitorReport Monitor::Sample() {
  Timestamp now = loop_->Now();
  Duration elapsed = std::max<Duration>(now - last_tick_, 1);
  last_tick_ = now;

  MonitorReport report;
  report.at = now;
  report.window = elapsed;
  if (sampler_) report.operators = sampler_(elapsed);
  if (network_ != nullptr) {
    for (const auto& id : network_->NodeIds()) {
      const net::NodeState* state = *network_->node(id);
      NodeSample sample;
      sample.node_id = id;
      sample.utilization = state->Utilization(elapsed);
      sample.work_in_window = state->work_in_window;
      sample.process_count = state->process_count;
      sample.up = state->up;
      report.nodes.push_back(std::move(sample));
    }
    network_->ResetWindows();
  }
  if (fault_sampler_) report.faults = fault_sampler_();
  return report;
}

std::string Monitor::RenderHistory(size_t width) const {
  if (reports_.empty()) return "(no monitor history)\n";
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  size_t first =
      reports_.size() > width ? reports_.size() - width : 0;

  // Collect the series keys in first-seen order.
  std::vector<std::string> op_keys;
  std::vector<std::string> node_keys;
  for (size_t i = first; i < reports_.size(); ++i) {
    for (const auto& op : reports_[i].operators) {
      std::string key = op.dataflow + "/" + op.op_name;
      if (std::find(op_keys.begin(), op_keys.end(), key) == op_keys.end()) {
        op_keys.push_back(key);
      }
    }
    for (const auto& n : reports_[i].nodes) {
      if (std::find(node_keys.begin(), node_keys.end(), n.node_id) ==
          node_keys.end()) {
        node_keys.push_back(n.node_id);
      }
    }
  }

  std::string out = StrFormat(
      "=== history: %zu tick(s), newest right ===\n",
      reports_.size() - first);
  for (const auto& key : op_keys) {
    // Scale each operation's sparkline to its own maximum rate.
    double max_rate = 0;
    std::vector<double> series;
    for (size_t i = first; i < reports_.size(); ++i) {
      double rate = 0;
      for (const auto& op : reports_[i].operators) {
        if (op.dataflow + "/" + op.op_name == key) rate = op.in_per_sec;
      }
      series.push_back(rate);
      max_rate = std::max(max_rate, rate);
    }
    std::string line;
    for (double rate : series) {
      size_t level =
          max_rate > 0 ? static_cast<size_t>(rate / max_rate * 7.0) : 0;
      line += kLevels[std::min<size_t>(level, 7)];
    }
    out += StrFormat("  %-28s |%s| peak %.3g t/s\n", key.c_str(),
                     line.c_str(), max_rate);
  }
  for (const auto& key : node_keys) {
    std::string line;
    double peak = 0;
    for (size_t i = first; i < reports_.size(); ++i) {
      double util = 0;
      for (const auto& n : reports_[i].nodes) {
        if (n.node_id == key) util = n.utilization;
      }
      peak = std::max(peak, util);
      size_t level = static_cast<size_t>(std::min(util, 1.0) * 7.0);
      line += kLevels[level];
    }
    out += StrFormat("  node %-23s |%s| peak %.0f%%\n", key.c_str(),
                     line.c_str(), peak * 100.0);
  }
  return out;
}

void Monitor::Tick() {
  MonitorReport report = Sample();
  reports_.push_back(report);
  while (reports_.size() > history_limit_) reports_.pop_front();
  if (listener_) listener_(reports_.back());
}

}  // namespace sl::monitor
