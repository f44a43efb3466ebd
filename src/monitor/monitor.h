// StreamLoader: execution monitoring.
//
// "Logs of the activities are collected by the monitor module and made
// available to the Web Interface ... we are able to report the number of
// tuples that each operation handles per second, the node that suffers
// because of high workload, which node is in charge of executing an
// operation and when the assignment changes" (§3). The Monitor samples
// the executor and the network on a periodic tick and keeps a bounded
// history of reports — Figure 3 as data.

#ifndef STREAMLOADER_MONITOR_MONITOR_H_
#define STREAMLOADER_MONITOR_MONITOR_H_

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "net/network.h"

namespace sl::ops {
class Operator;
}  // namespace sl::ops

namespace sl::monitor {

/// \brief Per-operator measurements over one monitoring window.
struct OperatorSample {
  std::string dataflow;
  std::string op_name;
  std::string node_id;       ///< node in charge of executing the operation
  double in_per_sec = 0;     ///< tuples consumed per second
  double out_per_sec = 0;    ///< tuples emitted per second
  uint64_t total_in = 0;
  uint64_t total_out = 0;
  size_t cache_size = 0;     ///< blocking operations
  uint64_t trigger_fires = 0;
  /// Event-time lag: virtual now minus the operator's merged input
  /// watermark; -1 until the inputs have carried one.
  int64_t watermark_lag_ms = -1;
  uint64_t late_dropped = 0;  ///< late tuples discarded (LatePolicy::kDrop)
  uint64_t late_routed = 0;   ///< late tuples diverted to the late sink
  /// Key-partitioned parallelism (1 for single-instance operations).
  size_t parallelism = 1;
  /// Tuples counted into each key range since deploy or the last
  /// rescale (parallelism entries; empty when single-instance).
  std::vector<uint64_t> instance_load;
  /// Key skew: max over mean of instance_load (1.0 = perfectly uniform,
  /// parallelism = all keys in one range; 0 until any tuple counted).
  double key_skew = 0;
  /// Threaded runtime only: deepest input ring of this stage (current
  /// depth on a live sample, peak over the run on the final one).
  size_t queue_depth = 0;
  /// Threaded runtime only: producer stalls on this stage's full input
  /// rings — the credit-based backpressure counter.
  uint64_t backpressure_waits = 0;
  /// Threaded runtime only: size of the worker pool the stage
  /// multiplexes over, as resolved at Start (0 on simulator samples).
  size_t pool_size = 0;
  /// Threaded runtime only: scheduling quanta this stage has been
  /// claimed for (pool workers plus helping producers).
  uint64_t quanta = 0;
  /// Columnar execution: batch runs handed to ProcessBatch (0 when the
  /// operator took only the per-tuple path).
  uint64_t batches = 0;
  /// Columnar execution: mean tuples per batch run (batched tuples over
  /// `batches`; 0 when no batch ran).
  double batch_fill = 0;
};

/// Sets `sample`'s operator fields from `op`'s counters: the totals,
/// cache size, trigger fires, late counts, batch figures and
/// parallelism, plus the instance gauges from its per-range arrival
/// counts (ops::Operator::range_counts): `instance_load` copies them and
/// `key_skew` is their max over mean, both unset below two ranges.
/// Names, rates and the watermark lag are the caller's. Both runtimes
/// sample operators through this one function: the simulator on every
/// monitor tick, the threaded runtime once a stage's worker has joined.
void SetOperatorCounters(const ops::Operator& op, OperatorSample* sample);

/// \brief Per-node measurements over one monitoring window.
struct NodeSample {
  std::string node_id;
  double utilization = 0;    ///< window work / window capacity (can be > 1)
  double work_in_window = 0;
  int process_count = 0;
  bool up = true;            ///< false while crashed (fault injection)
};

/// \brief Fault-injection and reliable-delivery counters (cumulative).
/// Sampled from the network's fault stats plus the executor's
/// per-deployment recovery counters.
struct FaultSample {
  uint64_t messages_dropped = 0;     ///< link-level drops (fault injector)
  uint64_t messages_duplicated = 0;  ///< link-level duplications
  uint64_t retransmits = 0;          ///< reliable-delivery retransmissions
  uint64_t messages_lost = 0;        ///< conclusively lost tuples
  uint64_t node_failures = 0;        ///< executor-confirmed node crashes
  uint64_t recoveries = 0;           ///< processes re-placed after a crash
  uint64_t late_dropped = 0;         ///< event-time late drops (all operators)
  uint64_t late_routed = 0;          ///< event-time late side-outputs

  bool Any() const {
    return messages_dropped > 0 || messages_duplicated > 0 ||
           retransmits > 0 || messages_lost > 0 || node_failures > 0 ||
           recoveries > 0 || late_dropped > 0 || late_routed > 0;
  }
};

/// \brief A change in operator-to-node assignment (placement or
/// migration).
struct AssignmentChange {
  Timestamp at = 0;
  std::string dataflow;
  std::string op_name;
  std::string from_node;  ///< "" for the initial placement
  std::string to_node;

  std::string ToString() const;
};

/// \brief One monitoring tick's complete picture.
struct MonitorReport {
  Timestamp at = 0;
  Duration window = 0;
  std::vector<OperatorSample> operators;
  std::vector<NodeSample> nodes;
  FaultSample faults;

  /// The node with the highest utilization ("the node that suffers"),
  /// or nullptr when there are no nodes.
  const NodeSample* BusiestNode() const;

  /// Textual dashboard (the Figure 3 view).
  std::string ToString() const;

  /// Machine-readable JSON document.
  std::string ToJson() const;
};

/// \brief Collects samples on a periodic tick.
class Monitor {
 public:
  /// Produces the operator samples for the elapsed window; implemented
  /// by the executor, which also resets its window counters.
  using OperatorSampler = std::function<std::vector<OperatorSample>(Duration)>;
  /// Invoked after each report is recorded (the executor uses this for
  /// workload-driven re-placement).
  using TickListener = std::function<void(const MonitorReport&)>;
  /// Produces the cumulative fault/recovery counters; implemented by the
  /// executor (aggregating the network's fault stats).
  using FaultSampler = std::function<FaultSample()>;

  Monitor(net::EventLoop* loop, net::Network* network)
      : loop_(loop), network_(network) {}
  ~Monitor() { Stop(); }

  /// Sampling window / tick period (default 10 s); set before Start.
  void set_window(Duration window) { window_ = window; }
  Duration window() const { return window_; }

  void set_operator_sampler(OperatorSampler sampler) {
    sampler_ = std::move(sampler);
  }
  void set_tick_listener(TickListener listener) {
    listener_ = std::move(listener);
  }
  void set_fault_sampler(FaultSampler sampler) {
    fault_sampler_ = std::move(sampler);
  }

  /// Maximum reports retained (default 256; older ones are dropped).
  void set_history_limit(size_t limit) { history_limit_ = limit; }

  /// Begins periodic sampling on the event loop.
  Status Start();
  void Stop();
  bool running() const { return timer_ != 0; }

  /// Records a placement or migration (executor calls this).
  void RecordAssignment(const std::string& dataflow, const std::string& op,
                        const std::string& from_node,
                        const std::string& to_node);

  /// Appends a free-form log line (timestamped).
  void Log(const std::string& message);

  /// Takes one sample immediately (also what the periodic tick does).
  MonitorReport Sample();

  const std::deque<MonitorReport>& reports() const { return reports_; }
  const MonitorReport* latest() const {
    return reports_.empty() ? nullptr : &reports_.back();
  }

  /// \brief Renders the report history as one text sparkline per
  /// operation (input tuples/sec over time) plus one per node
  /// (utilization) — Figure 3's "flows of data that are monitored",
  /// terminal edition. At most `width` most recent ticks are shown.
  std::string RenderHistory(size_t width = 60) const;
  const std::vector<AssignmentChange>& assignment_changes() const {
    return assignment_changes_;
  }
  const std::vector<std::string>& log_lines() const { return log_lines_; }

 private:
  void Tick();

  net::EventLoop* loop_;
  net::Network* network_;
  Duration window_ = 10 * duration::kSecond;
  OperatorSampler sampler_;
  TickListener listener_;
  FaultSampler fault_sampler_;
  net::EventLoop::TimerId timer_ = 0;
  Timestamp last_tick_ = 0;
  size_t history_limit_ = 256;
  std::deque<MonitorReport> reports_;
  std::vector<AssignmentChange> assignment_changes_;
  std::vector<std::string> log_lines_;
};

}  // namespace sl::monitor

#endif  // STREAMLOADER_MONITOR_MONITOR_H_
