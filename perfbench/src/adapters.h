// The benchmark's only contact with the system's run, ingestion and
// option APIs: one adapter function per runtime.
//
//  - RunSimulator drives the discrete-event simulator through a
//    StreamLoader session and its Executor. Inputs come from the
//    session's own sensor fleet (sensors::SensorSimulator emitting
//    through Broker::PublishTuple); the benchmark observes them through
//    Executor::set_source_tap.
//  - RunThreaded drives exec::ThreadedRuntime. The benchmark's calling
//    thread is the single generator: it submits every input through the
//    runtime's public ingestion call, ThreadedRuntime::Feed, at the
//    input's due wall time (open loop), then calls Finish.
//
// A change to the options structs, the feed path or the scheduling mode
// of either runtime is a change to one of these two functions.

#ifndef PERFBENCH_ADAPTERS_H_
#define PERFBENCH_ADAPTERS_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/streamloader.h"
#include "exec/threaded_runtime.h"
#include "harness.h"

namespace perfbench {

/// Wall seconds of each set-up step before the first input.
struct SetupTimes {
  double validate_s = 0;   ///< dataflow validation
  double translate_s = 0;  ///< dataflow -> DSN text (simulator only)
  double parse_s = 0;      ///< DSN text -> spec (simulator only)
  double deploy_s = 0;     ///< Executor::Deploy, or runtime construction + Start
  double total() const { return validate_s + translate_s + parse_s + deploy_s; }
};

// -- simulator ---------------------------------------------------------------

struct SimSpec {
  sl::StreamLoaderOptions options;
  /// Populates the session's sensor fleet (the workload's input source).
  std::function<sl::Status(sl::sensors::SensorFleet*)> build_fleet;
  std::function<sl::Result<sl::dataflow::Dataflow>()> build_dataflow;
  /// Virtual time the fleet runs before deployment (its emissions are
  /// not inputs of the deployment).
  sl::Duration warmup = 0;
  /// Virtual time the deployment runs.
  sl::Duration run_for = 0;
};

struct SimHooks {
  /// Every input entering the deployment (source name, tuple, virtual
  /// ingestion time), called on the simulator thread.
  std::function<void(const std::string&, const sl::stt::TupleRef&,
                     sl::Timestamp)>
      on_input;
  /// Paced runs: called after every event-loop slice.
  std::function<void(const sl::sinks::EventDataWarehouse&)> on_slice;
  /// Constructed before the call; started and stopped around the phase.
  PhaseProbe* probe = nullptr;
  /// Number of Monitor::Sample calls to time after the run (traced run).
  size_t monitor_samples = 0;
};

struct SimRun {
  SetupTimes setup;
  int64_t start_ns = 0;  ///< phase start; the due time of virtual time v0
  int64_t end_ns = 0;
  sl::Timestamp v0 = 0;  ///< virtual time at deployment
  double virtual_ms_per_wall_s = 0;
  sl::dataflow::Dataflow dataflow;
  std::map<std::string, sl::stt::SchemaPtr> schemas;  ///< per node output
  sl::exec::DeploymentStats stats;
  std::map<std::string, sl::ops::OperatorStats> op_stats;
  std::map<std::string, std::string> placement;  ///< operator/sink -> node
  uint64_t net_messages = 0;
  uint64_t net_bytes = 0;
  uint64_t loop_events = 0;
  std::vector<double> monitor_sample_ns;
  /// Warehouse contents after the run, by dataset.
  std::map<std::string, std::vector<sl::stt::TupleRef>> datasets;
};

/// Builds a session, deploys the workload's dataflow and runs it for
/// spec.run_for of virtual time: flat out when virtual_ms_per_wall_s is
/// 0, else paced so that virtual time v is processed no earlier than
/// start_ns + (v - v0) / virtual_ms_per_wall_s seconds.
sl::Result<SimRun> RunSimulator(const SimSpec& spec,
                                double virtual_ms_per_wall_s,
                                const SimHooks& hooks);

// -- threaded runtime -------------------------------------------------------

/// One input, pre-generated by the workload.
struct FeedItem {
  std::string source;
  sl::stt::TupleRef tuple;
  sl::Timestamp at = 0;  ///< virtual ingestion time (non-decreasing)
  sl::Timestamp watermark = sl::stt::kNoWatermark;
};

struct ThreadedSpec {
  const sl::pubsub::Broker* broker = nullptr;
  sl::dataflow::Dataflow dataflow;
  sl::ops::WatermarkOptions watermark;
  sl::Timestamp deploy_time = 0;
  sl::Timestamp end_time = 0;
};

struct ThreadedHooks {
  /// The benchmark's sink consumer: receives every CSV line, on the
  /// sink stages' threads.
  sl::sinks::LineConsumer csv;
  /// Called by the generator after submitting input `index`.
  std::function<void(size_t index, int64_t due_ns, int64_t submit_ns)>
      on_submit;
  /// > 0: a poller samples ThreadedRuntime::SampleStages and per-thread
  /// CPU at this period during the run (traced run).
  int64_t poll_interval_ns = 0;
  std::function<void(const std::vector<sl::monitor::OperatorSample>&,
                     int64_t call_ns)>
      on_stages;
  /// Constructed before the call; started and stopped around the phase.
  PhaseProbe* probe = nullptr;
};

struct ThreadedRun {
  SetupTimes setup;
  int64_t origin_ns = 0;  ///< due time of input 0
  double period_ns = 0;   ///< paced: wall time per input (0 = unpaced)
  /// Paced runs: the wall time input `i` fell due.
  int64_t DueNs(size_t i) const {
    return origin_ns + static_cast<int64_t>(static_cast<double>(i) * period_ns);
  }
  int64_t first_submit_ns = 0;
  int64_t end_ns = 0;     ///< Finish returned
  int generator_tid = 0;
  /// CPU seconds per thread over the run (polled runs only).
  std::map<int, double> thread_cpu_s;
  sl::exec::ThreadedRunResult result;
};

/// Validates, constructs and starts a ThreadedRuntime (pool of nproc - 2
/// workers beside the generator, ring batching on), feeds `inputs` from the
/// calling thread — flat out when inputs_per_s is 0, else input i at its
/// own due time origin + i / inputs_per_s — and finishes at
/// spec.end_time.
sl::Result<ThreadedRun> RunThreaded(const ThreadedSpec& spec,
                                    const std::vector<FeedItem>& inputs,
                                    double inputs_per_s,
                                    const ThreadedHooks& hooks);

/// Worker-pool size the threaded adapter uses.
size_t PoolSize();

}  // namespace perfbench

#endif  // PERFBENCH_ADAPTERS_H_
