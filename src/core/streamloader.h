// StreamLoader: the top-level facade — the paper's primary contribution
// as one API.
//
// A StreamLoader session owns the whole Figure 1 stack: the event loop,
// the programmable-network simulator, the publish/subscribe sensor
// layer, the sensor fleet, the monitor, the executor/SCN controller and
// the Event Data Warehouse. The designer-facing workflow is:
//
//   StreamLoader sl;                                   // the platform
//   ... add sensors (or BuildOsakaFleet) ...           // discovery (P1)
//   auto df = sl.NewDataflow("demo")... .Build();      // design  (P1)
//   sl.Validate(df); sl.DebugRun(df, samples);         // checks + samples
//   auto dsn = sl.Translate(df);                       // DSN/SCN  (P2)
//   auto id = sl.Deploy(df);                           // network level
//   sl.RunFor(duration::kHour);                        // event-driven run
//   sl.MonitorView();                                  // Figure 3
//
// Deploy() exercises the full textual path — validate, translate to DSN
// text, re-parse, deploy — so what runs is exactly what the DSN document
// says.

#ifndef STREAMLOADER_CORE_STREAMLOADER_H_
#define STREAMLOADER_CORE_STREAMLOADER_H_

#include <memory>
#include <string>

#include "dataflow/graph.h"
#include "dataflow/validate.h"
#include "dsn/parser.h"
#include "dsn/translate.h"
#include "exec/executor.h"
#include "exec/threaded_runtime.h"
#include "monitor/monitor.h"
#include "net/event_loop.h"
#include "net/network.h"
#include "ops/debugger.h"
#include "pubsub/broker.h"
#include "sensors/simulator.h"
#include "sinks/warehouse.h"

namespace sl {

/// \brief Configuration of a StreamLoader session.
struct StreamLoaderOptions {
  /// Ring-topology network size (the demo network shape); use 0 to start
  /// with an empty network and build a custom topology via network().
  size_t network_nodes = 8;
  double node_capacity_per_sec = 10000.0;
  Duration link_latency = 2;
  double link_bandwidth_bytes_per_ms = 1e5;  ///< 100 MB/s
  /// Monitoring window (Figure 3 refresh).
  Duration monitor_window = 10 * duration::kSecond;
  exec::PlacementStrategy placement = exec::PlacementStrategy::kLeastLoaded;
  /// Auto-migration threshold (0 disables).
  double rebalance_threshold = 1.0;
  /// Virtual start time; defaults to 2016-03-15T00:00Z (the EDBT demo
  /// week) so diurnal generators behave realistically.
  Timestamp start_time = 1458000000000;
};

/// \brief One complete StreamLoader platform instance.
class StreamLoader {
 public:
  explicit StreamLoader(const StreamLoaderOptions& options = {});
  ~StreamLoader();

  StreamLoader(const StreamLoader&) = delete;
  StreamLoader& operator=(const StreamLoader&) = delete;

  // -- subsystem access ----------------------------------------------------
  net::EventLoop& loop() { return *loop_; }
  net::Network& network() { return *network_; }
  pubsub::Broker& broker() { return *broker_; }
  sensors::SensorFleet& fleet() { return *fleet_; }
  monitor::Monitor& monitor() { return *monitor_; }
  exec::Executor& executor() { return *executor_; }
  sinks::EventDataWarehouse& warehouse() { return *warehouse_; }

  // -- designer workflow ----------------------------------------------------

  /// Adds (publishes) a simulated sensor; active sensors emit
  /// immediately, inactive ones wait for a Trigger On (or Activate).
  Status AddSensor(std::unique_ptr<sensors::SensorSimulator> sensor,
                   bool start_active = true);

  /// Starts a new dataflow design.
  dataflow::DataflowBuilder NewDataflow(const std::string& name) {
    return dataflow::DataflowBuilder(name);
  }

  /// Runs the soundness checks of the design environment.
  Result<dataflow::ValidationReport> Validate(
      const dataflow::Dataflow& dataflow) const;

  /// Sample-based step debugging (P1).
  Result<ops::DebugResult> DebugRun(
      const dataflow::Dataflow& dataflow,
      const std::map<std::string, std::vector<stt::Tuple>>& samples) const;

  /// Translates a dataflow to DSN text (P2).
  Result<std::string> Translate(const dataflow::Dataflow& dataflow) const;

  /// Validate -> translate -> parse -> deploy at network level.
  Result<exec::DeploymentId> Deploy(const dataflow::Dataflow& dataflow);

  /// Deploys directly from DSN text.
  Result<exec::DeploymentId> DeployDsn(const std::string& dsn_text);

  /// Executes `dataflow` on the wall-clock multithreaded runtime
  /// (exec::ThreadedRuntime): validates against this session's broker,
  /// replays `trace` (tuples per source with virtual ingestion times —
  /// typically captured from a simulated run via
  /// ExecutorOptions::source_tap) and drains at `end_time`. The
  /// simulator deployments are untouched, and the simulated run of the
  /// same trace is the correctness oracle of this path. Fails fast when
  /// the session's network carries a non-zero fault plan (threaded mode
  /// does not simulate faults); ThreadedOptions::allow_fault_plan
  /// overrides the check.
  Result<exec::ThreadedRunResult> RunThreaded(
      const dataflow::Dataflow& dataflow, const exec::InputTrace& trace,
      Timestamp end_time, exec::ThreadedOptions options = {});

  Status Undeploy(exec::DeploymentId id) { return executor_->Undeploy(id); }

  /// Advances virtual time, running all due events.
  size_t RunFor(Duration d) { return loop_->RunFor(d); }

  /// Current virtual time.
  Timestamp Now() const { return loop_->Now(); }

  /// The latest monitor report rendered as text (Figure 3), or a
  /// placeholder when no tick has happened yet.
  std::string MonitorView() const;

 private:
  std::unique_ptr<net::EventLoop> loop_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<pubsub::Broker> broker_;
  std::unique_ptr<sensors::SensorFleet> fleet_;
  std::unique_ptr<monitor::Monitor> monitor_;
  std::unique_ptr<sinks::EventDataWarehouse> warehouse_;
  std::unique_ptr<exec::Executor> executor_;
};

}  // namespace sl

#endif  // STREAMLOADER_CORE_STREAMLOADER_H_
