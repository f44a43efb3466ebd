#include "core/streamloader.h"

#include "util/logging.h"

namespace sl {

StreamLoader::StreamLoader(const StreamLoaderOptions& options) {
  loop_ = std::make_unique<net::EventLoop>(options.start_time);
  network_ = std::make_unique<net::Network>(loop_.get());
  if (options.network_nodes > 0) {
    Status s = net::BuildRingTopology(
        network_.get(), options.network_nodes, options.node_capacity_per_sec,
        options.link_latency, options.link_bandwidth_bytes_per_ms);
    if (!s.ok()) {
      SL_LOG(kError) << "topology construction failed: " << s.ToString();
    }
  }
  broker_ = std::make_unique<pubsub::Broker>(&loop_->clock());
  fleet_ = std::make_unique<sensors::SensorFleet>(loop_.get(), broker_.get());
  monitor_ = std::make_unique<monitor::Monitor>(loop_.get(), network_.get());
  monitor_->set_window(options.monitor_window);
  warehouse_ = std::make_unique<sinks::EventDataWarehouse>();

  sinks::SinkContext sink_context;
  sink_context.warehouse = warehouse_.get();
  exec::ExecutorOptions exec_options;
  exec_options.placement = options.placement;
  exec_options.rebalance_threshold = options.rebalance_threshold;
  executor_ = std::make_unique<exec::Executor>(loop_.get(), network_.get(),
                                               broker_.get(), monitor_.get(),
                                               sink_context, exec_options);
  executor_->set_fleet(fleet_.get());
  Status ms = monitor_->Start();
  if (!ms.ok()) {
    SL_LOG(kError) << "monitor start failed: " << ms.ToString();
  }
}

StreamLoader::~StreamLoader() {
  // Executor teardown unsubscribes from the broker; the monitor timer is
  // cancelled by its own destructor. Order matters: executor first.
  executor_.reset();
  monitor_.reset();
  fleet_.reset();
  broker_.reset();
  network_.reset();
  loop_.reset();
}

Status StreamLoader::AddSensor(
    std::unique_ptr<sensors::SensorSimulator> sensor, bool start_active) {
  return fleet_->Add(std::move(sensor), start_active);
}

Result<dataflow::ValidationReport> StreamLoader::Validate(
    const dataflow::Dataflow& dataflow) const {
  dataflow::Validator validator(broker_.get());
  return validator.Validate(dataflow);
}

Result<ops::DebugResult> StreamLoader::DebugRun(
    const dataflow::Dataflow& dataflow,
    const std::map<std::string, std::vector<stt::Tuple>>& samples) const {
  ops::DataflowDebugger debugger(broker_.get());
  return debugger.Run(dataflow, samples);
}

Result<std::string> StreamLoader::Translate(
    const dataflow::Dataflow& dataflow) const {
  SL_ASSIGN_OR_RETURN(dataflow::ValidationReport report, Validate(dataflow));
  if (!report.ok()) {
    return Status::ValidationError(
        "dataflow is not consistent; translation refused:\n" +
        report.Render());
  }
  SL_ASSIGN_OR_RETURN(dsn::DsnSpec spec, dsn::TranslateToDsn(dataflow));
  return spec.ToString();
}

Result<exec::DeploymentId> StreamLoader::Deploy(
    const dataflow::Dataflow& dataflow) {
  // The full paper path: consistency checks, automatic translation,
  // actuation of the textual DSN at network level.
  SL_ASSIGN_OR_RETURN(std::string dsn_text, Translate(dataflow));
  return DeployDsn(dsn_text);
}

Result<exec::DeploymentId> StreamLoader::DeployDsn(
    const std::string& dsn_text) {
  SL_ASSIGN_OR_RETURN(dsn::DsnSpec spec, dsn::ParseDsn(dsn_text));
  return executor_->Deploy(spec);
}

Result<exec::ThreadedRunResult> StreamLoader::RunThreaded(
    const dataflow::Dataflow& dataflow, const exec::InputTrace& trace,
    Timestamp end_time, exec::ThreadedOptions options) {
  // The threaded runtime does not simulate network faults: a delay
  // fault could carry a tuple across a flush boundary the punctuation
  // cannot see and silently produce wrong windows. Refuse a session
  // whose network has a plan that would actually perturb delivery,
  // unless the caller explicitly opts in.
  if (network_->fault_plan_installed() &&
      !network_->installed_fault_plan().IsZero() &&
      !options.allow_fault_plan) {
    return Status::FailedPrecondition(
        "RunThreaded: a non-zero fault plan is installed on this session's "
        "network, but threaded mode does not simulate faults — results "
        "would silently diverge from the simulator. Set "
        "ThreadedOptions::allow_fault_plan to run anyway.");
  }
  sinks::SinkContext sink_context;
  sink_context.warehouse = warehouse_.get();
  exec::ThreadedRuntime runtime(dataflow, broker_.get(), sink_context,
                                std::move(options));
  return runtime.RunTrace(trace, end_time);
}

std::string StreamLoader::MonitorView() const {
  const monitor::MonitorReport* latest = monitor_->latest();
  if (latest == nullptr) return "(no monitor report yet)";
  return latest->ToString();
}

}  // namespace sl
