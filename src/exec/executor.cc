#include "exec/executor.h"

#include <algorithm>

#include "dsn/translate.h"
#include "util/logging.h"
#include "util/strings.h"

namespace sl::exec {

using dataflow::Dataflow;
using dataflow::Node;
using dataflow::NodeKind;

namespace {

/// Work units a node spends per tuple processed; a flush and a rescale
/// bill each cached tuple at the same rate.
constexpr double kWorkPerTuple = 1.0;
/// Approximate per-tuple network framing overhead in bytes.
constexpr size_t kTupleOverheadBytes = 24;
/// Consecutive missed heartbeats before a node is declared dead and its
/// operator and sink processes are re-placed on surviving nodes.
constexpr int kHeartbeatMisses = 2;

size_t TupleBytes(const stt::Tuple& tuple) {
  // The value portion is memoized in the tuple itself, so a tuple routed
  // across many edges (or re-routed downstream) is measured once.
  return kTupleOverheadBytes + tuple.ApproxValueBytes();
}

/// Per-deployment activation adapter: attributes trigger activations to
/// their deployment before forwarding to the executor.
class DeploymentActivation : public ops::ActivationHandler {
 public:
  DeploymentActivation(Executor* executor, DeploymentStats* stats)
      : executor_(executor), stats_(stats) {}

  void ActivateSensors(const std::vector<std::string>& ids,
                       Timestamp at) override {
    ++stats_->activations;
    executor_->ActivateSensors(ids, at);
  }
  void DeactivateSensors(const std::vector<std::string>& ids,
                         Timestamp at) override {
    ++stats_->activations;
    executor_->DeactivateSensors(ids, at);
  }

 private:
  Executor* executor_;
  DeploymentStats* stats_;
};

}  // namespace

std::string DeploymentStats::ToString() const {
  std::string out = StrFormat(
      "ingested %llu delivered %llu qos_violations %llu process_errors %llu "
      "activations %llu migrations %llu retransmits %llu messages_lost %llu "
      "node_failures %llu recoveries %llu",
      static_cast<unsigned long long>(tuples_ingested),
      static_cast<unsigned long long>(tuples_delivered),
      static_cast<unsigned long long>(qos_violations),
      static_cast<unsigned long long>(process_errors),
      static_cast<unsigned long long>(activations),
      static_cast<unsigned long long>(migrations),
      static_cast<unsigned long long>(retransmits),
      static_cast<unsigned long long>(messages_lost),
      static_cast<unsigned long long>(node_failures),
      static_cast<unsigned long long>(recoveries));
  return out;
}

Executor::Executor(net::EventLoop* loop, net::Network* network,
                   pubsub::Broker* broker, monitor::Monitor* monitor,
                   sinks::SinkContext sink_context, ExecutorOptions options)
    : loop_(loop),
      network_(network),
      broker_(broker),
      monitor_(monitor),
      sink_context_(std::move(sink_context)),
      options_(options),
      placer_(network, options.placement) {
  if (monitor_ != nullptr) {
    monitor_->set_operator_sampler(
        [this](Duration window) { return SampleOperators(window); });
    monitor_->set_tick_listener(
        [this](const monitor::MonitorReport& report) { OnMonitorTick(report); });
    monitor_->set_fault_sampler([this] {
      monitor::FaultSample sample;
      const net::Network::FaultStats& fs = network_->fault_stats();
      sample.messages_dropped = fs.messages_dropped;
      sample.messages_duplicated = fs.messages_duplicated;
      for (const auto& [id, dep] : deployments_) {
        sample.retransmits += dep->stats.retransmits;
        sample.messages_lost += dep->stats.messages_lost;
        sample.node_failures += dep->stats.node_failures;
        sample.recoveries += dep->stats.recoveries;
        for (const auto& [name, deployed] : dep->operators) {
          sample.late_dropped += deployed.op->stats().late_dropped;
          sample.late_routed += deployed.op->stats().late_routed;
        }
      }
      return sample;
    });
  }
  if (options_.heartbeat_ms > 0) {
    heartbeat_timer_ = loop_->SchedulePeriodic(options_.heartbeat_ms,
                                               [this] { OnHeartbeat(); });
  }
}

Executor::~Executor() {
  if (heartbeat_timer_ != 0) {
    loop_->Cancel(heartbeat_timer_);
    heartbeat_timer_ = 0;
  }
  for (auto& [id, dep] : deployments_) {
    if (dep->active) {
      Status s = Undeploy(id);
      (void)s;
    }
  }
  // Detach the monitor's callbacks into this executor; the monitor may
  // keep ticking (it usually outlives us in composition order).
  if (monitor_ != nullptr) {
    monitor_->set_operator_sampler(nullptr);
    monitor_->set_tick_listener(nullptr);
    monitor_->set_fault_sampler(nullptr);
  }
}

Result<DeploymentId> Executor::Deploy(const dsn::DsnSpec& spec) {
  // 1. Lift the DSN description back to an operator graph.
  SL_ASSIGN_OR_RETURN(Dataflow dataflow, dsn::TranslateFromDsn(spec));

  // 2. Soundness check against the live sensor registry, and the
  // operators, each blocking one with its first flush.
  auto deployment = std::make_shared<Deployment>();
  Deployment* dep = deployment.get();
  dep->activation = std::make_unique<DeploymentActivation>(this, &dep->stats);
  SL_ASSIGN_OR_RETURN(
      ops::BuiltDataflow built,
      ops::BuildDataflow(dataflow, broker_, OperatorOptionsOf(dep)));
  dep->id = next_id_++;
  dep->self = deployment;
  dep->dataflow = std::move(dataflow);
  dep->schemas = std::move(built.report.schemas);
  if (options_.watermark.late_policy == ops::LatePolicy::kSideOutput) {
    dep->late_sink = std::make_unique<sinks::CollectSink>(spec.name + "/late");
  }
  Status started = StartDeployment(dep, spec, &built);
  if (!started.ok()) {
    // The deployment is never registered: release what the steps before
    // the failing one set up, so no flush timer or charge outlives it.
    ReleaseDeployment(dep);
    return started;
  }

  if (monitor_ != nullptr) {
    monitor_->Log("deployed dataflow '" + dep->dataflow.name() + "' (" +
                  StrFormat("%zu operators, %zu sinks",
                            dep->operators.size(), dep->sinks.size()) +
                  ")");
  }
  scn_log_.Record(loop_->Now(), ScnCommandKind::kStartDataflow, dep->id,
                  dep->dataflow.name(), "");

  DeploymentId id = dep->id;
  deployments_.emplace(id, std::move(deployment));
  return id;
}

Status Executor::StartDeployment(Deployment* dep, const dsn::DsnSpec& spec,
                                 ops::BuiltDataflow* built) {
  // QoS lookup for edges.
  auto qos_of = [&spec](const std::string& from,
                        const std::string& to) -> dsn::QosParams {
    for (const auto& f : spec.flows) {
      if (f.from == from && f.to == to) return f.qos;
    }
    return dsn::QosParams{};
  };

  // 3. Bind sources, generate and place processes (topological order, so
  // upstream placements inform locality).
  for (const auto& name : dep->dataflow.topological_order()) {
    const Node& node = **dep->dataflow.node(name);
    switch (node.kind) {
      case NodeKind::kSource: {
        if (node.by_query) {
          // Characteristic-bound source: tuples enter at their producing
          // sensor's node, resolved per tuple (future joiners included).
          dep->source_nodes[name] = "";
          scn_log_.Record(loop_->Now(), ScnCommandKind::kBindSource, dep->id,
                          name, node.source_query.ToString());
          break;
        }
        SL_ASSIGN_OR_RETURN(pubsub::SensorInfo info,
                            broker_->Find(node.sensor_id));
        std::string origin = info.node_id;
        if (origin.empty() || !network_->HasNode(origin)) {
          // Sensors not pinned to a node enter at the least-loaded one.
          SL_ASSIGN_OR_RETURN(origin, placer_.LeastLoadedNode());
        }
        dep->source_nodes[name] = origin;
        scn_log_.Record(loop_->Now(), ScnCommandKind::kBindSource, dep->id,
                        name, node.sensor_id + " @ " + origin);
        break;
      }
      case NodeKind::kOperator: {
        std::vector<std::string> upstream_nodes;
        for (const auto& in : node.inputs) {
          auto src_it = dep->source_nodes.find(in);
          if (src_it != dep->source_nodes.end()) {
            upstream_nodes.push_back(src_it->second);
          } else {
            auto op_it = dep->operators.find(in);
            if (op_it != dep->operators.end()) {
              upstream_nodes.push_back(op_it->second.node_id);
            }
          }
        }
        SL_ASSIGN_OR_RETURN(std::string placed,
                            placer_.Place(upstream_nodes));
        ops::BuiltOperator& op = built->operators.at(name);
        // A key-partitioned operator counts as an instance group: the
        // node is billed one process per key range.
        size_t instances = op.op->parallelism();
        SL_RETURN_IF_ERROR(network_->AdjustProcessCount(
            placed, static_cast<int>(instances)));
        DeployedOperator deployed =
            InstallOperator(dep, name, std::move(op.op), op.first_flush);
        deployed.node_id = placed;
        if (monitor_ != nullptr) {
          monitor_->RecordAssignment(dep->dataflow.name(), name, "", placed);
        }
        scn_log_.Record(loop_->Now(), ScnCommandKind::kDeployService, dep->id,
                        name,
                        instances > 1 ? placed + StrFormat(" x%zu", instances)
                                      : placed);
        dep->operators.emplace(name, std::move(deployed));
        break;
      }
      case NodeKind::kSink: {
        SL_ASSIGN_OR_RETURN(std::unique_ptr<sinks::Sink> sink,
                            sinks::MakeSink(name, node.sink, node.sink_target,
                                            sink_context_));
        std::vector<std::string> upstream_nodes;
        auto op_it = dep->operators.find(node.inputs[0]);
        if (op_it != dep->operators.end()) {
          upstream_nodes.push_back(op_it->second.node_id);
        }
        SL_ASSIGN_OR_RETURN(std::string placed,
                            placer_.Place(upstream_nodes));
        SL_RETURN_IF_ERROR(network_->AdjustProcessCount(placed, +1));
        if (monitor_ != nullptr) {
          monitor_->RecordAssignment(dep->dataflow.name(), name, "", placed);
        }
        scn_log_.Record(loop_->Now(), ScnCommandKind::kDeployService, dep->id,
                        name, placed);
        dep->sinks.emplace(name, DeployedSink{std::move(sink), placed});
        break;
      }
    }
  }

  // 4. Wire edges with their QoS.
  for (const auto& name : dep->dataflow.topological_order()) {
    const Node& node = **dep->dataflow.node(name);
    for (size_t port = 0; port < node.inputs.size(); ++port) {
      Edge edge;
      edge.to = name;
      edge.port = port;
      edge.to_sink = node.kind == NodeKind::kSink;
      edge.qos = qos_of(node.inputs[port], name);
      scn_log_.Record(
          loop_->Now(), ScnCommandKind::kConfigureFlow, dep->id,
          node.inputs[port] + " -> " + name,
          StrFormat("max_latency=%s priority=%d",
                    FormatDuration(edge.qos.max_latency).c_str(),
                    edge.qos.priority));
      dep->edges[node.inputs[port]].push_back(std::move(edge));
    }
  }

  // 5. Subscribe sources to their sensors (or their queries).
  dep->active = true;
  for (const auto& name : dep->dataflow.SourceNames()) {
    const Node& node = **dep->dataflow.node(name);
    std::string source_name = name;
    if (node.by_query) {
      // The merged stream's watermark is the min over matching sensors —
      // queried fresh per tuple so late joiners lower it correctly.
      pubsub::DiscoveryQuery query = node.source_query;
      auto sub = broker_->SubscribeDataByQuery(
          node.source_query,
          [this, dep, source_name, query](const stt::TupleRef& tuple) {
            if (!dep->active) return;
            ++dep->stats.tuples_ingested;
            const Timestamp wm = broker_->WatermarkOf(query);
            if (source_tap_) source_tap_(source_name, tuple, loop_->Now(), wm);
            Route(dep, source_name, ResolveOrigin(tuple->sensor_id()), tuple,
                  wm);
          });
      dep->subscriptions.push_back(sub);
      continue;
    }
    std::string sensor_id = node.sensor_id;
    auto sub = broker_->SubscribeData(
        node.sensor_id,
        [this, dep, source_name, sensor_id](const stt::TupleRef& tuple) {
          if (!dep->active) return;
          ++dep->stats.tuples_ingested;
          const Timestamp wm = broker_->WatermarkOf(sensor_id);
          if (source_tap_) source_tap_(source_name, tuple, loop_->Now(), wm);
          Route(dep, source_name, dep->source_nodes.at(source_name), tuple,
                wm);
        });
    if (!sub.ok()) return sub.status();
    dep->subscriptions.push_back(*sub);
  }
  return Status::OK();
}

void Executor::ReleaseDeployment(Deployment* dep) {
  dep->active = false;
  for (auto sub : dep->subscriptions) broker_->Unsubscribe(sub);
  dep->subscriptions.clear();
  for (auto& [name, op] : dep->operators) {
    if (op.flush_timer != 0) {
      loop_->Cancel(op.flush_timer);
      op.flush_timer = 0;
    }
    Status s = network_->AdjustProcessCount(
        op.node_id, -static_cast<int>(op.op->parallelism()));
    (void)s;
  }
  for (auto& [name, sink] : dep->sinks) {
    Status s = network_->AdjustProcessCount(sink.node_id, -1);
    (void)s;
  }
}

ops::OperatorOptions Executor::OperatorOptionsOf(Deployment* dep) const {
  ops::OperatorOptions op_options;
  op_options.activation = dep->activation.get();
  op_options.watermark = options_.watermark;
  return op_options;
}

Executor::DeployedOperator Executor::InstallOperator(
    Deployment* dep, const std::string& name,
    std::unique_ptr<ops::Operator> op_ptr, Duration first_flush) {
  DeployedOperator deployed;
  deployed.op = std::move(op_ptr);
  ops::Operator* op = deployed.op.get();
  // Emission: route from wherever the operator currently runs,
  // piggybacking the operator's current output watermark.
  op->set_emit([this, dep, name](const stt::TupleRef& t) {
    auto it = dep->operators.find(name);
    if (it == dep->operators.end()) return;
    Route(dep, name, it->second.node_id, t,
          it->second.op->output_watermark());
  });
  // Late-side output stays local to the operator's node: the tuple
  // already took its network hop; see Executor::LateSinkOf.
  if (dep->late_sink != nullptr) {
    op->set_late_emit([dep](const stt::TupleRef& t) {
      Status s = dep->late_sink->Write(t);
      (void)s;
    });
  }
  if (!op->is_blocking()) return deployed;
  // Blocking operations: periodic cache processing, first due
  // `first_flush` from now. Weak, like the delivery callbacks: a timer
  // firing after the deployment is gone finds nothing and returns.
  std::weak_ptr<Deployment> weak = dep->self;
  deployed.flush_timer = loop_->SchedulePeriodic(
      op->interval(),
      [this, weak, name] {
        auto d = weak.lock();
        if (!d || !d->active) return;
        auto it = d->operators.find(name);
        if (it == d->operators.end()) return;
        ops::Operator* target = it->second.op.get();
        double work =
            static_cast<double>(target->stats().cache_size) * kWorkPerTuple;
        Status s = target->Flush(loop_->Now());
        if (!s.ok()) {
          ++d->stats.process_errors;
          SL_LOG(kError) << "flush of " << name
                         << " failed: " << s.ToString();
        }
        if (work > 0) {
          Status ws = network_->ReportWork(it->second.node_id, work);
          (void)ws;
        }
      },
      /*first_at=*/loop_->Now() + first_flush);
  return deployed;
}

const std::string& Executor::ResolveOrigin(
    const std::string& sensor_id) const {
  const pubsub::SensorInfo* info = broker_->Lookup(sensor_id);
  if (info != nullptr && !info->node_id.empty() &&
      network_->HasNode(info->node_id)) {
    return info->node_id;
  }
  // Unpinned (or just-departed) sensors: enter at a deterministic node.
  return network_->FirstNodeId();
}

void Executor::Route(Deployment* dep, const std::string& producer,
                     const std::string& producer_node,
                     const stt::TupleRef& tuple, Timestamp watermark) {
  auto edges_it = dep->edges.find(producer);
  if (edges_it == dep->edges.end()) return;
  size_t bytes = TupleBytes(*tuple);
  for (const Edge& edge : edges_it->second) {
    const std::string* target_node =
        edge.to_sink ? &dep->sinks.at(edge.to).node_id
                     : &dep->operators.at(edge.to).node_id;
    // QoS accounting: a transfer that cannot meet the flow's latency
    // bound counts as a violation (the SCN would re-provision the path).
    if (edge.qos.max_latency > 0) {
      auto delay = network_->TransferDelay(producer_node, *target_node, bytes);
      if (delay.ok() && *delay > edge.qos.max_latency) {
        ++dep->stats.qos_violations;
      }
    }
    // The network hop captures a shared ref, not a deep copy: every
    // out-edge of every deployment forwards the same allocation. The
    // deployment itself is captured weakly so a message landing after
    // Undeploy (or executor destruction) is a no-op; the edge, fixed
    // since Deploy, lives exactly as long as the deployment.
    const Edge* edge_ptr = &edge;
    std::weak_ptr<Deployment> weak = dep->self;
    net::TransferOptions transfer_options;
    if (options_.reliable_delivery) {
      transfer_options.reliable = true;
      transfer_options.ack_timeout = options_.ack_timeout_ms;
      transfer_options.on_retransmit = [weak](int) {
        if (auto d = weak.lock()) ++d->stats.retransmits;
      };
    }
    transfer_options.on_lost = [weak] {
      if (auto d = weak.lock()) ++d->stats.messages_lost;
    };
    // The watermark rides inside the delivery callback — event-time
    // progress piggybacks on data transfers, adding no network messages
    // and leaving the zero-fault event schedule untouched.
    Status s = network_->Transfer(
        producer_node, *target_node, bytes,
        [this, weak, edge_ptr, tuple, watermark] {
          auto d = weak.lock();
          if (!d || !d->active) return;
          Deliver(d.get(), *edge_ptr, tuple, watermark);
        },
        std::move(transfer_options));
    if (!s.ok()) {
      ++dep->stats.process_errors;
      SL_LOG(kError) << "transfer " << producer << " -> " << edge.to
                     << " failed: " << s.ToString();
    }
  }
}

void Executor::Deliver(Deployment* dep, const Edge& edge,
                       const stt::TupleRef& tuple, Timestamp watermark) {
  if (edge.to_sink) {
    auto it = dep->sinks.find(edge.to);
    if (it == dep->sinks.end()) return;
    Status ws = network_->ReportWork(it->second.node_id, kWorkPerTuple);
    (void)ws;
    Status s = it->second.sink->Write(tuple);
    if (s.ok()) {
      ++dep->stats.tuples_delivered;
    } else {
      ++dep->stats.process_errors;
      SL_LOG(kError) << "sink " << edge.to << " failed: " << s.ToString();
    }
    return;
  }
  auto it = dep->operators.find(edge.to);
  if (it == dep->operators.end()) return;
  Status ws = network_->ReportWork(it->second.node_id, kWorkPerTuple);
  (void)ws;
  // Fold the piggybacked watermark into the input frontier *before*
  // processing: the promise was made when the tuple was sent, so it
  // holds on arrival (reordered deliveries only make it conservative —
  // max-merge per port keeps the frontier monotone).
  it->second.op->ObserveWatermark(edge.port, watermark);
  Status s = it->second.op->Process(edge.port, tuple);
  if (!s.ok()) {
    ++dep->stats.process_errors;
    SL_LOG(kError) << "operator " << edge.to << " failed: " << s.ToString();
  }
}

Status Executor::Undeploy(DeploymentId id) {
  auto it = deployments_.find(id);
  if (it == deployments_.end()) {
    return Status::NotFound(StrFormat("no deployment %llu",
                                      static_cast<unsigned long long>(id)));
  }
  Deployment* dep = it->second.get();
  if (!dep->active) {
    return Status::FailedPrecondition(
        StrFormat("deployment %llu is already stopped",
                  static_cast<unsigned long long>(id)));
  }
  ReleaseDeployment(dep);
  for (auto& [name, sink] : dep->sinks) {
    Status fs = sink.sink->Finish();
    (void)fs;
  }
  if (monitor_ != nullptr) {
    monitor_->Log("undeployed dataflow '" + dep->dataflow.name() + "'");
  }
  scn_log_.Record(loop_->Now(), ScnCommandKind::kStopDataflow, dep->id,
                  dep->dataflow.name(), "");
  return Status::OK();
}

Status Executor::ReplaceOperator(DeploymentId id, const std::string& op_name,
                                 const dataflow::OpSpec& new_spec) {
  auto it = deployments_.find(id);
  if (it == deployments_.end()) {
    return Status::NotFound(StrFormat("no deployment %llu",
                                      static_cast<unsigned long long>(id)));
  }
  Deployment* dep = it->second.get();
  if (!dep->active) {
    return Status::FailedPrecondition("deployment is stopped");
  }
  auto op_it = dep->operators.find(op_name);
  if (op_it == dep->operators.end()) {
    return Status::NotFound("no operator '" + op_name + "' in deployment");
  }
  const Node& node = **dep->dataflow.node(op_name);
  // The replacement spec chooses the operation kind; a TriggerSpec keeps
  // the original On/Off polarity.
  dataflow::OpKind new_kind =
      dataflow::SpecKind(new_spec, node.op != dataflow::OpKind::kTriggerOff);

  // Every step that can fail runs before the swap. The replacement is
  // built on the input schemas the deployment was built with.
  std::vector<stt::SchemaPtr> input_schemas;
  for (const auto& in : node.inputs) {
    input_schemas.push_back(dep->schemas.at(in));
  }
  SL_ASSIGN_OR_RETURN(std::unique_ptr<ops::Operator> op,
                      ops::MakeOperator(op_name, new_kind, new_spec,
                                        input_schemas, node.inputs,
                                        OperatorOptionsOf(dep)));
  // The downstream wiring is schema-typed: the replacement must keep it.
  if (!op->output_schema()->Equals(*op_it->second.op->output_schema())) {
    return Status::ValidationError(
        "replacement for '" + op_name +
        "' changes the output schema; downstream operators would break");
  }
  // The conceptual dataflow with the new spec, so the live canvas
  // reflects the edit; every other node keeps all of its fields.
  dataflow::DataflowBuilder builder(dep->dataflow.name());
  for (const auto& n : dep->dataflow.topological_order()) {
    Node copy = **dep->dataflow.node(n);
    if (copy.name == op_name) {
      copy.spec = new_spec;
      copy.op = new_kind;
    }
    builder.Add(std::move(copy));
  }
  SL_ASSIGN_OR_RETURN(Dataflow edited, builder.Build());

  // Swap: cancel the old flush timer, install the new operator in place
  // with the first flush the blocking operators ahead of it give it.
  const Duration first_flush = ops::FirstFlushOffset(
      dep->dataflow, op_name, op->interval(), [dep](const std::string& n) {
        return dep->operators.at(n).op->is_blocking();
      });
  // The replacement may change the instance-group size.
  int group_delta = static_cast<int>(op->parallelism()) -
                    static_cast<int>(op_it->second.op->parallelism());
  if (group_delta != 0) {
    Status ps =
        network_->AdjustProcessCount(op_it->second.node_id, group_delta);
    (void)ps;
  }
  loop_->Cancel(op_it->second.flush_timer);
  DeployedOperator replacement =
      InstallOperator(dep, op_name, std::move(op), first_flush);
  replacement.node_id = op_it->second.node_id;
  op_it->second = std::move(replacement);
  dep->dataflow = std::move(edited);
  if (monitor_ != nullptr) {
    monitor_->Log("replaced operator '" + op_name + "' in dataflow '" +
                  dep->dataflow.name() + "'");
  }
  scn_log_.Record(loop_->Now(), ScnCommandKind::kReplaceService, dep->id,
                  op_name, dataflow::SpecToString(new_kind, new_spec));
  return Status::OK();
}

Result<std::string> Executor::AssignedNode(DeploymentId id,
                                           const std::string& name) const {
  auto it = deployments_.find(id);
  if (it == deployments_.end()) {
    return Status::NotFound("no such deployment");
  }
  auto op_it = it->second->operators.find(name);
  if (op_it != it->second->operators.end()) return op_it->second.node_id;
  auto sink_it = it->second->sinks.find(name);
  if (sink_it != it->second->sinks.end()) return sink_it->second.node_id;
  return Status::NotFound("no operator or sink '" + name +
                          "' in deployment");
}

Status Executor::MigrateOperator(DeploymentId id, const std::string& op_name,
                                 const std::string& target_node) {
  auto it = deployments_.find(id);
  if (it == deployments_.end()) {
    return Status::NotFound("no such deployment");
  }
  Deployment* dep = it->second.get();
  if (!dep->active) return Status::FailedPrecondition("deployment stopped");
  auto op_it = dep->operators.find(op_name);
  if (op_it == dep->operators.end()) {
    return Status::NotFound("no operator '" + op_name + "' in deployment");
  }
  if (!network_->HasNode(target_node)) {
    return Status::NotFound("no node '" + target_node + "'");
  }
  std::string from = op_it->second.node_id;
  if (from == target_node) return Status::OK();
  // Simulate the state hand-off: blocking caches move over the network.
  // A failed hand-off (source crashed or partitioned — the crash-recovery
  // path) loses the cache state but does not block the re-placement.
  size_t state_bytes =
      64 + op_it->second.op->stats().cache_size * 64;  // estimate
  Status transfer_status =
      network_->Transfer(from, target_node, state_bytes, [] {});
  if (!transfer_status.ok()) {
    SL_LOG(kWarning) << "state hand-off of '" << op_name
                     << "' lost: " << transfer_status.ToString();
  }
  // An instance group migrates as a unit (instances are co-located).
  int group = static_cast<int>(op_it->second.op->parallelism());
  SL_RETURN_IF_ERROR(network_->AdjustProcessCount(from, -group));
  SL_RETURN_IF_ERROR(network_->AdjustProcessCount(target_node, +group));
  op_it->second.node_id = target_node;
  ++dep->stats.migrations;
  if (monitor_ != nullptr) {
    monitor_->RecordAssignment(dep->dataflow.name(), op_name, from,
                               target_node);
    monitor_->Log("migrated '" + op_name + "' from " + from + " to " +
                  target_node);
  }
  scn_log_.Record(loop_->Now(), ScnCommandKind::kMigrateService, dep->id,
                  op_name, from + " => " + target_node);
  return Status::OK();
}

Status Executor::RescaleOperator(DeploymentId id, const std::string& op_name,
                                 size_t new_parallelism) {
  auto it = deployments_.find(id);
  if (it == deployments_.end()) {
    return Status::NotFound("no such deployment");
  }
  Deployment* dep = it->second.get();
  if (!dep->active) return Status::FailedPrecondition("deployment stopped");
  auto op_it = dep->operators.find(op_name);
  if (op_it == dep->operators.end()) {
    return Status::NotFound("no operator '" + op_name + "' in deployment");
  }
  ops::Operator* op = op_it->second.op.get();
  size_t old_parallelism = op->parallelism();
  if (new_parallelism == old_parallelism) return Status::OK();
  SL_RETURN_IF_ERROR(op->Rescale(new_parallelism));
  SL_RETURN_IF_ERROR(network_->AdjustProcessCount(
      op_it->second.node_id, static_cast<int>(new_parallelism) -
                                 static_cast<int>(old_parallelism)));
  ++dep->stats.migrations;
  if (monitor_ != nullptr) {
    monitor_->Log(StrFormat("rescaled '%s' from %zu to %zu instances",
                            op_name.c_str(), old_parallelism,
                            new_parallelism));
  }
  scn_log_.Record(loop_->Now(), ScnCommandKind::kMigrateService, dep->id,
                  op_name,
                  StrFormat("parallelism %zu => %zu", old_parallelism,
                            new_parallelism));
  return Status::OK();
}

Status Executor::DrainNode(const std::string& node_id) {
  if (!network_->HasNode(node_id)) {
    return Status::NotFound("no node '" + node_id + "'");
  }
  if (network_->num_nodes() < 2) {
    return Status::FailedPrecondition(
        "cannot drain the only node of the network");
  }
  for (auto& [id, dep] : deployments_) {
    if (!dep->active) continue;
    SL_RETURN_IF_ERROR(
        RelocateProcesses(id, dep.get(), node_id, /*recovery=*/false));
  }
  if (monitor_ != nullptr) {
    monitor_->Log("drained node '" + node_id + "'");
  }
  return Status::OK();
}

Status Executor::RelocateProcesses(DeploymentId id, Deployment* dep,
                                   const std::string& node_id,
                                   bool recovery) {
  // Operators: reuse the migration path (state transfer + logging). A
  // crash loses the blocking caches, which the hand-off from the dead
  // node, conclusively lost, models.
  std::vector<std::string> ops_to_move;
  for (const auto& [name, deployed] : dep->operators) {
    if (deployed.node_id == node_id) ops_to_move.push_back(name);
  }
  for (const auto& name : ops_to_move) {
    SL_ASSIGN_OR_RETURN(std::string target, placer_.Place({}, node_id));
    SL_RETURN_IF_ERROR(MigrateOperator(id, name, target));
    if (recovery) ++dep->stats.recoveries;
  }
  // Sinks: relocate the process; there is no cache state to move.
  for (auto& [name, deployed] : dep->sinks) {
    if (deployed.node_id != node_id) continue;
    SL_ASSIGN_OR_RETURN(std::string target, placer_.Place({}, node_id));
    SL_RETURN_IF_ERROR(network_->AdjustProcessCount(node_id, -1));
    SL_RETURN_IF_ERROR(network_->AdjustProcessCount(target, +1));
    if (monitor_ != nullptr) {
      monitor_->RecordAssignment(dep->dataflow.name(), name, node_id, target);
    }
    scn_log_.Record(loop_->Now(), ScnCommandKind::kMigrateService, id, name,
                    node_id + " => " + target +
                        (recovery ? " (crash recovery)" : ""));
    deployed.node_id = target;
    ++dep->stats.migrations;
    if (recovery) ++dep->stats.recoveries;
  }
  return Status::OK();
}

Result<const dataflow::Dataflow*> Executor::DeployedDataflow(
    DeploymentId id) const {
  auto it = deployments_.find(id);
  if (it == deployments_.end()) {
    return Status::NotFound("no such deployment");
  }
  return &it->second->dataflow;
}

Result<const DeploymentStats*> Executor::stats(DeploymentId id) const {
  auto it = deployments_.find(id);
  if (it == deployments_.end()) {
    return Status::NotFound("no such deployment");
  }
  return &it->second->stats;
}

Result<ops::OperatorStats> Executor::OperatorStatsOf(
    DeploymentId id, const std::string& name) const {
  auto it = deployments_.find(id);
  if (it == deployments_.end()) {
    return Status::NotFound("no such deployment");
  }
  auto op_it = it->second->operators.find(name);
  if (op_it == it->second->operators.end()) {
    return Status::NotFound("no operator '" + name + "' in deployment");
  }
  return op_it->second.op->stats();
}

Result<sinks::Sink*> Executor::SinkOf(DeploymentId id,
                                      const std::string& name) const {
  auto it = deployments_.find(id);
  if (it == deployments_.end()) {
    return Status::NotFound("no such deployment");
  }
  auto sink_it = it->second->sinks.find(name);
  if (sink_it == it->second->sinks.end()) {
    return Status::NotFound("no sink '" + name + "' in deployment");
  }
  return sink_it->second.sink.get();
}

Result<sinks::CollectSink*> Executor::LateSinkOf(DeploymentId id) const {
  auto it = deployments_.find(id);
  if (it == deployments_.end()) {
    return Status::NotFound("no such deployment");
  }
  return it->second->late_sink.get();
}

Result<std::map<std::string, dataflow::NodeAnnotation>>
Executor::LiveAnnotations(DeploymentId id) const {
  auto it = deployments_.find(id);
  if (it == deployments_.end()) {
    return Status::NotFound("no such deployment");
  }
  const Deployment* dep = it->second.get();
  std::map<std::string, dataflow::NodeAnnotation> annotations;
  for (const auto& [name, deployed] : dep->operators) {
    dataflow::NodeAnnotation a;
    a.node_id = deployed.node_id;
    a.cache_size = deployed.op->stats().cache_size;
    a.trigger_fires = deployed.op->stats().trigger_fires;
    annotations[name] = a;
  }
  for (const auto& [name, deployed] : dep->sinks) {
    dataflow::NodeAnnotation a;
    a.node_id = deployed.node_id;
    annotations[name] = a;
  }
  for (const auto& [name, node] : dep->source_nodes) {
    dataflow::NodeAnnotation a;
    a.node_id = node;
    annotations[name] = a;
  }
  // Merge the latest monitoring rates when available.
  if (monitor_ != nullptr && monitor_->latest() != nullptr) {
    for (const auto& sample : monitor_->latest()->operators) {
      if (sample.dataflow != dep->dataflow.name()) continue;
      auto a = annotations.find(sample.op_name);
      if (a == annotations.end()) continue;
      a->second.in_per_sec = sample.in_per_sec;
      a->second.out_per_sec = sample.out_per_sec;
    }
  }
  return annotations;
}

std::vector<DeploymentId> Executor::ActiveDeployments() const {
  std::vector<DeploymentId> ids;
  for (const auto& [id, dep] : deployments_) {
    if (dep->active) ids.push_back(id);
  }
  return ids;
}

void Executor::ActivateSensors(const std::vector<std::string>& sensor_ids,
                               Timestamp at) {
  for (const auto& id : sensor_ids) {
    if (monitor_ != nullptr) {
      monitor_->Log("trigger: activate sensor '" + id + "'");
    }
    scn_log_.Record(loop_->Now(), ScnCommandKind::kActivateStream, 0, id, "");
    if (fleet_ != nullptr) {
      Status s = fleet_->Activate(id);
      if (!s.ok()) {
        SL_LOG(kWarning) << "activation of " << id
                         << " failed: " << s.ToString();
      }
    }
  }
  (void)at;
}

void Executor::DeactivateSensors(const std::vector<std::string>& sensor_ids,
                                 Timestamp at) {
  for (const auto& id : sensor_ids) {
    if (monitor_ != nullptr) {
      monitor_->Log("trigger: deactivate sensor '" + id + "'");
    }
    scn_log_.Record(loop_->Now(), ScnCommandKind::kDeactivateStream, 0, id,
                    "");
    if (fleet_ != nullptr) {
      Status s = fleet_->Deactivate(id);
      if (!s.ok()) {
        SL_LOG(kWarning) << "deactivation of " << id
                         << " failed: " << s.ToString();
      }
    }
  }
  (void)at;
}

std::vector<monitor::OperatorSample> Executor::SampleOperators(
    Duration window) {
  std::vector<monitor::OperatorSample> samples;
  double seconds = static_cast<double>(window) / 1000.0;
  if (seconds <= 0) seconds = 1e-3;
  for (auto& [id, dep] : deployments_) {
    if (!dep->active) continue;
    for (auto& [name, deployed] : dep->operators) {
      const ops::Operator* op = deployed.op.get();
      monitor::OperatorSample sample;
      sample.dataflow = dep->dataflow.name();
      sample.op_name = name;
      sample.node_id = deployed.node_id;
      monitor::SetOperatorCounters(*op, &sample);
      sample.in_per_sec = static_cast<double>(op->window_in()) / seconds;
      sample.out_per_sec = static_cast<double>(op->window_out()) / seconds;
      // Watermark lag: how far event time trails the virtual clock; -1
      // until the operator's inputs have carried a watermark.
      Timestamp wm = op->stats().watermark_low;
      sample.watermark_lag_ms = wm == stt::kNoWatermark ? -1 : loop_->Now() - wm;
      samples.push_back(std::move(sample));
      deployed.op->ResetWindowCounters();
    }
  }
  return samples;
}

void Executor::OnMonitorTick(const monitor::MonitorReport& report) {
  if (options_.rebalance_threshold <= 0) return;
  for (const auto& node : report.nodes) {
    if (node.utilization <= options_.rebalance_threshold) continue;
    // Move the hottest operator off the overloaded node.
    const monitor::OperatorSample* hottest = nullptr;
    for (const auto& op : report.operators) {
      if (op.node_id != node.node_id) continue;
      if (hottest == nullptr || op.in_per_sec > hottest->in_per_sec) {
        hottest = &op;
      }
    }
    if (hottest == nullptr) continue;
    auto target = placer_.LeastLoadedNode(node.node_id);
    if (!target.ok() || *target == node.node_id) continue;
    // Find the deployment owning this operator.
    for (auto& [id, dep] : deployments_) {
      if (!dep->active || dep->dataflow.name() != hottest->dataflow) continue;
      if (dep->operators.count(hottest->op_name) == 0) continue;
      Status s = MigrateOperator(id, hottest->op_name, *target);
      if (!s.ok()) {
        SL_LOG(kWarning) << "auto-migration failed: " << s.ToString();
      }
      break;
    }
  }
}

void Executor::OnHeartbeat() {
  for (const auto& node_id : network_->NodeIds()) {
    if (network_->NodeIsUp(node_id)) {
      missed_heartbeats_.erase(node_id);
      // A restarted node becomes a placement candidate again; processes
      // recovered elsewhere stay where they are (no fail-back).
      dead_nodes_.erase(node_id);
      continue;
    }
    int missed = ++missed_heartbeats_[node_id];
    if (missed < kHeartbeatMisses || dead_nodes_.count(node_id) > 0) {
      continue;
    }
    dead_nodes_.insert(node_id);
    if (monitor_ != nullptr) {
      monitor_->Log(StrFormat("node '%s' declared dead after %d missed "
                              "heartbeats",
                              node_id.c_str(), missed));
    }
    for (auto& [id, dep] : deployments_) {
      if (!dep->active) continue;
      bool affected = false;
      for (const auto& [name, deployed] : dep->operators) {
        if (deployed.node_id == node_id) {
          affected = true;
          break;
        }
      }
      for (const auto& [name, deployed] : dep->sinks) {
        if (affected) break;
        if (deployed.node_id == node_id) affected = true;
      }
      if (!affected) continue;
      ++dep->stats.node_failures;
      RecoverDeployment(id, dep.get(), node_id);
    }
  }
}

void Executor::RecoverDeployment(DeploymentId id, Deployment* dep,
                                 const std::string& node_id) {
  Status s = RelocateProcesses(id, dep, node_id, /*recovery=*/true);
  if (!s.ok()) {
    SL_LOG(kWarning) << "recovery of '" << dep->dataflow.name() << "' off '"
                     << node_id << "' stopped: " << s.ToString();
    return;
  }
  if (monitor_ != nullptr) {
    monitor_->Log("recovered deployment '" + dep->dataflow.name() +
                  "' off dead node '" + node_id + "'");
  }
}

}  // namespace sl::exec
