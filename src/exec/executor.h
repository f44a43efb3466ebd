// StreamLoader: the SCN controller + executor (Figure 1's "Translator /
// Executor / Monitor" plane over the programmable network).
//
// Deploy() takes a DSN description, reconstructs the operator graph,
// binds sources to the sensors published in the broker, generates one
// process per operation, places the processes on network nodes
// (Placer), and wires tuple movement through the simulated network with
// the QoS parameters of the DSN flows. Blocking operations get periodic
// Flush events; the monitor samples everything; overload triggers
// workload-driven re-assignment (migration) — "which node is in charge
// of executing an operation and when the assignment changes" (§3).

#ifndef STREAMLOADER_EXEC_EXECUTOR_H_
#define STREAMLOADER_EXEC_EXECUTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dataflow/graph.h"
#include "dataflow/render.h"
#include "dsn/spec.h"
#include "exec/placement.h"
#include "exec/scn_log.h"
#include "monitor/monitor.h"
#include "net/event_loop.h"
#include "net/network.h"
#include "ops/operator.h"
#include "pubsub/broker.h"
#include "sensors/simulator.h"
#include "sinks/factory.h"
#include "sinks/streams.h"

namespace sl::exec {

/// Identifies one deployed dataflow.
using DeploymentId = uint64_t;

/// \brief Executor configuration: the knobs callers vary. The rest are
/// constants: operators cache at most ops::kDefaultMaxCacheTuples tuples
/// per input, as in the threaded runtime; a reliable transfer keeps
/// net::TransferOptions' retransmit budget; and a node is declared dead
/// after two consecutive missed heartbeats.
struct ExecutorOptions {
  PlacementStrategy placement = PlacementStrategy::kLeastLoaded;
  /// Re-assign operators away from nodes above this utilization on each
  /// monitor tick (0 disables auto-rebalancing).
  double rebalance_threshold = 1.0;
  /// Reliable tuple delivery: transfers are acked and retransmitted on
  /// timeout (net::TransferOptions). Off by default — the fair-weather
  /// pipeline needs no acks and keeps the seed's exact event schedule.
  bool reliable_delivery = false;
  /// Initial ack timeout for reliable delivery (doubles per retry).
  Duration ack_timeout_ms = 250;
  /// Period of the crash-detection heartbeat; 0 (default) disables
  /// detection — and keeps the loop free of periodic timers for
  /// RunUntilIdle-driven callers.
  Duration heartbeat_ms = 0;
  /// \brief Event-time configuration handed to every operator
  /// (ops::WatermarkOptions). The default processing-time policy keeps
  /// the seed's exact behavior; TimePolicy::kEvent makes the blocking
  /// operators fire on the watermarks the executor piggybacks on tuple
  /// deliveries — delivery-order independent within allowed_lateness.
  /// LatePolicy::kSideOutput adds one CollectSink per deployment
  /// (LateSinkOf) receiving the diverted late tuples.
  ops::WatermarkOptions watermark;
};

/// \brief Observer of every tuple entering a source, invoked with the
/// source node name, the tuple, the virtual ingestion time and the
/// broker watermark piggybacked on the delivery.
using SourceTap = std::function<void(const std::string& source,
                                     const stt::TupleRef& tuple, Timestamp at,
                                     Timestamp watermark)>;

/// \brief Cumulative counters of one deployment.
struct DeploymentStats {
  uint64_t tuples_ingested = 0;   ///< tuples entering via sources
  uint64_t tuples_delivered = 0;  ///< tuples arriving at sinks
  uint64_t qos_violations = 0;    ///< transfers exceeding a flow's max_latency
  uint64_t process_errors = 0;    ///< operator/sink errors (logged, stream continues)
  uint64_t activations = 0;       ///< trigger activation requests executed
  uint64_t migrations = 0;        ///< operator re-assignments
  uint64_t retransmits = 0;       ///< reliable-delivery retransmissions
  uint64_t messages_lost = 0;     ///< tuple transfers conclusively lost
  uint64_t node_failures = 0;     ///< confirmed crashes of hosting nodes
  uint64_t recoveries = 0;        ///< processes re-placed after a crash

  bool operator==(const DeploymentStats&) const = default;

  /// One-line dump for failing-seed diagnostics.
  std::string ToString() const;
};

/// \brief The executor. Also the ActivationHandler for all deployed
/// triggers: activation requests are routed to the sensor fleet.
class Executor : public ops::ActivationHandler {
 public:
  Executor(net::EventLoop* loop, net::Network* network,
           pubsub::Broker* broker, monitor::Monitor* monitor,
           sinks::SinkContext sink_context, ExecutorOptions options = {});
  ~Executor() override;

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Routes trigger activations to this fleet (optional; without one,
  /// activations are only logged and counted).
  void set_fleet(sensors::SensorFleet* fleet) { fleet_ = fleet; }

  /// \brief Installs (or clears) the source tap, which observes every
  /// tuple entering a source of every deployment and has no effect on
  /// execution. This is how the sim-vs-threaded differential harness and
  /// a live StreamLoader session capture an exec::InputTrace from a
  /// simulated run for replay through the ThreadedRuntime
  /// (exec/threaded_runtime.h).
  void set_source_tap(SourceTap tap) { source_tap_ = std::move(tap); }

  /// \brief Deploys a DSN spec: lift to a dataflow, validate against
  /// the broker, place, wire, start flush timers, subscribe sources.
  Result<DeploymentId> Deploy(const dsn::DsnSpec& spec);

  /// Stops a deployment: cancels timers, unsubscribes sources,
  /// releases node processes. In-flight messages are dropped on arrival:
  /// delivery callbacks hold a weak reference to the deployment record,
  /// so they are safe no-ops after Undeploy — and remain so even when
  /// the Executor itself is destroyed with transfers still in flight.
  Status Undeploy(DeploymentId id);

  /// On-the-fly operator replacement (P3: "operators in the dataflow are
  /// modified on the fly"): swaps the spec of one operator in a running
  /// deployment; its cache is discarded, its placement kept. The new
  /// operator is built on the input schemas the deployment was built
  /// with, and must derive the same output schema. A refused
  /// replacement changes nothing.
  Status ReplaceOperator(DeploymentId id, const std::string& op_name,
                         const dataflow::OpSpec& new_spec);

  /// Node currently executing an operator or sink.
  Result<std::string> AssignedNode(DeploymentId id,
                                   const std::string& name) const;

  /// Migrates one operator to `target_node` (also used internally by
  /// auto-rebalancing). Simulates the state transfer of blocking caches.
  Status MigrateOperator(DeploymentId id, const std::string& op_name,
                         const std::string& target_node);

  /// \brief Elastic scale-out/in of a key-partitioned operator: sets its
  /// `parallelism` to `new_parallelism` (ops::Operator::Rescale, which
  /// moves no tuple and restarts the key-range counts) and adjusts the
  /// hosting node's process count by the difference. Only operators
  /// deployed with parallelism > 1 in their spec support this; the
  /// action is counted as a migration.
  Status RescaleOperator(DeploymentId id, const std::string& op_name,
                         size_t new_parallelism);

  /// \brief Drains a node for maintenance: migrates every operator and
  /// sink process of every active deployment off `node_id` (placement
  /// chooses the targets, excluding the drained node). Afterwards the
  /// node hosts no processes and can be removed from the network (P3:
  /// on-the-fly network reconfiguration). Sources of sensors managed by
  /// the node keep entering there — move or remove the sensors first if
  /// the node is going away entirely.
  Status DrainNode(const std::string& node_id);

  /// The deployed dataflow (for introspection / the live canvas).
  Result<const dataflow::Dataflow*> DeployedDataflow(DeploymentId id) const;

  Result<const DeploymentStats*> stats(DeploymentId id) const;

  /// Stats of one operator in a deployment.
  Result<ops::OperatorStats> OperatorStatsOf(DeploymentId id,
                                             const std::string& name) const;

  /// The sink object of a deployment (e.g. to read a CollectSink).
  Result<sinks::Sink*> SinkOf(DeploymentId id, const std::string& name) const;

  /// \brief The deployment's late-side sink (tuples diverted by
  /// LatePolicy::kSideOutput), or nullptr when the policy does not route
  /// late data. Late tuples are written locally by the operator's node —
  /// they took their network hop already; re-shipping them would distort
  /// the fault model.
  Result<sinks::CollectSink*> LateSinkOf(DeploymentId id) const;

  /// Ids of active deployments.
  std::vector<DeploymentId> ActiveDeployments() const;

  /// The SCN command log: every network-configuration action taken.
  const ScnLog& scn_log() const { return scn_log_; }

  /// \brief Live canvas annotations for a deployment: the node in charge
  /// of each operation plus the latest monitoring rates (when a monitor
  /// report exists). Feed to dataflow::RenderLiveCanvas.
  Result<std::map<std::string, dataflow::NodeAnnotation>> LiveAnnotations(
      DeploymentId id) const;

  // ActivationHandler:
  void ActivateSensors(const std::vector<std::string>& sensor_ids,
                       Timestamp at) override;
  void DeactivateSensors(const std::vector<std::string>& sensor_ids,
                         Timestamp at) override;

 private:
  struct Edge {
    std::string to;
    size_t port = 0;
    bool to_sink = false;
    dsn::QosParams qos;
  };
  struct DeployedOperator {
    std::unique_ptr<ops::Operator> op;
    std::string node_id;
    net::EventLoop::TimerId flush_timer = 0;
  };
  struct DeployedSink {
    std::unique_ptr<sinks::Sink> sink;
    std::string node_id;
  };
  struct Deployment {
    DeploymentId id = 0;
    bool active = false;
    dataflow::Dataflow dataflow;
    /// Counts the deployment's trigger activations before forwarding them
    /// to the executor. Operators point at it, so it outlives them.
    std::unique_ptr<ops::ActivationHandler> activation;
    std::map<std::string, DeployedOperator> operators;
    std::map<std::string, DeployedSink> sinks;
    std::map<std::string, std::string> source_nodes;
    /// Out-edges by producer. Fixed once Deploy returns: delivery
    /// callbacks in flight point into these vectors.
    std::map<std::string, std::vector<Edge>> edges;
    /// Every node's output schema, as validated at deployment: what a
    /// replacement operator is built on.
    std::map<std::string, stt::SchemaPtr> schemas;
    std::vector<pubsub::Broker::SubscriptionId> subscriptions;
    /// Late-side sink (LatePolicy::kSideOutput only, else nullptr).
    std::unique_ptr<sinks::CollectSink> late_sink;
    DeploymentStats stats;
    /// Weak self-reference handed to event-loop callbacks: a callback
    /// firing after the deployment (or the whole executor) is gone
    /// locks nothing and returns, instead of dereferencing freed state.
    std::weak_ptr<Deployment> self;
  };

  /// Fans a tuple emitted by `producer` (on `producer_node`) out along
  /// its edges through the network. `watermark` is the producer stream's
  /// event-time promise at send time; it rides along with the tuple
  /// (piggybacked, no extra network traffic) and is folded into the
  /// receiving operator's input frontier on delivery.
  void Route(Deployment* deployment, const std::string& producer,
             const std::string& producer_node, const stt::TupleRef& tuple,
             Timestamp watermark);

  /// The options every operator of `dep` is built with.
  ops::OperatorOptions OperatorOptionsOf(Deployment* dep) const;

  /// Deploy's steps 3-5: binds sources, places and installs the
  /// operators of `built` and the sinks, wires the edges and subscribes
  /// the sources.
  Status StartDeployment(Deployment* dep, const dsn::DsnSpec& spec,
                         ops::BuiltDataflow* built);

  /// Stops `dep`: drops its subscriptions, cancels its flush timers and
  /// returns its nodes' process counts. Undeploy and a failed Deploy
  /// both release through here.
  void ReleaseDeployment(Deployment* dep);

  /// \brief Installs operator `name` of `dep`: routes its emissions and
  /// late-side output, and arms a blocking operator's periodic flush
  /// `first_flush` (ops::FirstFlushOffset) from now. Deploy and
  /// ReplaceOperator both install operators through here; the caller
  /// stores the result in dep->operators.
  DeployedOperator InstallOperator(Deployment* dep, const std::string& name,
                                   std::unique_ptr<ops::Operator> op,
                                   Duration first_flush);

  /// Network node where a sensor's tuples enter (query-bound sources).
  const std::string& ResolveOrigin(const std::string& sensor_id) const;

  /// Delivers a tuple (and its piggybacked watermark) at its destination
  /// operator/sink.
  void Deliver(Deployment* deployment, const Edge& edge,
               const stt::TupleRef& tuple, Timestamp watermark);

  /// Operator samples for the monitor (resets window counters).
  std::vector<monitor::OperatorSample> SampleOperators(Duration window);

  /// Auto-rebalance hook run on each monitor tick.
  void OnMonitorTick(const monitor::MonitorReport& report);

  /// Heartbeat tick: polls node liveness, declares a node dead after
  /// two consecutive down-polls, then recovers its processes (P4-style
  /// fault handling).
  void OnHeartbeat();

  /// Re-places every operator/sink process of `dep` stranded on the dead
  /// `node_id` onto surviving nodes; counts recoveries.
  void RecoverDeployment(DeploymentId id, Deployment* dep,
                         const std::string& node_id);

  /// \brief The one relocation path of DrainNode and RecoverDeployment:
  /// moves every operator (through MigrateOperator) and sink process of
  /// `dep` off `node_id` to nodes placement chooses. A `recovery` counts
  /// each moved process in stats.recoveries and notes "(crash recovery)"
  /// on the SCN records of moved sinks. Stops at the first failure.
  Status RelocateProcesses(DeploymentId id, Deployment* dep,
                           const std::string& node_id, bool recovery);

  net::EventLoop* loop_;
  net::Network* network_;
  pubsub::Broker* broker_;
  monitor::Monitor* monitor_;
  sinks::SinkContext sink_context_;
  ExecutorOptions options_;
  SourceTap source_tap_;
  Placer placer_;
  sensors::SensorFleet* fleet_ = nullptr;
  DeploymentId next_id_ = 1;
  /// shared_ptr (not unique_ptr): transfer callbacks in flight on the
  /// event loop hold weak references; see Deployment::self.
  std::map<DeploymentId, std::shared_ptr<Deployment>> deployments_;
  /// Crash detection (heartbeat_ms > 0): consecutive missed beats per
  /// node, and nodes already declared dead (so a crash recovers once).
  net::EventLoop::TimerId heartbeat_timer_ = 0;
  std::map<std::string, int> missed_heartbeats_;
  std::set<std::string> dead_nodes_;
  ScnLog scn_log_;
};

}  // namespace sl::exec

#endif  // STREAMLOADER_EXEC_EXECUTOR_H_
