// StreamLoader: the programmable-network simulator.
//
// Figure 1's bottom layer: a network of nodes, each managing a bunch of
// sensors and able to execute ETL stream-processing operations. The SCN
// controller (src/dsn) configures data flows over it; the executor
// (src/exec) places operator processes on nodes; the monitor reads its
// per-node and per-link statistics.
//
// Simulation model:
// - a message from node A to node B follows the minimum-latency path
//   (Dijkstra over link latencies, skipping down nodes/links) and
//   arrives after sum(link latency) + bytes / min(link bandwidth). The
//   path is computed on the first message from A to B and memoized
//   per (A, B) until the next topology or liveness change, which drops
//   every memoized route — so each message still sees the current
//   topology, as a deployed flow keeps its path until the network
//   changes;
// - per-link byte counters account every traversed link;
// - nodes have a processing capacity (work units per second) and a
//   work-in-window counter the monitor samples and resets;
// - contention is not modelled at the queueing level (messages do not
//   delay each other) — adequate for reproducing placement and
//   monitoring behaviour, see DESIGN.md.
//
// Fault model (DESIGN.md §"Fault model"): an installed FaultPlan can
// drop/duplicate/delay messages per link and crash/restart nodes or
// cut/heal links at scheduled virtual times. Reliable transfers add a
// per-flow ack/timeout/retransmit state machine with exponential
// backoff and a bounded retransmit budget. With no plan installed and
// reliable off, Transfer behaves exactly as the fair-weather seed.

#ifndef STREAMLOADER_NET_NETWORK_H_
#define STREAMLOADER_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/event_loop.h"
#include "net/fault.h"
#include "stt/geo.h"
#include "util/result.h"
#include "util/rng.h"

namespace sl::net {

/// \brief Static configuration of a node.
struct NodeConfig {
  std::string id;
  /// Work units (≈ tuples) the node can process per second.
  double capacity_per_sec = 10000.0;
  /// Geographic position of the node (for locality-aware placement).
  stt::GeoPoint location;
};

/// \brief Static configuration of a bidirectional link.
struct LinkConfig {
  std::string a;
  std::string b;
  Duration latency = 1;                  ///< one-way, ms
  double bandwidth_bytes_per_ms = 1e6;   ///< 1 GB/s default
};

/// \brief Runtime state of a node.
struct NodeState {
  NodeConfig config;
  /// Work units executed since the last monitoring-window reset.
  double work_in_window = 0;
  /// Work units executed since the node was added.
  double work_total = 0;
  /// Number of operator processes currently placed here.
  int process_count = 0;
  /// False while crashed (fault injection); down nodes neither send,
  /// receive nor forward messages.
  bool up = true;

  /// Utilization over a window of `window_ms`: work done divided by the
  /// capacity available in the window (may exceed 1 when overloaded).
  double Utilization(Duration window_ms) const {
    double available =
        config.capacity_per_sec * static_cast<double>(window_ms) / 1000.0;
    return available > 0 ? work_in_window / available : 0.0;
  }
};

/// \brief Runtime state of a link.
struct LinkState {
  LinkConfig config;
  uint64_t bytes_transferred = 0;
  uint64_t messages = 0;
  /// False while partitioned (fault injection); routing avoids down
  /// links, and cutting or healing one drops every memoized route.
  bool up = true;
  /// Messages the fault injector dropped on this link.
  uint64_t messages_dropped = 0;
  /// Per-link corruption profile (set by InstallFaultPlan).
  FaultProfile faults;
};

/// \brief Per-transfer delivery options.
struct TransferOptions {
  /// Reliable delivery: the receiver acks, the sender retransmits on
  /// timeout with exponential backoff until acked or the budget is
  /// spent. Duplicates (retransmits racing delayed acks, or link-level
  /// duplication) are delivered to `on_delivered` exactly once.
  bool reliable = false;
  /// Initial ack timeout; doubles per retransmit. Should comfortably
  /// exceed the flow's round-trip time or spurious (harmless, deduped)
  /// retransmits occur.
  Duration ack_timeout = 250;
  /// Retransmit budget; after this many retries an undelivered message
  /// is conclusively lost (`on_lost` fires).
  int max_retransmits = 4;
  /// Runs once when the message is conclusively lost: dropped without
  /// reliability, retransmit budget exhausted undelivered, or an
  /// endpoint crashed. Never runs after `on_delivered`.
  std::function<void()> on_lost;
  /// Runs per retransmission with the attempt number (1-based).
  std::function<void(int)> on_retransmit;
};

/// \brief The simulated network.
class Network {
 public:
  /// `loop` delivers messages; must outlive the network.
  explicit Network(EventLoop* loop) : loop_(loop) {}

  // -- topology -----------------------------------------------------------

  /// Adds a node; fails on duplicate id.
  Status AddNode(const NodeConfig& config);

  /// Adds a bidirectional link between two existing nodes.
  Status AddLink(const LinkConfig& config);

  /// Removes a node and all its links (P3: on-the-fly reconfiguration).
  Status RemoveNode(const std::string& id);

  /// Removes the link between `a` and `b` (either direction). Traffic
  /// re-routes on the next Transfer — every topology change drops the
  /// memoized routes, so no flows need re-provisioning.
  Status RemoveLink(const std::string& a, const std::string& b);

  bool HasNode(const std::string& id) const { return nodes_.count(id) > 0; }
  Result<const NodeState*> node(const std::string& id) const;
  std::vector<std::string> NodeIds() const;
  /// The first id of NodeIds() (empty when there are no nodes).
  const std::string& FirstNodeId() const;
  size_t num_nodes() const { return nodes_.size(); }
  const std::vector<LinkState>& links() const { return links_; }

  // -- fault injection ----------------------------------------------------

  /// \brief Installs a fault plan: seeds the fault RNG, applies the
  /// per-link profiles, and schedules the plan's crash/restart/cut/heal
  /// events on the event loop. The network must outlive those events.
  /// Replaces any previously installed plan's profiles (already
  /// scheduled events keep firing).
  Status InstallFaultPlan(const FaultPlan& plan);

  /// True once a plan is installed (fault rolls are active).
  bool fault_plan_installed() const { return faults_enabled_; }

  /// The most recently installed plan (a default-constructed zero plan
  /// until InstallFaultPlan runs). Lets callers that cannot honor
  /// faults — e.g. StreamLoader::RunThreaded — distinguish a harmless
  /// all-zero plan from one that would actually perturb delivery.
  const FaultPlan& installed_fault_plan() const { return installed_plan_; }

  /// Crashes (`up == false`) or restarts a node. While down it neither
  /// sends, receives nor forwards; in-flight messages to it are lost.
  Status SetNodeUp(const std::string& id, bool up);

  /// Cuts or heals the link between `a` and `b`; the next message
  /// re-routes, reliable transfers retry across the partition.
  Status SetLinkUp(const std::string& a, const std::string& b, bool up);

  /// True iff the node exists and is not crashed.
  bool NodeIsUp(const std::string& id) const;

  /// \brief Cumulative fault-injection and reliable-delivery counters.
  struct FaultStats {
    uint64_t messages_dropped = 0;    ///< data messages dropped on a link
    uint64_t messages_duplicated = 0; ///< link-level duplications
    uint64_t messages_delayed = 0;    ///< link-level extra delays
    uint64_t acks_sent = 0;           ///< acks emitted by receivers
    uint64_t acks_dropped = 0;        ///< acks lost to link faults
    uint64_t retransmits = 0;         ///< reliable retransmissions
    uint64_t messages_lost = 0;       ///< conclusively lost messages
    uint64_t node_crashes = 0;        ///< up -> down transitions
    uint64_t node_restarts = 0;       ///< down -> up transitions

    bool operator==(const FaultStats&) const = default;
  };
  const FaultStats& fault_stats() const { return fault_stats_; }

  // -- routing ------------------------------------------------------------

  /// Minimum-latency node path from `from` to `to` (inclusive of both).
  /// Fails when no path exists. Served from the route memo.
  Result<std::vector<std::string>> Route(const std::string& from,
                                         const std::string& to) const;

  /// One-way delivery delay for a message of `bytes` from `from` to `to`.
  Result<Duration> TransferDelay(const std::string& from,
                                 const std::string& to, size_t bytes) const;

  // -- data movement ------------------------------------------------------

  /// \brief Sends `bytes` from node `from` to node `to`; `on_delivered`
  /// runs on the event loop when the message arrives (at most once).
  /// Accounts bytes on every traversed link. Local delivery (from == to)
  /// is immediate (scheduled at now).
  ///
  /// With a fault plan installed or `options.reliable` set, delivery is
  /// asynchronous-only: a missing route (partition) or an injected drop
  /// is not a synchronous error — reliable transfers retransmit, and a
  /// conclusive loss fires `options.on_lost`.
  ///
  /// Event-time watermarks piggyback inside `on_delivered`: the executor
  /// captures the sender's low-watermark in the delivery closure, so
  /// watermark propagation costs zero extra messages and leaves the
  /// network's event schedule (and its fault RNG consumption) untouched.
  Status Transfer(const std::string& from, const std::string& to,
                  size_t bytes, std::function<void()> on_delivered,
                  TransferOptions options = {});

  // -- load accounting ----------------------------------------------------

  /// Records `work_units` of processing on a node (executor calls this
  /// for every batch an operator processes).
  Status ReportWork(const std::string& node_id, double work_units);

  /// Adjusts the process count on a node (placement / migration).
  Status AdjustProcessCount(const std::string& node_id, int delta);

  /// Zeroes every node's work-in-window counter (monitor tick).
  void ResetWindows();

  // -- statistics ---------------------------------------------------------

  uint64_t total_bytes_sent() const { return total_bytes_sent_; }
  uint64_t total_messages() const { return total_messages_; }

 private:
  /// State of one in-flight (possibly reliable) transfer.
  struct PendingTransfer {
    uint64_t id = 0;
    std::string from;
    std::string to;
    size_t bytes = 0;
    std::function<void()> on_delivered;
    TransferOptions options;
    bool delivered = false;  ///< on_delivered has run (receiver dedup)
    int attempt = 0;         ///< retransmissions so far
    EventLoop::TimerId retry_timer = 0;
    int outstanding_arrivals = 0;  ///< scheduled arrival events
  };

  /// Sends one attempt of a pending transfer: rolls per-link faults,
  /// accounts bytes, schedules arrival(s) and — for reliable transfers —
  /// arms the retransmit timer.
  void Attempt(uint64_t transfer_id);
  void OnDataArrival(uint64_t transfer_id);
  void OnAckArrival(uint64_t transfer_id);
  void OnRetryTimeout(uint64_t transfer_id);
  void SendAck(PendingTransfer* transfer);
  void ConcludeLost(uint64_t transfer_id);
  /// Erases the pending entry when nothing references it any more.
  void MaybeFinish(uint64_t transfer_id);

  /// \brief One memoized route: the minimum-latency path from one node
  /// to another under the current topology and liveness, with what every
  /// message on it needs. A failed lookup is memoized too.
  struct CachedRoute {
    Status status;                   ///< NotFound when there is no route
    std::vector<std::string> nodes;  ///< from .. to, inclusive
    std::vector<size_t> links;       ///< index into links_, one per hop
    Duration latency = 0;            ///< sum of the links' latencies
    double min_bandwidth = 0;        ///< over the links (unused if none)

    /// One-way delay of a message of `bytes` along the route.
    Duration Delay(size_t bytes) const;
  };

  /// The memoized route from `from` to `to`, computed by Dijkstra over
  /// link latencies (skipping down nodes and links) on first use. The
  /// reference stays valid until the next topology or liveness change.
  const CachedRoute& RouteOf(const std::string& from,
                             const std::string& to) const;
  /// Drops every memoized route; called by each topology or liveness
  /// mutation.
  void InvalidateRoutes() { routes_.clear(); }
  /// Rebuilds adj_ from links_ after a link removal renumbered them.
  void RebuildAdjacency();

  /// Accounts one attempt on the links of `route`; returns false and
  /// counts a drop when a link-fault roll eats the message. `extra_delay`
  /// and `duplicated` report delay/duplication rolls.
  bool TraverseLinks(const CachedRoute& route, size_t bytes,
                     Duration* extra_delay, bool* duplicated);

  EventLoop* loop_;
  std::map<std::string, NodeState> nodes_;
  std::vector<LinkState> links_;
  uint64_t total_bytes_sent_ = 0;
  uint64_t total_messages_ = 0;

  // Adjacency: node -> (neighbor, link index).
  std::map<std::string, std::vector<std::pair<std::string, size_t>>> adj_;
  // Route memo: from -> to -> route. Filled lazily by RouteOf.
  mutable std::unordered_map<std::string,
                             std::unordered_map<std::string, CachedRoute>>
      routes_;

  // Fault injection + reliable delivery.
  bool faults_enabled_ = false;
  FaultPlan installed_plan_;            ///< copy of the last installed plan
  FaultProfile default_fault_profile_;  ///< applied to links added later
  Rng fault_rng_;
  FaultStats fault_stats_;
  std::map<uint64_t, PendingTransfer> pending_;
  uint64_t next_transfer_id_ = 1;
};

/// \brief Populates `net` with a ring topology of `n` nodes named
/// "node_0".."node_{n-1}" (each linked to its successor, ring closed),
/// with uniform capacity and link parameters — the shape used by the
/// demo network. Convenience for examples and benches.
Status BuildRingTopology(Network* net, size_t n, double capacity_per_sec,
                         Duration latency, double bandwidth_bytes_per_ms);

}  // namespace sl::net

#endif  // STREAMLOADER_NET_NETWORK_H_
