// StreamLoader: the publish/subscribe sensor layer.
//
// Sensors are "handled by means of a publish-subscribe system in order to
// handle the dynamicity with which they can join and leave the network"
// (§2). The Broker keeps the registry of currently published sensors,
// answers discovery queries, notifies registry subscribers of join/leave
// events, fans tuples out to data subscribers, and enriches tuples with
// spatio-temporal information when the producing sensor cannot supply it
// (§3).
//
// The paper's broker is a *distributed* event-routing system [3]; here a
// single Broker instance serves the network simulator, with per-node
// attribution preserved through SensorInfo::node_id (see DESIGN.md §2 on
// substitutions).

#ifndef STREAMLOADER_PUBSUB_BROKER_H_
#define STREAMLOADER_PUBSUB_BROKER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pubsub/sensor_info.h"
#include "stt/theme.h"
#include "stt/tuple.h"
#include "stt/watermark.h"
#include "util/clock.h"

namespace sl::pubsub {

/// Registry change notification.
struct SensorEvent {
  enum class Kind { kPublished, kUnpublished };
  Kind kind;
  SensorInfo info;
  Timestamp at = 0;
};

/// \brief Discovery predicate: all set criteria must match
/// ("sources ... specified by means of the sensor and location
/// characteristics", §2).
struct DiscoveryQuery {
  /// Exact sensor type; empty matches any.
  std::string type;
  /// Thematic filter by subsumption; the default any-theme matches all.
  stt::Theme theme;
  /// Spatial filter: the sensor's installation point must fall in the
  /// area. Sensors without a fixed location never match an area query.
  std::optional<stt::BBox> area;
  /// Maximum data-generation period (i.e. minimum frequency); 0 = any.
  Duration max_period = 0;
  /// Restrict to sensors managed by this node; empty = any.
  std::string node_id;

  bool Matches(const SensorInfo& info) const;
  std::string ToString() const;

  bool operator==(const DiscoveryQuery&) const = default;
};

/// Criteria for organizing sensors in the design environment
/// ("organized according to different criteria (temporal/spatial,
/// type/location)", §2).
enum class GroupCriterion {
  kType,
  kTheme,
  kNode,
  kOwner,
  kPeriod,       ///< by published generation period
  kSpatialCell,  ///< by 1-degree grid cell of the installation point
};

/// \brief The sensor registry + event router.
class Broker {
 public:
  using SubscriptionId = uint64_t;
  using RegistryCallback = std::function<void(const SensorEvent&)>;
  using DataCallback = std::function<void(const stt::TupleRef&)>;

  /// `clock` supplies arrival timestamps for enrichment; must outlive the
  /// broker.
  explicit Broker(const VirtualClock* clock) : clock_(clock) {}

  // Registrations and query caches point into the broker's own maps.
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  // -- control plane ------------------------------------------------------

  /// Publishes a sensor (it joins the network). Fails on invalid
  /// metadata or duplicate id.
  Status Publish(const SensorInfo& info);

  /// Unpublishes a sensor (it leaves). Data subscriptions to it are
  /// dropped; registry subscribers are notified.
  Status Unpublish(const std::string& sensor_id);

  /// Metadata of a published sensor.
  Result<SensorInfo> Find(const std::string& sensor_id) const;

  /// Like Find without the copy: the published sensor's metadata, or
  /// nullptr. Valid until the sensor is unpublished.
  const SensorInfo* Lookup(const std::string& sensor_id) const;

  /// True iff the sensor is currently published.
  bool IsPublished(const std::string& sensor_id) const;

  /// All sensors matching the query, ordered by id.
  std::vector<SensorInfo> Discover(const DiscoveryQuery& query) const;

  /// All published sensors, ordered by id.
  std::vector<SensorInfo> All() const;

  /// Number of published sensors.
  size_t size() const { return sensors_.size(); }

  /// Groups published sensor ids by the given criterion; the map key is
  /// the group label shown in the design environment.
  std::map<std::string, std::vector<std::string>> GroupBy(
      GroupCriterion criterion) const;

  /// Subscribes to registry changes (join/leave).
  SubscriptionId SubscribeRegistry(RegistryCallback callback);

  // -- data plane ---------------------------------------------------------

  /// Subscribes to the tuples of one sensor. Fails when the sensor is
  /// not published.
  Result<SubscriptionId> SubscribeData(const std::string& sensor_id,
                                       DataCallback callback);

  /// \brief Subscribes to the tuples of *every* sensor matching `query`
  /// — including sensors that join later (the essence of content-based
  /// publish/subscribe routing [3]). Sensors leaving simply stop
  /// producing; the subscription persists.
  SubscriptionId SubscribeDataByQuery(DiscoveryQuery query,
                                      DataCallback callback);

  /// Cancels a registry or data subscription (idempotent).
  void Unsubscribe(SubscriptionId id);

  /// \brief Ingest one tuple from a sensor and fan it out to that
  /// sensor's data subscribers, enriching the STT header first:
  /// - sensors with provides_timestamp == false get the broker clock's
  ///   current time;
  /// - sensors with provides_location == false get the sensor's
  ///   installation point;
  /// - the event time is truncated to the schema's temporal granularity.
  /// Fails when the sensor is not published. Every subscriber receives the
  /// same shared (enriched) tuple; when enrichment is a no-op the incoming
  /// ref is forwarded unchanged. The fan-out reaches exactly the
  /// subscriptions present when it starts — the sensor's data
  /// subscribers, then the query subscriptions it matches, each in
  /// subscription order — so callbacks may (un)subscribe re-entrantly.
  Status PublishTuple(const std::string& sensor_id, stt::TupleRef tuple);

  /// Convenience for producers still holding a tuple by value.
  Status PublishTuple(const std::string& sensor_id, stt::Tuple tuple) {
    return PublishTuple(sensor_id, stt::Tuple::Share(std::move(tuple)));
  }

  /// \brief Optional node-liveness gate (fault injection): when set,
  /// tuples from a sensor pinned to a node for which the gate returns
  /// false are silently suppressed — a crashed node's sensors stop
  /// feeding flows until the node restarts. Typically wired to
  /// net::Network::NodeIsUp. Sensors without a node binding are never
  /// gated. Pass nullptr to remove the gate.
  using NodeGate = std::function<bool(const std::string& node_id)>;
  void set_node_gate(NodeGate gate) { node_gate_ = std::move(gate); }

  // -- event time ---------------------------------------------------------

  /// \brief Low-watermark of one sensor's stream: the highest enriched
  /// (granularity-truncated) event time the broker has fanned out for it.
  /// The broker is the enrichment point (§3), so it is the one place
  /// that sees every tuple of a sensor before any delivery — making this
  /// the natural watermark mint. stt::kNoWatermark until the sensor has
  /// produced. Suppressed tuples (node gate) do not advance it.
  Timestamp WatermarkOf(const std::string& sensor_id) const;

  /// \brief Low-watermark of a query subscription's merged stream: the
  /// minimum over all currently published sensors matching `query`.
  /// stt::kNoWatermark when no sensor matches or any matching sensor has
  /// not produced yet — a merged stream can promise no more than its
  /// slowest member. The matching sensors' watermark cells are collected
  /// on the first call for a query and kept current by Publish/Unpublish,
  /// so later calls cost O(matching sensors).
  Timestamp WatermarkOf(const DiscoveryQuery& query) const;

  // -- statistics ---------------------------------------------------------

  /// Tuples ingested via PublishTuple since construction.
  uint64_t tuples_ingested() const { return tuples_ingested_; }
  /// Tuple deliveries to data subscribers (one per subscriber per tuple).
  uint64_t tuples_delivered() const { return tuples_delivered_; }
  /// Tuples suppressed by the node-liveness gate (crashed-node sensors).
  uint64_t tuples_suppressed() const { return tuples_suppressed_; }

 private:
  struct DataSub {
    SubscriptionId id;
    /// Shared by every sensor a query subscription reaches.
    std::shared_ptr<const DataCallback> callback;
  };
  /// Copy-on-write subscriber list: a fan-out iterates the snapshot it
  /// started with, and a (un)subscription installs a changed copy
  /// instead of editing the list in place.
  using DataSubs = std::shared_ptr<const std::vector<DataSub>>;

  struct QuerySub {
    SubscriptionId id;
    DiscoveryQuery query;
    std::shared_ptr<const DataCallback> callback;
  };

  /// One published sensor: its advertisement, its watermark cell and
  /// the subscriptions its tuples fan out to.
  struct Registered {
    SensorInfo info;
    /// Entry of watermarks_ (which outlives the registration).
    Timestamp* watermark = nullptr;
    DataSubs data_subs;  ///< SubscribeData on this sensor
    /// The query subscriptions matching `info`, as of query_generation_
    /// == `query_generation`; PublishTuple refreshes a stale list.
    DataSubs query_subs;
    uint64_t query_generation = 0;
  };

  /// Merged-watermark cache of one query: the watermark cells of the
  /// published sensors matching it.
  struct QueryWatermark {
    DiscoveryQuery query;
    std::vector<const Timestamp*> cells;
  };

  const VirtualClock* clock_;
  std::map<std::string, Registered> sensors_;
  /// Per-sensor low-watermarks by sensor id; entries survive Unpublish.
  std::map<std::string, Timestamp> watermarks_;
  std::vector<QuerySub> query_subs_;
  /// Bumped by every change to query_subs_. Starts at 1 so that a new
  /// registration (generation 0) is stale.
  uint64_t query_generation_ = 1;
  mutable std::vector<QueryWatermark> query_watermarks_;
  std::map<SubscriptionId, RegistryCallback> registry_subs_;
  SubscriptionId next_subscription_id_ = 1;
  uint64_t tuples_ingested_ = 0;
  uint64_t tuples_delivered_ = 0;
  uint64_t tuples_suppressed_ = 0;
  NodeGate node_gate_;

  void NotifyRegistry(const SensorEvent& event);
};

}  // namespace sl::pubsub

#endif  // STREAMLOADER_PUBSUB_BROKER_H_
