#include "pubsub/broker.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/strings.h"

namespace sl::pubsub {

bool DiscoveryQuery::Matches(const SensorInfo& info) const {
  if (!type.empty() && info.type != type) return false;
  if (!theme.IsAny()) {
    if (info.schema == nullptr) return false;
    if (!theme.Subsumes(info.schema->theme())) return false;
  }
  if (area.has_value()) {
    if (!info.location.has_value()) return false;
    if (!area->Contains(*info.location)) return false;
  }
  if (max_period > 0 && info.period > max_period) return false;
  if (!node_id.empty() && info.node_id != node_id) return false;
  return true;
}

std::string DiscoveryQuery::ToString() const {
  std::string out = "discover[";
  std::vector<std::string> parts;
  if (!type.empty()) parts.push_back("type=" + type);
  if (!theme.IsAny()) parts.push_back("theme=" + theme.ToString());
  if (area.has_value()) parts.push_back("area=" + area->ToString());
  if (max_period > 0)
    parts.push_back("max_period=" + FormatDuration(max_period));
  if (!node_id.empty()) parts.push_back("node=" + node_id);
  out += Join(parts, ", ");
  out += "]";
  return out;
}

Status Broker::Publish(const SensorInfo& info) {
  SL_RETURN_IF_ERROR(ValidateSensorInfo(info));
  if (sensors_.count(info.id) > 0) {
    return Status::AlreadyExists("sensor '" + info.id +
                                 "' is already published");
  }
  Registered reg;
  reg.info = info;
  reg.watermark =
      &watermarks_.try_emplace(info.id, stt::kNoWatermark).first->second;
  for (QueryWatermark& qw : query_watermarks_) {
    if (qw.query.Matches(info)) qw.cells.push_back(reg.watermark);
  }
  sensors_.emplace(info.id, std::move(reg));
  SL_LOG(kInfo) << "published " << info.ToString();
  NotifyRegistry({SensorEvent::Kind::kPublished, info, clock_->Now()});
  return Status::OK();
}

Status Broker::Unpublish(const std::string& sensor_id) {
  auto it = sensors_.find(sensor_id);
  if (it == sensors_.end()) {
    return Status::NotFound("sensor '" + sensor_id + "' is not published");
  }
  SensorInfo info = std::move(it->second.info);
  for (QueryWatermark& qw : query_watermarks_) {
    std::erase(qw.cells, it->second.watermark);
  }
  sensors_.erase(it);  // drops the sensor's data subscriptions
  SL_LOG(kInfo) << "unpublished sensor " << sensor_id;
  NotifyRegistry({SensorEvent::Kind::kUnpublished, info, clock_->Now()});
  return Status::OK();
}

Result<SensorInfo> Broker::Find(const std::string& sensor_id) const {
  auto it = sensors_.find(sensor_id);
  if (it == sensors_.end()) {
    return Status::NotFound("sensor '" + sensor_id + "' is not published");
  }
  return it->second.info;
}

const SensorInfo* Broker::Lookup(const std::string& sensor_id) const {
  auto it = sensors_.find(sensor_id);
  return it == sensors_.end() ? nullptr : &it->second.info;
}

bool Broker::IsPublished(const std::string& sensor_id) const {
  return sensors_.count(sensor_id) > 0;
}

std::vector<SensorInfo> Broker::Discover(const DiscoveryQuery& query) const {
  std::vector<SensorInfo> out;
  for (const auto& [id, reg] : sensors_) {
    if (query.Matches(reg.info)) out.push_back(reg.info);
  }
  return out;
}

std::vector<SensorInfo> Broker::All() const {
  return Discover(DiscoveryQuery{});
}

std::map<std::string, std::vector<std::string>> Broker::GroupBy(
    GroupCriterion criterion) const {
  std::map<std::string, std::vector<std::string>> groups;
  for (const auto& [id, reg] : sensors_) {
    const SensorInfo& info = reg.info;
    std::string key;
    switch (criterion) {
      case GroupCriterion::kType:
        key = info.type;
        break;
      case GroupCriterion::kTheme:
        key = info.schema != nullptr ? info.schema->theme().ToString() : "*";
        break;
      case GroupCriterion::kNode:
        key = info.node_id.empty() ? "(unassigned)" : info.node_id;
        break;
      case GroupCriterion::kOwner:
        key = info.owner.empty() ? "(unknown)" : info.owner;
        break;
      case GroupCriterion::kPeriod:
        key = FormatDuration(info.period);
        break;
      case GroupCriterion::kSpatialCell:
        if (info.location.has_value()) {
          key = StrFormat("cell(%d,%d)",
                          static_cast<int>(std::floor(info.location->lat)),
                          static_cast<int>(std::floor(info.location->lon)));
        } else {
          key = "(no location)";
        }
        break;
    }
    groups[key].push_back(id);
  }
  return groups;
}

Broker::SubscriptionId Broker::SubscribeRegistry(RegistryCallback callback) {
  SubscriptionId id = next_subscription_id_++;
  registry_subs_.emplace(id, std::move(callback));
  return id;
}

Result<Broker::SubscriptionId> Broker::SubscribeData(
    const std::string& sensor_id, DataCallback callback) {
  auto it = sensors_.find(sensor_id);
  if (it == sensors_.end()) {
    return Status::NotFound("cannot subscribe: sensor '" + sensor_id +
                            "' is not published");
  }
  SubscriptionId id = next_subscription_id_++;
  // Copy-on-write: a fan-out in progress keeps iterating the old list.
  DataSubs& subs = it->second.data_subs;
  auto next = subs != nullptr ? std::make_shared<std::vector<DataSub>>(*subs)
                              : std::make_shared<std::vector<DataSub>>();
  next->push_back(
      {id, std::make_shared<const DataCallback>(std::move(callback))});
  subs = std::move(next);
  return id;
}

Broker::SubscriptionId Broker::SubscribeDataByQuery(DiscoveryQuery query,
                                                    DataCallback callback) {
  SubscriptionId id = next_subscription_id_++;
  query_subs_.push_back(
      {id, std::move(query),
       std::make_shared<const DataCallback>(std::move(callback))});
  ++query_generation_;
  return id;
}

void Broker::Unsubscribe(SubscriptionId id) {
  registry_subs_.erase(id);
  auto has_id = [id](const DataSub& s) { return s.id == id; };
  for (auto& [sensor, reg] : sensors_) {
    DataSubs& subs = reg.data_subs;
    if (subs == nullptr || std::none_of(subs->begin(), subs->end(), has_id)) {
      continue;
    }
    // Copy-on-write, as in SubscribeData.
    auto next = std::make_shared<std::vector<DataSub>>(*subs);
    std::erase_if(*next, has_id);
    subs = std::move(next);
  }
  if (std::erase_if(query_subs_,
                    [id](const QuerySub& s) { return s.id == id; }) > 0) {
    ++query_generation_;
  }
}

Status Broker::PublishTuple(const std::string& sensor_id,
                            stt::TupleRef tuple) {
  if (tuple == nullptr) return Status::InvalidArgument("null tuple");
  auto it = sensors_.find(sensor_id);
  if (it == sensors_.end()) {
    return Status::NotFound("tuple from unpublished sensor '" + sensor_id +
                            "'");
  }
  Registered& reg = it->second;
  const SensorInfo& info = reg.info;

  // Fault injection: a sensor managed by a crashed node cannot deliver.
  if (node_gate_ && !info.node_id.empty() && !node_gate_(info.node_id)) {
    ++tuples_suppressed_;
    return Status::OK();
  }

  // STT enrichment (§3): add the spatio-temporal information the sensor
  // cannot produce itself, then normalize event time to the stream's
  // temporal granularity.
  Timestamp ts = info.provides_timestamp ? tuple->timestamp() : clock_->Now();
  std::optional<stt::GeoPoint> loc =
      info.provides_location ? tuple->location() : info.location;
  if (!loc.has_value() && info.location.has_value()) loc = info.location;
  if (info.schema != nullptr) {
    ts = info.schema->temporal_granularity().Truncate(ts);
    if (loc.has_value() &&
        !info.schema->spatial_granularity().is_point()) {
      loc->lat = info.schema->spatial_granularity().SnapToCellCenter(loc->lat);
      loc->lon = info.schema->spatial_granularity().SnapToCellCenter(loc->lon);
    }
  }
  // Forward the incoming ref unchanged when enrichment would not alter the
  // header; otherwise mint one enriched tuple shared by all subscribers.
  const bool header_unchanged =
      ts == tuple->timestamp() &&
      loc.has_value() == tuple->location().has_value() &&
      (!loc.has_value() || (loc->lat == tuple->location()->lat &&
                            loc->lon == tuple->location()->lon));
  stt::TupleRef enriched =
      header_unchanged ? tuple : tuple->WithStt(tuple->schema(), ts, loc);
  ++tuples_ingested_;

  // Mint the sensor's low-watermark from the enriched event time: every
  // delivery below carries at most this promise, and sensors emit with
  // (mostly) monotone event times, so the max seen so far is the stream's
  // frontier.
  if (ts > *reg.watermark) *reg.watermark = ts;

  // Content-based routing: the query subscriptions this sensor matches,
  // including queries subscribed before the sensor joined. The list is
  // matched on the sensor's first tuple after any query (un)subscription
  // rather than per tuple — and not at subscription time, which would
  // bill every registered sensor to the subscriber's set-up.
  if (reg.query_generation != query_generation_) {
    std::vector<DataSub> matching;
    for (const QuerySub& sub : query_subs_) {
      if (sub.query.Matches(info)) matching.push_back({sub.id, sub.callback});
    }
    reg.query_subs =
        std::make_shared<const std::vector<DataSub>>(std::move(matching));
    reg.query_generation = query_generation_;
  }

  // Snapshot both subscriber lists before the first callback: a callback
  // may (un)subscribe or even unpublish this sensor re-entrantly, which
  // replaces the registry's lists but leaves these snapshots intact.
  // Data subscribers come first, then the matching queries.
  const DataSubs snapshots[] = {reg.data_subs, reg.query_subs};
  for (const DataSubs& subs : snapshots) {
    if (subs == nullptr) continue;
    for (const DataSub& sub : *subs) {
      (*sub.callback)(enriched);
      ++tuples_delivered_;
    }
  }
  return Status::OK();
}

Timestamp Broker::WatermarkOf(const std::string& sensor_id) const {
  auto it = watermarks_.find(sensor_id);
  return it == watermarks_.end() ? stt::kNoWatermark : it->second;
}

Timestamp Broker::WatermarkOf(const DiscoveryQuery& query) const {
  // An inverted or NaN area matches no sensor. Answering it up front also
  // keeps a NaN query, which never equals itself, out of the cache.
  if (query.area.has_value() && !query.area->IsValid()) {
    return stt::kNoWatermark;
  }
  auto it = std::find_if(
      query_watermarks_.begin(), query_watermarks_.end(),
      [&query](const QueryWatermark& qw) { return qw.query == query; });
  if (it == query_watermarks_.end()) {
    QueryWatermark qw{query, {}};
    for (const auto& [id, reg] : sensors_) {
      if (query.Matches(reg.info)) qw.cells.push_back(reg.watermark);
    }
    query_watermarks_.push_back(std::move(qw));
    it = std::prev(query_watermarks_.end());
  }
  if (it->cells.empty()) return stt::kNoWatermark;
  Timestamp low = std::numeric_limits<Timestamp>::max();
  for (const Timestamp* cell : it->cells) {
    if (*cell == stt::kNoWatermark) return stt::kNoWatermark;
    low = std::min(low, *cell);
  }
  return low;
}

void Broker::NotifyRegistry(const SensorEvent& event) {
  // Copy: a callback may subscribe/unsubscribe re-entrantly.
  auto subs = registry_subs_;
  for (const auto& [id, cb] : subs) cb(event);
}

}  // namespace sl::pubsub
