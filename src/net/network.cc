#include "net/network.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/strings.h"

namespace sl::net {

namespace {

/// Bytes an ack occupies on the reverse path.
constexpr size_t kAckBytes = 16;

}  // namespace

Status Network::AddNode(const NodeConfig& config) {
  if (!IsIdentifier(config.id)) {
    return Status::InvalidArgument("node id '" + config.id +
                                   "' is not a valid identifier");
  }
  if (nodes_.count(config.id) > 0) {
    return Status::AlreadyExists("node '" + config.id + "' already exists");
  }
  if (config.capacity_per_sec <= 0) {
    return Status::InvalidArgument(
        StrFormat("node '%s' has non-positive capacity %g", config.id.c_str(),
                  config.capacity_per_sec));
  }
  NodeState state;
  state.config = config;
  nodes_.emplace(config.id, std::move(state));
  adj_.emplace(config.id, std::vector<std::pair<std::string, size_t>>{});
  InvalidateRoutes();
  return Status::OK();
}

Status Network::AddLink(const LinkConfig& config) {
  if (nodes_.count(config.a) == 0) {
    return Status::NotFound("link endpoint '" + config.a + "' does not exist");
  }
  if (nodes_.count(config.b) == 0) {
    return Status::NotFound("link endpoint '" + config.b + "' does not exist");
  }
  if (config.a == config.b) {
    return Status::InvalidArgument("self-link on node '" + config.a + "'");
  }
  if (config.latency < 0 || config.bandwidth_bytes_per_ms <= 0) {
    return Status::InvalidArgument(
        StrFormat("link %s-%s has invalid latency/bandwidth", config.a.c_str(),
                  config.b.c_str()));
  }
  for (const auto& [nbr, idx] : adj_[config.a]) {
    if (nbr == config.b) {
      return Status::AlreadyExists(
          StrFormat("link %s-%s already exists", config.a.c_str(),
                    config.b.c_str()));
    }
  }
  size_t idx = links_.size();
  LinkState state;
  state.config = config;
  state.faults = default_fault_profile_;
  links_.push_back(std::move(state));
  adj_[config.a].emplace_back(config.b, idx);
  adj_[config.b].emplace_back(config.a, idx);
  InvalidateRoutes();
  return Status::OK();
}

Status Network::RemoveNode(const std::string& id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    return Status::NotFound("node '" + id + "' does not exist");
  }
  if (it->second.process_count > 0) {
    return Status::FailedPrecondition(
        StrFormat("node '%s' still hosts %d processes", id.c_str(),
                  it->second.process_count));
  }
  nodes_.erase(it);
  adj_.erase(id);
  // Drop links touching the node. Link indices change, so rebuild the
  // adjacency structure.
  std::vector<LinkState> kept;
  for (auto& link : links_) {
    if (link.config.a != id && link.config.b != id) {
      kept.push_back(std::move(link));
    }
  }
  links_ = std::move(kept);
  RebuildAdjacency();
  return Status::OK();
}

Status Network::RemoveLink(const std::string& a, const std::string& b) {
  bool found = false;
  std::vector<LinkState> kept;
  for (auto& link : links_) {
    bool match = (link.config.a == a && link.config.b == b) ||
                 (link.config.a == b && link.config.b == a);
    if (match) {
      found = true;
    } else {
      kept.push_back(std::move(link));
    }
  }
  if (!found) {
    return Status::NotFound(
        StrFormat("no link between '%s' and '%s'", a.c_str(), b.c_str()));
  }
  links_ = std::move(kept);
  RebuildAdjacency();
  return Status::OK();
}

void Network::RebuildAdjacency() {
  for (auto& [node, neighbors] : adj_) neighbors.clear();
  for (size_t i = 0; i < links_.size(); ++i) {
    adj_[links_[i].config.a].emplace_back(links_[i].config.b, i);
    adj_[links_[i].config.b].emplace_back(links_[i].config.a, i);
  }
  InvalidateRoutes();
}

Result<const NodeState*> Network::node(const std::string& id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    return Status::NotFound("node '" + id + "' does not exist");
  }
  return &it->second;
}

std::vector<std::string> Network::NodeIds() const {
  std::vector<std::string> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, state] : nodes_) ids.push_back(id);
  return ids;
}

const std::string& Network::FirstNodeId() const {
  static const std::string kNone;
  return nodes_.empty() ? kNone : nodes_.begin()->first;
}

Result<std::vector<std::string>> Network::Route(const std::string& from,
                                                const std::string& to) const {
  const CachedRoute& route = RouteOf(from, to);
  if (!route.status.ok()) return route.status;
  return route.nodes;
}

const Network::CachedRoute& Network::RouteOf(const std::string& from,
                                             const std::string& to) const {
  auto& row = routes_[from];
  auto memo_it = row.find(to);
  if (memo_it != row.end()) return memo_it->second;
  CachedRoute& route = row[to];

  auto from_it = nodes_.find(from);
  auto to_it = nodes_.find(to);
  if (from_it == nodes_.end()) {
    route.status =
        Status::NotFound("route source '" + from + "' does not exist");
  } else if (to_it == nodes_.end()) {
    route.status =
        Status::NotFound("route target '" + to + "' does not exist");
  } else if (!from_it->second.up) {
    route.status = Status::NotFound("route source '" + from + "' is down");
  } else if (!to_it->second.up) {
    route.status = Status::NotFound("route target '" + to + "' is down");
  }
  if (!route.status.ok()) return route;
  if (from == to) {
    route.nodes = {from};
    return route;
  }

  // Dijkstra over link latencies, skipping down links and nodes.
  std::map<std::string, Duration> dist;
  std::map<std::string, std::string> prev;
  using QItem = std::pair<Duration, std::string>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
  dist[from] = 0;
  pq.emplace(0, from);
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    if (u == to) break;
    auto adj_it = adj_.find(u);
    if (adj_it == adj_.end()) continue;
    for (const auto& [v, link_idx] : adj_it->second) {
      if (!links_[link_idx].up || !nodes_.at(v).up) continue;
      Duration nd = d + links_[link_idx].config.latency;
      auto dit = dist.find(v);
      if (dit == dist.end() || nd < dit->second) {
        dist[v] = nd;
        prev[v] = u;
        pq.emplace(nd, v);
      }
    }
  }
  if (dist.count(to) == 0) {
    route.status = Status::NotFound(
        StrFormat("no path from '%s' to '%s'", from.c_str(), to.c_str()));
    return route;
  }
  for (std::string cur = to; ; cur = prev[cur]) {
    route.nodes.push_back(cur);
    if (cur == from) break;
  }
  std::reverse(route.nodes.begin(), route.nodes.end());

  // Resolve each hop to its link once, for every message on the route.
  route.min_bandwidth = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i + 1 < route.nodes.size(); ++i) {
    for (const auto& [nbr, idx] : adj_.at(route.nodes[i])) {
      if (nbr == route.nodes[i + 1]) {
        route.links.push_back(idx);
        route.latency += links_[idx].config.latency;
        route.min_bandwidth = std::min(
            route.min_bandwidth, links_[idx].config.bandwidth_bytes_per_ms);
        break;
      }
    }
  }
  return route;
}

Duration Network::CachedRoute::Delay(size_t bytes) const {
  if (links.empty()) return 0;
  return latency +
         static_cast<Duration>(static_cast<double>(bytes) / min_bandwidth);
}

Result<Duration> Network::TransferDelay(const std::string& from,
                                        const std::string& to,
                                        size_t bytes) const {
  if (from == to) return Duration{0};
  const CachedRoute& route = RouteOf(from, to);
  if (!route.status.ok()) return route.status;
  return route.Delay(bytes);
}

Status Network::Transfer(const std::string& from, const std::string& to,
                         size_t bytes, std::function<void()> on_delivered,
                         TransferOptions options) {
  if (!faults_enabled_ && !options.reliable) {
    // Fair-weather fast path: identical behaviour (and event ordering) to
    // the pre-fault-injection network.
    if (from == to) {
      if (nodes_.count(from) == 0) {
        return Status::NotFound("node '" + from + "' does not exist");
      }
      loop_->ScheduleAfter(0, std::move(on_delivered));
      return Status::OK();
    }
    const CachedRoute& route = RouteOf(from, to);
    if (!route.status.ok()) return route.status;
    // Account bytes on every traversed link.
    for (size_t idx : route.links) {
      links_[idx].bytes_transferred += bytes;
      links_[idx].messages += 1;
    }
    total_bytes_sent_ += bytes;
    total_messages_ += 1;
    loop_->ScheduleAfter(route.Delay(bytes), std::move(on_delivered));
    return Status::OK();
  }

  if (nodes_.count(from) == 0) {
    return Status::NotFound("node '" + from + "' does not exist");
  }
  if (nodes_.count(to) == 0) {
    return Status::NotFound("node '" + to + "' does not exist");
  }
  uint64_t id = next_transfer_id_++;
  PendingTransfer p;
  p.id = id;
  p.from = from;
  p.to = to;
  p.bytes = bytes;
  p.on_delivered = std::move(on_delivered);
  p.options = std::move(options);
  pending_.emplace(id, std::move(p));
  Attempt(id);
  return Status::OK();
}

void Network::Attempt(uint64_t transfer_id) {
  auto it = pending_.find(transfer_id);
  if (it == pending_.end()) return;
  PendingTransfer& p = it->second;

  auto from_it = nodes_.find(p.from);
  if (from_it == nodes_.end() || !from_it->second.up) {
    // A crashed sender cannot send or retransmit.
    ConcludeLost(transfer_id);
    return;
  }

  const CachedRoute& route = RouteOf(p.from, p.to);
  if (route.status.ok()) {
    Duration extra = 0;
    bool duplicated = false;
    bool survived = TraverseLinks(route, p.bytes, &extra, &duplicated);
    total_bytes_sent_ += p.bytes;
    total_messages_ += 1;
    if (survived) {
      Duration delay = route.Delay(p.bytes) + extra;
      ++p.outstanding_arrivals;
      loop_->ScheduleAfter(delay,
                           [this, transfer_id] { OnDataArrival(transfer_id); });
      if (duplicated) {
        ++p.outstanding_arrivals;
        loop_->ScheduleAfter(
            delay, [this, transfer_id] { OnDataArrival(transfer_id); });
      }
    } else {
      ++fault_stats_.messages_dropped;
      if (!p.options.reliable) {
        ConcludeLost(transfer_id);
        return;
      }
    }
  } else {
    // No path: receiver down or partitioned away. Unreliable messages are
    // lost outright; reliable ones wait for the retry timer — a healed
    // link or restarted node drops the memoized failure, so the next
    // attempt re-routes and rescues the flow.
    if (!p.options.reliable) {
      ConcludeLost(transfer_id);
      return;
    }
  }

  if (p.options.reliable && !p.delivered) {
    Duration timeout = p.options.ack_timeout
                       << std::min(p.attempt, 20);  // exponential backoff
    p.retry_timer = loop_->ScheduleAfter(
        timeout, [this, transfer_id] { OnRetryTimeout(transfer_id); });
  }
}

void Network::OnDataArrival(uint64_t transfer_id) {
  auto it = pending_.find(transfer_id);
  if (it == pending_.end()) return;  // already concluded
  PendingTransfer& p = it->second;
  if (p.outstanding_arrivals > 0) --p.outstanding_arrivals;

  auto to_it = nodes_.find(p.to);
  if (to_it == nodes_.end() || !to_it->second.up) {
    // Crashed receiver eats the message on arrival.
    if (p.options.reliable) {
      MaybeFinish(transfer_id);  // retry timer decides the fate
    } else {
      ConcludeLost(transfer_id);
    }
    return;
  }

  bool first = !p.delivered;
  p.delivered = true;
  // Ack every copy, not just the first: a retransmit implies the previous
  // ack never made it back.
  if (p.options.reliable) SendAck(&p);
  if (first && p.on_delivered) {
    auto cb = std::move(p.on_delivered);
    p.on_delivered = nullptr;
    cb();  // may reenter Transfer; map nodes are stable under insertion
  }
  MaybeFinish(transfer_id);
}

void Network::OnAckArrival(uint64_t transfer_id) {
  auto it = pending_.find(transfer_id);
  if (it == pending_.end()) return;  // duplicate ack; already finished
  PendingTransfer& p = it->second;
  auto from_it = nodes_.find(p.from);
  if (from_it == nodes_.end() || !from_it->second.up) {
    // The sender crashed before the ack landed; leave the entry for the
    // retry timer (which concludes the loss when it fires).
    return;
  }
  if (p.retry_timer != 0) {
    loop_->Cancel(p.retry_timer);
    p.retry_timer = 0;
  }
  pending_.erase(it);
}

void Network::OnRetryTimeout(uint64_t transfer_id) {
  auto it = pending_.find(transfer_id);
  if (it == pending_.end()) return;
  PendingTransfer& p = it->second;
  p.retry_timer = 0;
  if (p.attempt >= p.options.max_retransmits) {
    ConcludeLost(transfer_id);
    return;
  }
  ++p.attempt;
  ++fault_stats_.retransmits;
  if (p.options.on_retransmit) p.options.on_retransmit(p.attempt);
  Attempt(transfer_id);
}

void Network::SendAck(PendingTransfer* transfer) {
  ++fault_stats_.acks_sent;
  const CachedRoute& route = RouteOf(transfer->to, transfer->from);
  if (!route.status.ok()) {
    ++fault_stats_.acks_dropped;
    return;
  }
  Duration extra = 0;
  bool duplicated = false;
  if (!TraverseLinks(route, kAckBytes, &extra, &duplicated)) {
    ++fault_stats_.acks_dropped;
    return;
  }
  total_bytes_sent_ += kAckBytes;
  total_messages_ += 1;
  uint64_t id = transfer->id;
  Duration delay = route.Delay(kAckBytes) + extra;
  loop_->ScheduleAfter(delay, [this, id] { OnAckArrival(id); });
  if (duplicated) {
    loop_->ScheduleAfter(delay, [this, id] { OnAckArrival(id); });
  }
}

void Network::ConcludeLost(uint64_t transfer_id) {
  auto it = pending_.find(transfer_id);
  if (it == pending_.end()) return;
  PendingTransfer& p = it->second;
  if (p.retry_timer != 0) {
    loop_->Cancel(p.retry_timer);
    p.retry_timer = 0;
  }
  if (p.delivered) {
    // Delivered but never acked within budget: not a loss, just done.
    pending_.erase(it);
    return;
  }
  ++fault_stats_.messages_lost;
  auto on_lost = std::move(p.options.on_lost);
  pending_.erase(it);
  if (on_lost) on_lost();
}

void Network::MaybeFinish(uint64_t transfer_id) {
  auto it = pending_.find(transfer_id);
  if (it == pending_.end()) return;
  PendingTransfer& p = it->second;
  // Unreliable transfers are done once delivered and no duplicate copy is
  // still in flight. Reliable ones finish in OnAckArrival/ConcludeLost.
  if (!p.options.reliable && p.delivered && p.outstanding_arrivals == 0) {
    pending_.erase(it);
  }
}

bool Network::TraverseLinks(const CachedRoute& route, size_t bytes,
                            Duration* extra_delay, bool* duplicated) {
  *extra_delay = 0;
  *duplicated = false;
  for (size_t idx : route.links) {
    LinkState& link = links_[idx];
    link.bytes_transferred += bytes;
    link.messages += 1;
    // Zero-probability rolls consume no randomness, so a zero-fault plan
    // leaves the RNG stream untouched (byte-identical-baseline property).
    const FaultProfile& f = link.faults;
    if (f.drop_probability > 0 && fault_rng_.NextBool(f.drop_probability)) {
      link.messages_dropped += 1;
      return false;
    }
    if (f.duplicate_probability > 0 &&
        fault_rng_.NextBool(f.duplicate_probability)) {
      ++fault_stats_.messages_duplicated;
      *duplicated = true;
    }
    if (f.delay_probability > 0 && f.max_extra_delay > 0 &&
        fault_rng_.NextBool(f.delay_probability)) {
      ++fault_stats_.messages_delayed;
      *extra_delay +=
          static_cast<Duration>(fault_rng_.NextInt(1, f.max_extra_delay));
    }
  }
  return true;
}

Status Network::InstallFaultPlan(const FaultPlan& plan) {
  faults_enabled_ = true;
  installed_plan_ = plan;
  fault_rng_.Seed(plan.seed());
  default_fault_profile_ = plan.default_profile();
  for (auto& link : links_) {
    link.faults = plan.link_profile(link.config.a, link.config.b);
  }
  for (const FaultEvent& event : plan.events()) {
    loop_->Schedule(event.at, [this, event] {
      switch (event.kind) {
        case FaultEvent::Kind::kCrashNode:
          SetNodeUp(event.a, false);
          break;
        case FaultEvent::Kind::kRestartNode:
          SetNodeUp(event.a, true);
          break;
        case FaultEvent::Kind::kCutLink:
          SetLinkUp(event.a, event.b, false);
          break;
        case FaultEvent::Kind::kHealLink:
          SetLinkUp(event.a, event.b, true);
          break;
      }
    });
  }
  return Status::OK();
}

Status Network::SetNodeUp(const std::string& id, bool up) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    return Status::NotFound("node '" + id + "' does not exist");
  }
  if (it->second.up == up) return Status::OK();
  it->second.up = up;
  InvalidateRoutes();
  if (up) {
    ++fault_stats_.node_restarts;
  } else {
    ++fault_stats_.node_crashes;
  }
  return Status::OK();
}

Status Network::SetLinkUp(const std::string& a, const std::string& b,
                          bool up) {
  auto it = adj_.find(a);
  if (it != adj_.end()) {
    for (const auto& [nbr, idx] : it->second) {
      if (nbr != b) continue;
      links_[idx].up = up;
      InvalidateRoutes();
      return Status::OK();
    }
  }
  return Status::NotFound(
      StrFormat("no link between '%s' and '%s'", a.c_str(), b.c_str()));
}

bool Network::NodeIsUp(const std::string& id) const {
  auto it = nodes_.find(id);
  return it != nodes_.end() && it->second.up;
}

Status Network::ReportWork(const std::string& node_id, double work_units) {
  auto it = nodes_.find(node_id);
  if (it == nodes_.end()) {
    return Status::NotFound("node '" + node_id + "' does not exist");
  }
  it->second.work_in_window += work_units;
  it->second.work_total += work_units;
  return Status::OK();
}

Status Network::AdjustProcessCount(const std::string& node_id, int delta) {
  auto it = nodes_.find(node_id);
  if (it == nodes_.end()) {
    return Status::NotFound("node '" + node_id + "' does not exist");
  }
  it->second.process_count += delta;
  if (it->second.process_count < 0) {
    it->second.process_count = 0;
    return Status::Internal("process count underflow on node '" + node_id +
                            "'");
  }
  return Status::OK();
}

void Network::ResetWindows() {
  for (auto& [id, state] : nodes_) state.work_in_window = 0;
}

Status BuildRingTopology(Network* net, size_t n, double capacity_per_sec,
                         Duration latency, double bandwidth_bytes_per_ms) {
  if (n == 0) return Status::InvalidArgument("ring topology needs >= 1 node");
  for (size_t i = 0; i < n; ++i) {
    NodeConfig node;
    node.id = StrFormat("node_%zu", i);
    node.capacity_per_sec = capacity_per_sec;
    // Spread nodes around the Osaka area so locality placement has
    // something to work with.
    node.location = {34.65 + 0.02 * static_cast<double>(i % 8),
                     135.45 + 0.02 * static_cast<double>(i / 8)};
    SL_RETURN_IF_ERROR(net->AddNode(node));
  }
  if (n == 1) return Status::OK();
  for (size_t i = 0; i < n; ++i) {
    LinkConfig link;
    link.a = StrFormat("node_%zu", i);
    link.b = StrFormat("node_%zu", (i + 1) % n);
    link.latency = latency;
    link.bandwidth_bytes_per_ms = bandwidth_bytes_per_ms;
    if (n == 2 && i == 1) break;  // avoid duplicate link in a 2-ring
    SL_RETURN_IF_ERROR(net->AddLink(link));
  }
  return Status::OK();
}

}  // namespace sl::net
