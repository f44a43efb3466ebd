#include "dataflow/graph.h"

#include <algorithm>
#include <set>

#include "util/strings.h"

namespace sl::dataflow {

const char* NodeKindToString(NodeKind kind) {
  switch (kind) {
    case NodeKind::kSource: return "source";
    case NodeKind::kOperator: return "operator";
    case NodeKind::kSink: return "sink";
  }
  return "?";
}

const char* SinkKindToString(SinkKind kind) {
  switch (kind) {
    case SinkKind::kWarehouse: return "WAREHOUSE";
    case SinkKind::kVisualization: return "VISUALIZATION";
    case SinkKind::kCsv: return "CSV";
    case SinkKind::kCollect: return "COLLECT";
  }
  return "?";
}

Result<SinkKind> SinkKindFromString(const std::string& name) {
  std::string n = ToUpper(name);
  if (n == "WAREHOUSE" || n == "EDW") return SinkKind::kWarehouse;
  if (n == "VISUALIZATION" || n == "VIS") return SinkKind::kVisualization;
  if (n == "CSV") return SinkKind::kCsv;
  if (n == "COLLECT") return SinkKind::kCollect;
  return Status::ParseError("unknown sink kind '" + name + "'");
}

std::string Node::ToString() const {
  switch (kind) {
    case NodeKind::kSource:
      if (by_query) {
        return StrFormat("%s: source(%s)", name.c_str(),
                         source_query.ToString().c_str());
      }
      return StrFormat("%s: source(sensor=%s)", name.c_str(),
                       sensor_id.c_str());
    case NodeKind::kOperator:
      return StrFormat("%s: %s %s <- [%s]", name.c_str(), OpKindToString(op),
                       SpecToString(op, spec).c_str(),
                       Join(inputs, ", ").c_str());
    case NodeKind::kSink:
      return StrFormat("%s: sink(%s%s%s) <- [%s]", name.c_str(),
                       SinkKindToString(sink),
                       sink_target.empty() ? "" : ", ",
                       sink_target.c_str(), Join(inputs, ", ").c_str());
  }
  return "?";
}

Result<const Node*> Dataflow::node(const std::string& name) const {
  auto it = nodes_.find(name);
  if (it == nodes_.end()) {
    return Status::NotFound("no node '" + name + "' in dataflow '" + name_ +
                            "'");
  }
  return &it->second;
}

std::vector<std::string> Dataflow::Downstream(const std::string& name) const {
  std::vector<std::string> out;
  for (const auto& [n, node] : nodes_) {
    if (std::find(node.inputs.begin(), node.inputs.end(), name) !=
        node.inputs.end()) {
      out.push_back(n);
    }
  }
  return out;
}

namespace {
std::vector<std::string> FilterByKind(const Dataflow& df, NodeKind kind) {
  std::vector<std::string> out;
  for (const auto& name : df.topological_order()) {
    if ((*df.node(name))->kind == kind) out.push_back(name);
  }
  return out;
}
}  // namespace

std::vector<std::string> Dataflow::SourceNames() const {
  return FilterByKind(*this, NodeKind::kSource);
}
std::vector<std::string> Dataflow::OperatorNames() const {
  return FilterByKind(*this, NodeKind::kOperator);
}
std::vector<std::string> Dataflow::SinkNames() const {
  return FilterByKind(*this, NodeKind::kSink);
}

std::string Dataflow::ToString() const {
  std::string out = "dataflow " + name_ + " {\n";
  for (const auto& name : topo_) {
    out += "  " + nodes_.at(name).ToString() + "\n";
  }
  out += "}";
  return out;
}

DataflowBuilder& DataflowBuilder::Add(Node node) {
  nodes_.push_back(std::move(node));
  return *this;
}

DataflowBuilder& DataflowBuilder::AddSource(const std::string& name,
                                            const std::string& sensor_id) {
  Node n;
  n.name = name;
  n.kind = NodeKind::kSource;
  n.sensor_id = sensor_id;
  return Add(std::move(n));
}

DataflowBuilder& DataflowBuilder::AddSourceByQuery(
    const std::string& name, pubsub::DiscoveryQuery query) {
  Node n;
  n.name = name;
  n.kind = NodeKind::kSource;
  n.by_query = true;
  n.source_query = std::move(query);
  return Add(std::move(n));
}

DataflowBuilder& DataflowBuilder::AddOperator(const std::string& name,
                                              OpKind op, OpSpec spec,
                                              std::vector<std::string> inputs) {
  Node n;
  n.name = name;
  n.kind = NodeKind::kOperator;
  n.op = op;
  n.spec = std::move(spec);
  n.inputs = std::move(inputs);
  return Add(std::move(n));
}

DataflowBuilder& DataflowBuilder::AddFilter(const std::string& name,
                                            const std::string& input,
                                            const std::string& condition) {
  return AddOperator(name, OpKind::kFilter, FilterSpec{condition}, {input});
}

DataflowBuilder& DataflowBuilder::AddTransform(const std::string& name,
                                               const std::string& input,
                                               const std::string& attribute,
                                               const std::string& expression,
                                               const std::string& new_unit) {
  return AddOperator(name, OpKind::kTransform,
                     TransformSpec{attribute, expression, new_unit}, {input});
}

DataflowBuilder& DataflowBuilder::AddVirtualProperty(
    const std::string& name, const std::string& input,
    const std::string& property, const std::string& specification,
    const std::string& unit) {
  return AddOperator(name, OpKind::kVirtualProperty,
                     VirtualPropertySpec{property, specification, unit},
                     {input});
}

DataflowBuilder& DataflowBuilder::AddCullTime(const std::string& name,
                                              const std::string& input,
                                              Timestamp t_begin,
                                              Timestamp t_end, double rate) {
  return AddOperator(name, OpKind::kCullTime,
                     CullTimeSpec{t_begin, t_end, rate}, {input});
}

DataflowBuilder& DataflowBuilder::AddCullSpace(const std::string& name,
                                               const std::string& input,
                                               stt::GeoPoint corner1,
                                               stt::GeoPoint corner2,
                                               double rate) {
  return AddOperator(name, OpKind::kCullSpace,
                     CullSpaceSpec{corner1, corner2, rate}, {input});
}

DataflowBuilder& DataflowBuilder::AddAggregation(
    const std::string& name, const std::string& input, Duration interval,
    AggFunc func, std::vector<std::string> attributes,
    std::vector<std::string> group_by, Duration window) {
  AggregationSpec spec;
  spec.interval = interval;
  spec.window = window;
  spec.func = func;
  spec.attributes = std::move(attributes);
  spec.group_by = std::move(group_by);
  return AddOperator(name, OpKind::kAggregation, std::move(spec), {input});
}

DataflowBuilder& DataflowBuilder::AddJoin(const std::string& name,
                                          const std::string& left,
                                          const std::string& right,
                                          Duration interval,
                                          const std::string& predicate,
                                          Duration window) {
  JoinSpec spec;
  spec.interval = interval;
  spec.window = window;
  spec.predicate = predicate;
  return AddOperator(name, OpKind::kJoin, std::move(spec), {left, right});
}

DataflowBuilder& DataflowBuilder::AddTriggerOn(
    const std::string& name, const std::string& input, Duration interval,
    const std::string& condition, std::vector<std::string> target_sensors,
    Duration window) {
  TriggerSpec spec;
  spec.interval = interval;
  spec.window = window;
  spec.condition = condition;
  spec.target_sensors = std::move(target_sensors);
  return AddOperator(name, OpKind::kTriggerOn, std::move(spec), {input});
}

DataflowBuilder& DataflowBuilder::AddTriggerOff(
    const std::string& name, const std::string& input, Duration interval,
    const std::string& condition, std::vector<std::string> target_sensors,
    Duration window) {
  TriggerSpec spec;
  spec.interval = interval;
  spec.window = window;
  spec.condition = condition;
  spec.target_sensors = std::move(target_sensors);
  return AddOperator(name, OpKind::kTriggerOff, std::move(spec), {input});
}

DataflowBuilder& DataflowBuilder::AddSink(const std::string& name,
                                          const std::string& input,
                                          SinkKind kind,
                                          const std::string& target) {
  Node n;
  n.name = name;
  n.kind = NodeKind::kSink;
  n.sink = kind;
  n.sink_target = target;
  n.inputs = {input};
  return Add(std::move(n));
}

Result<Dataflow> DataflowBuilder::Build() const {
  std::vector<std::string> errors = errors_;
  auto err = [&errors](const std::string& msg) { errors.push_back(msg); };

  if (!IsIdentifier(name_)) {
    err("dataflow name '" + name_ + "' is not a valid identifier");
  }

  // Unique, valid names.
  std::set<std::string> names;
  for (const auto& n : nodes_) {
    if (!IsIdentifier(n.name)) {
      err("node name '" + n.name + "' is not a valid identifier");
    }
    if (!names.insert(n.name).second) {
      err("duplicate node name '" + n.name + "'");
    }
  }

  // Edges and arity.
  for (const auto& n : nodes_) {
    if (n.kind == NodeKind::kSource) {
      if (!n.inputs.empty()) err("source '" + n.name + "' must have no inputs");
      if (!n.by_query && n.sensor_id.empty()) {
        err("source '" + n.name + "' has no sensor id");
      }
      if (n.by_query && n.source_query.type.empty() &&
          n.source_query.theme.IsAny() && !n.source_query.area.has_value() &&
          n.source_query.max_period == 0 && n.source_query.node_id.empty()) {
        err("query source '" + n.name + "' has an unconstrained query");
      }
    } else {
      size_t expected =
          n.kind == NodeKind::kSink ? 1 : ExpectedInputs(n.op);
      if (n.inputs.size() != expected) {
        err(StrFormat("%s '%s' expects %zu input(s), got %zu",
                      NodeKindToString(n.kind), n.name.c_str(), expected,
                      n.inputs.size()));
      }
      for (const auto& in : n.inputs) {
        if (names.count(in) == 0) {
          err("node '" + n.name + "' consumes unknown node '" + in + "'");
        }
      }
    }
  }

  // Sinks must be terminal; sources cannot be sinks' peers etc.
  std::set<std::string> sink_names;
  for (const auto& n : nodes_) {
    if (n.kind == NodeKind::kSink) sink_names.insert(n.name);
  }
  for (const auto& n : nodes_) {
    for (const auto& in : n.inputs) {
      if (sink_names.count(in) > 0) {
        err("sink '" + in + "' cannot feed node '" + n.name + "'");
      }
    }
  }

  // Spec-level parameter sanity, on specs of the node's own kind (Add
  // and AddOperator accept any OpSpec).
  for (const auto& n : nodes_) {
    if (n.kind != NodeKind::kOperator) continue;
    if (!SpecMatchesKind(n.spec, n.op)) {
      err(StrFormat("operator '%s' has a spec that does not match kind %s",
                    n.name.c_str(), OpKindToString(n.op)));
      continue;
    }
    switch (n.op) {
      case OpKind::kAggregation: {
        const auto& s = std::get<AggregationSpec>(n.spec);
        if (s.interval <= 0)
          err("aggregation '" + n.name + "' needs a positive interval");
        if (s.attributes.empty() && s.func != AggFunc::kCount)
          err("aggregation '" + n.name + "' aggregates no attributes");
        // window < interval is deployable (old tuples are evicted
        // unprocessed); the Validator warns about it (SL3006).
        break;
      }
      case OpKind::kCullTime: {
        const auto& s = std::get<CullTimeSpec>(n.spec);
        if (s.t_end < s.t_begin)
          err("cull-time '" + n.name + "' has an empty interval");
        if (s.rate < 0.0 || s.rate > 1.0)
          err("cull-time '" + n.name + "' rate must be in [0,1]");
        break;
      }
      case OpKind::kCullSpace: {
        const auto& s = std::get<CullSpaceSpec>(n.spec);
        if (s.rate < 0.0 || s.rate > 1.0)
          err("cull-space '" + n.name + "' rate must be in [0,1]");
        break;
      }
      case OpKind::kFilter: {
        const auto& s = std::get<FilterSpec>(n.spec);
        if (Trim(s.condition).empty())
          err("filter '" + n.name + "' has an empty condition");
        break;
      }
      case OpKind::kJoin: {
        const auto& s = std::get<JoinSpec>(n.spec);
        if (s.interval <= 0)
          err("join '" + n.name + "' needs a positive interval");
        if (Trim(s.predicate).empty())
          err("join '" + n.name + "' has an empty predicate");
        break;
      }
      case OpKind::kTransform: {
        const auto& s = std::get<TransformSpec>(n.spec);
        if (!IsIdentifier(s.attribute))
          err("transform '" + n.name + "' has an invalid attribute name");
        if (Trim(s.expression).empty())
          err("transform '" + n.name + "' has an empty expression");
        break;
      }
      case OpKind::kTriggerOn:
      case OpKind::kTriggerOff: {
        const auto& s = std::get<TriggerSpec>(n.spec);
        if (s.interval <= 0)
          err("trigger '" + n.name + "' needs a positive interval");
        if (Trim(s.condition).empty())
          err("trigger '" + n.name + "' has an empty condition");
        if (s.target_sensors.empty())
          err("trigger '" + n.name + "' has no target sensors");
        break;
      }
      case OpKind::kVirtualProperty: {
        const auto& s = std::get<VirtualPropertySpec>(n.spec);
        if (!IsIdentifier(s.property))
          err("virtual-property '" + n.name + "' has an invalid property name");
        if (Trim(s.specification).empty())
          err("virtual-property '" + n.name + "' has an empty specification");
        break;
      }
    }
  }

  // Topological sort (Kahn, lexicographic tie-break) — also detects
  // cycles.
  std::map<std::string, size_t> indegree;
  std::map<std::string, std::vector<std::string>> downstream;
  for (const auto& n : nodes_) {
    indegree[n.name] = n.inputs.size();
    for (const auto& in : n.inputs) downstream[in].push_back(n.name);
  }
  std::set<std::string> ready;
  for (const auto& [name, deg] : indegree) {
    if (deg == 0) ready.insert(name);
  }
  std::vector<std::string> topo;
  while (!ready.empty()) {
    std::string next = *ready.begin();
    ready.erase(ready.begin());
    topo.push_back(next);
    for (const auto& d : downstream[next]) {
      if (--indegree[d] == 0) ready.insert(d);
    }
  }
  if (topo.size() != nodes_.size() && errors.empty()) {
    err("dataflow contains a cycle");
  }

  // Reachability: every operator/sink must descend from a source.
  if (errors.empty()) {
    std::set<std::string> reachable;
    for (const auto& n : nodes_) {
      if (n.kind == NodeKind::kSource) reachable.insert(n.name);
    }
    for (const auto& name : topo) {
      const Node* node = nullptr;
      for (const auto& n : nodes_) {
        if (n.name == name) {
          node = &n;
          break;
        }
      }
      if (node->kind == NodeKind::kSource) continue;
      bool all_inputs_reachable = !node->inputs.empty();
      for (const auto& in : node->inputs) {
        if (reachable.count(in) == 0) all_inputs_reachable = false;
      }
      if (all_inputs_reachable) {
        reachable.insert(name);
      } else {
        err("node '" + name + "' is not fed by any source");
      }
    }
  }

  if (!errors.empty()) {
    return Status::ValidationError("dataflow '" + name_ + "' is malformed:\n  " +
                                   Join(errors, "\n  "));
  }

  Dataflow df;
  df.name_ = name_;
  for (const auto& n : nodes_) df.nodes_.emplace(n.name, n);
  df.topo_ = std::move(topo);
  return df;
}

}  // namespace sl::dataflow
