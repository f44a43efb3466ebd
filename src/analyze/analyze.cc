#include "analyze/analyze.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "analyze/abstract_eval.h"
#include "expr/eval.h"
#include "util/strings.h"

namespace sl::analyze {

using dataflow::AggFunc;
using dataflow::AggregationSpec;
using dataflow::FilterSpec;
using dataflow::JoinSpec;
using dataflow::Node;
using dataflow::NodeKind;
using dataflow::OpKind;
using dataflow::TransformSpec;
using dataflow::TriggerSpec;
using dataflow::VirtualPropertySpec;
using expr::BoundExpr;
using stt::ValueType;

namespace {

constexpr double kInf = AbstractValue::kInf;

diag::Span WholeSpan(const std::string& text) {
  return diag::Span{0, text.size()};
}

// (The constant-predicate suppression lives in
// Analyzer::DecidedWithoutRanges: SL4001 only fires when the verdict
// genuinely depends on the propagated value ranges.)

class Analyzer {
 public:
  Analyzer(const dataflow::Dataflow& df, const pubsub::Broker* broker,
           const dataflow::ValidationReport& report,
           const AnalyzeOptions& options)
      : df_(df), broker_(broker), report_(report), options_(options) {}

  Analysis Run() {
    for (const std::string& name : df_.topological_order()) {
      const Node& node = df_.nodes().at(name);
      switch (node.kind) {
        case NodeKind::kSource: AnalyzeSource(node); break;
        case NodeKind::kOperator: AnalyzeOperator(node); break;
        case NodeKind::kSink: AnalyzeSink(node); break;
      }
      CheckLateness(node);
    }
    CheckDeadStreams();
    CollectEdges();
    diag::SortAndDedup(out_.diags);
    return std::move(out_);
  }

 private:
  /// The derived output schema of `name`, or nullptr when validation
  /// could not derive one (the node is then skipped: facts stay absent
  /// and downstream nodes degrade to Top).
  stt::SchemaPtr SchemaOf(const std::string& name) const {
    auto it = report_.schemas.find(name);
    return it == report_.schemas.end() ? nullptr : it->second;
  }

  /// What the validator's check of operator `name` bound, its programs
  /// and join keys; nullptr when the check derived nothing.
  const dataflow::CheckedOp* CheckedOf(const std::string& name) const {
    auto it = report_.ops.find(name);
    return it == report_.ops.end() ? nullptr : &it->second;
  }

  const StreamFacts* FactsOf(const std::string& name) const {
    auto it = out_.node_facts.find(name);
    return it == out_.node_facts.end() ? nullptr : &it->second;
  }

  /// Facts of `name`, or Top over its derived schema when the input
  /// was skipped. Returns false when no schema exists either.
  bool InputFacts(const std::string& name, StreamFacts* facts) const {
    if (const StreamFacts* f = FactsOf(name)) {
      *facts = *f;
      return true;
    }
    stt::SchemaPtr schema = SchemaOf(name);
    if (schema == nullptr) return false;
    *facts = TopFacts(schema);
    return true;
  }

  /// True when the condition's outcome is already decided over a Top
  /// row — i.e. without consulting any propagated value ranges. That is
  /// the constant-predicate case SL3004 reports at typecheck level,
  /// which SL4001 must not duplicate.
  bool DecidedWithoutRanges(const BoundExpr& bound,
                            const stt::SchemaPtr& schema) const {
    AbstractRow row = AbstractRow::FromFacts(TopFacts(schema));
    AbstractValue cond = EvalAbstract(bound.program(), row, nullptr);
    return !cond.may_true || (!cond.may_false && !cond.may_null);
  }

  static StreamFacts TopFacts(const stt::SchemaPtr& schema) {
    StreamFacts facts;
    facts.schema = schema;
    for (const auto& f : schema->fields()) {
      AbstractValue v = AbstractValue::TopOf(f.type);
      v.may_null = f.nullable;
      facts.props.push_back(std::move(v));
    }
    return facts;
  }

  void Warn(diag::Code code, const std::string& node, std::string message,
            diag::Span span = {}, std::string source = {}) {
    out_.diags.push_back(diag::MakeDiag(code, node, std::move(message), span,
                                        std::move(source)));
  }

  void EmitExprFindings(const std::string& node, const std::string& source,
                        const std::vector<ExprFinding>& findings) {
    for (const ExprFinding& f : findings) {
      Warn(f.code, node, f.message, f.span, source);
    }
  }

  // -- sources --------------------------------------------------------

  void AnalyzeSource(const Node& node) {
    stt::SchemaPtr schema = SchemaOf(node.name);
    if (schema == nullptr) return;
    std::vector<pubsub::SensorInfo> sensors;
    if (broker_ != nullptr) {
      if (node.by_query) {
        sensors = broker_->Discover(node.source_query);
      } else if (auto info = broker_->Find(node.sensor_id); info.ok()) {
        sensors.push_back(std::move(*info));
      }
    }
    StreamFacts facts;
    facts.schema = schema;
    for (const auto& field : schema->fields()) {
      AbstractValue joined;
      bool first = true;
      for (const auto& info : sensors) {
        AbstractValue v;
        if (const pubsub::PropertyRange* r = info.RangeOf(field.name)) {
          // A declared range vouches for finite, non-null readings.
          v = AbstractValue::Interval(field.type, r->lo, r->hi);
        } else {
          v = AbstractValue::TopOf(field.type);
          v.may_null = field.nullable;
        }
        joined = first ? v : Join(joined, v);
        first = false;
      }
      if (first) {
        joined = AbstractValue::TopOf(field.type);
        joined.may_null = field.nullable;
      }
      facts.props.push_back(std::move(joined));
    }
    facts.rate_per_ms = 0;
    for (const auto& info : sensors) {
      facts.rate_per_ms +=
          info.period > 0 ? 1.0 / static_cast<double>(info.period) : kInf;
      facts.max_delay = std::max(facts.max_delay, info.max_delay);
    }
    if (sensors.empty()) facts.rate_per_ms = kInf;
    out_.node_facts[node.name] = std::move(facts);
  }

  // -- operators ------------------------------------------------------

  void AnalyzeOperator(const Node& node) {
    switch (node.op) {
      case OpKind::kFilter: AnalyzeFilter(node); break;
      case OpKind::kTransform: AnalyzeTransform(node); break;
      case OpKind::kVirtualProperty: AnalyzeVirtualProperty(node); break;
      case OpKind::kCullTime:
      case OpKind::kCullSpace: AnalyzePassThrough(node); break;
      case OpKind::kAggregation: AnalyzeAggregation(node); break;
      case OpKind::kJoin: AnalyzeJoin(node); break;
      case OpKind::kTriggerOn:
      case OpKind::kTriggerOff: AnalyzeTrigger(node); break;
    }
  }

  void AnalyzePassThrough(const Node& node) {
    StreamFacts in;
    if (!InputFacts(node.inputs[0], &in)) return;
    out_.node_facts[node.name] = std::move(in);
  }

  void AnalyzeFilter(const Node& node) {
    StreamFacts in;
    if (!InputFacts(node.inputs[0], &in)) return;
    const dataflow::CheckedOp* checked = CheckedOf(node.name);
    if (checked == nullptr) return;
    const auto& spec = std::get<FilterSpec>(node.spec);
    const BoundExpr& bound = checked->expr;
    StreamFacts out = in;
    AbstractRow row = AbstractRow::FromFacts(in);
    std::vector<ExprFinding> findings;
    AbstractValue cond = EvalAbstract(bound.program(), row, &findings);
    EmitExprFindings(node.name, spec.condition, findings);
    if (!DecidedWithoutRanges(bound, in.schema) && in.may_produce) {
      if (!cond.may_true) {
        Warn(diag::Code::kRangeConstantCondition, node.name,
             "filter condition is always false given upstream value "
             "ranges: no tuple can ever pass",
             WholeSpan(spec.condition), spec.condition);
        out.may_produce = false;
      } else if (!cond.may_false && !cond.may_null) {
        Warn(diag::Code::kRangeConstantCondition, node.name,
             "filter condition is always true given upstream value "
             "ranges: the filter never drops anything",
             WholeSpan(spec.condition), spec.condition);
      }
    }
    NarrowByCondition(*bound.expr(), &row);
    out.props = std::move(row.attrs);
    out_.node_facts[node.name] = std::move(out);
  }

  void AnalyzeTransform(const Node& node) {
    StreamFacts in;
    if (!InputFacts(node.inputs[0], &in)) return;
    const dataflow::CheckedOp* checked = CheckedOf(node.name);
    if (checked == nullptr) return;
    const auto& spec = std::get<TransformSpec>(node.spec);
    StreamFacts out = in;
    out.schema = checked->schema;
    size_t idx = checked->attribute;
    if (idx < out.props.size()) {
      AbstractRow row = AbstractRow::FromFacts(in);
      std::vector<ExprFinding> findings;
      AbstractValue v =
          EvalAbstract(checked->expr.program(), row, &findings);
      EmitExprFindings(node.name, spec.expression, findings);
      v.type = out.schema->fields()[idx].type;
      out.props[idx] = std::move(v);
    }
    out_.node_facts[node.name] = std::move(out);
  }

  void AnalyzeVirtualProperty(const Node& node) {
    StreamFacts in;
    if (!InputFacts(node.inputs[0], &in)) return;
    const dataflow::CheckedOp* checked = CheckedOf(node.name);
    if (checked == nullptr) return;
    const auto& spec = std::get<VirtualPropertySpec>(node.spec);
    StreamFacts out = in;
    out.schema = checked->schema;
    AbstractRow row = AbstractRow::FromFacts(in);
    std::vector<ExprFinding> findings;
    AbstractValue v = EvalAbstract(checked->expr.program(), row, &findings);
    EmitExprFindings(node.name, spec.specification, findings);
    v.type = out.schema->fields().back().type;
    out.props.push_back(std::move(v));
    out_.node_facts[node.name] = std::move(out);
  }

  void AnalyzeTrigger(const Node& node) {
    StreamFacts in;
    if (!InputFacts(node.inputs[0], &in)) return;
    const dataflow::CheckedOp* checked = CheckedOf(node.name);
    if (checked == nullptr) return;
    const auto& spec = std::get<TriggerSpec>(node.spec);
    const BoundExpr& bound = checked->expr;
    AbstractRow row = AbstractRow::FromFacts(in);
    std::vector<ExprFinding> findings;
    AbstractValue cond = EvalAbstract(bound.program(), row, &findings);
    EmitExprFindings(node.name, spec.condition, findings);
    if (!DecidedWithoutRanges(bound, in.schema) && in.may_produce &&
        !cond.may_true) {
      // The input still passes through; only the target activation is
      // provably dead, so may_produce is untouched.
      Warn(diag::Code::kRangeConstantCondition, node.name,
           "trigger condition can never be satisfied given upstream "
           "value ranges: the targets are never switched",
           WholeSpan(spec.condition), spec.condition);
    }
    CheckConstantPartitionKey(node, spec.parallelism, spec.partition_by, in);
    out_.node_facts[node.name] = std::move(in);
  }

  void AnalyzeAggregation(const Node& node) {
    StreamFacts in;
    if (!InputFacts(node.inputs[0], &in)) return;
    stt::SchemaPtr schema = SchemaOf(node.name);
    if (schema == nullptr) return;
    const auto& spec = std::get<AggregationSpec>(node.spec);

    Duration window = spec.window > 0 ? spec.window : spec.interval;
    double max_n = kInf;
    if (std::isfinite(in.rate_per_ms)) {
      max_n = std::max(1.0, std::ceil(in.rate_per_ms *
                                      static_cast<double>(window)));
    }

    StreamFacts out;
    out.schema = schema;
    out.may_produce = in.may_produce;
    out.max_delay = in.max_delay;
    auto input_prop = [&](const std::string& name) {
      auto idx = in.schema->FieldIndex(name);
      if (idx.ok() && *idx < in.props.size()) return in.props[*idx];
      return AbstractValue::TopOf(ValueType::kNull);
    };

    for (const auto& g : spec.group_by) {
      out.props.push_back(input_prop(g));
    }
    if (spec.func == AggFunc::kCount && spec.attributes.empty()) {
      AbstractValue count = AbstractValue::Interval(ValueType::kInt, 1, max_n);
      out.props.push_back(std::move(count));
    }
    for (const auto& a : spec.attributes) {
      AbstractValue p = input_prop(a);
      AbstractValue v;
      switch (spec.func) {
        case AggFunc::kCount:
          v = AbstractValue::Interval(ValueType::kInt, 1, max_n);
          break;
        case AggFunc::kSum:
          v = AbstractValue::Interval(ValueType::kDouble,
                                      p.lo >= 0 ? p.lo : p.lo * max_n,
                                      p.hi <= 0 ? p.hi : p.hi * max_n);
          v.may_null = p.may_null;
          v.may_nan = p.may_nan;
          break;
        case AggFunc::kAvg:
          v = AbstractValue::Interval(ValueType::kDouble, p.lo, p.hi);
          v.may_null = p.may_null;
          v.may_nan = p.may_nan;
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          v = p;
          break;
      }
      out.props.push_back(std::move(v));
    }
    // The schema may carry more fields than we derived (a validation
    // issue suppressed some); pad with Top so props stays parallel.
    while (out.props.size() < schema->fields().size()) {
      out.props.push_back(
          AbstractValue::TopOf(schema->fields()[out.props.size()].type));
    }

    // Output rate: one tuple per group per interval.
    if (spec.group_by.empty()) {
      out.rate_per_ms = 1.0 / static_cast<double>(spec.interval);
    } else {
      double groups = kInf;
      for (const auto& g : spec.group_by) {
        AbstractValue p = input_prop(g);
        if (p.strings.has_value()) {
          groups = std::min(groups, static_cast<double>(p.strings->size()));
        } else if (p.lo == p.hi && std::isfinite(p.lo)) {
          groups = std::min(groups, 1.0);
        }
      }
      out.rate_per_ms = groups / static_cast<double>(spec.interval);
    }

    const std::vector<std::string>& keys =
        spec.partition_by.empty() ? spec.group_by : spec.partition_by;
    CheckConstantPartitionKey(node, spec.parallelism, keys, in);
    out_.node_facts[node.name] = std::move(out);
  }

  void AnalyzeJoin(const Node& node) {
    StreamFacts left, right;
    if (!InputFacts(node.inputs[0], &left) ||
        !InputFacts(node.inputs[1], &right)) {
      return;
    }
    const dataflow::CheckedOp* checked = CheckedOf(node.name);
    if (checked == nullptr) return;
    const stt::SchemaPtr& schema = checked->schema;
    const auto& spec = std::get<JoinSpec>(node.spec);

    StreamFacts out;
    out.schema = schema;
    out.may_produce = left.may_produce && right.may_produce;
    out.max_delay = std::max(left.max_delay, right.max_delay);
    out.rate_per_ms = kInf;
    out.props = left.props;
    out.props.insert(out.props.end(), right.props.begin(), right.props.end());
    while (out.props.size() < schema->fields().size()) {
      out.props.push_back(
          AbstractValue::TopOf(schema->fields()[out.props.size()].type));
    }

    const std::vector<dataflow::EquiConjunct>& equi = checked->equi;
    bool keys_disjoint = false;
    std::vector<AbstractValue> met_keys;
    for (const auto& eq : equi) {
      if (eq.left_index >= out.props.size() ||
          eq.right_index >= out.props.size()) {
        continue;
      }
      AbstractValue met =
          Meet(out.props[eq.left_index], out.props[eq.right_index]);
      // An equi-match implies both key columns are equal and non-null.
      met.may_null = false;
      if (met.IsEmptyValue() && out.may_produce) {
        Warn(diag::Code::kEmptyJoin, node.name,
             StrFormat("equi-join is provably empty: key ranges %s and %s "
                       "cannot overlap, so no pair ever matches",
                       out.props[eq.left_index].ToString().c_str(),
                       out.props[eq.right_index].ToString().c_str()),
             WholeSpan(spec.predicate), spec.predicate);
        keys_disjoint = true;
      }
      met_keys.push_back(met);
      out.props[eq.left_index] = met;
      out.props[eq.right_index] = std::move(met);
    }
    if (keys_disjoint) out.may_produce = false;

    const BoundExpr& bound = checked->expr;
    AbstractRow row = AbstractRow::FromFacts(out);
    std::vector<ExprFinding> findings;
    AbstractValue pred = EvalAbstract(bound.program(), row, &findings);
    EmitExprFindings(node.name, spec.predicate, findings);
    if (!DecidedWithoutRanges(bound, schema) && !keys_disjoint &&
        out.may_produce && !pred.may_true) {
      Warn(diag::Code::kEmptyJoin, node.name,
           "join predicate can never be satisfied given upstream value "
           "ranges: the join is provably empty",
           WholeSpan(spec.predicate), spec.predicate);
      out.may_produce = false;
    }
    NarrowByCondition(*bound.expr(), &row);
    out.props = std::move(row.attrs);

    // Partition key: the explicit partition_by columns, else the
    // equi-conjunct key columns the key ranges hash on.
    if (spec.parallelism > 1) {
      bool all_constant = true;
      bool any_key = false;
      std::vector<std::string> names;
      if (!spec.partition_by.empty()) {
        for (const auto& p : spec.partition_by) {
          auto idx = schema->FieldIndex(p);
          if (!idx.ok() || *idx >= out.props.size()) continue;
          any_key = true;
          names.push_back(p);
          all_constant = all_constant && out.props[*idx].IsConstant();
        }
      } else {
        for (const auto& m : met_keys) {
          any_key = true;
          all_constant = all_constant && m.IsConstant();
        }
        for (const auto& eq : equi) {
          if (eq.left_index < schema->fields().size()) {
            names.push_back(schema->fields()[eq.left_index].name);
          }
        }
      }
      if (any_key && all_constant) {
        WarnConstantKey(node.name, spec.parallelism, names);
      }
    }
    out_.node_facts[node.name] = std::move(out);
  }

  void AnalyzeSink(const Node& node) {
    StreamFacts in;
    if (!InputFacts(node.inputs[0], &in)) return;
    out_.node_facts[node.name] = std::move(in);
  }

  // -- cross-cutting checks -------------------------------------------

  void CheckConstantPartitionKey(const Node& node, size_t parallelism,
                                 const std::vector<std::string>& keys,
                                 const StreamFacts& in) {
    if (parallelism <= 1 || keys.empty() || in.schema == nullptr) return;
    for (const auto& k : keys) {
      auto idx = in.schema->FieldIndex(k);
      if (!idx.ok() || *idx >= in.props.size()) return;
      if (!in.props[*idx].IsConstant()) return;
    }
    WarnConstantKey(node.name, parallelism, keys);
  }

  void WarnConstantKey(const std::string& node, size_t parallelism,
                       const std::vector<std::string>& keys) {
    std::string key_list;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i > 0) key_list += ", ";
      key_list += "'" + keys[i] + "'";
    }
    Warn(diag::Code::kConstantPartitionKey, node,
         StrFormat("partition key %s is provably constant: every tuple "
                   "hashes to one of the %zu instances and the other "
                   "%zu do no work",
                   key_list.c_str(), parallelism, parallelism - 1));
  }

  void CheckLateness(const Node& node) {
    auto it = options_.lateness.find(node.name);
    if (it == options_.lateness.end()) return;
    const StreamFacts* facts = FactsOf(node.name);
    if (facts == nullptr || facts->max_delay <= 0) return;
    if (it->second.bound >= facts->max_delay) return;
    Warn(diag::Code::kLatenessTooSmall, node.name,
         StrFormat("bounded lateness %s is smaller than the %s max_delay "
                   "an upstream source declares in the registry: "
                   "in-contract tuples will be treated as late",
                   FormatDuration(it->second.bound).c_str(),
                   FormatDuration(facts->max_delay).c_str()),
         WholeSpan(it->second.text), it->second.text);
  }

  void CheckDeadStreams() {
    // Structural sink-reachability (what SL3002 checks) vs. semantic
    // deliverability: a node that *could* reach a sink on the graph but
    // whose every path crosses a provably-empty stream is dead — its
    // tuples are produced and then provably discarded.
    std::map<std::string, bool> structural, deliver;
    const auto& topo = df_.topological_order();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const Node& node = df_.nodes().at(*it);
      const StreamFacts* facts = FactsOf(*it);
      bool produces = facts == nullptr || facts->may_produce;
      if (node.kind == NodeKind::kSink) {
        structural[*it] = true;
        deliver[*it] = produces;
        continue;
      }
      bool s = false, d = false;
      for (const std::string& down : df_.Downstream(*it)) {
        s = s || structural[down];
        d = d || deliver[down];
      }
      structural[*it] = s;
      deliver[*it] = produces && d;
    }
    for (const std::string& name : topo) {
      const Node& node = df_.nodes().at(name);
      if (node.kind == NodeKind::kSink) continue;
      const StreamFacts* facts = FactsOf(name);
      bool produces = facts == nullptr || facts->may_produce;
      if (structural[name] && produces && !deliver[name]) {
        Warn(diag::Code::kDeadStream, name,
             "dead stream: every path from this node to a sink crosses a "
             "provably-empty stream, so its output is always discarded");
      }
    }
  }

  void CollectEdges() {
    for (const std::string& name : df_.topological_order()) {
      const Node& node = df_.nodes().at(name);
      for (const std::string& input : node.inputs) {
        if (const StreamFacts* f = FactsOf(input)) {
          out_.edges.push_back({input, name, *f});
        }
      }
    }
  }

  const dataflow::Dataflow& df_;
  const pubsub::Broker* broker_;
  const dataflow::ValidationReport& report_;
  const AnalyzeOptions& options_;
  Analysis out_;
};

void WriteAbstractValue(JsonWriter& w, const stt::Field& field,
                        const AbstractValue& v) {
  w.BeginObject();
  w.Key("name");
  w.String(field.name);
  w.Key("type");
  w.String(stt::ValueTypeToString(v.type));
  if (std::isfinite(v.lo)) {
    w.Key("lo");
    w.Double(v.lo);
  }
  if (std::isfinite(v.hi)) {
    w.Key("hi");
    w.Double(v.hi);
  }
  w.Key("may_null");
  w.Bool(v.may_null);
  if (v.type == ValueType::kDouble) {
    w.Key("may_nan");
    w.Bool(v.may_nan);
  }
  if (v.type == ValueType::kBool) {
    w.Key("may_true");
    w.Bool(v.may_true);
    w.Key("may_false");
    w.Bool(v.may_false);
  }
  if (v.strings.has_value()) {
    w.Key("strings");
    w.BeginArray();
    for (const auto& s : *v.strings) w.String(s);
    w.EndArray();
  }
  w.EndObject();
}

}  // namespace

void Analysis::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("edges");
  w.BeginArray();
  for (const EdgeFacts& edge : edges) {
    w.BeginObject();
    w.Key("from");
    w.String(edge.from);
    w.Key("to");
    w.String(edge.to);
    w.Key("may_produce");
    w.Bool(edge.facts.may_produce);
    if (std::isfinite(edge.facts.rate_per_ms)) {
      w.Key("max_tuples_per_sec");
      w.Double(edge.facts.rate_per_ms * 1000.0);
    }
    if (edge.facts.max_delay > 0) {
      w.Key("max_delay_ms");
      w.Int(static_cast<int64_t>(edge.facts.max_delay));
    }
    w.Key("props");
    w.BeginArray();
    if (edge.facts.schema != nullptr) {
      const auto& fields = edge.facts.schema->fields();
      for (size_t i = 0; i < fields.size() && i < edge.facts.props.size();
           ++i) {
        WriteAbstractValue(w, fields[i], edge.facts.props[i]);
      }
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

std::string Analysis::RenderFacts() const {
  std::string out;
  for (const EdgeFacts& edge : edges) {
    out += edge.from + " -> " + edge.to;
    if (!edge.facts.may_produce) out += "  (provably empty)";
    out += "\n";
    if (edge.facts.schema != nullptr) {
      const auto& fields = edge.facts.schema->fields();
      for (size_t i = 0; i < fields.size() && i < edge.facts.props.size();
           ++i) {
        out += "  " + fields[i].name + ": " +
               edge.facts.props[i].ToString() + "\n";
      }
    }
  }
  return out;
}

Result<Analysis> AnalyzeDataflow(const dataflow::Dataflow& dataflow,
                                 const pubsub::Broker* broker,
                                 const dataflow::ValidationReport& report,
                                 const AnalyzeOptions& options) {
  if (!report.ok()) {
    return Status::FailedPrecondition(
        "cannot analyze a dataflow with validation errors");
  }
  Analyzer analyzer(dataflow, broker, report, options);
  return analyzer.Run();
}

}  // namespace sl::analyze
