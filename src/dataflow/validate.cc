#include "dataflow/validate.h"

#include <algorithm>
#include <map>
#include <set>

#include "expr/ast.h"
#include "expr/parser.h"
#include "expr/typecheck.h"
#include "stt/units.h"
#include "util/strings.h"

namespace sl::dataflow {

using stt::Field;
using stt::Schema;
using stt::SchemaPtr;
using stt::ValueType;

std::string Issue::ToString() const {
  std::string out = StrFormat(
      "[%s %s] ", severity == Severity::kError ? "error" : "warning",
      diag::CodeToString(code).c_str());
  if (!node.empty()) out += node + ": ";
  out += message;
  return out;
}

diag::Diagnostic Issue::ToDiagnostic() const {
  diag::Diagnostic d;
  d.code = code;
  d.severity = severity == Severity::kError ? diag::Severity::kError
                                            : diag::Severity::kWarning;
  d.node = node;
  d.message = message;
  d.span = span;
  d.source = source;
  for (const auto& n : notes) d.notes.push_back({n, {}});
  return d;
}

std::string Issue::Render() const {
  std::string out = ToString() + "\n";
  out += diag::RenderSnippet(source, span);
  for (const auto& n : notes) out += "  note: " + n + "\n";
  return out;
}

bool ValidationReport::ok() const { return error_count() == 0; }

size_t ValidationReport::error_count() const {
  return static_cast<size_t>(
      std::count_if(issues.begin(), issues.end(), [](const Issue& i) {
        return i.severity == Issue::Severity::kError;
      }));
}

size_t ValidationReport::warning_count() const {
  return issues.size() - error_count();
}

std::string ValidationReport::ToString() const {
  if (issues.empty()) return "validation: OK";
  std::string out = StrFormat("validation: %zu error(s), %zu warning(s)\n",
                              error_count(), warning_count());
  for (const auto& issue : issues) {
    out += "  " + issue.ToString() + "\n";
  }
  return out;
}

std::string ValidationReport::Render() const {
  if (issues.empty()) return "validation: OK\n";
  std::string out = StrFormat("validation: %zu error(s), %zu warning(s)\n",
                              error_count(), warning_count());
  for (const auto& issue : issues) {
    out += issue.Render();
  }
  return out;
}

namespace {

Issue MakeIssue(diag::Code code, std::string message, diag::Span span = {},
                std::string source = {}) {
  Issue i;
  i.severity = diag::CodeSeverity(code) == diag::Severity::kWarning
                   ? Issue::Severity::kWarning
                   : Issue::Severity::kError;
  i.code = code;
  i.message = std::move(message);
  i.span = span;
  i.source = std::move(source);
  return i;
}

// Lowers expression-checker diagnostics into dataflow issues; the node
// name is filled in by the caller.
void AppendDiags(const std::vector<diag::Diagnostic>& diags,
                 std::vector<Issue>* issues) {
  for (const auto& d : diags) {
    Issue i;
    i.severity = d.severity == diag::Severity::kWarning
                     ? Issue::Severity::kWarning
                     : Issue::Severity::kError;
    i.code = d.code;
    i.message = d.message;
    i.span = d.span;
    i.source = d.source;
    for (const auto& n : d.notes) i.notes.push_back(n.message);
    issues->push_back(std::move(i));
  }
}

bool HasErrorIssues(const std::vector<Issue>& issues) {
  return std::any_of(issues.begin(), issues.end(), [](const Issue& i) {
    return i.severity == Issue::Severity::kError;
  });
}

// Appends the diagnostics of one expression check and returns what it
// bound over `schema` (unbound after an error).
expr::BoundExpr Bind(expr::TypecheckResult tc, const SchemaPtr& schema,
                     std::vector<Issue>* issues) {
  AppendDiags(tc.diags, issues);
  return expr::BoundExpr::FromCheck(std::move(tc), schema);
}

// The input-schema indexes of `names`, which the check has resolved.
std::vector<size_t> ColumnsOf(const Schema& schema,
                              const std::vector<std::string>& names) {
  std::vector<size_t> cols;
  for (const auto& name : names) cols.push_back(*schema.FieldIndex(name));
  return cols;
}

/// Merges two schemas for a join: collisions are prefixed with the
/// upstream node name.
Result<SchemaPtr> MergeForJoin(const SchemaPtr& left, const SchemaPtr& right,
                               const std::string& left_name,
                               const std::string& right_name) {
  // Granularity-consistency constraints (§3): the operands must be
  // comparable on both dimensions; the result is at the coarser.
  SL_ASSIGN_OR_RETURN(
      stt::TemporalGranularity tgran,
      left->temporal_granularity().JoinWith(right->temporal_granularity()));
  SL_ASSIGN_OR_RETURN(
      stt::SpatialGranularity sgran,
      left->spatial_granularity().JoinWith(right->spatial_granularity()));

  std::vector<Field> fields;
  for (const auto& f : left->fields()) {
    Field nf = f;
    if (right->HasField(f.name)) nf.name = left_name + "_" + f.name;
    fields.push_back(std::move(nf));
  }
  for (const auto& f : right->fields()) {
    Field nf = f;
    if (left->HasField(f.name)) nf.name = right_name + "_" + f.name;
    fields.push_back(std::move(nf));
  }
  stt::Theme theme = left->theme().CommonAncestor(right->theme());
  return Schema::Make(std::move(fields), tgran, sgran, std::move(theme));
}

// SL2005: blocking intervals must be multiples of the input temporal
// granularity, else check instants and tuple times can never align.
void CheckInterval(Duration interval, const SchemaPtr& in, const char* what,
                   std::vector<Issue>* issues) {
  Duration period = in->temporal_granularity().period();
  if (interval < period || interval % period != 0) {
    issues->push_back(MakeIssue(
        diag::Code::kIntervalGranularity,
        StrFormat("%s interval %s is not a multiple of the input temporal "
                  "granularity %s",
                  what, FormatDuration(interval).c_str(),
                  in->temporal_granularity().ToString().c_str())));
  }
}

// SL3006: a sliding window shorter than the check interval silently
// expires part of the stream between checks.
void CheckWindow(Duration interval, Duration window,
                 std::vector<Issue>* issues) {
  if (window > 0 && window < interval) {
    issues->push_back(MakeIssue(
        diag::Code::kWindowNeverFires,
        StrFormat("sliding window %s is shorter than the check interval %s: "
                  "tuples older than the window are evicted without ever "
                  "being processed",
                  FormatDuration(window).c_str(),
                  FormatDuration(interval).c_str())));
  }
}

// SL3008: blocking (and hence potentially event-time) operations over a
// stream that never declared a temporal granularity window-align on the
// 1 ms default, which is almost never intended (watermark misconfig).
void CheckInstantGranularity(const SchemaPtr& in,
                             std::vector<Issue>* issues) {
  if (in->temporal_granularity().period() <= 1) {
    Issue i = MakeIssue(
        diag::Code::kInstantGranularity,
        "input stream has instant (1 ms) temporal granularity; blocking and "
        "event-time windows will align on single milliseconds");
    i.notes.push_back(
        "declare a temporal granularity on the source sensor's schema");
    issues->push_back(std::move(i));
  }
}

}  // namespace

Status FirstError(const std::vector<Issue>& issues) {
  for (const auto& issue : issues) {
    if (issue.severity == Issue::Severity::kError) {
      return Status::ValidationError(
          StrFormat("[%s] %s", diag::CodeToString(issue.code).c_str(),
                    issue.message.c_str()));
    }
  }
  return Status::OK();
}

CheckedOp Validator::CheckOp(OpKind op, const OpSpec& spec,
                             const std::vector<SchemaPtr>& inputs,
                             const std::vector<std::string>& input_names,
                             std::vector<Issue>* issues) {
  std::vector<Issue> found;
  CheckedOp checked;
  auto fail = [&](diag::Code code, std::string message) {
    found.push_back(MakeIssue(code, std::move(message)));
  };

  // Structural spec/arity sanity (SL2009).
  if (!SpecMatchesKind(spec, op)) {
    fail(diag::Code::kBadOpSpec,
         StrFormat("operation spec does not match kind %s",
                   OpKindToString(op)));
  } else if (inputs.size() != ExpectedInputs(op)) {
    fail(diag::Code::kBadOpSpec,
         StrFormat("%s expects %zu input schemas, got %zu",
                   OpKindToString(op), ExpectedInputs(op), inputs.size()));
  } else if (std::any_of(inputs.begin(), inputs.end(),
                         [](const SchemaPtr& s) { return s == nullptr; })) {
    fail(diag::Code::kBadOpSpec, "null input schema");
  } else {
    const SchemaPtr& in = inputs[0];
    switch (op) {
      case OpKind::kFilter: {
        const auto& s = std::get<FilterSpec>(spec);
        checked.expr = Bind(expr::TypecheckCondition(
                                s.condition, *in,
                                expr::ConditionContext::kFilter),
                            in, &found);
        checked.schema = in;
        break;
      }
      case OpKind::kCullTime: {
        checked.schema = in;  // parameters checked structurally at Build time
        break;
      }
      case OpKind::kCullSpace: {
        const auto& s = std::get<CullSpaceSpec>(spec);
        stt::BBox box = stt::NormalizeBBox(s.corner1, s.corner2);
        if (!box.IsValid()) {
          fail(diag::Code::kBadRegion, "cull-space region is invalid");
          break;
        }
        checked.schema = in;
        break;
      }
      case OpKind::kTransform: {
        const auto& s = std::get<TransformSpec>(spec);
        auto field = in->FieldByName(s.attribute);
        if (!field.ok()) {
          fail(diag::Code::kUnknownColumn,
               StrFormat("transform attribute '%s' is not in the input "
                         "schema", s.attribute.c_str()));
        }
        checked.expr = Bind(expr::TypecheckSource(s.expression, *in), in,
                            &found);
        std::string unit =
            s.new_unit.empty() && field.ok() ? field->unit : s.new_unit;
        if (!unit.empty() && !stt::UnitRegistry::Global().Contains(unit)) {
          fail(diag::Code::kBadUnit,
               "unknown unit '" + unit + "' in transform");
        }
        if (field.ok() && !HasErrorIssues(found)) {
          ValueType type = checked.expr.result_type();
          ValueType out_type = type == ValueType::kNull ? field->type : type;
          if (auto changed = in->WithFieldChanged(s.attribute, out_type, unit);
              changed.ok()) {
            checked.schema = *changed;
            checked.attribute = *in->FieldIndex(s.attribute);
          } else {
            fail(diag::Code::kBadOpSpec, changed.status().message());
          }
        }
        break;
      }
      case OpKind::kVirtualProperty: {
        const auto& s = std::get<VirtualPropertySpec>(spec);
        checked.expr = Bind(expr::TypecheckSource(s.specification, *in), in,
                            &found);
        if (checked.expr.bound() &&
            checked.expr.result_type() == ValueType::kNull) {
          Issue i = MakeIssue(
              diag::Code::kAlwaysNullProperty,
              "virtual property specification always evaluates to null");
          i.source = s.specification;
          i.span = {0, s.specification.size()};
          found.push_back(std::move(i));
        }
        if (!s.unit.empty() &&
            !stt::UnitRegistry::Global().Contains(s.unit)) {
          fail(diag::Code::kBadUnit,
               "unknown unit '" + s.unit + "' in virtual property");
        }
        if (!HasErrorIssues(found)) {
          Field f;
          f.name = s.property;
          f.type = checked.expr.result_type();
          f.unit = s.unit;
          f.nullable = true;
          if (auto added = in->AddField(f); added.ok()) {
            checked.schema = *added;
          } else {
            fail(diag::Code::kBadOpSpec, added.status().message());
          }
        }
        break;
      }
      case OpKind::kAggregation: {
        const auto& s = std::get<AggregationSpec>(spec);
        CheckInterval(s.interval, in, "aggregation", &found);
        CheckWindow(s.interval, s.window, &found);
        CheckInstantGranularity(in, &found);
        std::vector<Field> fields;
        for (const auto& g : s.group_by) {
          auto f = in->FieldByName(g);
          if (!f.ok()) {
            fail(diag::Code::kUnknownColumn,
                 StrFormat("group-by attribute '%s' is not in the input "
                           "schema", g.c_str()));
            continue;
          }
          fields.push_back(std::move(*f));
        }
        // SL2011: the partition key must be derivable from the grouping
        // key, or one group would span several key ranges.
        if (s.parallelism == 0) {
          fail(diag::Code::kBadPartition,
               "aggregation parallelism must be >= 1");
        }
        if (s.parallelism > 1 && s.group_by.empty() &&
            s.partition_by.empty()) {
          fail(diag::Code::kBadPartition,
               "parallel aggregation needs a partition key: declare "
               "group_by (the default partition key) or partition_by");
        }
        for (const auto& p : s.partition_by) {
          if (std::find(s.group_by.begin(), s.group_by.end(), p) ==
              s.group_by.end()) {
            fail(diag::Code::kBadPartition,
                 StrFormat("partition_by attribute '%s' is not among the "
                           "group-by keys", p.c_str()));
          }
        }
        if (s.func == AggFunc::kCount && s.attributes.empty()) {
          fields.push_back({"count", ValueType::kInt, "count", false});
        }
        for (const auto& a : s.attributes) {
          auto f = in->FieldByName(a);
          if (!f.ok()) {
            fail(diag::Code::kUnknownColumn,
                 StrFormat("aggregated attribute '%s' is not in the input "
                           "schema", a.c_str()));
            continue;
          }
          if (s.func != AggFunc::kCount && !stt::IsNumeric(f->type)) {
            fail(diag::Code::kNonNumericAggregate,
                 StrFormat("cannot %s non-numeric attribute '%s' (%s)",
                           AggFuncToString(s.func), a.c_str(),
                           stt::ValueTypeToString(f->type)));
            continue;
          }
          Field out;
          out.name = ToLower(AggFuncToString(s.func)) + "_" + a;
          switch (s.func) {
            case AggFunc::kCount:
              out.type = ValueType::kInt;
              out.unit = "count";
              break;
            case AggFunc::kAvg:
            case AggFunc::kSum:
              out.type = ValueType::kDouble;
              out.unit = f->unit;
              break;
            case AggFunc::kMin:
            case AggFunc::kMax:
              out.type = f->type;
              out.unit = f->unit;
              break;
          }
          out.nullable = true;
          fields.push_back(std::move(out));
        }
        if (HasErrorIssues(found)) break;
        auto tgran = stt::TemporalGranularity::Make(s.interval);
        if (!tgran.ok()) {
          fail(diag::Code::kBadOpSpec, tgran.status().message());
          break;
        }
        if (auto schema =
                Schema::Make(std::move(fields), *tgran,
                             in->spatial_granularity(), in->theme());
            schema.ok()) {
          checked.schema = *schema;
        } else {
          fail(diag::Code::kBadOpSpec, schema.status().message());
        }
        // Key ranges by group key, or the declared subset of it: either
        // way a group falls in one range.
        if (s.parallelism > 1) {
          checked.partition_cols = {ColumnsOf(
              *in, s.partition_by.empty() ? s.group_by : s.partition_by)};
        }
        break;
      }
      case OpKind::kJoin: {
        const auto& s = std::get<JoinSpec>(spec);
        std::string left_name =
            !input_names.empty() ? input_names[0] : "left";
        std::string right_name =
            input_names.size() > 1 ? input_names[1] : "right";
        auto merged =
            MergeForJoin(inputs[0], inputs[1], left_name, right_name);
        if (!merged.ok()) {
          fail(diag::Code::kGranularityMismatch, merged.status().message());
          break;
        }
        CheckInterval(s.interval, *merged, "join", &found);
        CheckWindow(s.interval, s.window, &found);
        CheckInstantGranularity(inputs[0], &found);
        CheckInstantGranularity(inputs[1], &found);
        auto tc = expr::TypecheckCondition(s.predicate, **merged,
                                           expr::ConditionContext::kJoin);
        const bool constant = tc.constant.has_value();
        checked.expr = Bind(std::move(tc), *merged, &found);
        // One split of the checked predicate into hash keys and residual
        // serves both lints below and the build.
        checked.split = inputs[0]->fields().size();
        JoinPredicateAnalysis analysis;
        if (!HasErrorIssues(found)) {
          analysis = AnalyzeJoinPredicate(checked.expr.expr(), **merged,
                                          checked.split);
          // SL3009: a non-constant predicate with no `left.a == right.b`
          // conjunct pairs every cached left tuple with every right
          // tuple — almost always an accidental cross join (a deliberate
          // one is written as the constant `true`, which SL3004 exempts).
          if (!constant && !analysis.has_equi()) {
            found.push_back(MakeIssue(
                diag::Code::kNoEquiJoin,
                "join predicate contains no equi-conjunct "
                "(left.a == right.b): every pair of cached tuples is "
                "enumerated — an accidental cross join?",
                {0, s.predicate.size()}, s.predicate));
          }
        }
        // SL2011: a partitioned join ranges by equi-conjunct columns
        // only — any other key would split matching pairs across
        // ranges. The key ranges take the equality-key columns, or the
        // declared subset, side-local on each input: a matching pair
        // shares its range.
        if (s.parallelism == 0) {
          fail(diag::Code::kBadPartition, "join parallelism must be >= 1");
        }
        std::vector<size_t> part_left;
        std::vector<size_t> part_right;
        if (!HasErrorIssues(found) &&
            (s.parallelism > 1 || !s.partition_by.empty())) {
          if (s.parallelism > 1 && !analysis.has_equi()) {
            fail(diag::Code::kBadPartition,
                 "parallel join requires an equi-conjunct "
                 "(left.a == right.b) in the predicate to partition on");
          }
          for (const auto& p : s.partition_by) {
            auto idx = (*merged)->FieldIndex(p);
            if (!idx.ok()) {
              fail(diag::Code::kBadPartition,
                   StrFormat("partition_by attribute '%s' is not in the "
                             "joined schema", p.c_str()));
              continue;
            }
            const EquiConjunct* key = nullptr;
            for (const auto& e : analysis.equi) {
              if (e.left_index == *idx || e.right_index == *idx) {
                key = &e;
                break;
              }
            }
            if (key == nullptr) {
              fail(diag::Code::kBadPartition,
                   StrFormat("partition_by attribute '%s' is not an "
                             "equi-join key of the predicate", p.c_str()));
              continue;
            }
            part_left.push_back(key->left_index);
            part_right.push_back(key->right_index - checked.split);
          }
        }
        if (HasErrorIssues(found)) break;
        checked.schema = *merged;
        checked.equi = analysis.equi;
        if (analysis.has_equi() && analysis.residual != nullptr) {
          // The residual's own program; its diagnostics are the
          // predicate's, already reported.
          checked.residual = expr::BoundExpr::FromCheck(
              expr::TypecheckExpr(analysis.residual, **merged), *merged);
        }
        if (s.parallelism > 1) {
          if (s.partition_by.empty()) {
            for (const auto& e : analysis.equi) {
              part_left.push_back(e.left_index);
              part_right.push_back(e.right_index - checked.split);
            }
          }
          checked.partition_cols = {std::move(part_left),
                                    std::move(part_right)};
        }
        break;
      }
      case OpKind::kTriggerOn:
      case OpKind::kTriggerOff: {
        const auto& s = std::get<TriggerSpec>(spec);
        CheckInterval(s.interval, in, "trigger", &found);
        CheckWindow(s.interval, s.window, &found);
        CheckInstantGranularity(in, &found);
        checked.expr = Bind(expr::TypecheckCondition(
                                s.condition, *in,
                                expr::ConditionContext::kTrigger),
                            in, &found);
        // SL2011: triggers have no implicit key, so parallel deployment
        // needs an explicit, resolvable partition_by.
        if (s.parallelism == 0) {
          fail(diag::Code::kBadPartition, "trigger parallelism must be >= 1");
        }
        if (s.parallelism > 1 && s.partition_by.empty()) {
          fail(diag::Code::kBadPartition,
               "parallel trigger requires an explicit partition_by "
               "(triggers have no implicit grouping key)");
        }
        for (const auto& p : s.partition_by) {
          if (!in->HasField(p)) {
            fail(diag::Code::kBadPartition,
                 StrFormat("partition_by attribute '%s' is not in the "
                           "input schema", p.c_str()));
          }
        }
        if (HasErrorIssues(found)) break;
        checked.schema = in;  // pass-through
        if (s.parallelism > 1) {
          checked.partition_cols = {ColumnsOf(*in, s.partition_by)};
        }
        break;
      }
    }
  }

  if (HasErrorIssues(found)) checked = CheckedOp();
  issues->insert(issues->end(), std::make_move_iterator(found.begin()),
                 std::make_move_iterator(found.end()));
  return checked;
}

Result<SchemaPtr> Validator::DeriveSchema(
    OpKind op, const OpSpec& spec, const std::vector<SchemaPtr>& inputs,
    const std::vector<std::string>& input_names) {
  std::vector<Issue> issues;
  CheckedOp checked = CheckOp(op, spec, inputs, input_names, &issues);
  SL_RETURN_IF_ERROR(FirstError(issues));
  return checked.schema;
}

namespace {

// True when `node`'s own specification reads attribute `property` (for
// join inputs the attribute may be referenced under its collision-
// prefixed name, hence the suffix match). Parse failures count as a
// reference: liveness errs toward not warning.
bool ReferencesProperty(const Node& node, const std::string& property) {
  auto expr_refs = [&](const std::string& text) {
    auto parsed = expr::ParseExpression(text);
    if (!parsed.ok()) return true;
    for (const auto& name : expr::ReferencedAttributes(*parsed)) {
      if (name == property || EndsWith(name, "_" + property)) return true;
    }
    return false;
  };
  auto name_matches = [&](const std::string& name) {
    return name == property || EndsWith(name, "_" + property);
  };
  if (node.kind != NodeKind::kOperator) return false;
  switch (node.op) {
    case OpKind::kFilter:
      return expr_refs(std::get<FilterSpec>(node.spec).condition);
    case OpKind::kTransform: {
      const auto& s = std::get<TransformSpec>(node.spec);
      return name_matches(s.attribute) || expr_refs(s.expression);
    }
    case OpKind::kVirtualProperty:
      return expr_refs(std::get<VirtualPropertySpec>(node.spec).specification);
    case OpKind::kAggregation: {
      const auto& s = std::get<AggregationSpec>(node.spec);
      return std::any_of(s.group_by.begin(), s.group_by.end(), name_matches) ||
             std::any_of(s.attributes.begin(), s.attributes.end(),
                         name_matches);
    }
    case OpKind::kJoin:
      return expr_refs(std::get<JoinSpec>(node.spec).predicate);
    case OpKind::kTriggerOn:
    case OpKind::kTriggerOff:
      return expr_refs(std::get<TriggerSpec>(node.spec).condition);
    case OpKind::kCullTime:
    case OpKind::kCullSpace:
      return false;
  }
  return false;
}

}  // namespace

Result<ValidationReport> Validator::Validate(const Dataflow& dataflow) const {
  ValidationReport report;
  auto add = [&report](diag::Code code, const std::string& node,
                       const std::string& msg) {
    Issue i = MakeIssue(code, msg);
    i.node = node;
    report.issues.push_back(std::move(i));
  };

  if (dataflow.SourceNames().empty()) {
    add(diag::Code::kNoSources, "", "dataflow has no sources");
  }
  const std::vector<std::string> sinks = dataflow.SinkNames();
  if (sinks.empty()) {
    add(diag::Code::kNoSinks, "",
        "dataflow has no sinks: results will be discarded");
  }

  for (const auto& name : dataflow.topological_order()) {
    const Node& node = **dataflow.node(name);
    switch (node.kind) {
      case NodeKind::kSource: {
        if (node.by_query) {
          // Characteristic-bound source: every matching sensor must
          // share one schema (the stream type of the source).
          if (broker_ == nullptr) {
            add(diag::Code::kUnknownSensor, name,
                "no sensor registry to resolve the query against");
            break;
          }
          auto matches = broker_->Discover(node.source_query);
          if (matches.empty()) {
            add(diag::Code::kEmptyQuery, name,
                "no published sensor matches " +
                    node.source_query.ToString());
            break;
          }
          stt::SchemaPtr schema = matches.front().schema;
          bool consistent = schema != nullptr;
          for (const auto& info : matches) {
            if (info.schema == nullptr || !info.schema->Equals(*schema)) {
              consistent = false;
              add(diag::Code::kQuerySchemaMismatch, name,
                  "sensors matching the query have differing schemas "
                  "('" + matches.front().id + "' vs '" + info.id + "')");
              break;
            }
          }
          if (consistent) report.schemas[name] = schema;
          break;
        }
        if (broker_ == nullptr || !broker_->IsPublished(node.sensor_id)) {
          add(diag::Code::kUnknownSensor, name,
              "sensor '" + node.sensor_id + "' is not published");
          break;
        }
        auto info = broker_->Find(node.sensor_id);
        if (info->schema == nullptr) {
          add(diag::Code::kMissingSchema, name,
              "sensor '" + node.sensor_id + "' has no schema");
          break;
        }
        report.schemas[name] = info->schema;
        break;
      }
      case NodeKind::kOperator: {
        std::vector<SchemaPtr> inputs;
        bool inputs_ok = true;
        for (const auto& in : node.inputs) {
          auto it = report.schemas.find(in);
          if (it == report.schemas.end()) {
            inputs_ok = false;  // upstream already failed; don't cascade
            break;
          }
          inputs.push_back(it->second);
        }
        if (!inputs_ok) break;
        std::vector<Issue> op_issues;
        CheckedOp checked =
            CheckOp(node.op, node.spec, inputs, node.inputs, &op_issues);
        for (auto& issue : op_issues) {
          issue.node = name;
          report.issues.push_back(std::move(issue));
        }
        if (checked.schema != nullptr) {
          report.schemas[name] = checked.schema;
          report.ops.emplace(name, std::move(checked));
        }
        // Trigger targets should exist (plug-and-play sensors may join
        // later, so a missing target is a warning, not an error).
        if (node.op == OpKind::kTriggerOn ||
            node.op == OpKind::kTriggerOff) {
          const auto& s = std::get<TriggerSpec>(node.spec);
          for (const auto& target : s.target_sensors) {
            if (broker_ == nullptr || !broker_->IsPublished(target)) {
              add(diag::Code::kUnknownTriggerTarget, name,
                  "trigger target sensor '" + target +
                      "' is not (yet) published");
            }
          }
        }
        break;
      }
      case NodeKind::kSink: {
        auto it = report.schemas.find(node.inputs[0]);
        if (it == report.schemas.end()) break;  // upstream failed
        if (node.sink == SinkKind::kWarehouse &&
            !IsIdentifier(node.sink_target)) {
          add(diag::Code::kBadSinkTarget, name,
              "warehouse sink needs a valid dataset name as target, got '" +
                  node.sink_target + "'");
          break;
        }
        report.schemas[name] = it->second;
        break;
      }
    }
  }

  // ------------------------------------------------------ graph lints
  // Direct-consumer map for reverse reachability.
  std::map<std::string, std::vector<std::string>> consumers;
  for (const auto& name : dataflow.topological_order()) {
    const Node& node = **dataflow.node(name);
    for (const auto& in : node.inputs) consumers[in].push_back(name);
  }

  // SL3002: a node whose output can never reach a sink does work that
  // is always discarded. Suppressed when the dataflow has no sinks at
  // all — SL3001 already covers that wholesale.
  std::set<std::string> reaches_sink;
  if (!sinks.empty()) {
    const auto& topo = dataflow.topological_order();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const Node& node = **dataflow.node(*it);
      bool reaches = node.kind == NodeKind::kSink;
      for (const auto& c : consumers[*it]) {
        if (reaches_sink.count(c) != 0) {
          reaches = true;
          break;
        }
      }
      if (reaches) reaches_sink.insert(*it);
    }
    for (const auto& name : topo) {
      if (reaches_sink.count(name) == 0) {
        add(diag::Code::kUnreachableNode, name,
            "node output never reaches a sink and is discarded");
      }
    }
  }

  // SL3003: a virtual property that no downstream operator reads and
  // that is dropped (by aggregation/join renaming) before every sink is
  // a dead store. Only checked for nodes that do reach a sink — the
  // unreachable lint already covers the rest.
  for (const auto& name : dataflow.topological_order()) {
    const Node& node = **dataflow.node(name);
    if (node.kind != NodeKind::kOperator ||
        node.op != OpKind::kVirtualProperty) {
      continue;
    }
    if (!sinks.empty() && reaches_sink.count(name) == 0) continue;
    if (report.schemas.count(name) == 0) continue;  // node itself failed
    const std::string& property =
        std::get<VirtualPropertySpec>(node.spec).property;
    // BFS over transitive consumers.
    std::vector<std::string> frontier = consumers[name];
    std::set<std::string> visited;
    bool live = false;
    while (!frontier.empty() && !live) {
      std::string current = frontier.back();
      frontier.pop_back();
      if (!visited.insert(current).second) continue;
      const Node& down = **dataflow.node(current);
      if (down.kind == NodeKind::kSink) {
        auto it = report.schemas.find(current);
        if (it == report.schemas.end()) {
          live = true;  // sink schema unknown: assume delivered
        } else {
          for (const auto& f : it->second->fields()) {
            if (f.name == property || EndsWith(f.name, "_" + property)) {
              live = true;
              break;
            }
          }
        }
      } else if (ReferencesProperty(down, property)) {
        live = true;
      }
      for (const auto& c : consumers[current]) frontier.push_back(c);
    }
    if (!live) {
      Issue i = MakeIssue(
          diag::Code::kDeadVirtualProperty,
          StrFormat("virtual property '%s' is never referenced downstream "
                    "and does not reach any sink (dead store)",
                    property.c_str()));
      i.node = name;
      report.issues.push_back(std::move(i));
    }
  }

  return report;
}

}  // namespace sl::dataflow
