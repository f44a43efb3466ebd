// StreamLoader: the conceptual dataflow graph.
//
// The designer composes sources (bound to published sensors), Table 1
// operations, and sinks (Event Data Warehouse, visualization, files)
// into a DAG — this is the object the visual canvas of Figure 2 edits.
// DataflowBuilder gives the same drag-and-drop affordances as a fluent
// API; Dataflow::Build performs the structural subset of the soundness
// checks (the schema/granularity checks need the sensor registry and
// live in validate.h).

#ifndef STREAMLOADER_DATAFLOW_GRAPH_H_
#define STREAMLOADER_DATAFLOW_GRAPH_H_

#include <map>
#include <string>
#include <vector>

#include "dataflow/op_spec.h"
#include "pubsub/broker.h"

namespace sl::dataflow {

/// Kind of a dataflow graph node.
enum class NodeKind { kSource, kOperator, kSink };

const char* NodeKindToString(NodeKind kind);

/// Destination kind of a sink node.
enum class SinkKind {
  kWarehouse,      ///< the Event Data Warehouse [6]
  kVisualization,  ///< the Sticker-style visualization stream [11]
  kCsv,            ///< CSV file/stream
  kCollect,        ///< in-memory collection (debugging, tests)
};

const char* SinkKindToString(SinkKind kind);
Result<SinkKind> SinkKindFromString(const std::string& name);

/// \brief One node of the conceptual dataflow.
struct Node {
  std::string name;
  NodeKind kind = NodeKind::kOperator;

  /// kSource: the published sensor this source binds to — or, when
  /// `by_query` is set, a discovery query it binds to ("sources ...
  /// specified by means of the sensor and location characteristics",
  /// §2): the source consumes every matching sensor, including sensors
  /// that join after deployment, provided their schemas agree.
  std::string sensor_id;
  bool by_query = false;
  pubsub::DiscoveryQuery source_query;

  /// kOperator: which Table 1 operation, with its parameters.
  OpKind op = OpKind::kFilter;
  OpSpec spec = FilterSpec{};

  /// kSink: destination and target (warehouse table / file path / ...).
  SinkKind sink = SinkKind::kCollect;
  std::string sink_target;

  /// Upstream node names in input order (join: exactly [left, right]).
  std::vector<std::string> inputs;

  std::string ToString() const;
};

/// \brief An immutable, structurally well-formed dataflow DAG.
class Dataflow {
 public:
  const std::string& name() const { return name_; }
  const std::map<std::string, Node>& nodes() const { return nodes_; }

  Result<const Node*> node(const std::string& name) const;
  bool HasNode(const std::string& name) const { return nodes_.count(name) > 0; }

  /// Node names in a topological order (sources first). The order is
  /// deterministic (lexicographic among ready nodes).
  const std::vector<std::string>& topological_order() const { return topo_; }

  /// Names of the nodes consuming `name`'s output.
  std::vector<std::string> Downstream(const std::string& name) const;

  /// All source / operator / sink node names, in topological order.
  std::vector<std::string> SourceNames() const;
  std::vector<std::string> OperatorNames() const;
  std::vector<std::string> SinkNames() const;

  /// Multi-line rendering of the graph (the textual "canvas").
  std::string ToString() const;

 private:
  friend class DataflowBuilder;
  std::string name_;
  std::map<std::string, Node> nodes_;
  std::vector<std::string> topo_;
};

/// \brief Fluent construction of a Dataflow.
///
/// Errors (duplicate names, unknown inputs, wrong arity, cycles) are
/// accumulated and reported by Build(), so a whole graph can be declared
/// before checking — mirroring how the visual canvas lets users draw
/// first and flags problems before activation.
class DataflowBuilder {
 public:
  explicit DataflowBuilder(std::string name) : name_(std::move(name)) {}

  /// Adds a source bound to a published sensor.
  DataflowBuilder& AddSource(const std::string& name,
                             const std::string& sensor_id);

  /// Adds a source bound to sensor/location characteristics. At
  /// validation, every matching sensor must share one schema; at run
  /// time the source consumes all of them, future joiners included.
  DataflowBuilder& AddSourceByQuery(const std::string& name,
                                    pubsub::DiscoveryQuery query);

  /// Adds a node as given, every field kept (how an edited copy of a
  /// dataflow is rebuilt).
  DataflowBuilder& Add(Node node);

  /// Adds any operator node explicitly.
  DataflowBuilder& AddOperator(const std::string& name, OpKind op, OpSpec spec,
                               std::vector<std::string> inputs);

  // Convenience wrappers, one per Table 1 operation.
  DataflowBuilder& AddFilter(const std::string& name, const std::string& input,
                             const std::string& condition);
  DataflowBuilder& AddTransform(const std::string& name,
                                const std::string& input,
                                const std::string& attribute,
                                const std::string& expression,
                                const std::string& new_unit = "");
  DataflowBuilder& AddVirtualProperty(const std::string& name,
                                      const std::string& input,
                                      const std::string& property,
                                      const std::string& specification,
                                      const std::string& unit = "");
  DataflowBuilder& AddCullTime(const std::string& name,
                               const std::string& input, Timestamp t_begin,
                               Timestamp t_end, double rate);
  DataflowBuilder& AddCullSpace(const std::string& name,
                                const std::string& input,
                                stt::GeoPoint corner1, stt::GeoPoint corner2,
                                double rate);
  /// `window` = 0 selects tumbling caches, > 0 sliding ones (see
  /// AggregationSpec::window) — for all the blocking operations below.
  DataflowBuilder& AddAggregation(const std::string& name,
                                  const std::string& input, Duration interval,
                                  AggFunc func,
                                  std::vector<std::string> attributes,
                                  std::vector<std::string> group_by = {},
                                  Duration window = 0);
  DataflowBuilder& AddJoin(const std::string& name, const std::string& left,
                           const std::string& right, Duration interval,
                           const std::string& predicate, Duration window = 0);
  DataflowBuilder& AddTriggerOn(const std::string& name,
                                const std::string& input, Duration interval,
                                const std::string& condition,
                                std::vector<std::string> target_sensors,
                                Duration window = 0);
  DataflowBuilder& AddTriggerOff(const std::string& name,
                                 const std::string& input, Duration interval,
                                 const std::string& condition,
                                 std::vector<std::string> target_sensors,
                                 Duration window = 0);
  DataflowBuilder& AddSink(const std::string& name, const std::string& input,
                           SinkKind kind, const std::string& target = "");

  /// Structural validation + DAG construction. Checks: valid unique
  /// names, known inputs, correct arity per operation, sources without
  /// inputs, sinks not feeding other nodes, acyclicity, every
  /// non-source reachable from a source, spec-level parameter sanity
  /// (positive intervals, rates in [0,1], non-empty conditions).
  Result<Dataflow> Build() const;

 private:
  std::string name_;
  std::vector<Node> nodes_;  // in insertion order
  std::vector<std::string> errors_;
};

}  // namespace sl::dataflow

#endif  // STREAMLOADER_DATAFLOW_GRAPH_H_
