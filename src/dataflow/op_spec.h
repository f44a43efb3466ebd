// StreamLoader: specifications of the Table 1 stream-processing
// operations.
//
// These are the *conceptual* parameters a designer fills in through the
// visual environment; src/ops turns a validated spec into a running
// operator process. Non-blocking operations (Filter, Cull Time/Space,
// Transform, Virtual Property) apply to each tuple as it passes;
// blocking operations (Aggregation, Join, Trigger On/Off) cache tuples
// and process them every `interval`.

#ifndef STREAMLOADER_DATAFLOW_OP_SPEC_H_
#define STREAMLOADER_DATAFLOW_OP_SPEC_H_

#include <cstddef>
#include <string>
#include <variant>
#include <vector>

#include "expr/ast.h"
#include "stt/geo.h"
#include "stt/schema.h"
#include "stt/value.h"
#include "util/clock.h"
#include "util/result.h"

namespace sl::dataflow {

/// The nine operations of Table 1.
enum class OpKind {
  kAggregation,      ///< @_{t,{a1..an}}^{op}(s)
  kCullTime,         ///< gamma_r(s, <t1, t2>)
  kCullSpace,        ///< gamma_r(s, <coord1, coord2>)
  kFilter,           ///< sigma(s, cond)
  kJoin,             ///< s1 |><|_{pred}^{t} s2
  kTransform,        ///< diamond_trans(s)
  kTriggerOn,        ///< (+)_{ON,t}(s, {s1..sn}, cond)
  kTriggerOff,       ///< (+)_{OFF,t}(s, {s1..sn}, cond)
  kVirtualProperty,  ///< s union <p, spec>
};

const char* OpKindToString(OpKind kind);
Result<OpKind> OpKindFromString(const std::string& name);

/// True for the operations that maintain a cache of tuples processed
/// every t time intervals (Table 1: aggregation, trigger, join).
bool IsBlocking(OpKind kind);

/// Aggregation functions supported by the Aggregation operation.
enum class AggFunc { kCount, kAvg, kSum, kMin, kMax };

const char* AggFuncToString(AggFunc f);
Result<AggFunc> AggFuncFromString(const std::string& name);

/// \brief @_{t,{a1..an}}^{op}(s): every `interval`, group the cached
/// tuples by `group_by` (empty = one global group) and emit, per group,
/// one tuple with the group keys followed by op(a) for every aggregated
/// attribute a.
///
/// `window` selects the caching regime shared by all blocking
/// operations: 0 (default) is *tumbling* — the cache is cleared after
/// each processing; a positive window is *sliding* — tuples stay cached
/// until their event time falls more than `window` behind the check
/// time, so each check sees "the last `window` of data" (the paper's
/// "temperature identified in the last hour" checked every t).
///
/// Windows are half-open on event time: a check at time T covers
/// `[T - window, T)` — a tuple timestamped exactly T belongs to the
/// *next* window, never to two. The same convention governs event-time
/// firing (ops::TimePolicy::kEvent), where T is a watermark-aligned
/// window end instead of the processing-time check instant.
struct AggregationSpec {
  Duration interval = duration::kMinute;
  Duration window = 0;  ///< 0 = tumbling; > 0 = sliding over this span
  std::vector<std::string> group_by;
  std::vector<std::string> attributes;  ///< attributes to aggregate
  AggFunc func = AggFunc::kAvg;
  /// Key-partitioned parallelism N. Every N runs the one operator and
  /// emits the same rows; N > 1 bills the node N processes and counts
  /// each arrival into one of N key ranges (the monitor's instance_load
  /// and key_skew).
  size_t parallelism = 1;
  /// Columns whose hash picks an arrival's key range. Must be a subset
  /// of `group_by`; empty defaults to all of `group_by`.
  std::vector<std::string> partition_by;
};

/// \brief gamma_r(s, <t1, t2>): tuples whose event time falls in
/// [t_begin, t_end) are decimated by the reducing rate `rate` in [0, 1]
/// (rate 0.75 keeps one tuple in four); tuples outside pass unchanged.
/// The range is half-open like every other time range in the system: a
/// tuple timestamped exactly t_end is outside the culled span.
/// Decimation is systematic (deterministic), preserving arrival order.
struct CullTimeSpec {
  Timestamp t_begin = 0;
  Timestamp t_end = 0;
  double rate = 0.5;
};

/// \brief gamma_r(s, <coord1, coord2>): like CullTime but the reduced
/// region is the bounding box of the two corners; tuples without a
/// location pass unchanged.
struct CullSpaceSpec {
  stt::GeoPoint corner1;
  stt::GeoPoint corner2;
  double rate = 0.5;
};

/// \brief sigma(s, cond): keeps only tuples satisfying `condition`
/// (an expression over the input schema evaluating to bool).
struct FilterSpec {
  std::string condition;
};

/// \brief s1 |><|_{pred}^{t} s2: every `interval`, join the cached tuples
/// of the two inputs on `predicate`. The output schema concatenates both
/// input schemas; name collisions are disambiguated with the upstream
/// node name as prefix ("left_temp"). Granularities must be comparable;
/// the output is at the coarser of each pair.
struct JoinSpec {
  Duration interval = duration::kMinute;
  /// 0 = tumbling; > 0 = sliding (see AggregationSpec::window). A
  /// sliding join emits a pair at most once: on the first check where
  /// both sides are cached together.
  Duration window = 0;
  std::string predicate;
  /// Key-partitioned parallelism N (see AggregationSpec::parallelism).
  size_t parallelism = 1;
  /// Joined-schema column names whose hash picks an arrival's key
  /// range; every name must resolve to an equi-conjunct column of
  /// `predicate`. Empty defaults to all equi-conjunct columns.
  std::vector<std::string> partition_by;
};

/// \brief diamond_trans(s): rewrites one attribute in place with
/// `expression` (over the input schema). The attribute's declared type
/// becomes the expression's type, and its unit of measure can be
/// rewritten too (e.g. convert_unit(dist, "yd", "m") with new_unit "m").
struct TransformSpec {
  std::string attribute;
  std::string expression;
  std::string new_unit;  ///< empty = keep the attribute's unit
};

/// \brief (+)_{ON/OFF,t}(s, {s1..sn}, cond): every `interval` the
/// condition is checked on the tuples collected from the input; if any
/// cached tuple satisfies it, the streams of `target_sensors` are
/// activated (TriggerOn) or de-activated (TriggerOff). The input stream
/// passes through unchanged, so triggers can be monitored and chained.
struct TriggerSpec {
  Duration interval = duration::kMinute;
  /// 0 = tumbling; > 0 = sliding (see AggregationSpec::window).
  Duration window = 0;
  std::string condition;
  std::vector<std::string> target_sensors;
  /// Key-partitioned parallelism N (see AggregationSpec::parallelism).
  size_t parallelism = 1;
  /// Input-schema columns whose hash picks an arrival's key range.
  /// Triggers have no implicit key, so parallelism > 1 requires an
  /// explicit list.
  std::vector<std::string> partition_by;
};

/// \brief s union <p, spec>: appends a new attribute `property` computed
/// by `specification` (over the input schema) to every tuple.
struct VirtualPropertySpec {
  std::string property;
  std::string specification;
  std::string unit;  ///< unit of the new attribute, may be empty
};

/// A tagged union over all operation specifications.
using OpSpec = std::variant<AggregationSpec, CullTimeSpec, CullSpaceSpec,
                            FilterSpec, JoinSpec, TransformSpec, TriggerSpec,
                            VirtualPropertySpec>;

/// The OpKind encoded by a spec value (TriggerSpec needs the
/// accompanying kind to distinguish On from Off, so it is passed in).
OpKind SpecKind(const OpSpec& spec, bool trigger_on = true);

/// True iff `spec` holds the alternative `kind` expects (a TriggerSpec
/// matches both trigger kinds).
bool SpecMatchesKind(const OpSpec& spec, OpKind kind);

/// Number of stream inputs the operation requires (2 for join, 1
/// otherwise).
size_t ExpectedInputs(OpKind kind);

/// Human-readable one-liner in the paper's notation, e.g.
/// "sigma(s, temp > 25)".
std::string SpecToString(OpKind kind, const OpSpec& spec);

// ---------------------------------------------------------------------
// Join-predicate analysis.

/// One `left.a == right.b` conjunct of a join predicate, resolved to
/// column indexes of the *joined* (concatenated) schema: `left_index`
/// addresses a column contributed by the left input (< split),
/// `right_index` one contributed by the right (>= split).
struct EquiConjunct {
  size_t left_index = 0;
  size_t right_index = 0;
};

/// \brief Decomposition of a join predicate into hashable equality
/// conjuncts and the rest.
///
/// Under SQL null semantics an equi-conjunct that is false *or null*
/// makes the whole conjunction non-true, so a pair whose key columns
/// are unequal (or null) can never satisfy the predicate — which is
/// exactly what lets a join probe a hash index instead of enumerating
/// the cross product.
struct JoinPredicateAnalysis {
  /// The extracted equality conjuncts (hash-key columns).
  std::vector<EquiConjunct> equi;
  /// The remaining conjuncts re-joined with `and` in source order;
  /// nullptr when every conjunct is an equi-conjunct (residual is
  /// vacuously true). When `equi` is empty this is the whole predicate.
  expr::ExprPtr residual;

  bool has_equi() const { return !equi.empty(); }
};

/// \brief Extracts equi-conjuncts from a join predicate bound against
/// the joined schema with `split` left columns.
///
/// The predicate's top-level `and` chain is flattened; every conjunct of
/// the form `attr == attr` with one attribute from each side becomes an
/// EquiConjunct, everything else stays in the residual. Evaluating
/// (all equi-conjuncts) ∧ residual accepts exactly the pairs the full
/// predicate accepts (the decomposition only reorders `and` operands,
/// which Kleene conjunction permits).
JoinPredicateAnalysis AnalyzeJoinPredicate(const expr::ExprPtr& predicate,
                                           const stt::Schema& joined,
                                           size_t split);

}  // namespace sl::dataflow

#endif  // STREAMLOADER_DATAFLOW_OP_SPEC_H_
