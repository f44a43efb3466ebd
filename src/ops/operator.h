// StreamLoader: runtime stream-processing operators (Table 1).
//
// An Operator is the executable form of a validated OpSpec. Operators
// are push-based: upstream calls Process(port, tuple) for every arriving
// tuple; whatever the operator emits flows to the EmitFn installed by
// the executor. Non-blocking operations emit from inside Process;
// blocking operations (aggregation, join, trigger) cache tuples and do
// their work in Flush, which the executor schedules every
// `interval()` on the event loop.

#ifndef STREAMLOADER_OPS_OPERATOR_H_
#define STREAMLOADER_OPS_OPERATOR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dataflow/graph.h"
#include "dataflow/op_spec.h"
#include "dataflow/validate.h"
#include "pubsub/broker.h"
#include "stt/tuple.h"
#include "stt/watermark.h"

namespace sl::ops {

/// Downstream push target installed by the executor. Receives shared
/// refs: the executor forwards the same ref to every out-edge.
using EmitFn = std::function<void(const stt::TupleRef&)>;

/// \brief Receiver of trigger activation requests.
///
/// Trigger On/Off operators do not know how streams are started or
/// stopped — the executor does ("the streams of the sensors {s1..sn}
/// are activated", Table 1). In the design-time debugger the handler
/// merely records requests.
class ActivationHandler {
 public:
  virtual ~ActivationHandler() = default;
  /// Requests activation of the named sensors' streams.
  virtual void ActivateSensors(const std::vector<std::string>& sensor_ids,
                               Timestamp at) = 0;
  /// Requests de-activation of the named sensors' streams.
  virtual void DeactivateSensors(const std::vector<std::string>& sensor_ids,
                                 Timestamp at) = 0;
};

/// \brief Live counters of one operator (the monitor samples these to
/// render "the number of tuples that each operation handles per second",
/// §3).
struct OperatorStats {
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  uint64_t flushes = 0;        ///< blocking operations: cache processings
  uint64_t trigger_fires = 0;  ///< triggers: times the condition held
  uint64_t dropped = 0;        ///< tuples evicted from a full cache
  size_t cache_size = 0;       ///< current cached tuples (blocking only)
  uint64_t late_dropped = 0;   ///< late tuples discarded (LatePolicy::kDrop)
  uint64_t late_routed = 0;    ///< late tuples sent to the late-side sink
  uint64_t batches = 0;         ///< columnar batches processed
  uint64_t batched_tuples = 0;  ///< tuples that arrived inside those batches
  /// Merged input low-watermark (min over ports); stt::kNoWatermark
  /// until every input port has carried one.
  Timestamp watermark_low = stt::kNoWatermark;
};

/// Which clock closes blocking windows.
enum class TimePolicy {
  /// Legacy behavior: windows expire and fire against the flush tick's
  /// event-loop time. Delivery delay shifts tuples between windows.
  kProcessing,
  /// Windows are aligned to event time and fire when the input
  /// watermark (minus the allowed lateness) passes their end —
  /// delivery-order independent within the lateness bound.
  kEvent,
};

/// What happens to a tuple that arrives behind the fired window horizon
/// (every window it belongs to has already fired). Only consulted under
/// TimePolicy::kEvent.
enum class LatePolicy {
  kAdmit,       ///< cache it anyway (it will age out unobserved)
  kDrop,        ///< discard it, counting stats().late_dropped
  kSideOutput,  ///< divert it to the late-side sink (stats().late_routed)
};

/// Event-time configuration shared by the blocking operators.
struct WatermarkOptions {
  TimePolicy time_policy = TimePolicy::kProcessing;
  LatePolicy late_policy = LatePolicy::kAdmit;
  /// Slack subtracted from the input watermark before windows fire: a
  /// window [b, e) fires once watermark - allowed_lateness >= e, so
  /// tuples delivered up to this much behind the frontier still count.
  Duration allowed_lateness = 0;
};

/// \brief Base class of all Table 1 operators.
class Operator {
 public:
  virtual ~Operator() = default;

  const std::string& name() const { return name_; }
  dataflow::OpKind kind() const { return kind_; }

  /// Schema of the tuples this operator emits.
  const stt::SchemaPtr& output_schema() const { return output_schema_; }

  /// The blocking interval; 0 for non-blocking operations.
  Duration interval() const { return interval_; }
  bool is_blocking() const { return interval_ > 0; }

  /// Installs the downstream push target (may be replaced on migration).
  void set_emit(EmitFn emit) { emit_ = std::move(emit); }

  /// Feeds one tuple into input `port` (0 except for join's right = 1).
  /// The tuple must conform to the input schema the operator was built
  /// with. The operator may retain the ref (blocking caches do); it must
  /// never mutate the pointee.
  virtual Status Process(size_t port, const stt::TupleRef& tuple) = 0;

  /// Convenience for callers still holding a tuple by value (tests,
  /// design-time tools): shares it and forwards.
  Status Process(size_t port, stt::Tuple tuple) {
    return Process(port, stt::Tuple::Share(std::move(tuple)));
  }

  // -- columnar batch execution -------------------------------------------

  /// One tuple of a batch that failed with the per-tuple error Process
  /// would have returned (the rest of the batch keeps flowing).
  struct BatchRowError {
    size_t row;
    Status status;
  };

  /// Per-call context for ProcessBatch. `on_row` (optional) is invoked
  /// with the batch row index right before that row's side effects
  /// (emissions / caching) happen, so a runtime can attribute per-tuple
  /// bookkeeping (ingest timestamps for latency percentiles) to the
  /// row being worked on. `errors` collects per-tuple failures in row
  /// order — exactly the statuses the per-tuple path would have logged.
  struct BatchContext {
    std::function<void(size_t)> on_row;
    std::vector<BatchRowError> errors;
  };

  /// True when this operator has a real columnar implementation for
  /// deliveries to `port` (stateless expression stages). Runtimes may
  /// then hand whole delivery runs to ProcessBatch instead of
  /// re-dispatching per tuple.
  virtual bool batchable(size_t port) const {
    (void)port;
    return false;
  }

  /// \brief Feeds a run of `count` same-port tuples at once.
  ///
  /// Semantically identical to calling Process(port, tuples[i]) in
  /// order — same emissions in the same order, same counters, same
  /// per-tuple errors (surfaced through `ctx->errors` instead of the
  /// return status) — but batchable operators evaluate their expression
  /// once over the whole run through the vectorized VM. The caller must
  /// have observed any piggybacked watermark *before* this call, just as
  /// it would before a per-tuple Process loop. The default falls back to
  /// the per-tuple path.
  virtual Status ProcessBatch(size_t port, const stt::TupleRef* tuples,
                              size_t count, BatchContext* ctx);

  /// Processes the cache (blocking operations). `now` is the virtual
  /// time of the flush tick (under TimePolicy::kEvent the blocking
  /// operations fire on watermark progress instead and `now` only dates
  /// side effects such as trigger activations). Non-blocking operations
  /// return OK.
  virtual Status Flush(Timestamp now);

  // -- event time ---------------------------------------------------------

  /// Installs the event-time configuration (executor, at build time).
  void set_watermark_options(const WatermarkOptions& options) {
    watermark_options_ = options;
  }
  const WatermarkOptions& watermark_options() const {
    return watermark_options_;
  }

  /// Folds the watermark piggybacked on a delivery to `port` into the
  /// input frontier. stt::kNoWatermark observations are ignored.
  void ObserveWatermark(size_t port, Timestamp watermark);

  /// Merged input frontier: min over ports (stt::kNoWatermark until all
  /// ports have carried one).
  Timestamp input_watermark() const { return frontier_.Min(); }

  /// \brief The watermark this operator's own output stream can promise.
  /// Pass-through operations forward the input frontier; blocking
  /// operations in event mode override this with their fired-window
  /// horizon (they may still emit results for windows the input frontier
  /// has passed but they have not fired yet).
  virtual Timestamp output_watermark() const { return frontier_.Min(); }

  /// Installs the late-side push target (LatePolicy::kSideOutput).
  void set_late_emit(EmitFn late_emit) { late_emit_ = std::move(late_emit); }

  const OperatorStats& stats() const { return stats_; }

  // -- key-partitioned parallelism ----------------------------------------

  /// The spec's `parallelism` N, or the N of the last Rescale; 1 for an
  /// operator built with N = 1. Every N runs this one operator: N sizes
  /// the key-range gauges below and the node's process count, nothing
  /// else.
  size_t parallelism() const {
    return range_counts_.empty() ? 1 : range_counts_.size();
  }

  /// Arrivals counted into each of the N key ranges since the operator
  /// was built or last rescaled, before the late check (the monitor's
  /// instance_load); empty for an operator built with N = 1. A tuple
  /// falls in range hash(partition key) mod N; a NaN join key counts in
  /// every range and a null one in range 0.
  const std::vector<uint64_t>& range_counts() const { return range_counts_; }

  /// Sets N to `new_parallelism` and zeroes the range counts; the cache
  /// is untouched. Only an operator built with N > 1, which has a
  /// partition key, rescales; the others report Unimplemented.
  Status Rescale(size_t new_parallelism);

  /// Resets the in/out counters (monitoring-window rollover); cache
  /// contents are untouched.
  void ResetWindowCounters();

  /// Tuples seen in the current monitoring window.
  uint64_t window_in() const { return window_in_; }
  uint64_t window_out() const { return window_out_; }

 protected:
  Operator(std::string name, dataflow::OpKind kind,
           stt::SchemaPtr output_schema, Duration interval)
      : name_(std::move(name)),
        kind_(kind),
        output_schema_(std::move(output_schema)),
        interval_(interval),
        frontier_(dataflow::ExpectedInputs(kind)) {}

  /// Emits one tuple downstream, updating counters.
  void Emit(const stt::TupleRef& tuple);

  /// Emits every tuple of a flush batch downstream.
  void EmitAll(const stt::RefBatch& batch);

  /// Counts one consumed tuple.
  void CountIn();

  /// True when windows close on watermark progress.
  bool event_time() const {
    return watermark_options_.time_policy == TimePolicy::kEvent;
  }

  /// \brief Applies the configured lateness policy to a tuple that
  /// arrived behind the fired horizon. Returns true when the caller
  /// should still cache it (kAdmit); false when it was dropped or
  /// diverted to the late side.
  bool ApplyLatePolicy(const stt::TupleRef& tuple);

  OperatorStats stats_;
  /// Arrivals per key range (range_counts()); empty at N = 1.
  std::vector<uint64_t> range_counts_;

 private:
  std::string name_;
  dataflow::OpKind kind_;
  stt::SchemaPtr output_schema_;
  Duration interval_;
  EmitFn emit_;
  EmitFn late_emit_;
  WatermarkOptions watermark_options_;
  stt::WatermarkFrontier frontier_;
  uint64_t window_in_ = 0;
  uint64_t window_out_ = 0;
};

/// The blocking-operation cache bound per input: OperatorOptions'
/// default, with which both runtimes build every operator, so they bound
/// their caches alike. Only operator-level tests set another bound.
inline constexpr size_t kDefaultMaxCacheTuples = size_t{1} << 20;
/// The flush-schedule stagger of FirstFlushOffset: a constant, which
/// both runtimes apply through that one function.
inline constexpr Duration kDefaultFlushStaggerMs = 50;

/// Options shared by operator construction.
struct OperatorOptions {
  /// Maximum tuples a blocking operation caches per input; the oldest
  /// tuple is evicted (and counted in stats().dropped) beyond this.
  /// Must be > 0 for blocking kinds — a zero cache would silently evict
  /// every tuple it admits (MakeOperator rejects it).
  size_t max_cache_tuples = kDefaultMaxCacheTuples;
  /// Handler for trigger activations; required for TriggerOn/Off.
  ActivationHandler* activation = nullptr;
  /// Event-time configuration for the blocking operations.
  WatermarkOptions watermark;
};

/// \brief Builds the runtime operator for a spec.
///
/// `input_schemas`/`input_names` must match the dataflow edge order
/// (join: left then right). The spec is checked once
/// (dataflow::Validator::CheckOp) and the operator built from what the
/// check bound; a spec the check refuses is a ValidationError carrying
/// the check's first code ("[SL2011] ...").
Result<std::unique_ptr<Operator>> MakeOperator(
    const std::string& name, dataflow::OpKind op,
    const dataflow::OpSpec& spec,
    const std::vector<stt::SchemaPtr>& input_schemas,
    const std::vector<std::string>& input_names,
    const OperatorOptions& options = {});

/// \brief The flush rule of both runtimes (schedule optimization, §1:
/// "optimize the schedule for the execution of the dataflow"). Blocking
/// operator `name` with this `interval` first flushes
/// interval + kDefaultFlushStaggerMs * depth after it is deployed, then
/// every interval; depth counts the operators ahead of it in
/// `dataflow`'s topological order for which `blocking` holds. A
/// downstream aggregation, join or trigger thus sees its upstream's
/// freshly flushed results in the same interval instead of one interval
/// later. The threaded runtime's punctuation replays this schedule, so
/// the sink rows of both runtimes rest on this one function.
Duration FirstFlushOffset(
    const dataflow::Dataflow& dataflow, const std::string& name,
    Duration interval,
    const std::function<bool(const std::string&)>& blocking);

/// One operator built by BuildDataflow.
struct BuiltOperator {
  std::unique_ptr<Operator> op;
  /// Blocking operators: the first flush as an offset from deployment
  /// (FirstFlushOffset); 0 for the others.
  Duration first_flush = 0;
};

/// \brief A dataflow's operators, built and ready to wire.
struct BuiltDataflow {
  /// The validation the dataflow passed: `report.schemas` holds every
  /// node's output schema, `report.ops` what each operator was built
  /// from, its warnings what the checker flagged.
  dataflow::ValidationReport report;
  /// One entry per operator node, keyed by node name.
  std::map<std::string, BuiltOperator> operators;
};

/// \brief Validates `dataflow` against `broker`'s sensor registry and
/// builds every operator with `options` from the report's CheckedOp, in
/// topological order, each blocking one with its FirstFlushOffset. The simulator, the threaded
/// runtime and the design-time debugger all build through here and
/// keep only their own wiring. An unsound dataflow is a ValidationError
/// carrying the report.
Result<BuiltDataflow> BuildDataflow(const dataflow::Dataflow& dataflow,
                                    const pubsub::Broker* broker,
                                    const OperatorOptions& options);

}  // namespace sl::ops

#endif  // STREAMLOADER_OPS_OPERATOR_H_
