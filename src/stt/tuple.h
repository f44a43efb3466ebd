// StreamLoader: STT tuples and batches.
//
// A tuple is one *event* in the STT model: a row of attribute values plus
// the space-time header (when, where, at which granularities) and its
// provenance (which sensor produced it). Streams move through operators
// as Batches sharing one schema.
//
// Once a tuple enters the dataflow it is immutable; layers pass it around
// as a TupleRef (shared_ptr<const Tuple>) so broker fan-out, network hops
// and blocking-operator caches share one allocation instead of deep
// copying. Deriving operators (transform, virtual property, enrichment)
// mint a fresh tuple via the With* constructors, which return new refs.

#ifndef STREAMLOADER_STT_TUPLE_H_
#define STREAMLOADER_STT_TUPLE_H_

#include <atomic>
#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stt/schema.h"

namespace sl::stt {

class Tuple;

/// \brief Shared immutable ownership of one tuple — the unit of tuple
/// movement across broker, executor, network hops, operators and sinks.
using TupleRef = std::shared_ptr<const Tuple>;

/// \brief One STT event.
class Tuple {
 public:
  Tuple() = default;

  // Copies/moves transfer the memoized byte size with relaxed loads —
  // the atomic member deletes the defaults. A stale kBytesUnset costs
  // one recompute, never a wrong answer.
  Tuple(const Tuple& other)
      : schema_(other.schema_),
        values_(other.values_),
        ts_(other.ts_),
        location_(other.location_),
        sensor_id_(other.sensor_id_),
        value_bytes_(other.value_bytes_.load(std::memory_order_relaxed)) {}
  Tuple(Tuple&& other) noexcept
      : schema_(std::move(other.schema_)),
        values_(std::move(other.values_)),
        ts_(other.ts_),
        location_(std::move(other.location_)),
        sensor_id_(std::move(other.sensor_id_)),
        value_bytes_(other.value_bytes_.load(std::memory_order_relaxed)) {}
  Tuple& operator=(const Tuple& other) {
    if (this == &other) return *this;
    schema_ = other.schema_;
    values_ = other.values_;
    ts_ = other.ts_;
    location_ = other.location_;
    sensor_id_ = other.sensor_id_;
    value_bytes_.store(other.value_bytes_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    schema_ = std::move(other.schema_);
    values_ = std::move(other.values_);
    ts_ = other.ts_;
    location_ = std::move(other.location_);
    sensor_id_ = std::move(other.sensor_id_);
    value_bytes_.store(other.value_bytes_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }

  /// Creates a tuple after validating `values` against `schema` (arity,
  /// types, nullability).
  static Result<Tuple> Make(SchemaPtr schema, std::vector<Value> values,
                            Timestamp ts, std::optional<GeoPoint> location,
                            std::string sensor_id = "");

  /// Creates a tuple without validation. Use only on hot paths where the
  /// producer guarantees conformance (operators do; user code should not).
  static Tuple MakeUnsafe(SchemaPtr schema, std::vector<Value> values,
                          Timestamp ts, std::optional<GeoPoint> location,
                          std::string sensor_id = "");

  /// Validating constructor that immediately wraps the tuple in shared
  /// ownership — what producers feeding the dataflow should use.
  static Result<TupleRef> MakeShared(SchemaPtr schema,
                                     std::vector<Value> values, Timestamp ts,
                                     std::optional<GeoPoint> location,
                                     std::string sensor_id = "");

  /// Moves an already-built tuple into shared ownership.
  static TupleRef Share(Tuple t) {
    return std::make_shared<const Tuple>(std::move(t));
  }

  const SchemaPtr& schema() const { return schema_; }
  const std::vector<Value>& values() const { return values_; }

  /// Event time (ms since epoch, already truncated or not — operators
  /// interpret it at the schema's temporal granularity).
  Timestamp timestamp() const { return ts_; }

  /// Event location; nullopt when the sensor has no spatial reference
  /// (the pub/sub layer enriches such tuples, §3).
  const std::optional<GeoPoint>& location() const { return location_; }

  /// Id of the producing sensor ("" for derived tuples).
  const std::string& sensor_id() const { return sensor_id_; }

  /// Value of the i-th field.
  const Value& value(size_t i) const { return values_[i]; }

  /// Value of the named field; error if absent.
  Result<Value> ValueByName(const std::string& name) const;

  /// New shared tuple with a value appended (for Virtual Property) — the
  /// caller supplies the new schema.
  TupleRef WithAppended(SchemaPtr new_schema, Value v) const;

  /// New shared tuple with the i-th value replaced (for Transform).
  TupleRef WithValueAt(SchemaPtr new_schema, size_t i, Value v) const;

  /// New shared tuple with a new timestamp and/or location (granularity
  /// coarsening).
  TupleRef WithStt(SchemaPtr new_schema, Timestamp ts,
                   std::optional<GeoPoint> location) const;

  /// Rough serialized size of the value vector in bytes, memoized — the
  /// executor charges this (plus a fixed header) to every network hop, so
  /// it must not be recomputed per edge.
  size_t ApproxValueBytes() const;

  /// "(v1, v2, ...) @ts loc=(lat,lon) from=sensor".
  std::string ToString() const;
  /// Appends the ToString form to `out`.
  void AppendTo(std::string* out) const;

  /// Deep equality of values and STT header (schema compared
  /// structurally).
  bool EqualsIgnoringSensor(const Tuple& other) const;

 private:
  static constexpr size_t kBytesUnset = std::numeric_limits<size_t>::max();

  SchemaPtr schema_;
  std::vector<Value> values_;
  Timestamp ts_ = 0;
  std::optional<GeoPoint> location_;
  std::string sensor_id_;
  // Lazily computed by ApproxValueBytes(); value-preserving derivations
  // (WithStt) keep it, value-changing ones (WithAppended/WithValueAt)
  // reset it. Atomic because a shared (immutable) tuple can reach
  // several threaded-runtime stages at once: the relaxed load/store
  // race is a duplicated computation of the same value, not a torn read
  // (plain size_t here was a TSan-reportable data race on fan-out
  // edges).
  mutable std::atomic<size_t> value_bytes_{kBytesUnset};
};

/// \brief A batch of shared tuple refs — what blocking operators emit from
/// a flush so every downstream edge forwards the same allocations.
class RefBatch {
 public:
  RefBatch() = default;
  explicit RefBatch(SchemaPtr schema) : schema_(std::move(schema)) {}

  const SchemaPtr& schema() const { return schema_; }
  void set_schema(SchemaPtr schema) { schema_ = std::move(schema); }

  /// Appends a ref; in debug builds asserts the schema pointer matches.
  void Add(TupleRef tuple);

  const std::vector<TupleRef>& tuples() const { return tuples_; }

  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  const TupleRef& operator[](size_t i) const { return tuples_[i]; }

  void Clear() { tuples_.clear(); }

 private:
  SchemaPtr schema_;
  std::vector<TupleRef> tuples_;
};

/// \brief Validates one value vector against a schema (arity, type,
/// nullability). Exposed for sensors and tests.
Status ValidateValues(const Schema& schema, const std::vector<Value>& values);

}  // namespace sl::stt

#endif  // STREAMLOADER_STT_TUPLE_H_
