// Implementations of the nine Table 1 operators, their factory and the
// dataflow builder every runtime builds through.
//
// Time convention: every window is half-open, [begin, end) — a tuple
// with timestamp() == end belongs to the *next* window (DESIGN.md §8).

#include <algorithm>
#include <optional>
#include <span>

#include "dataflow/validate.h"
#include "expr/eval.h"
#include "expr/vector_program.h"
#include "ops/operator.h"
#include "ops/tuple_cache.h"
#include "stt/column_batch.h"
#include "util/strings.h"

namespace sl::ops {

namespace {

using dataflow::AggFunc;
using dataflow::AggregationSpec;
using dataflow::CullSpaceSpec;
using dataflow::CullTimeSpec;
using dataflow::FilterSpec;
using dataflow::JoinSpec;
using dataflow::OpKind;
using dataflow::TransformSpec;
using dataflow::TriggerSpec;
using dataflow::VirtualPropertySpec;
using stt::Tuple;
using stt::TupleRef;
using stt::Value;
using stt::ValueType;

/// Merges the vectorized VM's per-row errors (plus any post-evaluation
/// failures the caller appended) into the batch context in row order —
/// the order the per-tuple path would have surfaced them.
void ReportRowErrors(std::vector<expr::VectorProgram::RowError>* errors,
                     Operator::BatchContext* ctx) {
  if (errors->empty()) return;
  std::sort(errors->begin(), errors->end(),
            [](const expr::VectorProgram::RowError& a,
               const expr::VectorProgram::RowError& b) { return a.row < b.row; });
  for (auto& e : *errors) {
    ctx->errors.push_back(Operator::BatchRowError{e.row, std::move(e.status)});
  }
  errors->clear();
}

/// Transform/virtual-property post-pass: coerces non-null computed
/// values whose dynamic type differs from the declared output type
/// (exactly what the per-tuple path does after Eval), dropping rows
/// whose coercion fails from both the selection and the value column.
void CoerceComputed(stt::ColumnBatch* batch, ValueType out_type,
                    std::vector<Value>* values,
                    std::vector<expr::VectorProgram::RowError>* errors) {
  std::vector<uint32_t>& sel = batch->mutable_selection();
  size_t out = 0;
  for (size_t pos = 0; pos < values->size(); ++pos) {
    Value& v = (*values)[pos];
    if (!v.is_null() && v.type() != out_type) {
      Result<Value> cv = v.CoerceTo(out_type);
      if (!cv.ok()) {
        errors->push_back(expr::VectorProgram::RowError{sel[pos], cv.status()});
        continue;
      }
      v = std::move(cv).ValueOrDie();
    }
    // Compact only behind a dropped row: moving a value onto itself
    // empties a std::string.
    if (out != pos) {
      sel[out] = sel[pos];
      (*values)[out] = std::move(v);
    }
    ++out;
  }
  sel.resize(out);
  values->resize(out);
}

// ---------------------------------------------------------------------------
// Non-blocking operations: applied directly on each tuple (Table 1).
// ---------------------------------------------------------------------------

/// sigma(s, cond)
class FilterOperator : public Operator {
 public:
  FilterOperator(std::string name, stt::SchemaPtr schema,
                 expr::BoundExpr condition)
      : Operator(std::move(name), OpKind::kFilter, std::move(schema), 0),
        condition_(std::move(condition)),
        vector_(&condition_.program()) {}

  Status Process(size_t, const TupleRef& tuple) override {
    CountIn();
    SL_ASSIGN_OR_RETURN(bool pass, condition_.EvalPredicate(*tuple));
    if (pass) Emit(tuple);
    return Status::OK();
  }

  bool batchable(size_t) const override { return true; }

  Status ProcessBatch(size_t, const TupleRef* tuples, size_t count,
                      BatchContext* ctx) override {
    stt::ColumnBatch batch(condition_.schema(), tuples, count);
    for (size_t i = 0; i < count; ++i) CountIn();
    ++stats_.batches;
    stats_.batched_tuples += count;
    row_errors_.clear();
    SL_RETURN_IF_ERROR(vector_.RunPredicate(&batch, &row_errors_));
    ReportRowErrors(&row_errors_, ctx);
    // Passing rows forward the *original* refs, exactly like the
    // per-tuple path.
    for (uint32_t row : batch.selection()) {
      if (ctx->on_row) ctx->on_row(row);
      Emit(tuples[row]);
    }
    return Status::OK();
  }

 private:
  expr::BoundExpr condition_;
  expr::VectorProgram vector_;
  std::vector<expr::VectorProgram::RowError> row_errors_;
};

/// diamond_trans(s): rewrite one attribute in place.
class TransformOperator : public Operator {
 public:
  TransformOperator(std::string name, stt::SchemaPtr out_schema,
                    size_t field_index, ValueType out_type,
                    expr::BoundExpr expression)
      : Operator(std::move(name), OpKind::kTransform, std::move(out_schema), 0),
        field_index_(field_index),
        out_type_(out_type),
        expression_(std::move(expression)) {}

  Status Process(size_t, const TupleRef& tuple) override {
    CountIn();
    SL_ASSIGN_OR_RETURN(Value v, expression_.Eval(*tuple));
    if (!v.is_null() && v.type() != out_type_) {
      SL_ASSIGN_OR_RETURN(v, v.CoerceTo(out_type_));
    }
    Emit(tuple->WithValueAt(output_schema(), field_index_, std::move(v)));
    return Status::OK();
  }

  bool batchable(size_t) const override { return true; }

  Status ProcessBatch(size_t, const TupleRef* tuples, size_t count,
                      BatchContext* ctx) override {
    stt::ColumnBatch batch(expression_.schema(), tuples, count);
    for (size_t i = 0; i < count; ++i) CountIn();
    ++stats_.batches;
    stats_.batched_tuples += count;
    row_errors_.clear();
    values_.clear();
    SL_RETURN_IF_ERROR(vector_.RunValues(&batch, &values_, &row_errors_));
    CoerceComputed(&batch, out_type_, &values_, &row_errors_);
    ReportRowErrors(&row_errors_, ctx);
    batch.OverwriteColumn(field_index_, std::move(values_), output_schema());
    const std::vector<uint32_t>& sel = batch.selection();
    for (size_t pos = 0; pos < sel.size(); ++pos) {
      if (ctx->on_row) ctx->on_row(sel[pos]);
      Emit(batch.MaterializeRow(pos));
    }
    return Status::OK();
  }

 private:
  size_t field_index_;
  ValueType out_type_;
  expr::BoundExpr expression_;
  expr::VectorProgram vector_{&expression_.program()};
  std::vector<expr::VectorProgram::RowError> row_errors_;
  std::vector<Value> values_;
};

/// s union <p, spec>: append a computed attribute.
class VirtualPropertyOperator : public Operator {
 public:
  VirtualPropertyOperator(std::string name, stt::SchemaPtr out_schema,
                          ValueType out_type, expr::BoundExpr specification)
      : Operator(std::move(name), OpKind::kVirtualProperty,
                 std::move(out_schema), 0),
        out_type_(out_type),
        specification_(std::move(specification)) {}

  Status Process(size_t, const TupleRef& tuple) override {
    CountIn();
    SL_ASSIGN_OR_RETURN(Value v, specification_.Eval(*tuple));
    if (!v.is_null() && v.type() != out_type_) {
      SL_ASSIGN_OR_RETURN(v, v.CoerceTo(out_type_));
    }
    Emit(tuple->WithAppended(output_schema(), std::move(v)));
    return Status::OK();
  }

  bool batchable(size_t) const override { return true; }

  Status ProcessBatch(size_t, const TupleRef* tuples, size_t count,
                      BatchContext* ctx) override {
    stt::ColumnBatch batch(specification_.schema(), tuples, count);
    for (size_t i = 0; i < count; ++i) CountIn();
    ++stats_.batches;
    stats_.batched_tuples += count;
    row_errors_.clear();
    values_.clear();
    SL_RETURN_IF_ERROR(vector_.RunValues(&batch, &values_, &row_errors_));
    CoerceComputed(&batch, out_type_, &values_, &row_errors_);
    ReportRowErrors(&row_errors_, ctx);
    batch.AppendColumn(std::move(values_), output_schema());
    const std::vector<uint32_t>& sel = batch.selection();
    for (size_t pos = 0; pos < sel.size(); ++pos) {
      if (ctx->on_row) ctx->on_row(sel[pos]);
      Emit(batch.MaterializeRow(pos));
    }
    return Status::OK();
  }

 private:
  ValueType out_type_;
  expr::BoundExpr specification_;
  expr::VectorProgram vector_{&specification_.program()};
  std::vector<expr::VectorProgram::RowError> row_errors_;
  std::vector<Value> values_;
};

/// Systematic (deterministic) decimator: keeps a (1 - rate) fraction of
/// the tuples routed through it, evenly spread, preserving order.
class Decimator {
 public:
  explicit Decimator(double rate) : keep_fraction_(1.0 - rate) {}

  bool Keep() {
    ++seen_;
    uint64_t target =
        static_cast<uint64_t>(keep_fraction_ * static_cast<double>(seen_));
    if (kept_ < target) {
      ++kept_;
      return true;
    }
    return false;
  }

 private:
  double keep_fraction_;
  uint64_t seen_ = 0;
  uint64_t kept_ = 0;
};

/// gamma_r(s, <t1, t2>): decimate tuples whose event time falls in the
/// interval; pass the rest unchanged.
class CullTimeOperator : public Operator {
 public:
  CullTimeOperator(std::string name, stt::SchemaPtr schema, CullTimeSpec spec)
      : Operator(std::move(name), OpKind::kCullTime, std::move(schema), 0),
        spec_(spec),
        decimator_(spec.rate) {}

  Status Process(size_t, const TupleRef& tuple) override {
    CountIn();
    // Half-open [t_begin, t_end), matching the eviction cutoff of the
    // blocking caches — a closed upper bound would make back-to-back
    // cull intervals decimate their shared boundary granule twice.
    bool inside = tuple->timestamp() >= spec_.t_begin &&
                  tuple->timestamp() < spec_.t_end;
    if (!inside || decimator_.Keep()) Emit(tuple);
    return Status::OK();
  }

 private:
  CullTimeSpec spec_;
  Decimator decimator_;
};

/// gamma_r(s, <coord1, coord2>): decimate tuples located in the area;
/// tuples without a location pass unchanged.
class CullSpaceOperator : public Operator {
 public:
  CullSpaceOperator(std::string name, stt::SchemaPtr schema,
                    CullSpaceSpec spec)
      : Operator(std::move(name), OpKind::kCullSpace, std::move(schema), 0),
        box_(stt::NormalizeBBox(spec.corner1, spec.corner2)),
        decimator_(spec.rate) {}

  Status Process(size_t, const TupleRef& tuple) override {
    CountIn();
    bool inside =
        tuple->location().has_value() && box_.Contains(*tuple->location());
    if (!inside || decimator_.Keep()) Emit(tuple);
    return Status::OK();
  }

 private:
  stt::BBox box_;
  Decimator decimator_;
};

// ---------------------------------------------------------------------------
// Blocking operations: maintain a cache of tuples processed every t
// time intervals (Table 1).
//
// Aggregation, join and trigger keep one window state, a PaneStore per
// input (ops/tuple_cache.h), under both time policies, and each has one
// flush path: it picks the windows that close — the aligned ends the
// lateness-adjusted watermark passed (event time) or the flush tick
// (processing time) — reads each from the store and hands it to the
// operator's one emitter.
// ---------------------------------------------------------------------------

using Slot = PaneStore::Slot;
using View = PaneStore::View;

/// The key table is compacted once it holds this many more keys than
/// twice the live tuples, so keys the cache no longer holds cannot pile
/// up.
constexpr size_t kKeySlack = 1024;

/// FNV-1a over the display forms of the partition columns, each
/// followed by '\x1f' — the bytes of the aggregation's group key, so a
/// group always falls in one key range. `scratch` holds the bytes.
uint64_t PartitionHash(const Tuple& t, const std::vector<size_t>& cols,
                       std::string* scratch) {
  scratch->clear();
  for (size_t idx : cols) {
    t.value(idx).AppendTo(scratch);
    scratch->push_back('\x1f');
  }
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : *scratch) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// What the three blocking operators share: the event grid, the pane an
/// arrival goes to, the window a fired end reads, and the key ranges of
/// `parallelism` N.
class BlockingOperator : public Operator {
 public:
  /// Counts arrivals into `n` key ranges by the columns `cols[port]` of
  /// each input (MakeOperator, N > 1).
  void PartitionBy(size_t n, std::vector<std::vector<size_t>> cols) {
    range_counts_.assign(n, 0);
    range_cols_ = std::move(cols);
  }

 protected:
  BlockingOperator(std::string name, OpKind kind, stt::SchemaPtr out_schema,
                   Duration interval, Duration window)
      : Operator(std::move(name), kind, std::move(out_schema), interval),
        event_(interval, window),
        window_(window) {}

  bool sliding() const { return window_ > 0; }

  /// Applies the late policy to a tuple behind the fired horizon; true
  /// when the tuple should be cached.
  bool Admit(const TupleRef& tuple) {
    return !event_time() || !event_.IsLate(tuple->timestamp()) ||
           ApplyLatePolicy(tuple);
  }

  /// The pane an arrival goes to: its interval of event time, or the open
  /// flush epoch under processing time.
  Timestamp PaneOf(const PaneStore& store, Timestamp ts) const {
    return event_time() ? stt::AlignDown(ts, interval()) : store.epoch();
  }

  /// The lateness-adjusted input frontier; kNoWatermark until every
  /// input port carried one.
  Timestamp Horizon() const {
    Timestamp horizon = input_watermark();
    if (horizon == stt::kNoWatermark) return horizon;
    return horizon - watermark_options().allowed_lateness;
  }

  /// The event-time window that ends at `end`.
  PaneStore::Range WindowRange(Timestamp end) const {
    Timestamp begin = end - event_.effective_window();
    return {stt::AlignDown(begin, interval()), end, begin, end};
  }

  /// The output promise of the operators that emit window results.
  Timestamp FiredWatermark() const {
    if (!event_time()) return input_watermark();
    return event_.initialized() ? event_.fired_end() : stt::kNoWatermark;
  }

  /// Counts an arrival on `port` into its key range; a no-op at N = 1.
  /// The join ranges by its canonical key hash: a NaN key equals every
  /// key, so it counts in every range, and a null key, which equals
  /// none, in range 0.
  void CountRange(size_t port, const Tuple& t) {
    if (range_cols_.empty()) return;
    const std::vector<size_t>& cols = range_cols_[port];
    uint64_t hash = 0;  // a null join key's range
    if (kind() != OpKind::kJoin) {
      hash = PartitionHash(t, cols, &range_form_);
    } else if (JoinKeyInfo key = MakeJoinKeyInfo(t, cols); key.has_nan) {
      for (uint64_t& count : range_counts_) ++count;
      return;
    } else if (!key.has_null) {
      hash = key.hash;
    }
    ++range_counts_[hash % range_counts_.size()];
  }

  EventWindow event_;
  Duration window_;

 private:
  std::vector<std::vector<size_t>> range_cols_;  ///< by port; empty at N = 1
  std::string range_form_;                       ///< PartitionHash scratch
};

/// @_{t,{a1..an}}^{op}(s)
class AggregationOperator : public BlockingOperator {
 public:
  AggregationOperator(std::string name, stt::SchemaPtr out_schema,
                      stt::SchemaPtr in_schema, AggregationSpec spec,
                      size_t max_cache)
      : BlockingOperator(std::move(name), OpKind::kAggregation,
                         std::move(out_schema), spec.interval, spec.window),
        spec_(std::move(spec)),
        store_(max_cache) {
    for (const auto& g : spec_.group_by) {
      group_indexes_.push_back(*in_schema->FieldIndex(g));
    }
    for (const auto& a : spec_.attributes) {
      attr_indexes_.push_back(*in_schema->FieldIndex(a));
    }
    if (group_indexes_.empty()) keys_.Intern("");  // the one group, id 0
  }

  Status Process(size_t, const TupleRef& tuple) override {
    CountIn();
    CountRange(0, *tuple);
    if (!Admit(tuple)) return Status::OK();
    stats_.dropped +=
        store_.Add(PaneOf(store_, tuple->timestamp()), tuple, KeyOf(*tuple));
    if (keys_.size() > 2 * store_.size() + kKeySlack) CompactKeys();
    stats_.cache_size = store_.size();
    return Status::OK();
  }

  Status Flush(Timestamp now) override {
    ++stats_.flushes;
    if (event_time()) {
      Timestamp horizon = Horizon();
      if (horizon == stt::kNoWatermark) return Status::OK();
      for (Timestamp end : event_.Advance(horizon, store_.PaneKeys())) {
        store_.Read(WindowRange(end), /*sorted=*/true, &view_);
        FireWindow(end);
      }
      store_.EvictOlderThan(event_.EvictionCutoff());
    } else {
      // The window closes at the flush tick: expire tuples older than
      // the sliding window, aggregate the ones stamped before the tick
      // in arrival order, then start over (tumbling) or keep the
      // survivors (sliding).
      if (sliding()) store_.EvictOlderThan(now - spec_.window);
      PaneStore::Range before_tick;
      before_tick.ts_hi = now;
      store_.Read(before_tick, /*sorted=*/false, &view_);
      FireWindow(now);
      if (sliding()) {
        store_.CloseEpoch();
      } else {
        store_.Clear();
      }
    }
    stats_.cache_size = store_.size();
    return Status::OK();
  }

  Timestamp output_watermark() const override { return FiredWatermark(); }

 private:
  static constexpr uint32_t kNoGroup = KeyInterner::kNoId;

  /// The interned '\x1f'-joined display form of the group-by columns:
  /// the group identity, and (by its byte order) the emission order.
  uint32_t KeyOf(const Tuple& t) {
    if (group_indexes_.empty()) return 0;
    key_form_.clear();
    for (size_t idx : group_indexes_) {
      t.value(idx).AppendTo(&key_form_);
      key_form_ += '\x1f';
    }
    return keys_.Intern(key_form_);
  }

  void CompactKeys() {
    std::vector<bool> used(keys_.size());
    store_.MarkKeys(&used);
    store_.RemapKeys(keys_.Compact(used));
  }

  /// Emits the window in `view_` unless it is a sliding window whose
  /// members did not change since the last emission — re-emitting an
  /// unchanged window every interval double-counts rows in the
  /// warehouse sink. Tumbling windows always hold fresh data.
  void FireWindow(Timestamp end) {
    if (view_.empty() || (sliding() && !ChangedSinceLastEmit())) return;
    EmitGroups(end);
  }

  bool ChangedSinceLastEmit() {
    std::vector<uint64_t> seqs;
    seqs.reserve(view_.size());
    for (const Slot* s : view_) seqs.push_back(s->seq);
    uint64_t sig = SeqSignature(std::move(seqs));
    if (last_signature_.has_value() && *last_signature_ == sig) return false;
    last_signature_ = sig;
    return true;
  }

  /// Groups `view_` by dense key id, folds each group's members in view
  /// order and emits one aggregate per group in ascending key order (the
  /// key ranks), stamped with the last granule of the window ending at
  /// `end`.
  void EmitGroups(Timestamp end) {
    const std::vector<uint32_t>& rank = keys_.Ranks();
    group_of_.resize(keys_.size(), kNoGroup);
    groups_.clear();
    sizes_.clear();
    for (const Slot* s : view_) {
      uint32_t& g = group_of_[s->key];
      if (g == kNoGroup) {
        g = static_cast<uint32_t>(groups_.size());
        groups_.push_back(s->key);
        sizes_.push_back(0);
      }
      ++sizes_[g];
    }
    order_.resize(groups_.size());
    for (uint32_t g = 0; g < order_.size(); ++g) order_[g] = g;
    std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
      return rank[groups_[a]] < rank[groups_[b]];
    });
    // Lay the groups out back to back in emission order; sizes_ turns
    // into each group's write cursor and ends at its end.
    uint32_t at = 0;
    for (uint32_t g : order_) {
      uint32_t n = sizes_[g];
      sizes_[g] = at;
      at += n;
    }
    members_.resize(view_.size());
    for (const Slot* s : view_) {
      members_[sizes_[group_of_[s->key]]++] = s->tuple.get();
    }
    for (uint32_t key : groups_) group_of_[key] = kNoGroup;

    Timestamp out_ts =
        output_schema()->temporal_granularity().Truncate(end - 1);
    stt::RefBatch out(output_schema());
    uint32_t begin = 0;
    for (uint32_t g : order_) {
      Members tuples(members_.data() + begin, sizes_[g] - begin);
      begin = sizes_[g];
      std::vector<Value> values;
      // Group keys (taken from the first member).
      for (size_t idx : group_indexes_) {
        values.push_back(tuples.front()->value(idx));
      }
      if (spec_.func == AggFunc::kCount && attr_indexes_.empty()) {
        values.push_back(Value::Int(static_cast<int64_t>(tuples.size())));
      }
      for (size_t idx : attr_indexes_) {
        values.push_back(Aggregate(tuples, idx));
      }
      out.Add(Tuple::Share(Tuple::MakeUnsafe(output_schema(), std::move(values),
                                             out_ts, Centroid(tuples))));
    }
    EmitAll(out);
  }

  using Members = std::span<const Tuple* const>;

  Value Aggregate(Members tuples, size_t idx) const {
    int64_t count = 0;
    double sum = 0;
    const Value* min_v = nullptr;
    const Value* max_v = nullptr;
    for (const Tuple* t : tuples) {
      const Value& v = t->value(idx);
      if (v.is_null()) continue;
      ++count;
      if (v.is_numeric()) sum += *v.ToNumeric();
      if (min_v == nullptr || Value::Compare(v, *min_v) < 0) min_v = &v;
      if (max_v == nullptr || Value::Compare(v, *max_v) > 0) max_v = &v;
    }
    switch (spec_.func) {
      case AggFunc::kCount: return Value::Int(count);
      case AggFunc::kSum: return count > 0 ? Value::Double(sum) : Value::Null();
      case AggFunc::kAvg:
        return count > 0 ? Value::Double(sum / static_cast<double>(count))
                         : Value::Null();
      case AggFunc::kMin: return min_v != nullptr ? *min_v : Value::Null();
      case AggFunc::kMax: return max_v != nullptr ? *max_v : Value::Null();
    }
    return Value::Null();
  }

  /// Centroid of the group's located tuples.
  static std::optional<stt::GeoPoint> Centroid(Members tuples) {
    double lat = 0, lon = 0;
    size_t n = 0;
    for (const Tuple* t : tuples) {
      if (t->location().has_value()) {
        lat += t->location()->lat;
        lon += t->location()->lon;
        ++n;
      }
    }
    if (n == 0) return std::nullopt;
    return stt::GeoPoint{lat / static_cast<double>(n),
                         lon / static_cast<double>(n)};
  }

  AggregationSpec spec_;
  std::vector<size_t> group_indexes_;
  std::vector<size_t> attr_indexes_;
  PaneStore store_;
  KeyInterner keys_;
  std::string key_form_;  ///< KeyOf scratch
  std::optional<uint64_t> last_signature_;
  // EmitGroups scratch, kept across fires.
  View view_;
  std::vector<uint32_t> group_of_;  ///< key id → group, kNoGroup between fires
  std::vector<uint32_t> groups_;    ///< group → key id
  std::vector<uint32_t> sizes_;
  std::vector<uint32_t> order_;
  std::vector<const Tuple*> members_;
};

/// s1 |><|_{pred}^{t} s2
///
/// Both pairing strategies emit the rows, in the same order, that the
/// nested loop materializing every pair before evaluating the predicate
/// would (tests/reference holds that loop):
///  - non-equi: enumerate the cross product; the predicate runs over a
///    zero-copy PairView and only matching pairs materialize;
///  - hash equi-join: both inputs intern the predicate's equi-conjunct
///    columns to one key id per tuple; each left tuple probes the right
///    store's per-pane key buckets and only key-equal candidates see the
///    residual predicate. Buckets keep the panes' slot order, so probing
///    enumerates exactly the pairs the nested loop would have accepted,
///    in the same order.
class JoinOperator : public BlockingOperator {
 public:
  JoinOperator(std::string name, stt::SchemaPtr out_schema, JoinSpec spec,
               expr::BoundExpr predicate,
               std::optional<expr::BoundExpr> residual,
               std::vector<size_t> left_cols, std::vector<size_t> right_cols,
               size_t split, size_t max_cache)
      : BlockingOperator(std::move(name), OpKind::kJoin, std::move(out_schema),
                         spec.interval, spec.window),
        predicate_(std::move(predicate)),
        residual_(std::move(residual)),
        left_cols_(std::move(left_cols)),
        right_cols_(std::move(right_cols)),
        split_(split),
        left_(max_cache),
        right_(max_cache) {}

  Status Process(size_t port, const TupleRef& tuple) override {
    CountIn();
    if (port > 1) {
      return Status::InvalidArgument(
          StrFormat("join has inputs 0 and 1, got port %zu", port));
    }
    CountRange(port, *tuple);
    if (!Admit(tuple)) return Status::OK();
    PaneStore& store = port == 0 ? left_ : right_;
    stats_.dropped +=
        store.Add(PaneOf(store, tuple->timestamp()), tuple,
                  KeyOf(*tuple, port == 0 ? left_cols_ : right_cols_));
    if (keys_.size() > 2 * (left_.size() + right_.size()) + kKeySlack) {
      CompactKeys();
    }
    stats_.cache_size = left_.size() + right_.size();
    return Status::OK();
  }

  Status Flush(Timestamp now) override {
    ++stats_.flushes;
    const auto& tgran = output_schema()->temporal_granularity();
    if (event_time()) {
      Timestamp horizon = Horizon();
      if (horizon == stt::kNoWatermark) return Status::OK();
      for (Timestamp end : event_.Advance(horizon, OccupiedPanes())) {
        PaneStore::Range window = WindowRange(end);
        left_.Read(window, /*sorted=*/true, &lview_);
        right_.Read(window, /*sorted=*/true, &rview_);
        if (lview_.empty() || rview_.empty()) continue;
        stt::RefBatch out(output_schema());
        SL_RETURN_IF_ERROR(PairWindow(window, end, tgran, &out));
        EmitAll(out);
      }
      left_.EvictOlderThan(event_.EvictionCutoff());
      right_.EvictOlderThan(event_.EvictionCutoff());
    } else {
      // The window closes at the flush tick and holds everything cached:
      // tumbling windows then start over; sliding ones expire what fell
      // out of the window first and pair each combination once.
      if (sliding()) {
        left_.EvictOlderThan(now - window_);
        right_.EvictOlderThan(now - window_);
      }
      left_.Read({}, /*sorted=*/false, &lview_);
      right_.Read({}, /*sorted=*/false, &rview_);
      stt::RefBatch out(output_schema());
      SL_RETURN_IF_ERROR(PairWindow({}, 0, tgran, &out));
      EmitAll(out);
      if (sliding()) {
        MarkAllSeen();
        left_.CloseEpoch();
        right_.CloseEpoch();
      } else {
        left_.Clear();
        right_.Clear();
      }
    }
    stats_.cache_size = left_.size() + right_.size();
    return Status::OK();
  }

  Timestamp output_watermark() const override { return FiredWatermark(); }

 private:
  bool hash_join() const { return !left_cols_.empty(); }

  /// Marks everything cached so far as paired (processing-time sliding).
  void MarkAllSeen() {
    left_seen_ = left_.next_seq();
    right_seen_ = right_.next_seq();
  }

  /// The interned canonical form of a tuple's equi-conjunct columns
  /// (JoinKeyForm), or kNullKey / kNanKey.
  uint32_t KeyOf(const Tuple& t, const std::vector<size_t>& cols) {
    if (cols.empty()) return 0;  // non-equi: keys are never read
    switch (JoinKeyForm(t, cols, &key_form_)) {
      case JoinKeyKind::kNull: return PaneStore::kNullKey;
      case JoinKeyKind::kNan: return PaneStore::kNanKey;
      case JoinKeyKind::kNormal: break;
    }
    return keys_.Intern(key_form_);
  }

  void CompactKeys() {
    std::vector<bool> used(keys_.size());
    left_.MarkKeys(&used);
    right_.MarkKeys(&used);
    std::vector<uint32_t> remap = keys_.Compact(used);
    left_.RemapKeys(remap);
    right_.RemapKeys(remap);
  }

  /// Ascending starts of the panes either side holds.
  std::vector<Timestamp> OccupiedPanes() const {
    std::vector<Timestamp> panes = left_.PaneKeys();
    std::vector<Timestamp> right = right_.PaneKeys();
    panes.insert(panes.end(), right.begin(), right.end());
    std::sort(panes.begin(), panes.end());
    panes.erase(std::unique(panes.begin(), panes.end()), panes.end());
    return panes;
  }

  /// \brief Pairs the views read for one window: each left slot in view
  /// order with its candidates in right view order.
  ///
  /// Under event time (`end` is the fired end) a pair fires at exactly
  /// one end, the one whose closing pane holds its pair time
  /// max(l.ts, r.ts), so a left tuple before the closing pane probes
  /// only that pane. Under processing time (`end` is 0) a sliding window
  /// pairs each combination once: on the first flush that holds both.
  Status PairWindow(const PaneStore::Range& window, Timestamp end,
                    const stt::TemporalGranularity& tgran,
                    stt::RefBatch* out) {
    const bool event = event_time();
    const Timestamp closing = end - interval();
    const PaneStore::Range closing_pane{closing, end, closing, end};
    for (const Slot* l : lview_) {
      const View* candidates = &rview_;
      if (hash_join()) {
        if (l->key == PaneStore::kNullKey) continue;  // equals nothing
        // A NaN key equals every numeric, so no bucket narrows it: it
        // scans the whole right view.
        if (l->key != PaneStore::kNanKey) {
          right_.Probe(l->key,
                       event && l->ts < closing ? closing_pane : window,
                       &candidates_);
          candidates = &candidates_;
        }
      }
      for (const Slot* r : *candidates) {
        if (event ? std::max(l->ts, r->ts) < closing
                  : sliding() && l->seq < left_seen_ && r->seq < right_seen_) {
          continue;
        }
        if (!hash_join()) {
          SL_RETURN_IF_ERROR(
              JoinPairFast(*l->tuple, *r->tuple, predicate_, tgran, out));
        } else if (KeysMatch(*l->tuple, *r->tuple)) {
          SL_RETURN_IF_ERROR(EmitIfResidual(*l->tuple, *r->tuple, tgran, out));
        }
      }
    }
    return Status::OK();
  }

  bool KeysMatch(const Tuple& l, const Tuple& r) const {
    for (size_t i = 0; i < left_cols_.size(); ++i) {
      if (!JoinKeyEquals(l.value(left_cols_[i]), r.value(right_cols_[i]))) {
        return false;
      }
    }
    return true;
  }

  /// Materializes the concatenated tuple for a matching pair.
  void AddJoined(const Tuple& l, const Tuple& r, Timestamp ts,
                 stt::RefBatch* out) {
    std::vector<Value> values;
    values.reserve(l.values().size() + r.values().size());
    values.insert(values.end(), l.values().begin(), l.values().end());
    values.insert(values.end(), r.values().begin(), r.values().end());
    std::optional<stt::GeoPoint> loc =
        l.location().has_value() ? l.location() : r.location();
    out->Add(Tuple::Share(
        Tuple::MakeUnsafe(output_schema(), std::move(values), ts, loc)));
  }

  /// Fast pairing: the predicate runs over a zero-copy view of the
  /// prospective pair; only matches materialize.
  Status JoinPairFast(const Tuple& l, const Tuple& r,
                      const expr::BoundExpr& pred,
                      const stt::TemporalGranularity& tgran,
                      stt::RefBatch* out) {
    Timestamp ts = tgran.Truncate(std::max(l.timestamp(), r.timestamp()));
    expr::PairView pair{&l, &r, split_, ts, output_schema().get()};
    SL_ASSIGN_OR_RETURN(bool match, pred.EvalPredicatePair(pair));
    if (match) AddJoined(l, r, ts, out);
    return Status::OK();
  }

  /// Key-equal candidate: only the residual (non-equi) part of the
  /// predicate is left to check.
  Status EmitIfResidual(const Tuple& l, const Tuple& r,
                        const stt::TemporalGranularity& tgran,
                        stt::RefBatch* out) {
    Timestamp ts = tgran.Truncate(std::max(l.timestamp(), r.timestamp()));
    bool match = true;
    if (residual_.has_value()) {
      expr::PairView pair{&l, &r, split_, ts, output_schema().get()};
      SL_ASSIGN_OR_RETURN(match, residual_->EvalPredicatePair(pair));
    }
    if (match) AddJoined(l, r, ts, out);
    return Status::OK();
  }

  expr::BoundExpr predicate_;
  /// Residual of the equi-conjunct decomposition; nullopt = vacuously
  /// true (every conjunct became a hash key).
  std::optional<expr::BoundExpr> residual_;
  /// Equi-conjunct key columns, side-local (left tuple / right tuple).
  std::vector<size_t> left_cols_;
  std::vector<size_t> right_cols_;
  size_t split_;
  PaneStore left_;
  PaneStore right_;
  KeyInterner keys_;      ///< one id space for both inputs
  std::string key_form_;  ///< KeyOf scratch
  // PairWindow scratch, kept across fires.
  View lview_;
  View rview_;
  View candidates_;
  // Sequence marks of the previous flush (processing-time sliding).
  uint64_t left_seen_ = 0;
  uint64_t right_seen_ = 0;
};

/// (+)_{ON/OFF,t}(s, {s1..sn}, cond) — pass-through stream, periodic
/// condition check over the cache, side-effecting activation.
class TriggerOperator : public BlockingOperator {
 public:
  TriggerOperator(std::string name, OpKind kind, stt::SchemaPtr schema,
                  TriggerSpec spec, expr::BoundExpr condition,
                  ActivationHandler* activation, size_t max_cache)
      : BlockingOperator(std::move(name), kind, std::move(schema),
                         spec.interval, spec.window),
        targets_(std::move(spec.target_sensors)),
        condition_(std::move(condition)),
        activation_(activation),
        store_(max_cache) {}

  Status Process(size_t, const TupleRef& tuple) override {
    CountIn();
    CountRange(0, *tuple);
    Emit(tuple);  // pass-through, regardless of window lateness
    if (!Admit(tuple)) return Status::OK();
    stats_.dropped +=
        store_.Add(PaneOf(store_, tuple->timestamp()), tuple, /*key=*/0);
    stats_.cache_size = store_.size();
    return Status::OK();
  }

  /// Checks the condition once per closing window — every aligned end
  /// the frontier passed (event time), or the flush tick (processing
  /// time); `now` dates the activation side effect either way.
  Status Flush(Timestamp now) override {
    ++stats_.flushes;
    if (event_time()) {
      Timestamp horizon = Horizon();
      if (horizon == stt::kNoWatermark) return Status::OK();
      for (Timestamp end : event_.Advance(horizon, store_.PaneKeys())) {
        store_.Read(WindowRange(end), /*sorted=*/true, &view_);
        SL_RETURN_IF_ERROR(CheckWindow(now));
      }
      store_.EvictOlderThan(event_.EvictionCutoff());
    } else {
      if (sliding()) store_.EvictOlderThan(now - window_);
      store_.Read({}, /*sorted=*/false, &view_);
      SL_RETURN_IF_ERROR(CheckWindow(now));
      if (sliding()) {
        store_.CloseEpoch();
      } else {
        store_.Clear();
      }
    }
    stats_.cache_size = store_.size();
    return Status::OK();
  }

  // No output_watermark override: the output stream is the pass-through
  // stream, so the input frontier is the right promise for it.

 private:
  /// Fires when some member of `view_` satisfies the condition.
  Status CheckWindow(Timestamp now) {
    for (const Slot* s : view_) {
      SL_ASSIGN_OR_RETURN(bool hit, condition_.EvalPredicate(*s->tuple));
      if (!hit) continue;
      FireActivation(now);
      break;
    }
    return Status::OK();
  }

  void FireActivation(Timestamp now) {
    ++stats_.trigger_fires;
    if (activation_ != nullptr) {
      if (kind() == OpKind::kTriggerOn) {
        activation_->ActivateSensors(targets_, now);
      } else {
        activation_->DeactivateSensors(targets_, now);
      }
    }
  }

  std::vector<std::string> targets_;
  expr::BoundExpr condition_;
  ActivationHandler* activation_;
  PaneStore store_;
  View view_;
};

/// Builds operator `name` from what the check of its spec bound; `in`
/// is its (first) input schema.
Result<std::unique_ptr<Operator>> BuildOperator(
    const std::string& name, OpKind op, const dataflow::OpSpec& spec,
    const stt::SchemaPtr& in, dataflow::CheckedOp checked,
    const OperatorOptions& options) {
  // A zero-sized cache would make a blocking operator a silent no-op:
  // PaneStore::Add immediately evicts the tuple it just admitted.
  if (dataflow::IsBlocking(op) && options.max_cache_tuples == 0) {
    return Status::InvalidArgument(
        "blocking operator '" + name +
        "' needs max_cache_tuples > 0 (a zero cache evicts every tuple "
        "immediately, so the operator would never produce anything)");
  }

  stt::SchemaPtr& out_schema = checked.schema;
  std::unique_ptr<Operator> built;
  switch (op) {
    case OpKind::kFilter:
      built.reset(
          new FilterOperator(name, out_schema, std::move(checked.expr)));
      break;
    case OpKind::kTransform: {
      ValueType out_type = out_schema->fields()[checked.attribute].type;
      built.reset(new TransformOperator(name, out_schema, checked.attribute,
                                        out_type, std::move(checked.expr)));
      break;
    }
    case OpKind::kVirtualProperty: {
      ValueType out_type = out_schema->fields().back().type;
      built.reset(new VirtualPropertyOperator(name, out_schema, out_type,
                                              std::move(checked.expr)));
      break;
    }
    case OpKind::kCullTime: {
      const auto& s = std::get<CullTimeSpec>(spec);
      built.reset(new CullTimeOperator(name, out_schema, s));
      break;
    }
    case OpKind::kCullSpace: {
      const auto& s = std::get<CullSpaceSpec>(spec);
      built.reset(new CullSpaceOperator(name, out_schema, s));
      break;
    }
    case OpKind::kAggregation: {
      const auto& s = std::get<AggregationSpec>(spec);
      auto agg = std::make_unique<AggregationOperator>(
          name, out_schema, in, s, options.max_cache_tuples);
      if (s.parallelism > 1) {
        agg->PartitionBy(s.parallelism, std::move(checked.partition_cols));
      }
      built = std::move(agg);
      break;
    }
    case OpKind::kJoin: {
      const auto& s = std::get<JoinSpec>(spec);
      std::vector<size_t> left_cols;
      std::vector<size_t> right_cols;
      for (const dataflow::EquiConjunct& c : checked.equi) {
        left_cols.push_back(c.left_index);
        right_cols.push_back(c.right_index - checked.split);
      }
      auto join = std::make_unique<JoinOperator>(
          name, out_schema, s, std::move(checked.expr),
          std::move(checked.residual), std::move(left_cols),
          std::move(right_cols), checked.split, options.max_cache_tuples);
      if (s.parallelism > 1) {
        join->PartitionBy(s.parallelism, std::move(checked.partition_cols));
      }
      built = std::move(join);
      break;
    }
    case OpKind::kTriggerOn:
    case OpKind::kTriggerOff: {
      const auto& s = std::get<TriggerSpec>(spec);
      if (options.activation == nullptr) {
        return Status::InvalidArgument(
            "trigger operator '" + name +
            "' needs an ActivationHandler (OperatorOptions::activation)");
      }
      auto trigger = std::make_unique<TriggerOperator>(
          name, op, out_schema, s, std::move(checked.expr),
          options.activation, options.max_cache_tuples);
      if (s.parallelism > 1) {
        trigger->PartitionBy(s.parallelism,
                             std::move(checked.partition_cols));
      }
      built = std::move(trigger);
      break;
    }
  }
  if (built == nullptr) {
    return Status::Internal("unreachable op kind in MakeOperator");
  }
  built->set_watermark_options(options.watermark);
  return built;
}

}  // namespace

Result<std::unique_ptr<Operator>> MakeOperator(
    const std::string& name, dataflow::OpKind op,
    const dataflow::OpSpec& spec,
    const std::vector<stt::SchemaPtr>& input_schemas,
    const std::vector<std::string>& input_names,
    const OperatorOptions& options) {
  std::vector<dataflow::Issue> issues;
  dataflow::CheckedOp checked = dataflow::Validator::CheckOp(
      op, spec, input_schemas, input_names, &issues);
  SL_RETURN_IF_ERROR(dataflow::FirstError(issues));
  return BuildOperator(name, op, spec, input_schemas[0], std::move(checked),
                       options);
}

Duration FirstFlushOffset(
    const dataflow::Dataflow& dataflow, const std::string& name,
    Duration interval,
    const std::function<bool(const std::string&)>& blocking) {
  Duration depth = 0;
  for (const auto& n : dataflow.topological_order()) {
    if (n == name) break;
    if ((*dataflow.node(n))->kind == dataflow::NodeKind::kOperator &&
        blocking(n)) {
      ++depth;
    }
  }
  return interval + kDefaultFlushStaggerMs * depth;
}

Result<BuiltDataflow> BuildDataflow(const dataflow::Dataflow& dataflow,
                                    const pubsub::Broker* broker,
                                    const OperatorOptions& options) {
  BuiltDataflow built;
  dataflow::Validator validator(broker);
  SL_ASSIGN_OR_RETURN(built.report, validator.Validate(dataflow));
  if (!built.report.ok()) {
    return Status::ValidationError("cannot build dataflow '" +
                                   dataflow.name() + "':\n" +
                                   built.report.ToString());
  }
  auto blocking = [&built](const std::string& n) {
    return built.operators.at(n).op->is_blocking();
  };
  for (const auto& name : dataflow.OperatorNames()) {
    const dataflow::Node& node = **dataflow.node(name);
    BuiltOperator b;
    SL_ASSIGN_OR_RETURN(
        b.op, BuildOperator(name, node.op, node.spec,
                            built.report.schemas.at(node.inputs[0]),
                            built.report.ops.at(name), options));
    if (b.op->is_blocking()) {
      b.first_flush =
          FirstFlushOffset(dataflow, name, b.op->interval(), blocking);
    }
    built.operators.emplace(name, std::move(b));
  }
  return built;
}

}  // namespace sl::ops
