// Implementations of the nine Table 1 operators and their factory.
//
// Time convention: every window is half-open, [begin, end) — a tuple
// with timestamp() == end belongs to the *next* window (DESIGN.md §8).

#include <algorithm>
#include <map>
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

/// SplitMix64 finalizer: spreads a wrapper-assigned global sequence
/// number into a well-mixed 64-bit word so the XOR-combined window
/// signatures below behave like a random hash of the member set.
uint64_t MixGseq(uint64_t g) {
  g += 0x9e3779b97f4a7c15ull;
  g = (g ^ (g >> 30)) * 0xbf58476d1ce4e5b9ull;
  g = (g ^ (g >> 27)) * 0x94d049bb133111ebull;
  return g ^ (g >> 31);
}

/// What the three blocking operators share: the event grid, the pane an
/// arrival goes to, and the window a fired end reads.
class BlockingOperator : public Operator {
 public:
  /// The fired end a rescaled shard set restores (kNoWatermark before
  /// the grid initialized).
  Timestamp shard_fired_end() const {
    return event_.initialized() ? event_.fired_end() : stt::kNoWatermark;
  }
  /// Re-anchors a fresh event grid at `end` (interval-aligned): fires
  /// nothing, but IsLate and the next Advance behave as if this
  /// instance had fired up to `end` already.
  void RestoreFiredEnd(Timestamp end) { event_.Advance(end, {}); }

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
    return shard_fired_end();
  }

  EventWindow event_;
  Duration window_;
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
    if (!Admit(tuple)) return Status::OK();
    stats_.dropped +=
        store_.Add(PaneOf(store_, tuple->timestamp()), tuple, KeyOf(*tuple),
                   shard_mode_ ? pending_gseq_ : store_.next_seq());
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

  // -- shard-mode hooks (key-partitioned wrapper) --------------------------
  //
  // In shard mode the operator is one of N key-partitioned instances:
  // it never deduplicates sliding windows itself (the wrapper decides
  // globally from the combined shard signatures), and it tags every
  // emission with the window it belongs to.

  /// One recorded window signature: `tag` is the flush tick
  /// (processing regime) or the fired window end (event regime). The
  /// signature is the XOR of the mixed wrapper-level sequence numbers
  /// of the window's live members plus their count — commutative, so
  /// the wrapper can combine shard slices by XOR/sum into a value that
  /// does not depend on how many shards the members are spread over
  /// (which is what lets sliding-window dedup survive a rescale).
  struct ShardSig {
    Timestamp tag;
    uint64_t sig;
    uint64_t count;
  };

  void EnableShardMode(size_t) { shard_mode_ = true; }
  /// Wrapper-level sequence number the next cached tuple arrives as
  /// (called immediately before each shard-mode Process, ascending).
  void SetPendingGseq(uint64_t gseq) { pending_gseq_ = gseq; }
  /// Tag of the window the currently captured emission belongs to.
  Timestamp shard_tag() const { return shard_tag_; }
  std::vector<ShardSig> TakeShardSigs() { return std::move(shard_sigs_); }
  /// The cached tuples in arrival order; each slot's seq is its
  /// wrapper-level sequence number (rescale replays them).
  View ShardArrivals() const { return store_.Arrivals(); }

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
  /// warehouse sink. Tumbling windows always hold fresh data. In shard
  /// mode the wrapper makes that call from the shards' signatures.
  void FireWindow(Timestamp tag) {
    if (shard_mode_) {
      if (sliding()) shard_sigs_.push_back(ShardSigOfView(tag));
      if (view_.empty()) return;
    } else if (view_.empty() || (sliding() && !ChangedSinceLastEmit())) {
      return;
    }
    EmitGroups(tag);
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

  /// Shard-mode window signature of `view_`.
  ShardSig ShardSigOfView(Timestamp tag) const {
    uint64_t sig = 0;
    for (const Slot* s : view_) sig ^= MixGseq(s->seq);
    return {tag, sig, view_.size()};
  }

  /// Groups `view_` by dense key id, folds each group's members in view
  /// order and emits one aggregate per group in ascending key order (the
  /// key ranks), stamped with the last granule of the window ending at
  /// `end`.
  void EmitGroups(Timestamp end) {
    shard_tag_ = end;
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
  // Shard mode (key-partitioned wrapper).
  bool shard_mode_ = false;
  uint64_t pending_gseq_ = 0;
  Timestamp shard_tag_ = 0;
  std::vector<ShardSig> shard_sigs_;
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
    if (!Admit(tuple)) return Status::OK();
    PaneStore& store = port == 0 ? left_ : right_;
    stats_.dropped += store.Add(
        PaneOf(store, tuple->timestamp()), tuple,
        KeyOf(*tuple, port == 0 ? left_cols_ : right_cols_),
        shard_mode_ ? pending_gseq_ : store.next_seq(), pending_broadcast_);
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

  // -- shard-mode hooks (key-partitioned wrapper) --------------------------
  //
  // A shard instance pairs only the keys routed to it; the wrapper
  // restores the single-instance emission order from the provenance tag
  // recorded alongside every pair. NaN keys are broadcast to every
  // shard (they match any key); a pair whose members are BOTH
  // broadcast would be produced by every shard, so shards > 0 suppress
  // it and shard 0 owns the emission.

  /// Provenance of one emitted pair.
  struct PairTag {
    Timestamp end;    ///< fired window end (0 in the processing regime)
    uint64_t lg, rg;  ///< wrapper arrival seqs (processing-regime order)
    TupleRef l, r;    ///< pair members (event-regime order)
  };
  /// One cached tuple with everything a rescale replay needs.
  struct ShardEntry {
    TupleRef tuple;
    uint64_t gseq;
    bool broadcast;
    bool seen;  ///< already paired before the last flush (sliding regime)
  };

  void EnableShardMode(size_t shard_index) {
    shard_mode_ = true;
    shard_index_ = shard_index;
  }
  /// Wrapper-level provenance of the arrival the next Process caches.
  void SetPendingArrival(uint64_t gseq, bool broadcast) {
    pending_gseq_ = gseq;
    pending_broadcast_ = broadcast;
  }
  std::vector<PairTag> TakePairTags() { return std::move(pair_tags_); }

  void ExportShard(std::vector<ShardEntry>* lout,
                   std::vector<ShardEntry>* rout) const {
    for (const Slot* s : left_.Arrivals()) {
      lout->push_back({s->tuple, s->seq, s->broadcast, s->seq < left_seen_});
    }
    for (const Slot* s : right_.Arrivals()) {
      rout->push_back({s->tuple, s->seq, s->broadcast, s->seq < right_seen_});
    }
  }
  /// Marks everything cached so far as paired (rescale replays the
  /// already-seen tuples first, then calls this, then the unseen rest).
  void MarkAllSeen() {
    left_seen_ = left_.next_seq();
    right_seen_ = right_.next_seq();
  }

 private:
  bool hash_join() const { return !left_cols_.empty(); }

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
        StagePair(end, *l, *r);
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

  /// Stages the provenance tag of the pair about to be attempted: the
  /// wrapper orders processing-regime pairs by arrival seqs, and
  /// event-regime pairs within a fired end by the members' event order.
  void StagePair(Timestamp end, const Slot& l, const Slot& r) {
    if (!shard_mode_) return;
    cur_ = event_time() ? PairTag{end, 0, 0, l.tuple, r.tuple}
                        : PairTag{0, l.seq, r.seq, {}, {}};
    cur_suppress_ = shard_index_ > 0 && l.broadcast && r.broadcast;
  }
  /// Books the staged tag; false when the pair is a cross-shard
  /// duplicate (both members broadcast, owned by shard 0).
  bool RecordPair() {
    if (!shard_mode_) return true;
    if (cur_suppress_) return false;
    pair_tags_.push_back(cur_);
    return true;
  }

  /// Materializes the concatenated tuple for a matching pair.
  void AddJoined(const Tuple& l, const Tuple& r, Timestamp ts,
                 stt::RefBatch* out) {
    if (!RecordPair()) return;
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
  // Shard mode (key-partitioned wrapper).
  bool shard_mode_ = false;
  size_t shard_index_ = 0;
  uint64_t pending_gseq_ = 0;
  bool pending_broadcast_ = false;
  PairTag cur_{};
  bool cur_suppress_ = false;
  std::vector<PairTag> pair_tags_;
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
    Emit(tuple);  // pass-through, regardless of window lateness
    if (!Admit(tuple)) return Status::OK();
    stats_.dropped +=
        store_.Add(PaneOf(store_, tuple->timestamp()), tuple, /*key=*/0,
                   store_.next_seq());
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
        SL_RETURN_IF_ERROR(CheckWindow(end, now));
      }
      store_.EvictOlderThan(event_.EvictionCutoff());
    } else {
      if (sliding()) store_.EvictOlderThan(now - window_);
      store_.Read({}, /*sorted=*/false, &view_);
      SL_RETURN_IF_ERROR(CheckWindow(now, now));
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

  // -- shard-mode hooks (key-partitioned wrapper) --------------------------
  //
  // A shard only sees its partition's tuples, so its condition hit is a
  // partial verdict: it records the windows that fired instead of
  // activating, and the wrapper ORs the verdicts across shards and
  // fires each window exactly once.

  void EnableShardMode(size_t) { shard_mode_ = true; }
  /// Windows whose condition held since the last flush: the flush tick
  /// (processing regime) or the fired ends (event regime).
  std::vector<Timestamp> TakeFired() { return std::move(fired_); }
  /// The cached tuples in arrival order (rescale replays them).
  View ShardArrivals() const { return store_.Arrivals(); }

 private:
  /// Fires when some member of `view_` satisfies the condition.
  Status CheckWindow(Timestamp tag, Timestamp now) {
    for (const Slot* s : view_) {
      SL_ASSIGN_OR_RETURN(bool hit, condition_.EvalPredicate(*s->tuple));
      if (!hit) continue;
      if (shard_mode_) {
        fired_.push_back(tag);
      } else {
        FireActivation(now);
      }
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
  // Shard mode (key-partitioned wrapper).
  bool shard_mode_ = false;
  std::vector<Timestamp> fired_;
};

// ---------------------------------------------------------------------------
// Key-partitioned parallelism: N shard instances behind one Operator.
//
// The wrapper is the splitter and the merger in one object: Process
// routes each tuple to the shard owning its partition key, Flush runs
// every shard and re-emits their results in the exact order the single
// instance would have produced — so to the executor (placement, edges,
// flush timers, watermarks) a partitioned operator is indistinguishable
// from a plain one, and to the sink an N-shard deployment is
// bit-identical to N = 1.
// ---------------------------------------------------------------------------

/// FNV-1a over the display form of the partition columns — the same
/// identity GroupKey uses, so a group always lands on one shard.
uint64_t PartitionHash(const Tuple& t, const std::vector<size_t>& cols) {
  uint64_t h = 14695981039346656037ull;
  for (size_t idx : cols) {
    for (unsigned char c : t.value(idx).ToString()) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0x1f;
    h *= 1099511628211ull;
  }
  return h;
}

/// Shared plumbing of the three partitioned wrappers: owns the shards,
/// fans watermark observations out to them (identical frontiers are
/// what keeps their event grids in lockstep), sums their gauges, and
/// captures their flush emissions for the kind-specific merge.
template <typename Inner>
class PartitionedBase : public Operator {
 public:
  /// Makes one instance of the kind under the given name (the same
  /// function that makes a single-instance operator).
  using InstanceFactory =
      std::function<std::unique_ptr<Inner>(const std::string&)>;

  PartitionedBase(std::string name, OpKind kind, stt::SchemaPtr out_schema,
                  Duration interval, size_t parallelism,
                  InstanceFactory factory)
      : Operator(std::move(name), kind, std::move(out_schema), interval),
        factory_(std::move(factory)) {
    AdoptShards(MakeShardSet(parallelism));
  }

  size_t parallelism() const override { return shards_.size(); }

  const OperatorStats* instance_stats(size_t k) const override {
    return k < shards_.size() ? &shards_[k]->stats() : nullptr;
  }

  void ObserveWatermark(size_t port, Timestamp watermark) override {
    Operator::ObserveWatermark(port, watermark);
    for (auto& s : shards_) s->ObserveWatermark(port, watermark);
  }

  void ResetWindowCounters() override {
    Operator::ResetWindowCounters();
    for (auto& s : shards_) s->ResetWindowCounters();
  }

  void set_shard_executor(ShardExecutor executor) override {
    shard_executor_ = std::move(executor);
  }

  Timestamp output_watermark() const override {
    // Min over shards. Identical frontiers move every shard's fired end
    // to the same grid end, so this is the N = 1 value.
    Timestamp min = stt::kNoWatermark;
    for (const auto& s : shards_) {
      Timestamp w = s->output_watermark();
      if (w == stt::kNoWatermark) return stt::kNoWatermark;
      if (min == stt::kNoWatermark || w < min) min = w;
    }
    return min;
  }

 protected:
  /// One emission captured during a shard flush, with the window tag it
  /// belonged to (aggregation only; joins carry provenance separately).
  struct CapturedRow {
    size_t shard;
    Timestamp tag;
    TupleRef tuple;
  };

  /// Takes ownership of a shard set, rewiring emit hooks. Outside a
  /// flush (trigger pass-through) shard emissions flow straight out.
  /// Captured emissions go to a per-shard buffer: during a parallel
  /// flush each shard's thread writes only its own buffer, and the
  /// buffers concatenate in shard index order — exactly the order the
  /// sequential shard-by-shard flush appends to one shared vector.
  void AdoptShards(std::vector<std::unique_ptr<Inner>> shards) {
    shards_ = std::move(shards);
    shard_captured_.resize(shards_.size());
    for (size_t k = 0; k < shards_.size(); ++k) {
      Inner* shard = shards_[k].get();
      shard->EnableShardMode(k);
      shard->set_emit([this, shard, k](const TupleRef& t) {
        if (capturing_) {
          shard_captured_[k].push_back({k, ShardTagOf(*shard), t});
        } else {
          Emit(t);
        }
      });
      shard->set_late_emit([this](const TupleRef& t) { ForwardLate(t); });
    }
  }

  /// Tag of the emission being captured; kinds that do not tag rows
  /// leave it at 0.
  virtual Timestamp ShardTagOf(const Inner& shard) const {
    (void)shard;
    return 0;
  }

  /// Flushes every shard — concurrently when a ShardExecutor is
  /// installed, in index order otherwise — with emissions diverted into
  /// the per-shard capture buffers, then concatenated into `captured_`
  /// for the caller's merge. Keys (and so emissions) are disjoint
  /// across shards and the concatenation is in shard index order, so
  /// the merged vector is identical either way.
  Status FlushShards(Timestamp now) {
    DiscardCaptured();
    capturing_ = true;
    std::vector<Status> statuses(shards_.size(), Status::OK());
    auto flush_one = [&](size_t k) { statuses[k] = shards_[k]->Flush(now); };
    if (shard_executor_ && shards_.size() > 1) {
      shard_executor_(shards_.size(), flush_one);
    } else {
      for (size_t k = 0; k < shards_.size(); ++k) flush_one(k);
    }
    capturing_ = false;
    size_t total = 0;
    for (const auto& rows : shard_captured_) total += rows.size();
    captured_.reserve(total);
    for (auto& rows : shard_captured_) {
      captured_.insert(captured_.end(), std::make_move_iterator(rows.begin()),
                       std::make_move_iterator(rows.end()));
      rows.clear();
    }
    for (const Status& status : statuses) {
      if (!status.ok()) return status;
    }
    return Status::OK();
  }

  /// Drops everything captured so far (both the merged vector and the
  /// per-shard buffers a suppressed rescale replay may have filled).
  void DiscardCaptured() {
    captured_.clear();
    for (auto& rows : shard_captured_) rows.clear();
  }

  /// Sums the cache/lateness gauges over the shards; the in/out/flush
  /// counters stay wrapper-maintained (a broadcast counts once).
  void RefreshGauges() {
    stats_.dropped = 0;
    stats_.cache_size = 0;
    stats_.late_dropped = 0;
    stats_.late_routed = 0;
    for (const auto& s : shards_) {
      stats_.dropped += s->stats().dropped;
      stats_.cache_size += s->stats().cache_size;
      stats_.late_dropped += s->stats().late_dropped;
      stats_.late_routed += s->stats().late_routed;
    }
  }

  /// Highest fired window end across shards (kNoWatermark before any
  /// grid initialized) — the anchor a rescaled shard set restores.
  Timestamp FiredEnd() const {
    Timestamp fired = stt::kNoWatermark;
    for (const auto& s : shards_) {
      Timestamp f = s->shard_fired_end();
      if (f == stt::kNoWatermark) continue;
      if (fired == stt::kNoWatermark || f > fired) fired = f;
    }
    return fired;
  }

  /// Builds a fresh shard set of size `n` (shard k is named "name#k"),
  /// event grids restored to the current fired end.
  std::vector<std::unique_ptr<Inner>> MakeShardSet(size_t n) {
    Timestamp fired = FiredEnd();
    std::vector<std::unique_ptr<Inner>> next;
    next.reserve(n);
    for (size_t k = 0; k < n; ++k) {
      next.push_back(factory_(name() + "#" + std::to_string(k)));
      if (fired != stt::kNoWatermark) next.back()->RestoreFiredEnd(fired);
    }
    return next;
  }

  std::vector<std::unique_ptr<Inner>> shards_;
  InstanceFactory factory_;
  bool capturing_ = false;
  std::vector<CapturedRow> captured_;
  std::vector<std::vector<CapturedRow>> shard_captured_;
  ShardExecutor shard_executor_;
};

/// Aggregation splitter/merger. Routing is by group key (or a declared
/// subset of it), so every group is wholly owned by one shard; the merge
/// re-sorts each fired window's rows into the ascending-key order the
/// single instance emits, and re-creates the sliding-regime "emit only
/// when the window changed" dedup from the combined shard signatures
/// (a global window changed iff some shard's slice changed — shards
/// partition the window).
class PartitionedAggregation : public PartitionedBase<AggregationOperator> {
 public:
  PartitionedAggregation(std::string name, stt::SchemaPtr out_schema,
                         const AggregationSpec& spec,
                         std::vector<size_t> part_cols,
                         InstanceFactory factory)
      : PartitionedBase(std::move(name), OpKind::kAggregation,
                        std::move(out_schema), spec.interval,
                        spec.parallelism, std::move(factory)),
        sliding_(spec.window > 0),
        group_count_(spec.group_by.size()),
        part_cols_(std::move(part_cols)) {}

  int route_instance(size_t, const TupleRef& tuple) const override {
    return static_cast<int>(PartitionHash(*tuple, part_cols_) %
                            shards_.size());
  }

  Status Process(size_t port, const TupleRef& tuple) override {
    CountIn();
    AggregationOperator* shard = shards_[route_instance(port, tuple)].get();
    // Every admitted tuple gets a wrapper-level sequence number; window
    // signatures hash these instead of per-cache seqs, so they stay
    // comparable across shard sets (a rescale replay re-attaches them).
    shard->SetPendingGseq(next_gseq_++);
    Status status = shard->Process(port, tuple);
    RefreshGauges();
    return status;
  }

  Status Flush(Timestamp now) override {
    ++stats_.flushes;
    SL_RETURN_IF_ERROR(FlushShards(now));
    std::vector<std::vector<AggregationOperator::ShardSig>> sigs;
    sigs.reserve(shards_.size());
    for (auto& s : shards_) sigs.push_back(s->TakeShardSigs());
    if (sliding_) {
      // Each shard fires only the windows its own panes reach, so the
      // signatures are matched by window tag. The shards partition a
      // window's members, so XOR-ing their signatures (and summing their
      // counts) yields a value that identifies the member set
      // independently of the shard count. A window empty everywhere is
      // one the single instance skips without touching its dedup state.
      std::map<Timestamp, std::pair<uint64_t, uint64_t>> windows;
      for (const auto& shard_sigs : sigs) {
        for (const auto& s : shard_sigs) {
          auto& [sig, count] = windows[s.tag];
          sig ^= s.sig;
          count += s.count;
        }
      }
      for (const auto& [tag, merged] : windows) {
        const auto& [sig, count] = merged;
        if (count == 0) continue;
        bool changed = !has_last_ || sig != last_sig_ || count != last_count_;
        last_sig_ = sig;
        last_count_ = count;
        has_last_ = true;
        if (changed) EmitWindow(tag);
      }
    } else {
      std::vector<Timestamp> tags;
      tags.reserve(captured_.size());
      for (const auto& row : captured_) tags.push_back(row.tag);
      std::sort(tags.begin(), tags.end());
      tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
      for (Timestamp tag : tags) EmitWindow(tag);
    }
    RefreshGauges();
    return Status::OK();
  }

  Status Rescale(size_t n) override {
    if (n == 0) {
      return Status::InvalidArgument("parallelism must be at least 1");
    }
    if (n == shards_.size()) return Status::OK();
    auto next = MakeShardSet(n);
    std::vector<std::unique_ptr<AggregationOperator>> old =
        std::move(shards_);
    AdoptShards(std::move(next));
    // Replay in wrapper arrival order through the normal Process path:
    // every group lives wholly inside one old and one new shard, so each
    // group's fold order (and with it every floating-point result)
    // survives. Each replayed tuple re-attaches the wrapper-level
    // sequence number it carried in the old shard set, which keeps the
    // XOR-combined window signatures — and with them the sliding-window
    // dedup state (last_sig_/last_count_) — valid across the
    // repartition: an unchanged window after the rescale is still
    // recognized as unchanged and not re-emitted.
    std::vector<const PaneStore::Slot*> arrivals;
    for (const auto& s : old) {
      PaneStore::View v = s->ShardArrivals();
      arrivals.insert(arrivals.end(), v.begin(), v.end());
    }
    std::sort(arrivals.begin(), arrivals.end(),
              [](const PaneStore::Slot* a, const PaneStore::Slot* b) {
                return a->seq < b->seq;
              });
    capturing_ = true;  // replayed Process must not leak emissions
    Status status = Status::OK();
    for (const PaneStore::Slot* e : arrivals) {
      AggregationOperator* shard = shards_[route_instance(0, e->tuple)].get();
      shard->SetPendingGseq(e->seq);
      status = shard->Process(0, e->tuple);
      if (!status.ok()) break;
    }
    capturing_ = false;
    DiscardCaptured();
    RefreshGauges();
    return status;
  }

 protected:
  Timestamp ShardTagOf(const AggregationOperator& shard) const override {
    return shard.shard_tag();
  }

 private:
  /// Emits one fired window's rows in ascending group-key order (keys
  /// are disjoint across shards, so this is a pure merge).
  void EmitWindow(Timestamp tag) {
    std::vector<std::pair<std::string, const TupleRef*>> rows;
    for (const auto& row : captured_) {
      if (row.tag != tag) continue;
      std::string key;
      for (size_t i = 0; i < group_count_; ++i) {
        row.tuple->value(i).AppendTo(&key);
        key += '\x1f';
      }
      rows.emplace_back(std::move(key), &row.tuple);
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (const auto& [key, tuple] : rows) Emit(*tuple);
  }

  bool sliding_;
  size_t group_count_;
  std::vector<size_t> part_cols_;
  uint64_t next_gseq_ = 0;
  uint64_t last_sig_ = 0;
  uint64_t last_count_ = 0;
  bool has_last_ = false;
};

/// Join splitter/merger. Routing hashes the equality-key columns (or a
/// declared subset): matching pairs share those keys, so they meet on
/// one shard. NaN keys compare equal to everything and are broadcast;
/// null keys match nothing and are parked on shard 0. The merge re-sorts
/// the pairs by the provenance each shard records — wrapper arrival
/// order in the processing regime, member event order per fired end in
/// the event regime — which is exactly the single instance's
/// enumeration order.
class PartitionedJoin : public PartitionedBase<JoinOperator> {
 public:
  PartitionedJoin(std::string name, stt::SchemaPtr out_schema,
                  const JoinSpec& spec, std::vector<size_t> part_left,
                  std::vector<size_t> part_right, InstanceFactory factory)
      : PartitionedBase(std::move(name), OpKind::kJoin,
                        std::move(out_schema), spec.interval,
                        spec.parallelism, std::move(factory)),
        part_left_(std::move(part_left)),
        part_right_(std::move(part_right)) {}

  int route_instance(size_t port, const TupleRef& tuple) const override {
    JoinKeyInfo key =
        MakeJoinKeyInfo(*tuple, port == 0 ? part_left_ : part_right_);
    if (key.has_nan) return -1;  // equals every key: broadcast
    if (key.has_null) return 0;  // equals nothing: park on shard 0
    return static_cast<int>(key.hash % shards_.size());
  }

  Status Process(size_t port, const TupleRef& tuple) override {
    CountIn();
    if (port > 1) {
      return Status::InvalidArgument(
          StrFormat("join has inputs 0 and 1, got port %zu", port));
    }
    uint64_t gseq = port == 0 ? next_left_gseq_++ : next_right_gseq_++;
    int target = route_instance(port, tuple);
    Status status = Status::OK();
    if (target < 0) {
      for (auto& s : shards_) {
        s->SetPendingArrival(gseq, /*broadcast=*/true);
        status = s->Process(port, tuple);
        if (!status.ok()) break;
      }
    } else {
      shards_[target]->SetPendingArrival(gseq, /*broadcast=*/false);
      status = shards_[target]->Process(port, tuple);
    }
    RefreshGauges();
    return status;
  }

  Status Flush(Timestamp now) override {
    ++stats_.flushes;
    SL_RETURN_IF_ERROR(FlushShards(now));
    // Pair rows with their provenance: shard emissions and tag records
    // are kept in lockstep, so tags[k][i] describes shard k's i-th
    // captured row.
    std::vector<std::vector<JoinOperator::PairTag>> tags(shards_.size());
    for (size_t k = 0; k < shards_.size(); ++k) {
      tags[k] = shards_[k]->TakePairTags();
    }
    struct Item {
      const JoinOperator::PairTag* tag;
      const TupleRef* row;
    };
    std::vector<Item> items;
    items.reserve(captured_.size());
    std::vector<size_t> cursor(shards_.size(), 0);
    for (const auto& row : captured_) {
      items.push_back({&tags[row.shard][cursor[row.shard]++], &row.tuple});
    }
    bool event = event_time();
    std::stable_sort(
        items.begin(), items.end(), [event](const Item& a, const Item& b) {
          if (a.tag->end != b.tag->end) return a.tag->end < b.tag->end;
          if (!event) {
            if (a.tag->lg != b.tag->lg) return a.tag->lg < b.tag->lg;
            return a.tag->rg < b.tag->rg;
          }
          if (EventOrderLess(*a.tag->l, *b.tag->l)) return true;
          if (EventOrderLess(*b.tag->l, *a.tag->l)) return false;
          if (EventOrderLess(*a.tag->r, *b.tag->r)) return true;
          return false;
        });
    for (const auto& item : items) Emit(*item.row);
    RefreshGauges();
    return Status::OK();
  }

  Status Rescale(size_t n) override {
    if (n == 0) {
      return Status::InvalidArgument("parallelism must be at least 1");
    }
    if (n == shards_.size()) return Status::OK();
    // Export both caches with provenance, de-duplicating broadcast
    // copies (same wrapper seq on every shard) and restoring wrapper
    // arrival order.
    std::vector<JoinOperator::ShardEntry> lefts;
    std::vector<JoinOperator::ShardEntry> rights;
    for (const auto& s : shards_) s->ExportShard(&lefts, &rights);
    auto tidy = [](std::vector<JoinOperator::ShardEntry>* v) {
      std::stable_sort(v->begin(), v->end(),
                       [](const auto& a, const auto& b) {
                         return a.gseq < b.gseq;
                       });
      v->erase(std::unique(v->begin(), v->end(),
                           [](const auto& a, const auto& b) {
                             return a.gseq == b.gseq;
                           }),
               v->end());
    };
    tidy(&lefts);
    tidy(&rights);
    auto next = MakeShardSet(n);
    AdoptShards(std::move(next));
    capturing_ = true;  // replayed Process must not leak emissions
    auto feed = [this](const JoinOperator::ShardEntry& e,
                       size_t port) -> Status {
      int target = route_instance(port, e.tuple);
      if (target < 0) {
        for (auto& s : shards_) {
          s->SetPendingArrival(e.gseq, /*broadcast=*/true);
          SL_RETURN_IF_ERROR(s->Process(port, e.tuple));
        }
        return Status::OK();
      }
      shards_[target]->SetPendingArrival(e.gseq, /*broadcast=*/false);
      return shards_[target]->Process(port, e.tuple);
    };
    // Already-paired tuples first, then fix the seen marks over exactly
    // them, then the rest — reproducing each shard's sliding-regime
    // "pair once" bookkeeping for the new partitioning.
    Status status = Status::OK();
    for (const auto& e : lefts) {
      if (e.seen && !(status = feed(e, 0)).ok()) break;
    }
    if (status.ok()) {
      for (const auto& e : rights) {
        if (e.seen && !(status = feed(e, 1)).ok()) break;
      }
    }
    for (auto& s : shards_) s->MarkAllSeen();
    if (status.ok()) {
      for (const auto& e : lefts) {
        if (!e.seen && !(status = feed(e, 0)).ok()) break;
      }
    }
    if (status.ok()) {
      for (const auto& e : rights) {
        if (!e.seen && !(status = feed(e, 1)).ok()) break;
      }
    }
    capturing_ = false;
    DiscardCaptured();
    RefreshGauges();
    return status;
  }

 private:
  std::vector<size_t> part_left_;
  std::vector<size_t> part_right_;
  uint64_t next_left_gseq_ = 0;
  uint64_t next_right_gseq_ = 0;
};

/// Trigger splitter/merger. The pass-through stream flows straight out
/// in arrival order; the condition verdicts are partial (each shard only
/// sees its keys), so the wrapper ORs the shards' fired windows and
/// performs each activation exactly once.
class PartitionedTrigger : public PartitionedBase<TriggerOperator> {
 public:
  PartitionedTrigger(std::string name, OpKind kind, stt::SchemaPtr out_schema,
                     const TriggerSpec& spec, ActivationHandler* activation,
                     std::vector<size_t> part_cols, InstanceFactory factory)
      : PartitionedBase(std::move(name), kind, std::move(out_schema),
                        spec.interval, spec.parallelism, std::move(factory)),
        activation_(activation),
        targets_(spec.target_sensors),
        part_cols_(std::move(part_cols)) {}

  int route_instance(size_t, const TupleRef& tuple) const override {
    return static_cast<int>(PartitionHash(*tuple, part_cols_) %
                            shards_.size());
  }

  Status Process(size_t port, const TupleRef& tuple) override {
    CountIn();
    // The shard's pass-through emission flows straight out (capture is
    // off outside flushes), preserving arrival order.
    Status status = shards_[route_instance(port, tuple)]->Process(port, tuple);
    RefreshGauges();
    return status;
  }

  Status Flush(Timestamp now) override {
    ++stats_.flushes;
    SL_RETURN_IF_ERROR(FlushShards(now));
    std::vector<Timestamp> fired;
    for (auto& s : shards_) {
      auto f = s->TakeFired();
      fired.insert(fired.end(), f.begin(), f.end());
    }
    // One activation per fired window, ascending, however many shards
    // saw a hit in it.
    std::sort(fired.begin(), fired.end());
    fired.erase(std::unique(fired.begin(), fired.end()), fired.end());
    for (size_t i = 0; i < fired.size(); ++i) FireActivation(now);
    RefreshGauges();
    return Status::OK();
  }

  Status Rescale(size_t n) override {
    if (n == 0) {
      return Status::InvalidArgument("parallelism must be at least 1");
    }
    if (n == shards_.size()) return Status::OK();
    auto next = MakeShardSet(n);
    std::vector<std::unique_ptr<TriggerOperator>> old = std::move(shards_);
    AdoptShards(std::move(next));
    // Capture (and discard) the replayed pass-through emissions: they
    // already went downstream when the tuples first arrived.
    capturing_ = true;
    Status status = Status::OK();
    for (const auto& s : old) {
      for (const PaneStore::Slot* e : s->ShardArrivals()) {
        status = shards_[route_instance(0, e->tuple)]->Process(0, e->tuple);
        if (!status.ok()) break;
      }
      if (!status.ok()) break;
    }
    capturing_ = false;
    DiscardCaptured();
    for (auto& s : shards_) s->TakeFired();  // verdicts of replayed flushes
    RefreshGauges();
    return status;
  }

 private:
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

  ActivationHandler* activation_;
  std::vector<std::string> targets_;
  std::vector<size_t> part_cols_;
};

}  // namespace

Result<std::unique_ptr<Operator>> MakeOperator(
    const std::string& name, dataflow::OpKind op,
    const dataflow::OpSpec& spec,
    const std::vector<stt::SchemaPtr>& input_schemas,
    const std::vector<std::string>& input_names,
    const OperatorOptions& options) {
  // Re-derive the output schema; this re-checks everything the Validator
  // checks at the operator level.
  SL_ASSIGN_OR_RETURN(
      stt::SchemaPtr out_schema,
      dataflow::Validator::DeriveSchema(op, spec, input_schemas, input_names));
  const stt::SchemaPtr& in = input_schemas[0];

  // A zero-sized cache would make a blocking operator a silent no-op:
  // PaneStore::Add immediately evicts the tuple it just admitted.
  if (dataflow::IsBlocking(op) && options.max_cache_tuples == 0) {
    return Status::InvalidArgument(
        "blocking operator '" + name +
        "' needs max_cache_tuples > 0 (a zero cache evicts every tuple "
        "immediately, so the operator would never produce anything)");
  }

  std::unique_ptr<Operator> built;
  switch (op) {
    case OpKind::kFilter: {
      const auto& s = std::get<FilterSpec>(spec);
      SL_ASSIGN_OR_RETURN(expr::BoundExpr cond,
                          expr::BoundExpr::Parse(s.condition, in));
      built.reset(new FilterOperator(name, out_schema, std::move(cond)));
      break;
    }
    case OpKind::kTransform: {
      const auto& s = std::get<TransformSpec>(spec);
      SL_ASSIGN_OR_RETURN(expr::BoundExpr e,
                          expr::BoundExpr::Parse(s.expression, in));
      SL_ASSIGN_OR_RETURN(size_t idx, in->FieldIndex(s.attribute));
      ValueType out_type = out_schema->fields()[idx].type;
      built.reset(
          new TransformOperator(name, out_schema, idx, out_type, std::move(e)));
      break;
    }
    case OpKind::kVirtualProperty: {
      const auto& s = std::get<VirtualPropertySpec>(spec);
      SL_ASSIGN_OR_RETURN(expr::BoundExpr e,
                          expr::BoundExpr::Parse(s.specification, in));
      ValueType out_type = out_schema->fields().back().type;
      built.reset(new VirtualPropertyOperator(name, out_schema, out_type,
                                              std::move(e)));
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
      auto make = [out_schema, in, s, options](const std::string& instance) {
        auto agg = std::make_unique<AggregationOperator>(
            instance, out_schema, in, s, options.max_cache_tuples);
        agg->set_watermark_options(options.watermark);
        return agg;
      };
      if (s.parallelism <= 1) {
        built = make(name);
        break;
      }
      // Partitioned deployment: route by group key (or the declared
      // subset of it — either way every group is owned by one shard).
      const auto& part_names =
          s.partition_by.empty() ? s.group_by : s.partition_by;
      if (part_names.empty()) {
        return Status::InvalidArgument(
            "parallel aggregation '" + name +
            "' needs a partition key: declare group_by or partition_by");
      }
      for (const auto& p : s.partition_by) {
        if (std::find(s.group_by.begin(), s.group_by.end(), p) ==
            s.group_by.end()) {
          return Status::InvalidArgument(
              "partition_by attribute '" + p + "' of '" + name +
              "' is not among the group-by keys");
        }
      }
      std::vector<size_t> part_cols;
      for (const auto& p : part_names) {
        SL_ASSIGN_OR_RETURN(size_t idx, in->FieldIndex(p));
        part_cols.push_back(idx);
      }
      built.reset(new PartitionedAggregation(name, out_schema, s,
                                             std::move(part_cols), make));
      break;
    }
    case OpKind::kJoin: {
      const auto& s = std::get<JoinSpec>(spec);
      SL_ASSIGN_OR_RETURN(expr::BoundExpr pred,
                          expr::BoundExpr::Parse(s.predicate, out_schema));
      // Split the predicate into hash keys + residual. The analysis runs
      // on the parsed tree (pred keeps it), resolved against the joined
      // schema with the left input's columns first.
      size_t split = input_schemas[0]->fields().size();
      dataflow::JoinPredicateAnalysis analysis =
          dataflow::AnalyzeJoinPredicate(pred.expr(), *out_schema, split);
      std::optional<expr::BoundExpr> residual;
      if (analysis.has_equi() && analysis.residual != nullptr) {
        SL_ASSIGN_OR_RETURN(
            expr::BoundExpr bound_residual,
            expr::BoundExpr::Bind(analysis.residual, out_schema));
        residual = std::move(bound_residual);
      }
      std::vector<size_t> left_cols;
      std::vector<size_t> right_cols;
      for (const dataflow::EquiConjunct& c : analysis.equi) {
        left_cols.push_back(c.left_index);
        right_cols.push_back(c.right_index - split);
      }
      auto make = [out_schema, s, pred, residual, left_cols, right_cols, split,
                   options](const std::string& instance) {
        auto join = std::make_unique<JoinOperator>(
            instance, out_schema, s, pred, residual, left_cols, right_cols,
            split, options.max_cache_tuples);
        join->set_watermark_options(options.watermark);
        return join;
      };
      if (s.parallelism <= 1) {
        built = make(name);
        break;
      }
      // Partitioned deployment: route by equality-key columns (or the
      // declared subset), side-local on each input — matching pairs
      // share those keys, so they meet on one shard.
      if (!analysis.has_equi()) {
        return Status::InvalidArgument(
            "parallel join '" + name +
            "' needs at least one equality conjunct to partition on");
      }
      std::vector<size_t> part_left;
      std::vector<size_t> part_right;
      if (s.partition_by.empty()) {
        part_left = left_cols;
        part_right = right_cols;
      } else {
        for (const auto& p : s.partition_by) {
          SL_ASSIGN_OR_RETURN(size_t idx, out_schema->FieldIndex(p));
          bool matched = false;
          for (const dataflow::EquiConjunct& c : analysis.equi) {
            if (c.left_index == idx || c.right_index == idx) {
              part_left.push_back(c.left_index);
              part_right.push_back(c.right_index - split);
              matched = true;
              break;
            }
          }
          if (!matched) {
            return Status::InvalidArgument(
                "partition_by attribute '" + p + "' of join '" + name +
                "' is not an equality-join key");
          }
        }
      }
      built.reset(new PartitionedJoin(name, out_schema, s,
                                      std::move(part_left),
                                      std::move(part_right), make));
      break;
    }
    case OpKind::kTriggerOn:
    case OpKind::kTriggerOff: {
      const auto& s = std::get<TriggerSpec>(spec);
      SL_ASSIGN_OR_RETURN(expr::BoundExpr cond,
                          expr::BoundExpr::Parse(s.condition, in));
      if (options.activation == nullptr) {
        return Status::InvalidArgument(
            "trigger operator '" + name +
            "' needs an ActivationHandler (OperatorOptions::activation)");
      }
      auto make = [op, out_schema, s, cond,
                   options](const std::string& instance) {
        auto trigger = std::make_unique<TriggerOperator>(
            instance, op, out_schema, s, cond, options.activation,
            options.max_cache_tuples);
        trigger->set_watermark_options(options.watermark);
        return trigger;
      };
      if (s.parallelism <= 1) {
        built = make(name);
        break;
      }
      // Partitioned deployment: triggers have no implicit grouping key,
      // so the partition key must be declared.
      if (s.partition_by.empty()) {
        return Status::InvalidArgument(
            "parallel trigger '" + name +
            "' requires an explicit partition_by");
      }
      std::vector<size_t> part_cols;
      for (const auto& p : s.partition_by) {
        SL_ASSIGN_OR_RETURN(size_t idx, in->FieldIndex(p));
        part_cols.push_back(idx);
      }
      built.reset(new PartitionedTrigger(name, op, out_schema, s,
                                         options.activation,
                                         std::move(part_cols), make));
      break;
    }
  }
  if (built == nullptr) {
    return Status::Internal("unreachable op kind in MakeOperator");
  }
  built->set_watermark_options(options.watermark);
  return built;
}

}  // namespace sl::ops
