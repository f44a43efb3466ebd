// Implementations of the nine Table 1 operators and their factory.
//
// Time convention: every window is half-open, [begin, end) — a tuple
// with timestamp() == end belongs to the *next* window (DESIGN.md §8).

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <unordered_map>

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
// ---------------------------------------------------------------------------

// TupleCache, WindowView, SeqSignature, EventWindow and the join/pane
// index structures live in ops/tuple_cache.h, shared with tests and
// benchmarks.

/// @_{t,{a1..an}}^{op}(s)
/// SplitMix64 finalizer: spreads a wrapper-assigned global sequence
/// number into a well-mixed 64-bit word so the XOR-combined window
/// signatures below behave like a random hash of the member set.
uint64_t MixGseq(uint64_t g) {
  g += 0x9e3779b97f4a7c15ull;
  g = (g ^ (g >> 30)) * 0xbf58476d1ce4e5b9ull;
  g = (g ^ (g >> 27)) * 0x94d049bb133111ebull;
  return g ^ (g >> 31);
}

class AggregationOperator : public Operator {
 public:
  AggregationOperator(std::string name, stt::SchemaPtr out_schema,
                      stt::SchemaPtr in_schema, AggregationSpec spec,
                      size_t max_cache)
      : Operator(std::move(name), OpKind::kAggregation, std::move(out_schema),
                 spec.interval),
        in_schema_(std::move(in_schema)),
        spec_(std::move(spec)),
        cache_(max_cache) {
    for (const auto& g : spec_.group_by) {
      group_indexes_.push_back(*in_schema_->FieldIndex(g));
    }
    for (const auto& a : spec_.attributes) {
      attr_indexes_.push_back(*in_schema_->FieldIndex(a));
    }
  }

  Status Process(size_t, const TupleRef& tuple) override {
    CountIn();
    if (event_time() && event_.IsLate(tuple->timestamp()) &&
        !ApplyLatePolicy(tuple)) {
      return Status::OK();
    }
    stats_.dropped += cache_.Add(tuple);
    const TupleCache::Entry& entry = cache_.entries().back();
    if (shard_mode_) {
      gseq_by_seq_.emplace(entry.seq,
                           GseqRec{entry.tuple->timestamp(), pending_gseq_});
      if (gseq_by_seq_.size() > 2 * cache_.size() + 64) SweepGseqs();
    }
    IndexArrival(entry);
    stats_.cache_size = cache_.size();
    return Status::OK();
  }

  Status Flush(Timestamp now) override {
    ++stats_.flushes;
    if (event_time()) return FlushEvent();
    // Processing-time regime (legacy): the window ends at the flush
    // tick. Expire tuples older than the sliding window, aggregate the
    // half-open view [-inf, now), retain survivors.
    return spec_.window == 0 ? FlushTumblingFast(now) : FlushSlidingFast(now);
  }

  Timestamp output_watermark() const override {
    if (!event_time()) return input_watermark();
    return event_.initialized() ? event_.fired_end() : stt::kNoWatermark;
  }

  // -- shard-mode hooks (key-partitioned wrapper) --------------------------
  //
  // In shard mode the operator is one of N key-partitioned instances:
  // it never deduplicates sliding windows itself (the wrapper decides
  // globally from the combined shard signatures), it tags every
  // emission with the window it belongs to, and its event grid anchors
  // on the wrapper-provided global oldest so all shards fire identical
  // end sequences.

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
  /// Wrapper-level sequence number stamped onto the next cached tuple
  /// (called immediately before each shard-mode Process).
  void SetPendingGseq(uint64_t gseq) { pending_gseq_ = gseq; }
  /// The wrapper-level sequence number a cached entry carries (rescale
  /// replay re-attaches these so signatures stay comparable).
  uint64_t GseqOf(uint64_t seq) const {
    auto it = gseq_by_seq_.find(seq);
    return it != gseq_by_seq_.end() ? it->second.gseq : seq;
  }
  Timestamp OldestCachedTs() const { return OldestTs(cache_); }
  void SetOldestOverride(Timestamp t) { oldest_override_ = t; }
  /// Tag of the window the currently captured emission belongs to.
  Timestamp shard_tag() const { return shard_tag_; }
  std::vector<ShardSig> TakeShardSigs() { return std::move(shard_sigs_); }

  // Rescale support: state export + event-grid restore.
  const TupleCache& shard_cache() const { return cache_; }
  Timestamp shard_fired_end() const {
    return event_.initialized() ? event_.fired_end() : stt::kNoWatermark;
  }
  /// Re-anchors a fresh event grid at `end` (interval-aligned): fires
  /// nothing, but IsLate and the next Advance behave as if this
  /// instance had fired up to `end` already.
  void RestoreFiredEnd(Timestamp end) {
    event_.Advance(end, stt::kNoWatermark);
  }

 private:
  /// One list of tuples to aggregate, tagged with its group key; groups
  /// are always emitted in ascending key order, whichever path built
  /// them, so grouping strategy never shows in the output.
  using GroupList =
      std::vector<std::pair<std::string, std::vector<const Tuple*>>>;

  /// The '\x1f'-joined display form of the group-by columns: the group
  /// identity every path shares. The display form (not raw bytes) keeps
  /// identity aligned with what the legacy std::map grouping used.
  std::string GroupKey(const Tuple& t) const {
    std::string key;
    for (size_t idx : group_indexes_) {
      t.value(idx).AppendTo(&key);
      key += '\x1f';
    }
    return key;
  }

  /// Routes a fresh arrival into the regime's incremental structure.
  void IndexArrival(const TupleCache::Entry& e) {
    if (event_time()) {
      pane_.Insert(e);
      keys_by_seq_.emplace(e.seq,
                           KeyRec{e.tuple->timestamp(), GroupKey(*e.tuple)});
      if (keys_by_seq_.size() > 2 * cache_.size() + 64) SweepKeys();
    } else if (spec_.window == 0) {
      FoldIntoState(*e.tuple);
    } else {
      group_slots_[GroupKey(*e.tuple)].push_back(e);
      ++slot_count_;
      if (slot_count_ > 2 * cache_.size() + 64) CompactSlots();
    }
  }

  /// Tumbling fast path: the per-group running state already folded
  /// every arrival, so the flush is O(groups), not O(tuples) — provided
  /// the state still mirrors the cache. It stops mirroring when the
  /// capacity bound evicted a folded tuple, or when some cached tuple is
  /// stamped at/after `now` (outside the half-open window but folded
  /// in); both are detected and fall back to a full recompute.
  Status FlushTumblingFast(Timestamp now) {
    bool valid = cache_.capacity_evictions() == cap_evict_mark_ &&
                 (cache_.max_ts() == stt::kNoWatermark || cache_.max_ts() < now);
    if (valid) {
      if (!states_.empty()) EmitStates(now);
    } else {
      auto view = WindowView(cache_, std::numeric_limits<Timestamp>::min(),
                             now, /*sorted=*/false);
      if (!view.empty()) EmitGroups(view, now);
    }
    cache_.Clear();
    states_.clear();
    cap_evict_mark_ = cache_.capacity_evictions();
    stats_.cache_size = cache_.size();
    return Status::OK();
  }

  /// Sliding fast path: arrivals were bucketed by group key once, at
  /// Process time; the flush folds each group's live slots in arrival
  /// order — the same fold, in the same order, a full recompute runs
  /// after re-deriving every key and rebuilding an ordered map.
  Status FlushSlidingFast(Timestamp now) {
    cache_.EvictOlderThan(now - spec_.window);
    GroupList groups;
    std::vector<uint64_t> seqs;
    for (auto& [key, slots] : group_slots_) {
      std::vector<const Tuple*> tuples;
      for (const TupleCache::Entry& e : slots) {
        Timestamp ts = e.tuple->timestamp();
        if (ts >= now || !cache_.Live(e.seq, ts)) continue;
        tuples.push_back(e.tuple.get());
        seqs.push_back(e.seq);
      }
      if (!tuples.empty()) groups.emplace_back(key, std::move(tuples));
    }
    bool emit;
    if (shard_mode_) {
      uint64_t sig = 0;
      for (uint64_t seq : seqs) sig ^= MixGseq(GseqOf(seq));
      shard_sigs_.push_back({now, sig, seqs.size()});
      emit = !groups.empty();
    } else {
      emit = !groups.empty() &&
             ChangedSignature(SeqSignatureOf(std::move(seqs)));
    }
    if (emit) {
      std::sort(groups.begin(), groups.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      EmitGrouped(groups, now);
    }
    stats_.cache_size = cache_.size();
    return Status::OK();
  }

  /// Event-time regime: fire every aligned window end the
  /// lateness-adjusted input frontier has passed, oldest first. The fast
  /// path reads each window as a concatenation of per-pane sorted runs
  /// (only dirty panes re-sort) instead of re-sorting the whole window,
  /// and reuses the group keys derived at Process time.
  Status FlushEvent() {
    Timestamp horizon = input_watermark();
    if (horizon == stt::kNoWatermark) return Status::OK();
    horizon -= watermark_options().allowed_lateness;
    Timestamp oldest = oldest_override_.value_or(OldestTs(cache_));
    for (Timestamp end : event_.Advance(horizon, oldest)) {
      Timestamp begin = end - event_.effective_window();
      auto view = pane_.View(cache_, begin, end);
      event_.MarkFired(end);
      if (shard_mode_) {
        if (spec_.window > 0) shard_sigs_.push_back(ShardSigOfView(end, view));
        if (view.empty()) continue;
      } else if (view.empty() || !ChangedSinceLastEmit(view)) {
        continue;
      }
      EmitGroupsKeyed(view, end);
    }
    if (event_.initialized()) {
      Timestamp cutoff = event_.EvictionCutoff();
      cache_.EvictOlderThan(cutoff);
      pane_.DropBelow(cutoff);
    }
    stats_.cache_size = cache_.size();
    return Status::OK();
  }

  /// Sliding-regime dedup guard: emit only when the window's tuple set
  /// changed since the last emission — re-emitting an unchanged window
  /// every interval double-counts rows in the warehouse sink. Tumbling
  /// windows always contain fresh data, so they always pass.
  bool ChangedSinceLastEmit(const std::vector<const TupleCache::Entry*>& view) {
    if (spec_.window == 0) return true;
    return ChangedSignature(SeqSignature(view));
  }

  bool ChangedSignature(uint64_t sig) {
    if (spec_.window == 0) return true;
    if (last_signature_.has_value() && *last_signature_ == sig) return false;
    last_signature_ = sig;
    return true;
  }

  /// Recompute grouping for the tumbling fallback: re-derive every
  /// tuple's key and build an ordered map.
  void EmitGroups(const std::vector<const TupleCache::Entry*>& view,
                  Timestamp end) {
    std::map<std::string, std::vector<const Tuple*>> by_key;
    for (const auto* entry : view) {
      by_key[GroupKey(*entry->tuple)].push_back(entry->tuple.get());
    }
    GroupList groups;
    groups.reserve(by_key.size());
    for (auto& [key, tuples] : by_key) {
      groups.emplace_back(key, std::move(tuples));
    }
    EmitGrouped(groups, end);
  }

  /// Fast event-time grouping: hash-group on the keys memoized at
  /// Process time, then order the groups for emission.
  void EmitGroupsKeyed(const std::vector<const TupleCache::Entry*>& view,
                       Timestamp end) {
    std::unordered_map<std::string, std::vector<const Tuple*>> by_key;
    for (const auto* entry : view) {
      auto it = keys_by_seq_.find(entry->seq);
      std::string key =
          it != keys_by_seq_.end() ? it->second.key : GroupKey(*entry->tuple);
      by_key[std::move(key)].push_back(entry->tuple.get());
    }
    GroupList groups;
    groups.reserve(by_key.size());
    for (auto& [key, tuples] : by_key) {
      groups.emplace_back(key, std::move(tuples));
    }
    std::sort(groups.begin(), groups.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    EmitGrouped(groups, end);
  }

  /// Emits one aggregate per group (ascending key order), stamped with
  /// the last granule of the window ending at `end`.
  void EmitGrouped(const GroupList& groups, Timestamp end) {
    shard_tag_ = end;
    Timestamp out_ts =
        output_schema()->temporal_granularity().Truncate(end - 1);
    stt::RefBatch out(output_schema());
    for (const auto& [key, tuples] : groups) {
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
      // Location: centroid of the group's located tuples.
      std::optional<stt::GeoPoint> loc = Centroid(tuples);
      out.Add(Tuple::Share(
          Tuple::MakeUnsafe(output_schema(), std::move(values), out_ts, loc)));
    }
    EmitAll(out);
  }

  Value Aggregate(const std::vector<const Tuple*>& tuples, size_t idx) const {
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

  static std::optional<stt::GeoPoint> Centroid(
      const std::vector<const Tuple*>& tuples) {
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

  // ---------------------------------------------------------- running state

  /// Per-attribute running aggregate: the same count/sum/min/max fold
  /// Aggregate() runs over a group vector, advanced one tuple at a time
  /// in arrival order — the identical sequence of floating-point
  /// additions, so results match bit for bit.
  struct AttrState {
    int64_t count = 0;
    double sum = 0;
    std::optional<Value> min;
    std::optional<Value> max;
  };
  struct GroupState {
    std::vector<Value> key_values;  ///< from the group's first tuple
    int64_t total = 0;              ///< tuples folded (incl. null attrs)
    std::vector<AttrState> attrs;   ///< parallel to attr_indexes_
    double lat_sum = 0, lon_sum = 0;
    size_t located = 0;
  };

  void FoldIntoState(const Tuple& t) {
    GroupState& g = states_[GroupKey(t)];
    if (g.total == 0) {
      for (size_t idx : group_indexes_) g.key_values.push_back(t.value(idx));
      g.attrs.resize(attr_indexes_.size());
    }
    ++g.total;
    for (size_t i = 0; i < attr_indexes_.size(); ++i) {
      const Value& v = t.value(attr_indexes_[i]);
      if (v.is_null()) continue;
      AttrState& a = g.attrs[i];
      ++a.count;
      if (v.is_numeric()) a.sum += *v.ToNumeric();
      if (!a.min.has_value() || Value::Compare(v, *a.min) < 0) a.min = v;
      if (!a.max.has_value() || Value::Compare(v, *a.max) > 0) a.max = v;
    }
    if (t.location().has_value()) {
      g.lat_sum += t.location()->lat;
      g.lon_sum += t.location()->lon;
      ++g.located;
    }
  }

  void EmitStates(Timestamp now) {
    shard_tag_ = now;
    std::vector<const std::string*> keys;
    keys.reserve(states_.size());
    for (const auto& [key, g] : states_) keys.push_back(&key);
    std::sort(keys.begin(), keys.end(),
              [](const std::string* a, const std::string* b) { return *a < *b; });
    Timestamp out_ts =
        output_schema()->temporal_granularity().Truncate(now - 1);
    stt::RefBatch out(output_schema());
    for (const std::string* key : keys) {
      const GroupState& g = states_.at(*key);
      std::vector<Value> values = g.key_values;
      if (spec_.func == AggFunc::kCount && attr_indexes_.empty()) {
        values.push_back(Value::Int(g.total));
      }
      for (const AttrState& a : g.attrs) {
        values.push_back(FromState(a));
      }
      std::optional<stt::GeoPoint> loc;
      if (g.located > 0) {
        loc = stt::GeoPoint{g.lat_sum / static_cast<double>(g.located),
                            g.lon_sum / static_cast<double>(g.located)};
      }
      out.Add(Tuple::Share(
          Tuple::MakeUnsafe(output_schema(), std::move(values), out_ts, loc)));
    }
    EmitAll(out);
  }

  Value FromState(const AttrState& a) const {
    switch (spec_.func) {
      case AggFunc::kCount: return Value::Int(a.count);
      case AggFunc::kSum:
        return a.count > 0 ? Value::Double(a.sum) : Value::Null();
      case AggFunc::kAvg:
        return a.count > 0 ? Value::Double(a.sum / static_cast<double>(a.count))
                           : Value::Null();
      case AggFunc::kMin:
        return a.min.has_value() ? *a.min : Value::Null();
      case AggFunc::kMax:
        return a.max.has_value() ? *a.max : Value::Null();
    }
    return Value::Null();
  }

  void CompactSlots() {
    size_t kept = 0;
    for (auto it = group_slots_.begin(); it != group_slots_.end();) {
      auto& slots = it->second;
      slots.erase(std::remove_if(slots.begin(), slots.end(),
                                 [this](const TupleCache::Entry& e) {
                                   return !cache_.Live(
                                       e.seq, e.tuple->timestamp());
                                 }),
                  slots.end());
      if (slots.empty()) {
        it = group_slots_.erase(it);
      } else {
        kept += slots.size();
        ++it;
      }
    }
    slot_count_ = kept;
  }

  void SweepKeys() {
    for (auto it = keys_by_seq_.begin(); it != keys_by_seq_.end();) {
      if (cache_.Live(it->first, it->second.ts)) {
        ++it;
      } else {
        it = keys_by_seq_.erase(it);
      }
    }
  }

  /// Shard-mode window signature of a flush view (its live members).
  ShardSig ShardSigOfView(
      Timestamp tag, const std::vector<const TupleCache::Entry*>& view) const {
    uint64_t sig = 0;
    for (const auto* entry : view) sig ^= MixGseq(GseqOf(entry->seq));
    return {tag, sig, view.size()};
  }

  void SweepGseqs() {
    for (auto it = gseq_by_seq_.begin(); it != gseq_by_seq_.end();) {
      if (cache_.Live(it->first, it->second.ts)) {
        ++it;
      } else {
        it = gseq_by_seq_.erase(it);
      }
    }
  }

  stt::SchemaPtr in_schema_;
  AggregationSpec spec_;
  std::vector<size_t> group_indexes_;
  std::vector<size_t> attr_indexes_;
  TupleCache cache_;
  EventWindow event_{spec_.interval, spec_.window};
  std::optional<uint64_t> last_signature_;
  // Tumbling processing-time: running per-group state + its validity mark.
  std::unordered_map<std::string, GroupState> states_;
  uint64_t cap_evict_mark_ = 0;
  // Sliding processing-time: arrivals bucketed by group key.
  std::unordered_map<std::string, std::vector<TupleCache::Entry>> group_slots_;
  size_t slot_count_ = 0;
  // Event-time: per-pane sorted runs + memoized group keys.
  PaneIndex pane_{spec_.interval};
  struct KeyRec {
    Timestamp ts;
    std::string key;
  };
  std::unordered_map<uint64_t, KeyRec> keys_by_seq_;
  // Shard mode (key-partitioned wrapper).
  bool shard_mode_ = false;
  std::optional<Timestamp> oldest_override_;
  Timestamp shard_tag_ = 0;
  std::vector<ShardSig> shard_sigs_;
  // Wrapper-level sequence numbers by cache seq (shard mode only).
  struct GseqRec {
    Timestamp ts;
    uint64_t gseq;
  };
  uint64_t pending_gseq_ = 0;
  std::unordered_map<uint64_t, GseqRec> gseq_by_seq_;
};

/// s1 |><|_{pred}^{t} s2
///
/// Two pairing strategies, both required to emit the rows, in the same
/// order, that the nested loop materializing every pair before
/// evaluating the predicate would (tests/reference holds that loop):
///  - non-equi: enumerate the cross product; the predicate runs over a
///    zero-copy PairView and only matching pairs materialize;
///  - hash equi-join: the right cache is indexed on the predicate's
///    equi-conjunct columns; each left tuple probes its bucket and only
///    key-equal candidates see the residual predicate. Bucket slots
///    keep arrival order, so probing enumerates exactly the pairs the
///    nested loop would have accepted, in the same order.
class JoinOperator : public Operator {
 public:
  JoinOperator(std::string name, stt::SchemaPtr out_schema, JoinSpec spec,
               expr::BoundExpr predicate,
               std::optional<expr::BoundExpr> residual,
               std::vector<size_t> left_cols, std::vector<size_t> right_cols,
               size_t split, size_t max_cache)
      : Operator(std::move(name), OpKind::kJoin, std::move(out_schema),
                 spec.interval),
        spec_(std::move(spec)),
        predicate_(std::move(predicate)),
        residual_(std::move(residual)),
        left_cols_(std::move(left_cols)),
        right_cols_(std::move(right_cols)),
        split_(split),
        left_(max_cache),
        right_(max_cache),
        right_index_(right_cols_) {}

  Status Process(size_t port, const TupleRef& tuple) override {
    CountIn();
    if (port > 1) {
      return Status::InvalidArgument(
          StrFormat("join has inputs 0 and 1, got port %zu", port));
    }
    if (event_time() && event_.IsLate(tuple->timestamp()) &&
        !ApplyLatePolicy(tuple)) {
      return Status::OK();
    }
    TupleCache& cache = port == 0 ? left_ : right_;
    stats_.dropped += cache.Add(tuple);
    if (shard_mode_) {
      auto& arr = port == 0 ? left_arr_ : right_arr_;
      arr.emplace(cache.entries().back().seq,
                  ArrivalRec{pending_gseq_, pending_broadcast_,
                             tuple->timestamp()});
      if (arr.size() > 2 * cache.size() + 64) SweepArrivals(port);
    }
    if (port == 1 && hash_join() && !event_time()) {
      // The persistent index serves the processing-time regime; the
      // event-time regime indexes each fired window transiently.
      right_index_.Insert(right_.entries().back());
    }
    stats_.cache_size = left_.size() + right_.size();
    return Status::OK();
  }

  Status Flush(Timestamp now) override {
    ++stats_.flushes;
    if (event_time()) return FlushEvent();
    if (spec_.window > 0) {
      left_.EvictOlderThan(now - spec_.window);
      right_.EvictOlderThan(now - spec_.window);
    }
    const auto& tgran = output_schema()->temporal_granularity();
    stt::RefBatch out(output_schema());
    if (hash_join()) {
      SL_RETURN_IF_ERROR(ProbeAll(tgran, &out));
    } else {
      for (const auto& le : left_.entries()) {
        for (const auto& re : right_.entries()) {
          // Sliding regime: emit each surviving pair exactly once — on
          // the first check where both elements are cached together.
          if (spec_.window > 0 && le.seq < left_seen_ &&
              re.seq < right_seen_) {
            continue;
          }
          SetCurPair(le.seq, re.seq);
          SL_RETURN_IF_ERROR(
              JoinPairFast(*le.tuple, *re.tuple, predicate_, tgran, &out));
        }
      }
    }
    EmitAll(out);
    if (spec_.window == 0) {
      left_.Clear();
      right_.Clear();
      right_index_.Clear();
      left_arr_.clear();
      right_arr_.clear();
    } else {
      left_seen_ = left_.next_seq();
      right_seen_ = right_.next_seq();
    }
    stats_.cache_size = left_.size() + right_.size();
    return Status::OK();
  }

  Timestamp output_watermark() const override {
    if (!event_time()) return input_watermark();
    return event_.initialized() ? event_.fired_end() : stt::kNoWatermark;
  }

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
  Timestamp OldestCachedTs() const {
    Timestamp l = OldestTs(left_);
    Timestamp r = OldestTs(right_);
    if (l == stt::kNoWatermark) return r;
    if (r == stt::kNoWatermark) return l;
    return std::min(l, r);
  }
  void SetOldestOverride(Timestamp t) { oldest_override_ = t; }
  std::vector<PairTag> TakePairTags() { return std::move(pair_tags_); }

  // Rescale support: state export + event-grid restore.
  Timestamp shard_fired_end() const {
    return event_.initialized() ? event_.fired_end() : stt::kNoWatermark;
  }
  void RestoreFiredEnd(Timestamp end) {
    event_.Advance(end, stt::kNoWatermark);
  }
  void ExportShard(std::vector<ShardEntry>* lout,
                   std::vector<ShardEntry>* rout) const {
    for (const auto& e : left_.entries()) {
      const ArrivalRec& a = left_arr_.at(e.seq);
      lout->push_back({e.tuple, a.gseq, a.broadcast, e.seq < left_seen_});
    }
    for (const auto& e : right_.entries()) {
      const ArrivalRec& a = right_arr_.at(e.seq);
      rout->push_back({e.tuple, a.gseq, a.broadcast, e.seq < right_seen_});
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

  /// Provenance of one cached arrival (shard mode only).
  struct ArrivalRec {
    uint64_t gseq;
    bool broadcast;
    Timestamp ts;
  };

  /// Stages the provenance tag of the pair about to be attempted
  /// (processing regime: wrapper orders by arrival seqs).
  void SetCurPair(uint64_t lseq, uint64_t rseq) {
    if (!shard_mode_) return;
    const ArrivalRec& l = left_arr_.at(lseq);
    const ArrivalRec& r = right_arr_.at(rseq);
    cur_ = {0, l.gseq, r.gseq, {}, {}};
    cur_suppress_ = shard_index_ > 0 && l.broadcast && r.broadcast;
  }
  /// Event-regime variant: the wrapper orders pairs within a fired end
  /// by the members' event order, so the tag carries the tuples.
  void SetCurPairEvent(Timestamp end, uint64_t lseq, uint64_t rseq,
                       const TupleRef& l, const TupleRef& r) {
    if (!shard_mode_) return;
    cur_ = {end, 0, 0, l, r};
    cur_suppress_ = shard_index_ > 0 && left_arr_.at(lseq).broadcast &&
                    right_arr_.at(rseq).broadcast;
  }
  /// Books the staged tag; false when the pair is a cross-shard
  /// duplicate (both members broadcast, owned by shard 0).
  bool RecordPair() {
    if (!shard_mode_) return true;
    if (cur_suppress_) return false;
    pair_tags_.push_back(cur_);
    return true;
  }

  void SweepArrivals(size_t port) {
    auto& arr = port == 0 ? left_arr_ : right_arr_;
    const TupleCache& cache = port == 0 ? left_ : right_;
    for (auto it = arr.begin(); it != arr.end();) {
      if (cache.Live(it->first, it->second.ts)) {
        ++it;
      } else {
        it = arr.erase(it);
      }
    }
  }

  /// Processing-time probe loop: left cache in arrival order, each tuple
  /// probing the right-side hash index. Candidates come back in right
  /// arrival order, reproducing the nested loop's emission order over
  /// the key-equal subset. Batch-aware: all probe keys are hashed in one
  /// tight pass up front, and a run of consecutive probes with the same
  /// key reuses the previous candidate list instead of re-walking the
  /// bucket (sensor streams are heavily key-clustered).
  Status ProbeAll(const stt::TemporalGranularity& tgran, stt::RefBatch* out) {
    if (right_index_.slot_count() > 2 * right_.size() + 64) {
      right_index_.Compact(right_);
    }
    probe_keys_.clear();
    probe_keys_.reserve(left_.size());
    for (const auto& le : left_.entries()) {
      probe_keys_.push_back(MakeJoinKeyInfo(*le.tuple, left_cols_));
    }
    std::vector<const JoinHashIndex::Slot*> cand;
    const Tuple* group = nullptr;  // previous probe with a reusable `cand`
    size_t group_hash = 0;
    size_t idx = 0;
    for (const auto& le : left_.entries()) {
      const JoinKeyInfo& probe = probe_keys_[idx++];
      if (probe.has_null) {  // a null key equals nothing
        group = nullptr;
        continue;
      }
      if (probe.has_nan) {
        // A NaN key compares equal to every numeric, so the bucket
        // cannot narrow anything: scan the whole right cache. (NaN keys
        // never form a reuse group — JoinKeyEquals would over-merge.)
        group = nullptr;
        for (const auto& re : right_.entries()) {
          SL_RETURN_IF_ERROR(
              TryCandidate(le, re.seq, *re.tuple, tgran, out));
        }
        continue;
      }
      if (group == nullptr || probe.hash != group_hash ||
          !LeftKeysEqual(*group, *le.tuple)) {
        right_index_.Candidates(probe, &cand);
        group = le.tuple.get();
        group_hash = probe.hash;
      }
      for (const auto* slot : cand) {
        if (!right_.Live(slot->seq, slot->tuple->timestamp())) continue;
        SL_RETURN_IF_ERROR(
            TryCandidate(le, slot->seq, *slot->tuple, tgran, out));
      }
    }
    return Status::OK();
  }

  Status TryCandidate(const TupleCache::Entry& le, uint64_t right_seq,
                      const Tuple& r, const stt::TemporalGranularity& tgran,
                      stt::RefBatch* out) {
    if (spec_.window > 0 && le.seq < left_seen_ && right_seq < right_seen_) {
      return Status::OK();
    }
    if (!KeysMatch(*le.tuple, r)) return Status::OK();
    SetCurPair(le.seq, right_seq);
    return EmitIfResidual(*le.tuple, r, tgran, out);
  }

  bool KeysMatch(const Tuple& l, const Tuple& r) const {
    for (size_t i = 0; i < left_cols_.size(); ++i) {
      if (!JoinKeyEquals(l.value(left_cols_[i]), r.value(right_cols_[i]))) {
        return false;
      }
    }
    return true;
  }

  /// Key equality between two *left* tuples (grouped-probe reuse check).
  bool LeftKeysEqual(const Tuple& a, const Tuple& b) const {
    for (size_t c : left_cols_) {
      if (!JoinKeyEquals(a.value(c), b.value(c))) return false;
    }
    return true;
  }

  /// Event-time regime. Each surviving pair fires at exactly one window
  /// end — the one whose closing granule contains the pair's event time
  /// max(l.ts, r.ts) — so no sequence bookkeeping is needed and the
  /// result is delivery-order independent.
  Status FlushEvent() {
    Timestamp horizon = input_watermark();
    if (horizon == stt::kNoWatermark) return Status::OK();
    horizon -= watermark_options().allowed_lateness;
    Timestamp oldest_left = OldestTs(left_);
    Timestamp oldest_right = OldestTs(right_);
    Timestamp oldest = oldest_left == stt::kNoWatermark ? oldest_right
                       : oldest_right == stt::kNoWatermark
                           ? oldest_left
                           : std::min(oldest_left, oldest_right);
    oldest = oldest_override_.value_or(oldest);
    const auto& tgran = output_schema()->temporal_granularity();
    for (Timestamp end : event_.Advance(horizon, oldest)) {
      Timestamp begin = end - event_.effective_window();
      auto lview = WindowView(left_, begin, end, /*sorted=*/true);
      auto rview = WindowView(right_, begin, end, /*sorted=*/true);
      event_.MarkFired(end);
      if (lview.empty() || rview.empty()) continue;
      stt::RefBatch out(output_schema());
      if (hash_join()) {
        SL_RETURN_IF_ERROR(ProbeWindow(lview, rview, end, tgran, &out));
      } else {
        for (const auto* le : lview) {
          for (const auto* re : rview) {
            // Both members are < end, so the pair time is < end;
            // skipping pairs older than the closing granule leaves each
            // pair with a unique firing end.
            Timestamp pair_ts =
                std::max(le->tuple->timestamp(), re->tuple->timestamp());
            if (pair_ts < end - interval()) continue;
            SetCurPairEvent(end, le->seq, re->seq, le->tuple, re->tuple);
            SL_RETURN_IF_ERROR(JoinPairFast(*le->tuple, *re->tuple,
                                            predicate_, tgran, &out));
          }
        }
      }
      EmitAll(out);
    }
    if (event_.initialized()) {
      left_.EvictOlderThan(event_.EvictionCutoff());
      right_.EvictOlderThan(event_.EvictionCutoff());
    }
    stats_.cache_size = left_.size() + right_.size();
    return Status::OK();
  }

  /// One fired window, hash-joined: a transient index over the sorted
  /// right view (slot seq = view position, so candidates enumerate in
  /// view order), probed by the sorted left view.
  Status ProbeWindow(const std::vector<const TupleCache::Entry*>& lview,
                     const std::vector<const TupleCache::Entry*>& rview,
                     Timestamp end, const stt::TemporalGranularity& tgran,
                     stt::RefBatch* out) {
    JoinHashIndex index(right_cols_);
    for (size_t i = 0; i < rview.size(); ++i) {
      index.Insert({rview[i]->tuple, static_cast<uint64_t>(i)});
    }
    // Vectorized key pass over the probe side, then grouped probing as
    // in ProbeAll.
    probe_keys_.clear();
    probe_keys_.reserve(lview.size());
    for (const auto* le : lview) {
      probe_keys_.push_back(MakeJoinKeyInfo(*le->tuple, left_cols_));
    }
    std::vector<const JoinHashIndex::Slot*> cand;
    const Tuple* group = nullptr;
    size_t group_hash = 0;
    size_t idx = 0;
    for (const auto* le : lview) {
      const JoinKeyInfo& probe = probe_keys_[idx++];
      if (probe.has_null) {
        group = nullptr;
        continue;
      }
      const Tuple& l = *le->tuple;
      auto try_pair = [&](const TupleCache::Entry& rent) -> Status {
        const Tuple& r = *rent.tuple;
        Timestamp pair_ts = std::max(l.timestamp(), r.timestamp());
        if (pair_ts < end - interval()) return Status::OK();
        if (!KeysMatch(l, r)) return Status::OK();
        SetCurPairEvent(end, le->seq, rent.seq, le->tuple, rent.tuple);
        return EmitIfResidual(l, r, tgran, out);
      };
      if (probe.has_nan) {
        group = nullptr;
        for (const auto* re : rview) {
          SL_RETURN_IF_ERROR(try_pair(*re));
        }
        continue;
      }
      if (group == nullptr || probe.hash != group_hash ||
          !LeftKeysEqual(*group, l)) {
        index.Candidates(probe, &cand);
        group = le->tuple.get();
        group_hash = probe.hash;
      }
      for (const auto* slot : cand) {
        // Slot seq is the view position (keeps candidate enumeration in
        // view order); the view entry carries the cache seq.
        SL_RETURN_IF_ERROR(try_pair(*rview[slot->seq]));
      }
    }
    return Status::OK();
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

  JoinSpec spec_;
  expr::BoundExpr predicate_;
  /// Residual of the equi-conjunct decomposition; nullopt = vacuously
  /// true (every conjunct became a hash key).
  std::optional<expr::BoundExpr> residual_;
  /// Equi-conjunct key columns, side-local (left tuple / right tuple).
  std::vector<size_t> left_cols_;
  std::vector<size_t> right_cols_;
  size_t split_;
  TupleCache left_;
  TupleCache right_;
  JoinHashIndex right_index_;
  /// Probe-side key infos, hashed in one pass per probe loop (reused
  /// scratch).
  std::vector<JoinKeyInfo> probe_keys_;
  EventWindow event_{spec_.interval, spec_.window};
  // Sequence watermarks of the previous flush (processing-time sliding).
  uint64_t left_seen_ = 0;
  uint64_t right_seen_ = 0;
  // Shard mode (key-partitioned wrapper).
  bool shard_mode_ = false;
  size_t shard_index_ = 0;
  uint64_t pending_gseq_ = 0;
  bool pending_broadcast_ = false;
  std::unordered_map<uint64_t, ArrivalRec> left_arr_;
  std::unordered_map<uint64_t, ArrivalRec> right_arr_;
  PairTag cur_{};
  bool cur_suppress_ = false;
  std::vector<PairTag> pair_tags_;
  std::optional<Timestamp> oldest_override_;
};

/// (+)_{ON/OFF,t}(s, {s1..sn}, cond) — pass-through stream, periodic
/// condition check over the cache, side-effecting activation.
class TriggerOperator : public Operator {
 public:
  TriggerOperator(std::string name, OpKind kind, stt::SchemaPtr schema,
                  TriggerSpec spec, expr::BoundExpr condition,
                  ActivationHandler* activation, size_t max_cache)
      : Operator(std::move(name), kind, std::move(schema), spec.interval),
        spec_(std::move(spec)),
        condition_(std::move(condition)),
        activation_(activation),
        cache_(max_cache) {}

  Status Process(size_t, const TupleRef& tuple) override {
    CountIn();
    Emit(tuple);  // pass-through, regardless of window lateness
    if (event_time() && event_.IsLate(tuple->timestamp()) &&
        !ApplyLatePolicy(tuple)) {
      return Status::OK();
    }
    stats_.dropped += cache_.Add(tuple);
    stats_.cache_size = cache_.size();
    return Status::OK();
  }

  Status Flush(Timestamp now) override {
    ++stats_.flushes;
    if (event_time()) return FlushEvent(now);
    if (spec_.window > 0) cache_.EvictOlderThan(now - spec_.window);
    bool fired = false;
    for (const auto& entry : cache_.entries()) {
      SL_ASSIGN_OR_RETURN(bool hit, condition_.EvalPredicate(*entry.tuple));
      if (hit) {
        fired = true;
        break;
      }
    }
    if (fired) {
      if (shard_mode_) {
        fired_.push_back(now);
      } else {
        FireActivation(now);
      }
    }
    if (spec_.window == 0) cache_.Clear();
    stats_.cache_size = cache_.size();
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
  Timestamp OldestCachedTs() const { return OldestTs(cache_); }
  void SetOldestOverride(Timestamp t) { oldest_override_ = t; }
  /// Windows whose condition held since the last flush: the flush tick
  /// (processing regime) or the fired ends (event regime).
  std::vector<Timestamp> TakeFired() { return std::move(fired_); }

  // Rescale support: state export + event-grid restore.
  const TupleCache& shard_cache() const { return cache_; }
  Timestamp shard_fired_end() const {
    return event_.initialized() ? event_.fired_end() : stt::kNoWatermark;
  }
  void RestoreFiredEnd(Timestamp end) {
    event_.Advance(end, stt::kNoWatermark);
  }

 private:
  /// Event-time regime: the condition is checked once per aligned window
  /// end the frontier has passed; `now` only dates the activation side
  /// effect.
  Status FlushEvent(Timestamp now) {
    Timestamp horizon = input_watermark();
    if (horizon == stt::kNoWatermark) return Status::OK();
    horizon -= watermark_options().allowed_lateness;
    Timestamp oldest = oldest_override_.value_or(OldestTs(cache_));
    for (Timestamp end : event_.Advance(horizon, oldest)) {
      auto view = WindowView(cache_, end - event_.effective_window(), end,
                             /*sorted=*/true);
      event_.MarkFired(end);
      bool fired = false;
      for (const auto* entry : view) {
        SL_ASSIGN_OR_RETURN(bool hit, condition_.EvalPredicate(*entry->tuple));
        if (hit) {
          fired = true;
          break;
        }
      }
      if (fired) {
        if (shard_mode_) {
          fired_.push_back(end);
        } else {
          FireActivation(now);
        }
      }
    }
    if (event_.initialized()) cache_.EvictOlderThan(event_.EvictionCutoff());
    stats_.cache_size = cache_.size();
    return Status::OK();
  }

  void FireActivation(Timestamp now) {
    ++stats_.trigger_fires;
    if (activation_ != nullptr) {
      if (kind() == OpKind::kTriggerOn) {
        activation_->ActivateSensors(spec_.target_sensors, now);
      } else {
        activation_->DeactivateSensors(spec_.target_sensors, now);
      }
    }
  }

  TriggerSpec spec_;
  expr::BoundExpr condition_;
  ActivationHandler* activation_;
  TupleCache cache_;
  EventWindow event_{spec_.interval, spec_.window};
  // Shard mode (key-partitioned wrapper).
  bool shard_mode_ = false;
  std::optional<Timestamp> oldest_override_;
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
    // Min over shards. Identical frontiers and the shared oldest anchor
    // keep every shard's promise equal, so this is the N = 1 value.
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

  /// Aligns every shard's event grid on the globally oldest cached
  /// event time, so all grids anchor (and from then on fire) the exact
  /// window-end sequence the single instance would have.
  void SyncEventOldest() {
    if (!event_time()) return;
    Timestamp oldest = stt::kNoWatermark;
    for (const auto& s : shards_) {
      Timestamp t = s->OldestCachedTs();
      if (t == stt::kNoWatermark) continue;
      if (oldest == stt::kNoWatermark || t < oldest) oldest = t;
    }
    for (auto& s : shards_) s->SetOldestOverride(oldest);
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
    SyncEventOldest();
    SL_RETURN_IF_ERROR(FlushShards(now));
    std::vector<std::vector<AggregationOperator::ShardSig>> sigs;
    sigs.reserve(shards_.size());
    for (auto& s : shards_) sigs.push_back(s->TakeShardSigs());
    if (sliding_) {
      // Windows fire in lockstep across shards, so shard 0's signature
      // list enumerates every fired window in ascending order — also
      // the ones that produced no rows anywhere, which the single
      // instance skips without touching its dedup state. The shards
      // partition the window's members, so XOR-ing their signatures
      // (and summing their counts) yields a value that identifies the
      // member set independently of the shard count.
      for (size_t i = 0; i < sigs[0].size(); ++i) {
        uint64_t sig = 0;
        uint64_t count = 0;
        for (size_t k = 0; k < shards_.size(); ++k) {
          if (i >= sigs[k].size()) continue;
          sig ^= sigs[k][i].sig;
          count += sigs[k][i].count;
        }
        if (count == 0) continue;  // empty window: dedup state untouched
        bool changed = !has_last_ || sig != last_sig_ || count != last_count_;
        last_sig_ = sig;
        last_count_ = count;
        has_last_ = true;
        if (changed) EmitWindow(sigs[0][i].tag);
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
    // Shard-major replay through the normal Process path: every group
    // lives wholly inside one old and one new shard, so each group's
    // fold order (and with it every floating-point result) survives.
    // Each replayed tuple re-attaches the wrapper-level sequence number
    // it carried in the old shard set, which keeps the XOR-combined
    // window signatures — and with them the sliding-window dedup state
    // (last_sig_/last_count_) — valid across the repartition: an
    // unchanged window after the rescale is still recognized as
    // unchanged and not re-emitted.
    capturing_ = true;  // replayed Process must not leak emissions
    Status status = Status::OK();
    for (const auto& s : old) {
      for (const auto& e : s->shard_cache().entries()) {
        AggregationOperator* shard =
            shards_[route_instance(0, e.tuple)].get();
        shard->SetPendingGseq(s->GseqOf(e.seq));
        status = shard->Process(0, e.tuple);
        if (!status.ok()) break;
      }
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
    SyncEventOldest();
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
    SyncEventOldest();
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
      for (const auto& e : s->shard_cache().entries()) {
        status = shards_[route_instance(0, e.tuple)]->Process(0, e.tuple);
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
  // TupleCache::Add immediately evicts the tuple it just admitted.
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
