#include "tests/reference/blocking.h"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>

#include "dataflow/validate.h"
#include "expr/eval.h"
#include "ops/tuple_cache.h"
#include "util/strings.h"

namespace sl::reference {
namespace {

using dataflow::AggFunc;
using dataflow::AggregationSpec;
using dataflow::JoinSpec;
using dataflow::OpKind;
using ops::EventWindow;
using ops::TupleCache;
using stt::Tuple;
using stt::TupleRef;
using stt::Value;

using View = std::vector<const TupleCache::Entry*>;

/// The lateness-adjusted input frontier that event-time windows fire
/// against; stt::kNoWatermark until every input port carried one.
Timestamp Horizon(const ops::Operator& op) {
  Timestamp horizon = op.input_watermark();
  if (horizon == stt::kNoWatermark) return horizon;
  return horizon - op.watermark_options().allowed_lateness;
}

/// @_{t,{a1..an}}^{op}(s), recomputed from the cache at every check.
class ReferenceAggregation : public ops::Operator {
 public:
  ReferenceAggregation(std::string name, stt::SchemaPtr out_schema,
                       const stt::Schema& in_schema, AggregationSpec spec,
                       size_t max_cache)
      : Operator(std::move(name), OpKind::kAggregation, std::move(out_schema),
                 spec.interval),
        spec_(std::move(spec)),
        cache_(max_cache),
        event_(spec_.interval, spec_.window) {
    for (const auto& g : spec_.group_by) {
      group_indexes_.push_back(*in_schema.FieldIndex(g));
    }
    for (const auto& a : spec_.attributes) {
      attr_indexes_.push_back(*in_schema.FieldIndex(a));
    }
  }

  Status Process(size_t, const TupleRef& tuple) override {
    CountIn();
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
    if (event_time()) {
      FlushEvent();
    } else {
      FlushProcessing(now);
    }
    stats_.cache_size = cache_.size();
    return Status::OK();
  }

  Timestamp output_watermark() const override {
    if (!event_time()) return input_watermark();
    return event_.initialized() ? event_.fired_end() : stt::kNoWatermark;
  }

 private:
  /// Processing time: expire tuples older than the sliding window,
  /// aggregate the half-open view [-inf, now) and keep the survivors
  /// (tumbling windows start over).
  void FlushProcessing(Timestamp now) {
    if (spec_.window > 0) cache_.EvictOlderThan(now - spec_.window);
    View view = ops::WindowView(cache_, std::numeric_limits<Timestamp>::min(),
                                now, /*sorted=*/false);
    if (!view.empty() && ChangedSinceLastEmit(view)) EmitGroups(view, now);
    if (spec_.window == 0) cache_.Clear();
  }

  /// Event time: fire every aligned window end the horizon has passed,
  /// oldest first, each over the sorted view of its members.
  void FlushEvent() {
    Timestamp horizon = Horizon(*this);
    if (horizon == stt::kNoWatermark) return;
    for (Timestamp end : event_.Advance(horizon, ops::OldestTs(cache_))) {
      View view = ops::WindowView(cache_, end - event_.effective_window(),
                                  end, /*sorted=*/true);
      event_.MarkFired(end);
      if (!view.empty() && ChangedSinceLastEmit(view)) EmitGroups(view, end);
    }
    if (event_.initialized()) cache_.EvictOlderThan(event_.EvictionCutoff());
  }

  /// Sliding windows emit only when their tuple set changed since the
  /// last emission; tumbling windows always hold fresh data.
  bool ChangedSinceLastEmit(const View& view) {
    if (spec_.window == 0) return true;
    uint64_t sig = ops::SeqSignature(view);
    if (last_signature_.has_value() && *last_signature_ == sig) return false;
    last_signature_ = sig;
    return true;
  }

  /// Groups by the '\x1f'-joined display form of the group-by columns
  /// in an ordered map, then emits one aggregate per group in ascending
  /// key order, stamped with the last granule of the window.
  void EmitGroups(const View& view, Timestamp end) {
    std::map<std::string, std::vector<const Tuple*>> by_key;
    for (const auto* entry : view) {
      std::string key;
      for (size_t idx : group_indexes_) {
        entry->tuple->value(idx).AppendTo(&key);
        key += '\x1f';
      }
      by_key[key].push_back(entry->tuple.get());
    }
    Timestamp out_ts =
        output_schema()->temporal_granularity().Truncate(end - 1);
    stt::RefBatch out(output_schema());
    for (const auto& [key, tuples] : by_key) {
      std::vector<Value> values;
      for (size_t idx : group_indexes_) {
        values.push_back(tuples.front()->value(idx));
      }
      if (spec_.func == AggFunc::kCount && attr_indexes_.empty()) {
        values.push_back(Value::Int(static_cast<int64_t>(tuples.size())));
      }
      for (size_t idx : attr_indexes_) {
        values.push_back(Aggregate(tuples, idx));
      }
      out.Add(Tuple::Share(Tuple::MakeUnsafe(
          output_schema(), std::move(values), out_ts, Centroid(tuples))));
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

  /// Centroid of the group's located tuples.
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

  AggregationSpec spec_;
  std::vector<size_t> group_indexes_;
  std::vector<size_t> attr_indexes_;
  TupleCache cache_;
  EventWindow event_;
  std::optional<uint64_t> last_signature_;
};

/// s1 |><|_{pred}^{t} s2 as a nested loop over the two caches: every
/// pair is materialized, then the full predicate decides.
class ReferenceJoin : public ops::Operator {
 public:
  ReferenceJoin(std::string name, stt::SchemaPtr out_schema, JoinSpec spec,
                expr::BoundExpr predicate, size_t max_cache)
      : Operator(std::move(name), OpKind::kJoin, std::move(out_schema),
                 spec.interval),
        spec_(std::move(spec)),
        predicate_(std::move(predicate)),
        left_(max_cache),
        right_(max_cache),
        event_(spec_.interval, spec_.window) {}

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
    stats_.dropped += (port == 0 ? left_ : right_).Add(tuple);
    stats_.cache_size = left_.size() + right_.size();
    return Status::OK();
  }

  Status Flush(Timestamp now) override {
    ++stats_.flushes;
    SL_RETURN_IF_ERROR(event_time() ? FlushEvent() : FlushProcessing(now));
    stats_.cache_size = left_.size() + right_.size();
    return Status::OK();
  }

  Timestamp output_watermark() const override {
    if (!event_time()) return input_watermark();
    return event_.initialized() ? event_.fired_end() : stt::kNoWatermark;
  }

 private:
  /// Processing time: pair everything cached. A sliding window emits
  /// each surviving pair once, on the first check where both members
  /// are cached together.
  Status FlushProcessing(Timestamp now) {
    if (spec_.window > 0) {
      left_.EvictOlderThan(now - spec_.window);
      right_.EvictOlderThan(now - spec_.window);
    }
    stt::RefBatch out(output_schema());
    for (const auto& le : left_.entries()) {
      for (const auto& re : right_.entries()) {
        if (spec_.window > 0 && le.seq < left_seen_ &&
            re.seq < right_seen_) {
          continue;
        }
        SL_RETURN_IF_ERROR(JoinPair(*le.tuple, *re.tuple, &out));
      }
    }
    EmitAll(out);
    if (spec_.window == 0) {
      left_.Clear();
      right_.Clear();
    } else {
      left_seen_ = left_.next_seq();
      right_seen_ = right_.next_seq();
    }
    return Status::OK();
  }

  /// Event time: each pair fires at the one window end whose closing
  /// granule contains its pair time max(l.ts, r.ts).
  Status FlushEvent() {
    Timestamp horizon = Horizon(*this);
    if (horizon == stt::kNoWatermark) return Status::OK();
    Timestamp oldest_left = ops::OldestTs(left_);
    Timestamp oldest_right = ops::OldestTs(right_);
    Timestamp oldest = oldest_left == stt::kNoWatermark ? oldest_right
                       : oldest_right == stt::kNoWatermark
                           ? oldest_left
                           : std::min(oldest_left, oldest_right);
    for (Timestamp end : event_.Advance(horizon, oldest)) {
      Timestamp begin = end - event_.effective_window();
      View lview = ops::WindowView(left_, begin, end, /*sorted=*/true);
      View rview = ops::WindowView(right_, begin, end, /*sorted=*/true);
      event_.MarkFired(end);
      if (lview.empty() || rview.empty()) continue;
      stt::RefBatch out(output_schema());
      for (const auto* le : lview) {
        for (const auto* re : rview) {
          Timestamp pair_ts =
              std::max(le->tuple->timestamp(), re->tuple->timestamp());
          if (pair_ts < end - interval()) continue;
          SL_RETURN_IF_ERROR(JoinPair(*le->tuple, *re->tuple, &out));
        }
      }
      EmitAll(out);
    }
    if (event_.initialized()) {
      left_.EvictOlderThan(event_.EvictionCutoff());
      right_.EvictOlderThan(event_.EvictionCutoff());
    }
    return Status::OK();
  }

  /// Materializes the concatenated pair, then evaluates the predicate
  /// on it.
  Status JoinPair(const Tuple& l, const Tuple& r, stt::RefBatch* out) {
    std::vector<Value> values;
    values.reserve(l.values().size() + r.values().size());
    values.insert(values.end(), l.values().begin(), l.values().end());
    values.insert(values.end(), r.values().begin(), r.values().end());
    Timestamp ts = output_schema()->temporal_granularity().Truncate(
        std::max(l.timestamp(), r.timestamp()));
    std::optional<stt::GeoPoint> loc =
        l.location().has_value() ? l.location() : r.location();
    Tuple joined =
        Tuple::MakeUnsafe(output_schema(), std::move(values), ts, loc);
    SL_ASSIGN_OR_RETURN(bool match, predicate_.EvalPredicate(joined));
    if (match) out->Add(Tuple::Share(std::move(joined)));
    return Status::OK();
  }

  JoinSpec spec_;
  expr::BoundExpr predicate_;
  TupleCache left_;
  TupleCache right_;
  EventWindow event_;
  // Sequence watermarks of the previous check (processing-time sliding).
  uint64_t left_seen_ = 0;
  uint64_t right_seen_ = 0;
};

Status RejectParallel(const std::string& name, size_t parallelism) {
  if (parallelism <= 1) return Status::OK();
  return Status::InvalidArgument(
      "reference operator '" + name +
      "' is single-instance; parallelism must be 1");
}

}  // namespace

Result<std::unique_ptr<ops::Operator>> MakeBlockingReference(
    const std::string& name, dataflow::OpKind kind,
    const dataflow::OpSpec& spec,
    const std::vector<stt::SchemaPtr>& input_schemas,
    const std::vector<std::string>& input_names,
    const ops::OperatorOptions& options) {
  SL_ASSIGN_OR_RETURN(
      stt::SchemaPtr out_schema,
      dataflow::Validator::DeriveSchema(kind, spec, input_schemas,
                                        input_names));
  std::unique_ptr<ops::Operator> built;
  if (kind == OpKind::kAggregation) {
    const auto& s = std::get<AggregationSpec>(spec);
    SL_RETURN_IF_ERROR(RejectParallel(name, s.parallelism));
    built = std::make_unique<ReferenceAggregation>(
        name, out_schema, *input_schemas[0], s, options.max_cache_tuples);
  } else if (kind == OpKind::kJoin) {
    const auto& s = std::get<JoinSpec>(spec);
    SL_RETURN_IF_ERROR(RejectParallel(name, s.parallelism));
    SL_ASSIGN_OR_RETURN(expr::BoundExpr predicate,
                        expr::BoundExpr::Parse(s.predicate, out_schema));
    built = std::make_unique<ReferenceJoin>(name, out_schema, s,
                                            std::move(predicate),
                                            options.max_cache_tuples);
  } else {
    return Status::InvalidArgument(
        std::string("no blocking reference for operator kind ") +
        dataflow::OpKindToString(kind));
  }
  built->set_watermark_options(options.watermark);
  return built;
}

}  // namespace sl::reference
