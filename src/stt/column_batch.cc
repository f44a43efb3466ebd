#include "stt/column_batch.h"

namespace sl::stt {

ColumnBatch::ColumnBatch(SchemaPtr schema, const TupleRef* tuples, size_t n)
    : schema_(std::move(schema)), tuples_(tuples), rows_(n) {
  selection_.resize(n);
  for (size_t r = 0; r < n; ++r) selection_[r] = static_cast<uint32_t>(r);
  const size_t cols = schema_->num_fields();
  columns_.resize(cols);
  decoded_.assign(cols, 0);
  computed_.resize(cols);
}

const Value& ColumnBatch::value(size_t r, size_t col) const {
  if (col < computed_.size() && !computed_[col].empty()) {
    return computed_[col][r];
  }
  return tuples_[r]->value(col);
}

const ColumnBatch::Column& ColumnBatch::column(size_t i) {
  if (!decoded_[i]) Decode(i);
  return columns_[i];
}

void ColumnBatch::Decode(size_t col) {
  Column& c = columns_[col];
  c.decl = schema_->fields()[col].type;
  c.null8.assign(rows_, 0);
  c.bad8.assign(rows_, 0);
  c.any_bad = false;
  const bool from_computed = !computed_[col].empty();
  switch (c.decl) {
    case ValueType::kInt:
    case ValueType::kTimestamp:
      c.i64.resize(rows_);
      break;
    case ValueType::kDouble:
      c.f64.resize(rows_);
      break;
    case ValueType::kBool:
      c.b8.resize(rows_);
      break;
    default:
      break;  // strings / geo points stay boxed
  }
  // Computed columns are only valid at selected rows; original columns
  // decode the full run (the selection may have been narrowed after a
  // column was first read, and masks are indexed by row).
  auto decode_row = [&](size_t r) {
    const Value& v = from_computed ? computed_[col][r] : tuples_[r]->value(col);
    if (v.is_null()) {
      c.null8[r] = 1;
      return;
    }
    if (v.type() != c.decl) {
      c.bad8[r] = 1;
      c.any_bad = true;
      return;
    }
    switch (c.decl) {
      case ValueType::kInt: c.i64[r] = v.AsInt(); break;
      case ValueType::kTimestamp: c.i64[r] = v.AsTime(); break;
      case ValueType::kDouble: c.f64[r] = v.AsDouble(); break;
      case ValueType::kBool: c.b8[r] = v.AsBool() ? 1 : 0; break;
      default: break;
    }
  };
  if (from_computed) {
    for (uint32_t r : selection_) decode_row(r);
  } else {
    for (size_t r = 0; r < rows_; ++r) decode_row(r);
  }
  decoded_[col] = 1;
}

const std::vector<int64_t>& ColumnBatch::ts_column() {
  if (!ts_decoded_) {
    ts_.resize(rows_);
    for (size_t r = 0; r < rows_; ++r) ts_[r] = tuples_[r]->timestamp();
    ts_decoded_ = true;
  }
  return ts_;
}

const ColumnBatch::GeoColumns& ColumnBatch::geo_columns() {
  if (!geo_decoded_) {
    geo_.lat.assign(rows_, 0);
    geo_.lon.assign(rows_, 0);
    geo_.null8.assign(rows_, 0);
    for (size_t r = 0; r < rows_; ++r) {
      const auto& loc = tuples_[r]->location();
      if (loc.has_value()) {
        geo_.lat[r] = loc->lat;
        geo_.lon[r] = loc->lon;
      } else {
        geo_.null8[r] = 1;
      }
    }
    geo_decoded_ = true;
  }
  return geo_;
}

void ColumnBatch::OverwriteColumn(size_t col, std::vector<Value> values,
                                  SchemaPtr new_schema) {
  std::vector<Value>& full = computed_[col];
  full.assign(rows_, Value::Null());
  for (size_t pos = 0; pos < selection_.size(); ++pos) {
    full[selection_[pos]] = std::move(values[pos]);
  }
  decoded_[col] = 0;  // re-decode from the computed values on next read
  any_computed_ = true;
  schema_ = std::move(new_schema);
}

void ColumnBatch::AppendColumn(std::vector<Value> values,
                               SchemaPtr new_schema) {
  columns_.emplace_back();
  decoded_.push_back(0);
  computed_.emplace_back();
  schema_ = std::move(new_schema);
  OverwriteColumn(columns_.size() - 1, std::move(values), schema_);
}

TupleRef ColumnBatch::MaterializeRow(size_t pos) const {
  const size_t r = selection_[pos];
  const Tuple& t = *tuples_[r];
  if (!any_computed_) return tuples_[r];
  std::vector<Value> values;
  values.reserve(computed_.size());
  for (size_t col = 0; col < computed_.size(); ++col) {
    if (!computed_[col].empty()) {
      values.push_back(computed_[col][r]);
    } else {
      values.push_back(t.value(col));
    }
  }
  return Tuple::Share(Tuple::MakeUnsafe(schema_, std::move(values),
                                        t.timestamp(), t.location(),
                                        t.sensor_id()));
}

}  // namespace sl::stt
