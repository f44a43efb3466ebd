#include "stt/tuple.h"

#include <cassert>

#include "util/strings.h"

namespace sl::stt {
namespace {

size_t ValueBytes(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull: return 1;
    case ValueType::kBool: return 1;
    case ValueType::kInt:
    case ValueType::kDouble:
    case ValueType::kTimestamp: return 8;
    case ValueType::kGeoPoint: return 16;
    case ValueType::kString: return 4 + v.AsString().size();
  }
  return 8;
}

}  // namespace

Status ValidateValues(const Schema& schema, const std::vector<Value>& values) {
  if (values.size() != schema.num_fields()) {
    return Status::TypeError(
        StrFormat("tuple has %zu values but schema %s has %zu fields",
                  values.size(), schema.ToString().c_str(),
                  schema.num_fields()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    const Field& f = schema.fields()[i];
    if (values[i].is_null()) {
      if (!f.nullable) {
        return Status::TypeError("null value for non-nullable field '" +
                                 f.name + "'");
      }
      continue;
    }
    if (values[i].type() != f.type) {
      return Status::TypeError(StrFormat(
          "field '%s' expects %s but got %s", f.name.c_str(),
          ValueTypeToString(f.type), ValueTypeToString(values[i].type())));
    }
  }
  return Status::OK();
}

Result<Tuple> Tuple::Make(SchemaPtr schema, std::vector<Value> values,
                          Timestamp ts, std::optional<GeoPoint> location,
                          std::string sensor_id) {
  if (schema == nullptr) return Status::InvalidArgument("null schema");
  SL_RETURN_IF_ERROR(ValidateValues(*schema, values));
  return MakeUnsafe(std::move(schema), std::move(values), ts, location,
                    std::move(sensor_id));
}

Tuple Tuple::MakeUnsafe(SchemaPtr schema, std::vector<Value> values,
                        Timestamp ts, std::optional<GeoPoint> location,
                        std::string sensor_id) {
  Tuple t;
  t.schema_ = std::move(schema);
  t.values_ = std::move(values);
  t.ts_ = ts;
  t.location_ = location;
  t.sensor_id_ = std::move(sensor_id);
  return t;
}

Result<TupleRef> Tuple::MakeShared(SchemaPtr schema, std::vector<Value> values,
                                   Timestamp ts,
                                   std::optional<GeoPoint> location,
                                   std::string sensor_id) {
  SL_ASSIGN_OR_RETURN(Tuple t, Make(std::move(schema), std::move(values), ts,
                                    location, std::move(sensor_id)));
  return Share(std::move(t));
}

Result<Value> Tuple::ValueByName(const std::string& name) const {
  SL_ASSIGN_OR_RETURN(size_t idx, schema_->FieldIndex(name));
  return values_[idx];
}

TupleRef Tuple::WithAppended(SchemaPtr new_schema, Value v) const {
  Tuple t = *this;
  t.schema_ = std::move(new_schema);
  t.values_.push_back(std::move(v));
  t.value_bytes_ = kBytesUnset;
  return Share(std::move(t));
}

TupleRef Tuple::WithValueAt(SchemaPtr new_schema, size_t i, Value v) const {
  Tuple t = *this;
  t.schema_ = std::move(new_schema);
  assert(i < t.values_.size());
  t.values_[i] = std::move(v);
  t.value_bytes_ = kBytesUnset;
  return Share(std::move(t));
}

TupleRef Tuple::WithStt(SchemaPtr new_schema, Timestamp ts,
                        std::optional<GeoPoint> location) const {
  Tuple t = *this;
  t.schema_ = std::move(new_schema);
  t.ts_ = ts;
  t.location_ = location;
  return Share(std::move(t));
}

size_t Tuple::ApproxValueBytes() const {
  size_t bytes = value_bytes_.load(std::memory_order_relaxed);
  if (bytes == kBytesUnset) {
    bytes = 0;
    for (const auto& v : values_) bytes += ValueBytes(v);
    // Concurrent first callers store the same value; relaxed is enough.
    value_bytes_.store(bytes, std::memory_order_relaxed);
  }
  return bytes;
}

std::string Tuple::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Tuple::AppendTo(std::string* out) const {
  out->push_back('(');
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out->append(", ");
    values_[i].AppendTo(out);
  }
  out->append(") @");
  AppendTimestamp(ts_, out);
  if (location_.has_value()) {
    out->append(" loc=");
    location_->AppendTo(out);
  }
  if (!sensor_id_.empty()) {
    out->append(" from=");
    out->append(sensor_id_);
  }
}

bool Tuple::EqualsIgnoringSensor(const Tuple& other) const {
  if (ts_ != other.ts_) return false;
  if (location_.has_value() != other.location_.has_value()) return false;
  if (location_.has_value() && !(*location_ == *other.location_)) return false;
  if (values_ != other.values_) return false;
  if ((schema_ == nullptr) != (other.schema_ == nullptr)) return false;
  if (schema_ != nullptr && !schema_->Equals(*other.schema_)) return false;
  return true;
}

void RefBatch::Add(TupleRef tuple) {
  assert(tuple != nullptr);
  assert(schema_ == nullptr || tuple->schema() == schema_ ||
         (tuple->schema() != nullptr && tuple->schema()->Equals(*schema_)));
  if (schema_ == nullptr) schema_ = tuple->schema();
  tuples_.push_back(std::move(tuple));
}

}  // namespace sl::stt
