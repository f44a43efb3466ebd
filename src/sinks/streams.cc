#include "sinks/streams.h"

#include <algorithm>

#include "util/json.h"

namespace sl::sinks {

std::string VisualizationSink::ToFeature(const stt::Tuple& tuple) {
  JsonWriter w;
  w.BeginObject();
  w.Key("type");
  w.String("Feature");
  w.Key("geometry");
  if (tuple.location().has_value()) {
    w.BeginObject();
    w.Key("type");
    w.String("Point");
    w.Key("coordinates");
    w.BeginArray();
    w.Double(tuple.location()->lon);
    w.Double(tuple.location()->lat);
    w.EndArray();
    w.EndObject();
  } else {
    w.Null();
  }
  w.Key("properties");
  w.BeginObject();
  w.Key("ts");
  w.String(FormatTimestamp(tuple.timestamp()));
  if (tuple.schema() != nullptr) {
    w.Key("theme");
    w.String(tuple.schema()->theme().ToString());
    for (size_t i = 0; i < tuple.schema()->num_fields(); ++i) {
      const auto& field = tuple.schema()->fields()[i];
      const auto& value = tuple.value(i);
      w.Key(field.name);
      if (value.is_null()) {
        w.Null();
      } else {
        switch (value.type()) {
          case stt::ValueType::kBool: w.Bool(value.AsBool()); break;
          case stt::ValueType::kInt: w.Int(value.AsInt()); break;
          case stt::ValueType::kDouble: w.Double(value.AsDouble()); break;
          default: w.String(value.ToString());
        }
      }
    }
  }
  if (!tuple.sensor_id().empty()) {
    w.Key("sensor");
    w.String(tuple.sensor_id());
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

Status VisualizationSink::Write(const stt::TupleRef& tuple) {
  std::string line = ToFeature(*tuple);
  if (consumer_) {
    consumer_(line);
  } else {
    lines_.push_back(std::move(line));
  }
  CountWrite();
  return Status::OK();
}

namespace {

/// Quotes (*row)[start..] in place, doubling its quotes, when it holds
/// a comma, a quote or a line break. '\r' counts as a line break so a
/// value ending in it is not mistaken for a CRLF line ending.
void QuoteCsvTail(std::string* row, size_t start) {
  if (row->find_first_of(",\"\n\r", start) == std::string::npos) return;
  const auto quotes = static_cast<size_t>(
      std::count(row->begin() + static_cast<std::ptrdiff_t>(start),
                 row->end(), '"'));
  size_t from = row->size();
  row->resize(from + quotes + 2);
  size_t to = row->size();
  (*row)[--to] = '"';
  while (from > start) {
    const char c = (*row)[--from];
    (*row)[--to] = c;
    if (c == '"') (*row)[--to] = '"';
  }
  (*row)[start] = '"';
}

}  // namespace

void CsvSink::EmitLine(const std::string& line) {
  if (consumer_) {
    consumer_(line);
  } else {
    lines_.push_back(line);
  }
}

Status CsvSink::Write(const stt::TupleRef& tuple) {
  return WriteRow(*tuple);
}

Status CsvSink::WriteRow(const stt::Tuple& tuple) {
  if (tuple.schema() == nullptr) {
    return Status::InvalidArgument("tuple without schema");
  }
  if (!header_written_) {
    row_ = "ts,lat,lon,sensor";
    for (const auto& f : tuple.schema()->fields()) {
      row_ += ',';
      row_ += f.name;
    }
    EmitLine(row_);
    header_written_ = true;
  }
  row_.clear();
  AppendTimestamp(tuple.timestamp(), &row_);
  if (tuple.location().has_value()) {
    row_ += ',';
    stt::AppendCoordinate(tuple.location()->lat, &row_);
    row_ += ',';
    stt::AppendCoordinate(tuple.location()->lon, &row_);
  } else {
    row_ += ",,";
  }
  row_ += ',';
  size_t start = row_.size();
  row_ += tuple.sensor_id();
  QuoteCsvTail(&row_, start);
  for (const auto& v : tuple.values()) {
    row_ += ',';
    if (v.is_null()) continue;
    start = row_.size();
    v.AppendTo(&row_);
    QuoteCsvTail(&row_, start);
  }
  EmitLine(row_);
  CountWrite();
  return Status::OK();
}

}  // namespace sl::sinks
