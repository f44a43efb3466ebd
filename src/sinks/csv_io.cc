#include "sinks/csv_io.h"

#include <cstdlib>

#include "sinks/streams.h"
#include "util/strings.h"

namespace sl::sinks {

using stt::Value;
using stt::ValueType;

namespace {

/// Reads a CSV text record by record. A record ends at "\n" or "\r\n"
/// outside quotes, and nothing but that terminator is stripped: a
/// quoted field may hold line breaks, '"' inside quotes is escaped as
/// "", and spaces are part of their field. Blank lines and lines
/// starting with '#' (after leading whitespace) are skipped whole.
class RecordReader {
 public:
  explicit RecordReader(const std::string& csv) : csv_(csv) {}

  /// Reads the next record into `fields`; false at the end of input.
  Result<bool> Next(std::vector<std::string>* fields) {
    fields->clear();
    for (;;) {
      if (pos_ >= csv_.size()) return false;
      size_t eol = csv_.find('\n', pos_);
      if (eol == std::string_view::npos) eol = csv_.size();
      std::string_view text = Trim(csv_.substr(pos_, eol - pos_));
      if (!text.empty() && text.front() != '#') break;
      pos_ = eol + 1;
      ++line_;
    }
    record_line_ = line_;
    std::string field;
    bool quoted = false;
    for (; pos_ < csv_.size(); ++pos_) {
      const char c = csv_[pos_];
      if (quoted) {
        if (c != '"') {
          if (c == '\n') ++line_;
          field.push_back(c);
        } else if (pos_ + 1 < csv_.size() && csv_[pos_ + 1] == '"') {
          field.push_back('"');
          ++pos_;
        } else {
          quoted = false;
        }
      } else if (c == '"') {
        quoted = true;
      } else if (c == ',') {
        fields->push_back(std::move(field));
        field.clear();
      } else if (c == '\n') {
        // Quote state only changes at '"', so a '\r' right before this
        // '\n' was read unquoted: it is the CRLF terminator.
        if (pos_ > 0 && csv_[pos_ - 1] == '\r') field.pop_back();
        break;
      } else {
        field.push_back(c);
      }
    }
    if (quoted) {
      return Status::ParseError(StrFormat(
          "line %zu: unterminated quoted field", record_line_));
    }
    fields->push_back(std::move(field));
    ++pos_;
    ++line_;
    return true;
  }

  /// The line the last record read starts on (1-based).
  size_t record_line() const { return record_line_; }

 private:
  std::string_view csv_;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t record_line_ = 0;
};

Result<Value> ParseValue(const std::string& text, const stt::Field& field) {
  if (text.empty()) {
    if (!field.nullable) {
      return Status::TypeError("empty value for non-nullable field '" +
                               field.name + "'");
    }
    return Value::Null();
  }
  switch (field.type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool:
      if (text == "true") return Value::Bool(true);
      if (text == "false") return Value::Bool(false);
      return Status::ParseError("invalid bool '" + text + "' for field '" +
                                field.name + "'");
    case ValueType::kInt: {
      char* end = nullptr;
      long long v = std::strtoll(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0') {
        return Status::ParseError("invalid int '" + text + "' for field '" +
                                  field.name + "'");
      }
      return Value::Int(v);
    }
    case ValueType::kDouble: {
      char* end = nullptr;
      double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0') {
        return Status::ParseError("invalid double '" + text +
                                  "' for field '" + field.name + "'");
      }
      return Value::Double(v);
    }
    case ValueType::kString:
      return Value::String(text);
    case ValueType::kTimestamp: {
      Timestamp ts;
      if (!ParseTimestamp(text, &ts)) {
        return Status::ParseError("invalid timestamp '" + text +
                                  "' for field '" + field.name + "'");
      }
      return Value::Time(ts);
    }
    case ValueType::kGeoPoint: {
      // "(lat, lon)" form.
      std::string t(Trim(text));
      if (t.size() < 5 || t.front() != '(' || t.back() != ')') {
        return Status::ParseError("invalid geopoint '" + text + "'");
      }
      auto parts = SplitAndTrim(t.substr(1, t.size() - 2), ',');
      if (parts.size() != 2) {
        return Status::ParseError("invalid geopoint '" + text + "'");
      }
      return Value::Geo({std::strtod(parts[0].c_str(), nullptr),
                         std::strtod(parts[1].c_str(), nullptr)});
    }
  }
  return Status::Internal("unreachable value type");
}

}  // namespace

Result<std::vector<stt::Tuple>> ParseRecordingCsv(const std::string& csv,
                                                  stt::SchemaPtr schema) {
  if (schema == nullptr) return Status::InvalidArgument("null schema");
  std::vector<stt::Tuple> tuples;
  bool header_seen = false;
  RecordReader reader(csv);
  std::vector<std::string> cols;
  for (;;) {
    SL_ASSIGN_OR_RETURN(bool more, reader.Next(&cols));
    if (!more) break;
    const size_t line_no = reader.record_line();
    if (!header_seen) {
      // Validate the header against the schema.
      if (cols.size() != 4 + schema->num_fields() || cols[0] != "ts" ||
          cols[1] != "lat" || cols[2] != "lon" || cols[3] != "sensor") {
        return Status::ParseError(
            "recording header must be 'ts,lat,lon,sensor,<fields>', got: " +
            Join(cols, ","));
      }
      for (size_t i = 0; i < schema->num_fields(); ++i) {
        if (cols[4 + i] != schema->fields()[i].name) {
          return Status::ParseError(StrFormat(
              "header column %zu is '%s' but the schema field is '%s'",
              4 + i, cols[4 + i].c_str(), schema->fields()[i].name.c_str()));
        }
      }
      header_seen = true;
      continue;
    }
    if (cols.size() != 4 + schema->num_fields()) {
      return Status::ParseError(
          StrFormat("line %zu has %zu columns, expected %zu", line_no,
                    cols.size(), 4 + schema->num_fields()));
    }
    Timestamp ts;
    if (!ParseTimestamp(cols[0], &ts)) {
      return Status::ParseError(StrFormat("line %zu: invalid ts '%s'",
                                          line_no, cols[0].c_str()));
    }
    std::optional<stt::GeoPoint> location;
    if (!cols[1].empty() && !cols[2].empty()) {
      location = stt::GeoPoint{std::strtod(cols[1].c_str(), nullptr),
                               std::strtod(cols[2].c_str(), nullptr)};
    }
    std::vector<Value> values;
    values.reserve(schema->num_fields());
    for (size_t i = 0; i < schema->num_fields(); ++i) {
      SL_ASSIGN_OR_RETURN(Value v,
                          ParseValue(cols[4 + i], schema->fields()[i]));
      values.push_back(std::move(v));
    }
    SL_ASSIGN_OR_RETURN(stt::Tuple tuple,
                        stt::Tuple::Make(schema, std::move(values), ts,
                                         location, cols[3]));
    tuples.push_back(std::move(tuple));
  }
  if (!header_seen) {
    return Status::ParseError("recording has no header line");
  }
  return tuples;
}

Result<std::string> WriteRecordingCsv(const std::vector<stt::Tuple>& tuples) {
  if (tuples.empty()) {
    return Status::InvalidArgument("cannot serialize an empty recording");
  }
  std::string out;
  CsvSink sink("recording",
                      [&out](const std::string& line) {
                        out += line;
                        out += "\n";
                      });
  for (const auto& t : tuples) {
    SL_RETURN_IF_ERROR(sink.WriteRow(t));
  }
  return out;
}

Result<std::string> WriteRecordingCsv(const std::vector<stt::TupleRef>& tuples) {
  if (tuples.empty()) {
    return Status::InvalidArgument("cannot serialize an empty recording");
  }
  std::string out;
  CsvSink sink("recording",
                      [&out](const std::string& line) {
                        out += line;
                        out += "\n";
                      });
  for (const auto& t : tuples) {
    SL_RETURN_IF_ERROR(sink.WriteRow(*t));
  }
  return out;
}


}  // namespace sl::sinks
