#include "util/json.h"

#include <cmath>
#include <cstdio>

#include "util/strings.h"

namespace sl {

std::string JsonEscape(std::string_view text) { return QuoteString(text); }

void JsonWriter::MaybeComma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_value_.empty()) {
    if (has_value_.back()) out_.push_back(',');
    has_value_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  MaybeComma();
  out_.push_back('{');
  has_value_.push_back(false);
}

void JsonWriter::EndObject() {
  out_.push_back('}');
  if (!has_value_.empty()) has_value_.pop_back();
}

void JsonWriter::BeginArray() {
  MaybeComma();
  out_.push_back('[');
  has_value_.push_back(false);
}

void JsonWriter::EndArray() {
  out_.push_back(']');
  if (!has_value_.empty()) has_value_.pop_back();
}

void JsonWriter::Key(std::string_view key) {
  MaybeComma();
  out_ += JsonEscape(key);
  out_.push_back(':');
  after_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  MaybeComma();
  out_ += JsonEscape(value);
}

void JsonWriter::Int(int64_t value) {
  MaybeComma();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  out_ += buf;
}

void JsonWriter::Double(double value) {
  MaybeComma();
  if (std::isnan(value) || std::isinf(value)) {
    out_ += "null";  // JSON has no NaN/Inf
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  out_ += buf;
}

void JsonWriter::Bool(bool value) {
  MaybeComma();
  out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  MaybeComma();
  out_ += "null";
}

std::string JsonWriter::TakeString() {
  std::string result = std::move(out_);
  out_.clear();
  has_value_.clear();
  after_key_ = false;
  return result;
}

}  // namespace sl
