// StreamLoader: a minimal streaming JSON writer.
//
// Used by the visualization sink (GeoJSON-like output), the monitor's
// machine-readable reports, and tests. Write-only by design: StreamLoader
// never needs to parse arbitrary JSON.

#ifndef STREAMLOADER_UTIL_JSON_H_
#define STREAMLOADER_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sl {

/// \brief Streaming JSON document writer.
///
/// Usage:
/// \code
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("name"); w.String("temp_01");
///   w.Key("values"); w.BeginArray(); w.Double(24.5); w.EndArray();
///   w.EndObject();
///   std::string doc = w.TakeString();
/// \endcode
///
/// Structural misuse (e.g. EndObject without BeginObject) is tolerated and
/// produces malformed output rather than crashing; the writer is an output
/// formatter, not a validator.
class JsonWriter {
 public:
  JsonWriter() = default;

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Writes an object key; must be followed by exactly one value.
  void Key(std::string_view key);

  void String(std::string_view value);
  void Int(int64_t value);
  void Double(double value);
  void Bool(bool value);
  void Null();

  /// The document so far.
  const std::string& str() const { return out_; }

  /// Moves the document out, leaving the writer empty and reusable.
  std::string TakeString();

 private:
  void MaybeComma();

  std::string out_;
  // Tracks whether a value has been emitted at each nesting depth and
  // whether we are directly after a key.
  std::vector<bool> has_value_;
  bool after_key_ = false;
};

/// \brief Escapes `text` as a JSON string literal including quotes.
std::string JsonEscape(std::string_view text);

}  // namespace sl

#endif  // STREAMLOADER_UTIL_JSON_H_
