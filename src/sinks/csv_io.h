// StreamLoader: CSV tuple serialization (the CsvSink line format).
//
// One format closes the loop across the system: the CsvSink writes it,
// the warehouse exports/imports datasets in it, and the sensors layer
// replays recordings of it (sensors/recording.h).
//
//   ts,lat,lon,sensor,<field>,<field>,...
//   2016-03-15T08:00:00.000Z,34.69,135.50,temp_01,24.5,osaka
//
// Empty lat/lon mean "no location"; empty field values are nulls;
// `#`-prefixed lines are comments.
//
// Number forms (CsvSink writes them; the benchmark's reference and any
// consumer may rely on them byte for byte):
//   - ts and timestamp values: "YYYY-MM-DDTHH:MM:SS.mmmZ" (UTC), the
//     year as printf's "%04d" (AppendTimestamp);
//   - lat, lon and geo-point coordinates: printf's "%.6f";
//   - ints: printf's "%lld"; bools: "true"/"false";
//   - doubles: printf's "%.10g", i.e. 10 significant digits, so a
//     recording round-trips a double only to that precision.
// A field is quoted when it holds a comma, a quote, "\n" or "\r"
// (quotes inside are doubled), so a quoted field may span lines. A
// record ends at "\n" or "\r\n" outside quotes and the parser strips
// nothing else: string values keep leading and trailing spaces. An
// empty string value is written as an empty field and so reads back as
// null.

#ifndef STREAMLOADER_SINKS_CSV_IO_H_
#define STREAMLOADER_SINKS_CSV_IO_H_

#include <string>
#include <vector>

#include "stt/schema.h"
#include "stt/tuple.h"

namespace sl::sinks {

/// \brief Parses a CSV recording into tuples conforming to `schema`.
/// The header must name the schema fields in order after the fixed
/// `ts,lat,lon,sensor` columns.
Result<std::vector<stt::Tuple>> ParseRecordingCsv(const std::string& csv,
                                                  stt::SchemaPtr schema);

/// \brief Serializes tuples (sharing one schema) as a CSV recording.
Result<std::string> WriteRecordingCsv(const std::vector<stt::Tuple>& tuples);
Result<std::string> WriteRecordingCsv(const std::vector<stt::TupleRef>& tuples);

}  // namespace sl::sinks

#endif  // STREAMLOADER_SINKS_CSV_IO_H_
