// StreamLoader: streaming sinks — visualization (GeoJSON feature lines,
// standing in for the Sticker tool [11]), CSV export, and in-memory
// collection for tests and the design environment.

#ifndef STREAMLOADER_SINKS_STREAMS_H_
#define STREAMLOADER_SINKS_STREAMS_H_

#include <functional>
#include <string>
#include <vector>

#include "sinks/sink.h"

namespace sl::sinks {

/// Receives one formatted output line.
using LineConsumer = std::function<void(const std::string&)>;

/// \brief Emits one GeoJSON-like Feature per tuple:
///   {"type":"Feature","geometry":{...},"properties":{...}}
/// Properties carry every attribute plus "ts", "theme" and "sensor";
/// tuples without a location get a null geometry. One line per tuple
/// (ND-JSON), as a live visualization front-end would consume.
class VisualizationSink : public Sink {
 public:
  /// Lines go to `consumer`; when none is given they are collected in
  /// memory (see lines()).
  explicit VisualizationSink(std::string name, LineConsumer consumer = nullptr)
      : Sink(std::move(name)), consumer_(std::move(consumer)) {}

  using Sink::Write;
  Status Write(const stt::TupleRef& tuple) override;

  /// Collected lines (only populated without an external consumer).
  const std::vector<std::string>& lines() const { return lines_; }

  /// Formats one tuple as a GeoJSON feature line (exposed for tests).
  static std::string ToFeature(const stt::Tuple& tuple);

 private:
  LineConsumer consumer_;
  std::vector<std::string> lines_;
};

/// \brief Emits CSV: a header line (on the first tuple), then one line
/// per tuple with ts, lat, lon, sensor and all attributes (the format
/// and its number forms are specified in sinks/csv_io.h). Fields are
/// quoted when they contain a comma, a quote or a line break. Each row
/// is encoded into one reused buffer, which the consumer receives.
class CsvSink : public Sink {
 public:
  explicit CsvSink(std::string name, LineConsumer consumer = nullptr)
      : Sink(std::move(name)), consumer_(std::move(consumer)) {}

  using Sink::Write;
  Status Write(const stt::TupleRef& tuple) override;

  /// Formats and emits one tuple (header on first use) without going
  /// through shared ownership — for bulk CSV export of value vectors.
  Status WriteRow(const stt::Tuple& tuple);

  const std::vector<std::string>& lines() const { return lines_; }

 private:
  void EmitLine(const std::string& line);

  LineConsumer consumer_;
  std::vector<std::string> lines_;
  std::string row_;  ///< the line being encoded; cleared per row
  bool header_written_ = false;
};

/// \brief Collects tuple refs in memory. Stored refs share ownership
/// with the rest of the dataflow — pointer equality across sinks means
/// the same tuple was fanned out, not copied.
class CollectSink : public Sink {
 public:
  explicit CollectSink(std::string name) : Sink(std::move(name)) {}

  using Sink::Write;
  Status Write(const stt::TupleRef& tuple) override {
    tuples_.push_back(tuple);
    CountWrite();
    return Status::OK();
  }

  const std::vector<stt::TupleRef>& tuples() const { return tuples_; }
  void Clear() { tuples_.clear(); }

 private:
  std::vector<stt::TupleRef> tuples_;
};

/// \brief The late-side output of event-time blocking operators
/// (ops::LatePolicy::kSideOutput): tuples that arrived behind the fired
/// window horizon are diverted here instead of silently vanishing, so a
/// downstream consumer can reconcile them (re-aggregate, audit, alert).
/// One per deployment (Executor::LateSinkOf); written locally by the
/// operator's node — the tuple already took its network hop.
class LateSink : public Sink {
 public:
  explicit LateSink(std::string name) : Sink(std::move(name)) {}

  using Sink::Write;
  Status Write(const stt::TupleRef& tuple) override {
    tuples_.push_back(tuple);
    CountWrite();
    return Status::OK();
  }

  const std::vector<stt::TupleRef>& tuples() const { return tuples_; }
  void Clear() { tuples_.clear(); }

 private:
  std::vector<stt::TupleRef> tuples_;
};

}  // namespace sl::sinks

#endif  // STREAMLOADER_SINKS_STREAMS_H_
