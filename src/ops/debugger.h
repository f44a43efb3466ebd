// StreamLoader: design-time, sample-based dataflow debugging.
//
// "By exploiting samples produced by the involved sensors, the user can
// easily debug the developed dataflow" (§1) and "check, step-by-step,
// their results on samples made available from the source" (P1). The
// DataflowDebugger instantiates the validated dataflow in memory (no
// network), feeds it sample tuples, and records what every node emits —
// the data the design environment displays under the canvas.

#ifndef STREAMLOADER_OPS_DEBUGGER_H_
#define STREAMLOADER_OPS_DEBUGGER_H_

#include <map>
#include <string>
#include <vector>

#include "dataflow/graph.h"
#include "dataflow/validate.h"
#include "ops/operator.h"
#include "pubsub/broker.h"
#include "util/thread_annotations.h"

namespace sl::ops {

/// \brief A recorded trigger activation request.
struct ActivationRecord {
  bool activate = true;  ///< true = TriggerOn fired, false = TriggerOff
  std::vector<std::string> sensor_ids;
  Timestamp at = 0;

  std::string ToString() const;
};

/// \brief Records trigger requests instead of acting on them: the
/// handler of the design-time debugger and of the threaded runtime.
/// Thread-safe, because the threaded runtime runs trigger stages on
/// different workers, whose requests can interleave.
class ActivationRecorder : public ActivationHandler {
 public:
  void ActivateSensors(const std::vector<std::string>& sensor_ids,
                       Timestamp at) override;
  void DeactivateSensors(const std::vector<std::string>& sensor_ids,
                         Timestamp at) override;

  /// The requests recorded so far, in arrival order; leaves none behind.
  std::vector<ActivationRecord> Take();

 private:
  Mutex mu_;
  std::vector<ActivationRecord> records_ SL_GUARDED_BY(mu_);
};

/// \brief What one debugging run produced.
struct DebugResult {
  /// Validation outcome (the run only proceeds when report.ok()).
  dataflow::ValidationReport report;
  /// Tuples each node emitted, keyed by node name. Sources list the
  /// samples they were fed; sinks list what reached them. Refs share
  /// ownership with the run (same routing currency as the executor).
  std::map<std::string, std::vector<stt::TupleRef>> outputs;
  /// Trigger requests recorded instead of executed.
  std::vector<ActivationRecord> activations;

  /// Step-by-step rendering: per node (topological order), its schema
  /// and emitted tuples.
  std::string ToString(const dataflow::Dataflow& dataflow) const;
};

/// \brief Runs dataflows on samples at design time.
class DataflowDebugger {
 public:
  /// `broker` resolves source schemas; must outlive the debugger.
  explicit DataflowDebugger(const pubsub::Broker* broker) : broker_(broker) {}

  /// \brief Validates `dataflow` and, if sound, pushes `samples` (keyed
  /// by *source node name*) through an in-memory instantiation.
  ///
  /// Samples of all sources are interleaved by event time (mimicking
  /// arrival order), then every blocking operator is flushed once, in
  /// topological order, at one tick past the newest sample — so
  /// aggregates/joins/triggers show their effect on exactly the sample
  /// set. Fails when validation finds errors (the report is still
  /// embedded in the error message).
  Result<DebugResult> Run(
      const dataflow::Dataflow& dataflow,
      const std::map<std::string, std::vector<stt::Tuple>>& samples) const;

 private:
  const pubsub::Broker* broker_;
};

}  // namespace sl::ops

#endif  // STREAMLOADER_OPS_DEBUGGER_H_
