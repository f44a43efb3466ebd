// The workload interface the measurement loop (main.cc) runs, and the
// helpers the three workloads share.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "adapters.h"
#include "harness.h"
#include "replay.h"

namespace perfbench {

/// One repetition of a measured phase.
struct PhaseResult {
  uint64_t inputs = 0;
  /// Result rows the reference expects.
  uint64_t results = 0;
  /// Wall seconds from the first submission until the last expected
  /// result reached the sinks.
  double wall_s = 0;
  /// Process CPU time (all threads) over the phase, in nanoseconds.
  double cpu_ns = 0;
  SetupTimes setup;
  /// Peak resident memory of the system from its set-up to the phase's
  /// end, above the resident memory before the set-up.
  int64_t peak_rss_bytes = 0;
  /// Paced phases: one sample per expected result, in the reference's
  /// row order (infinite when the result never arrived), and the
  /// generator's lateness per input.
  std::vector<double> latency_ms;
  std::vector<double> gen_lag_ms;
  /// Rows missing, extra or wrong against the reference, plus operator
  /// and sink errors.
  uint64_t failures = 0;
  std::string differences;  ///< first differing rows, when failures > 0
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Seed, input digest and resolved parameters, one line each.
  virtual std::string Describe() const = 0;

  /// Builds and starts the system once (and tears it down).
  virtual sl::Result<SetupTimes> SetupOnce() = 0;

  /// One unpaced (flat-out) or paced (open loop at the workload's fixed
  /// offered rate) repetition, checked against the reference.
  virtual sl::Result<PhaseResult> Run(bool paced) = 0;

  /// Inputs per second offered in the paced phase.
  virtual double paced_rate() const = 0;

  /// The traced run: boundary observers on, then isolated layer
  /// replays. Prints the ledger and returns the per-layer metrics.
  /// `untraced_tps` is this run's untraced throughput (for the tracing
  /// overhead).
  virtual sl::Result<std::vector<Metric>> Trace(double untraced_tps,
                                                const std::string& trace_path) = 0;

  /// Self-test hook: corrupts one expected row of the reference.
  virtual void PerturbReference() = 0;
};

/// Self-test knob of live_chain: the benchmark's sink consumer holds the
/// k-th line it receives until k * line_ns after the first one arrived,
/// sleeping or spinning, so that a repetition lasts a known wall time.
struct SinkStall {
  int64_t line_ns = 0;  ///< 0: no stall
  bool spin = false;
};

std::unique_ptr<Workload> MakeSimOsaka(uint64_t seed);
std::unique_ptr<Workload> MakeLiveChain(uint64_t seed, uint64_t inputs,
                                        SinkStall stall = {});
std::unique_ptr<Workload> MakeLiveWindows(uint64_t seed, uint64_t inputs);

/// Per-layer figures common to every workload's ledger, computed from a
/// replay and set-up samples. `inputs` normalizes per-input costs.
struct LedgerParts {
  std::vector<Metric> metrics;
  double ops_ns = 0;    ///< sum over operator stages, per input
  double sinks_ns = 0;  ///< per input
};

/// Adds the ops/expr/stt/sinks rows of a replay to `parts` and prints
/// one ledger line per stage.
void AddReplayMetrics(const ReplayResult& replay, double inputs,
                      double sink_write_ns_total, LedgerParts* parts);

/// Medians of the set-up steps over `samples`.
void AddSetupMetrics(const std::vector<SetupTimes>& samples,
                     LedgerParts* parts);

/// Prints "layer value unit" ledger lines (to stdout, before the result).
void PrintLedgerLine(const std::string& name, double value,
                     const std::string& unit, const std::string& note = "");

/// Finds a metric by name (nullptr when absent).
const Metric* FindMetric(const std::vector<Metric>& metrics,
                         const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
