// Measurement plumbing shared by every workload of the wall-clock
// benchmark: clocks, process probes, percentiles, the sink-side line log,
// the reference checker, trace spans and result printing.
//
// Every rate and percentile the benchmark prints is computed from
// steady_clock readings taken around a whole phase; per-thread CPU time
// appears only in the cpu_us_per_tuple metric and the traced ledger.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// steady_clock now, in nanoseconds.
int64_t NowNs();

/// Process CPU time (user + sys, all threads), in nanoseconds.
int64_t ProcessCpuNs();

/// The calling thread's kernel thread id.
int CurrentTid();

/// Sleeps, then spins, until steady_clock reaches `due_ns`.
void WaitUntil(int64_t due_ns);

/// \brief Process CPU time (all threads) between Start and Stop, and
/// peak resident memory from construction to Stop above the resident
/// memory at construction. The constructor returns freed heap to the
/// kernel and resets the kernel's high-water mark
/// (/proc/self/clear_refs), so memory that existed before — the
/// pre-generated inputs — is not counted.
class PhaseProbe {
 public:
  PhaseProbe();
  void Start() { cpu_start_ = ProcessCpuNs(); }
  void Stop();
  int64_t cpu_ns() const { return cpu_end_ - cpu_start_; }
  int64_t peak_rss_bytes() const { return peak_rss_bytes_; }

 private:
  int64_t rss_start_bytes_ = 0;
  int64_t cpu_start_ = 0;
  int64_t cpu_end_ = 0;
  int64_t peak_rss_bytes_ = 0;
};

/// CPU seconds consumed so far by every live thread of this process,
/// by kernel thread id (from /proc/self/task/*/schedstat).
std::map<int, double> ThreadCpuSeconds();

/// \brief Timing summary: the median and the highest percentile that
/// has at least ten samples beyond it, with the sample count.
struct Percentiles {
  size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  bool p99_supported = false;   ///< at least 10 samples lie above p99
  double highest_pct = 0;       ///< e.g. 99.9
  double highest = 0;           ///< the value at highest_pct
  std::string ToString(const std::string& unit) const;
};

/// Nearest-rank percentile summary. Infinite samples (a result that
/// never arrived) sort last and so miss every percentile they reach.
Percentiles Summarize(std::vector<double> samples);

/// Median of a non-empty sample (the mean of the middle pair when even).
double Median(std::vector<double> values);

/// The q-quantile (0..1) of a non-empty sample, interpolating linearly
/// between order statistics.
double Quantile(std::vector<double> values, double q);

/// 64-bit FNV-1a digest, fed incrementally.
class Digest {
 public:
  void Add(const void* data, size_t n);
  void Add(const std::string& s) { Add(s.data(), s.size()); }
  void AddI64(int64_t v) { Add(&v, sizeof v); }
  void AddF64(double v) { Add(&v, sizeof v); }
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// \brief Append-only log of sink output lines with their arrival times,
/// safe for concurrent appenders (several sink stages). Storage is
/// allocated and touched up front, so appending during a measured phase
/// neither allocates nor grows the resident set; lines beyond the
/// capacity are counted as overflow (the checker treats them as extra
/// rows).
class LineLog {
 public:
  LineLog(size_t max_lines, size_t max_bytes);
  void Append(const std::string& line);
  size_t size() const;
  std::string line(size_t i) const;
  int64_t arrival_ns(size_t i) const { return entries_[i].arrival_ns; }
  uint64_t overflow() const { return overflow_.load(); }
  void Clear();

 private:
  struct Entry {
    uint64_t offset = 0;
    uint32_t length = 0;
    int64_t arrival_ns = 0;
  };
  std::vector<char> bytes_;
  std::vector<Entry> entries_;
  std::atomic<uint64_t> next_entry_{0};
  std::atomic<uint64_t> next_byte_{0};
  std::atomic<uint64_t> overflow_{0};
};

/// Splits one CSV line on commas (the benchmark's outputs never quote).
std::vector<std::string> SplitCsv(const std::string& line);

/// \brief Expected sink rows of one run, and the comparison of the rows
/// the sinks produced against them. Values compare with a relative
/// tolerance of 1e-8 (the CSV sink prints ten significant digits).
class ReferenceCheck {
 public:
  /// One expected result row; `due` says when it falls due (an input
  /// index or a virtual time, which the workload maps to a wall due
  /// time). Rows are indexed 0, 1, ... in the order they are first
  /// expected.
  void Expect(const std::string& key, std::vector<double> values,
              int64_t due);

  /// The expected row a produced row matched; index -1 when the produced
  /// row is extra or wrong.
  struct Match {
    int64_t index = -1;
    int64_t due = -1;
  };

  /// Records one produced row.
  Match Observe(const std::string& key, const std::vector<double>& values,
                const std::string& shown);

  /// Counts an error reported by the system (operator or sink errors).
  void AddSystemErrors(uint64_t n) { system_errors_ += n; }
  /// Counts other failures (unreadable rows, operator counters that
  /// differ from the reference, rows the sink consumer missed), shown
  /// as `what` among the first differences.
  void AddFailures(uint64_t n, const std::string& what);

  uint64_t missing() const;
  uint64_t failures() const {
    return missing() + extra_ + wrong_ + system_errors_ + other_;
  }
  size_t expected_rows() const { return rows_.size(); }
  /// Clears observations, keeping the expectations.
  void Reset();
  /// Multi-line report of the first differing rows (empty when clean).
  std::string FirstDifferences(size_t limit = 5) const;
  /// Changes one expected value (the checker's self-test).
  void PerturbOneRow();

 private:
  struct Row {
    std::vector<double> values;
    int64_t index = -1;
    int64_t due = -1;
    bool seen = false;
  };
  std::unordered_map<std::string, Row> rows_;
  uint64_t extra_ = 0;
  uint64_t wrong_ = 0;
  uint64_t system_errors_ = 0;
  uint64_t other_ = 0;
  std::vector<std::string> diffs_;
};

/// \brief Sampled spans of the traced run, written as trace-event JSON
/// (loadable by Perfetto / chrome://tracing) when the run ends.
class SpanLog {
 public:
  /// Records one span; returns its id (a parent for later spans).
  uint64_t Add(const std::string& layer, int64_t start_ns, int64_t end_ns,
               uint64_t parent, int64_t input_id);
  /// Closes a span opened with a provisional end.
  void SetEnd(uint64_t id, int64_t end_ns) { spans_[id - 1].end_ns = end_ns; }
  /// Writes the spans to `path`; returns false on I/O failure.
  bool WriteTraceEvents(const std::string& path) const;

 private:
  struct Span {
    std::string layer;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t parent;
    int64_t input_id;
  };
  std::vector<Span> spans_;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one invocation of the benchmark reports.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Prints every metric as "name value unit", then the result's JSON
/// object as the last line of stdout. A metric that could not be
/// measured (not finite, e.g. a percentile a missing result reached) is
/// written as null and makes the result incorrect.
void PrintOutcome(const Outcome& outcome);

/// Deadline helper for filling a time budget with repetitions.
class Budget {
 public:
  explicit Budget(double seconds) : end_ns_(NowNs() + Seconds(seconds)) {}
  bool Left() const { return NowNs() < end_ns_; }
  static int64_t Seconds(double s) { return static_cast<int64_t>(s * 1e9); }

 private:
  int64_t end_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
