// Wall-clock benchmark of the StreamLoader system.
//
//   slbench --workload NAME --seed N --seconds S --trace 0|1
//   slbench --selftest
//
// --trace 0 measures the end-to-end metrics (untraced); --trace 1 runs
// the traced ledger and reports the per-layer metrics. The last line of
// stdout is the result object; everything before it is the readable
// report. See README.md for the definitions.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/strings.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr uint64_t kLiveChainInputs = 5000;
constexpr uint64_t kLiveWindowsInputs = 20000;

/// The per-layer metrics the traced run reports, in BENCHMARK.json order.
const char* const kPerLayer[] = {
    "dataflow.validate_ms",   "dsn.translate_ms",      "dsn.parse_ms",
    "exec.deploy_ms",         "sensors.generate_ns",   "pubsub.publish_ns",
    "pubsub.enriched_share",  "net.messages_per_tuple", "net.bytes_per_tuple",
    "net.events_per_tuple",   "exec.ring_ns",          "exec.queue_depth_peak",
    "exec.backpressure_waits", "exec.batch_fill",      "exec.quanta",
    "exec.thread_busy_max",   "exec.generator_busy",   "exec.gen_lag_p99_ms",
    "exec.sim_residual_ns",   "exec.overhead_ns",      "ops.process_ns",
    "ops.chain.single_thread_ns", "expr.eval_ns",      "stt.materialize_ns",
    "ops.cache_peak",         "ops.join.pairs_per_flush", "ops.selectivity",
    "ops.late_share",         "sinks.write_ns",        "monitor.sample_ns",
    "ledger.coverage",        "ledger.trace_overhead",
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "sim_osaka") return MakeSimOsaka(seed);
  if (name == "live_chain") return MakeLiveChain(seed, kLiveChainInputs);
  if (name == "live_windows") return MakeLiveWindows(seed, kLiveWindowsInputs);
  return nullptr;
}

double RatePerSecond(uint64_t items, double wall_s) {
  return static_cast<double>(items) / wall_s;
}

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_differences;

  void Add(const PhaseResult& r) {
    attempted += r.inputs;
    failed += r.failures;
    if (r.failures > 0 && first_differences.empty()) {
      first_differences = r.differences;
    }
  }
};

/// Unpaced repetitions filling `seconds`; the first one is a warm-up.
sl::Result<std::vector<PhaseResult>> UnpacedReps(Workload* w, double seconds,
                                                 size_t min_reps,
                                                 Totals* totals) {
  std::vector<PhaseResult> reps;
  SL_ASSIGN_OR_RETURN(PhaseResult warmup, w->Run(false));
  totals->Add(warmup);
  Budget budget(seconds);
  while (reps.size() < min_reps || budget.Left()) {
    SL_ASSIGN_OR_RETURN(PhaseResult r, w->Run(false));
    totals->Add(r);
    reps.push_back(std::move(r));
  }
  return reps;
}

/// The repetitions of one end-to-end run, warm-ups excluded.
struct Measured {
  std::vector<PhaseResult> unpaced, paced;
  std::vector<double> setup_s;  ///< every set-up of the run
  Totals totals;
};

/// A warm-up repetition of each kind, then unpaced and paced repetitions
/// in alternation, each after an extra set-up, until `seconds` are spent
/// and there are at least `min_reps` of each: every figure then samples
/// the whole run.
sl::Result<Measured> Measure(Workload* w, double seconds, size_t min_reps) {
  Measured m;
  for (bool paced : {false, true}) {
    SL_ASSIGN_OR_RETURN(PhaseResult warmup, w->Run(paced));
    m.totals.Add(warmup);
  }
  Budget budget(seconds);
  while (m.unpaced.size() < min_reps || budget.Left()) {
    for (bool paced : {false, true}) {
      SL_ASSIGN_OR_RETURN(SetupTimes setup, w->SetupOnce());
      m.setup_s.push_back(setup.total());
      SL_ASSIGN_OR_RETURN(PhaseResult r, w->Run(paced));
      m.totals.Add(r);
      m.setup_s.push_back(r.setup.total());
      (paced ? m.paced : m.unpaced).push_back(std::move(r));
    }
  }
  return m;
}

/// Per-repetition figures of a run and its pooled latency samples.
struct Figures {
  std::vector<double> tps, cpu_us, rss_mb;
  std::vector<double> rep_p50_ms, rep_p99_ms, lag_p99_ms;
  Percentiles latency;  ///< over the results of every paced repetition
};

Figures FiguresOf(const Measured& m) {
  Figures f;
  for (const PhaseResult& r : m.unpaced) {
    f.tps.push_back(RatePerSecond(r.inputs, r.wall_s));
    f.cpu_us.push_back(r.cpu_ns / 1e3 / static_cast<double>(r.inputs));
    f.rss_mb.push_back(static_cast<double>(r.peak_rss_bytes) / (1 << 20));
  }
  std::vector<double> pooled;
  for (const PhaseResult& r : m.paced) {
    pooled.insert(pooled.end(), r.latency_ms.begin(), r.latency_ms.end());
    const Percentiles rep = Summarize(r.latency_ms);
    f.rep_p50_ms.push_back(rep.p50);
    f.rep_p99_ms.push_back(rep.p99);
    f.lag_p99_ms.push_back(Summarize(r.gen_lag_ms).p99);
  }
  f.latency = Summarize(std::move(pooled));
  return f;
}

/// The end-to-end metrics: the medians over the run's repetitions of
/// each repetition's throughput, CPU cost per input, and p50 and p99
/// over its results (a tail in most repetitions reaches the reported
/// p99; the report prints the pooled percentiles beside it). Tuples left
/// in flight behind a stage the host delayed, and allocator
/// fragmentation (tuples freed on other threads than the ones that
/// allocated them), only add memory, so peak memory is the low decile of
/// the repetitions' peaks.
Outcome Compose(const Measured& m) {
  const Figures f = FiguresOf(m);
  Outcome outcome;
  outcome.correct = m.totals.failed == 0;
  outcome.attempted = m.totals.attempted;
  outcome.failed = m.totals.failed;
  outcome.metrics = {
      {"throughput_tps", Median(f.tps), "1/s"},
      {"latency_p50_ms", Median(f.rep_p50_ms), "ms"},
      {"latency_p99_ms", Median(f.rep_p99_ms), "ms"},
      {"cpu_us_per_tuple", Median(f.cpu_us), "us"},
      {"peak_rss_mb", Quantile(f.rss_mb, 0.1), "MB"},
      {"setup_s", Median(m.setup_s), "s"},
  };
  return outcome;
}

/// "q1 / median / q3" of a sample.
std::string Quartiles(const std::vector<double>& v, const char* format) {
  std::string out;
  for (double q : {0.25, 0.5, 0.75}) {
    out += (out.empty() ? "" : " / ") + sl::StrFormat(format, Quantile(v, q));
  }
  return out;
}

int RunEndToEnd(Workload* w, double seconds) {
  auto measured = Measure(w, 0.9 * seconds, 5);
  if (!measured.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 measured.status().ToString().c_str());
    return 1;
  }
  const Measured& m = *measured;
  const Figures f = FiguresOf(m);
  std::printf("%s\n", w->Describe().c_str());
  std::printf("phases: %zu unpaced reps and %zu paced reps at %.0f inputs/s "
              "(open loop), alternating, after one warm-up of each; %zu "
              "set-ups; %llu results per unpaced rep\n",
              m.unpaced.size(), m.paced.size(), w->paced_rate(),
              m.setup_s.size(),
              static_cast<unsigned long long>(m.unpaced.front().results));
  std::printf("per rep, q1 / median / q3: throughput %s 1/s, cpu %s us, "
              "peak rss %s MB, latency p99 %s ms\n",
              Quartiles(f.tps, "%.0f").c_str(),
              Quartiles(f.cpu_us, "%.3f").c_str(),
              Quartiles(f.rss_mb, "%.3f").c_str(),
              Quartiles(f.rep_p99_ms, "%.4f").c_str());
  std::printf("latency (due time -> sink consumer), pooled over %zu paced "
              "reps: %s\n",
              m.paced.size(), f.latency.ToString("ms").c_str());
  std::printf("generator lag p99 (submit - due), per-rep median: %.4f ms\n",
              Median(f.lag_p99_ms));
  const double failed_share = static_cast<double>(m.totals.failed) /
                              static_cast<double>(m.totals.attempted);
  std::printf("failed_share %.6g share (%llu failed of %llu inputs attempted)\n",
              failed_share, static_cast<unsigned long long>(m.totals.failed),
              static_cast<unsigned long long>(m.totals.attempted));
  if (m.totals.failed > 0) {
    std::printf("first differing rows:\n%s", m.totals.first_differences.c_str());
  }
  PrintOutcome(Compose(m));
  return 0;
}

int RunTraced(Workload* w, const std::string& name, uint64_t seed,
              double seconds) {
  Totals totals;
  auto unpaced = UnpacedReps(w, 0.25 * seconds, 3, &totals);
  if (!unpaced.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 unpaced.status().ToString().c_str());
    return 1;
  }
  std::vector<double> tps;
  for (const PhaseResult& r : *unpaced) tps.push_back(RatePerSecond(r.inputs, r.wall_s));
  std::printf("%s\n", w->Describe().c_str());

  char exe[4096] = {0};
  ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
  std::filesystem::path dir =
      n > 0 ? std::filesystem::path(exe).parent_path() / "traces"
            : std::filesystem::path("traces");
  std::filesystem::create_directories(dir);
  const std::string trace_path =
      (dir / (name + "-seed" + std::to_string(seed) + ".trace.json")).string();

  auto metrics = w->Trace(Quantile(tps, 0.9), trace_path);
  if (!metrics.ok()) {
    std::fprintf(stderr, "traced run failed: %s\n",
                 metrics.status().ToString().c_str());
    return 1;
  }
  std::printf("trace events: %s\n", trace_path.c_str());
  Outcome outcome;
  outcome.correct = totals.failed == 0;
  outcome.attempted = totals.attempted;
  outcome.failed = totals.failed;
  for (const char* metric : kPerLayer) {
    const Metric* m = FindMetric(*metrics, metric);
    if (m == nullptr) {
      std::fprintf(stderr, "traced run did not produce %s\n", metric);
      return 1;
    }
    outcome.metrics.push_back(*m);
  }
  PrintOutcome(outcome);
  return 0;
}

// -- self-tests --------------------------------------------------------------

bool Expect(bool ok, const std::string& what) {
  std::printf("selftest %-66s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  return ok;
}

/// A synthetic job of known wall duration, measured by the same code as
/// every workload: live_chain whose sink consumer holds the k-th line
/// until k * 2 ms after the first, sleeping or spinning. A repetition
/// then lasts (results + 1 header line) * 2 ms of wall time, whatever
/// CPU time its threads use, and throughput_tps must match it.
bool WallRateTest(bool spin) {
  const double line_s = 0.002;
  auto w = MakeLiveChain(7, 100, SinkStall{Budget::Seconds(line_s), spin});
  auto m = Measure(w.get(), 0, 3);
  const char* kind = spin ? "spinning" : "sleeping";
  if (!m.ok()) {
    std::printf("selftest   %s job failed: %s\n", kind,
                m.status().ToString().c_str());
    return Expect(false, std::string(kind) + " job reports its wall-clock rate");
  }
  const Outcome o = Compose(*m);
  const double rate = FindMetric(o.metrics, "throughput_tps")->value;
  const double cpu_us = FindMetric(o.metrics, "cpu_us_per_tuple")->value;
  const PhaseResult& r = m->unpaced.front();
  const double expected = static_cast<double>(r.inputs) /
                          (static_cast<double>(r.results + 1) * line_s);
  std::printf("selftest   %s job: throughput_tps %.0f/s (expected %.0f/s), "
              "process-CPU rate %.0f/s\n",
              kind, rate, expected, 1e6 / cpu_us);
  return Expect(o.correct && std::fabs(rate / expected - 1) < 0.1,
                std::string(kind) + " job reports its wall-clock rate");
}

bool PercentileTest() {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  Percentiles p = Summarize(samples);
  std::printf("selftest   1..1000: %s\n", p.ToString("ms").c_str());
  bool ok = Expect(p.count == 1000 && p.p50 == 500 && p.p99 == 990 &&
                       p.p99_supported && p.highest_pct == 99,
                   "1000 samples: median 500, p99 990 with 10 beyond it");
  samples.resize(500);
  p = Summarize(samples);
  std::printf("selftest   1..500: %s\n", p.ToString("ms").c_str());
  ok &= Expect(p.count == 500 && !p.p99_supported && p.highest_pct == 90 &&
                   p.highest == 450,
               "500 samples: p99 flagged, highest supported is p90");
  ok &= Expect(std::isinf(Summarize({1, 2, INFINITY}).p99),
               "a missing result (infinite latency) misses the top percentile");
  return ok;
}

bool ReferenceTest() {
  auto clean = MakeLiveChain(7, 20000);
  auto r = clean->Run(false);
  bool ok = Expect(r.ok() && r->failures == 0,
                   "live_chain (20k inputs) matches its reference");
  auto windows = MakeLiveWindows(7, 30000);
  r = windows->Run(false);
  ok &= Expect(r.ok() && r->failures == 0,
               "live_windows (30k inputs) matches its reference");
  if (r.ok() && r->failures > 0) std::printf("%s", r->differences.c_str());
  auto perturbed = MakeLiveChain(7, 20000);
  perturbed->PerturbReference();
  r = perturbed->Run(false);
  ok &= Expect(r.ok() && r->failures > 0,
               "a perturbed expected row gives failed_share > 0");
  if (r.ok()) std::printf("%s", r->differences.c_str());
  return ok;
}

int SelfTest() {
  bool ok = WallRateTest(false);
  ok &= WallRateTest(true);
  ok &= PercentileTest();
  ok &= ReferenceTest();
  std::printf("selftest %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: slbench --workload sim_osaka|live_chain|live_windows "
               "--seed N --seconds S --trace 0|1\n"
               "       slbench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--selftest") return SelfTest();
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      trace = std::atoi(value.c_str());
    } else {
      return Usage();
    }
  }
  auto w = MakeWorkload(workload, seed);
  if (w == nullptr || seconds <= 0) return Usage();
  return trace != 0 ? RunTraced(w.get(), workload, seed, seconds)
                    : RunEndToEnd(w.get(), seconds);
}
