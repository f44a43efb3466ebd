// live_chain and live_windows: the threaded runtime, fed by the
// benchmark's own generator thread through ThreadedRuntime::Feed.
//
// live_chain — one keyed source through E17's vprop -> filter ->
// transform chain into a CSV sink. Its work is ring transfer,
// scheduling, vectorized expression evaluation and per-stage tuple
// materialization: the layers the fusion, pool-only and telemetry items
// of the ROADMAP change. It has no cache or flush work.
//
// live_windows — temperature and rain over 1000 stations, a few percent
// out of order within the allowed lateness and a smaller share beyond
// it, into an event-time tumbling per-station average and a station
// equi-join. Its work is blocking caches, hash join and aggregate state,
// flushes and the two-port punctuation barrier; stateless expressions
// and sink writes are small. A live_chain gain must not cost anything
// here, and this is the workload that measures window-result latency.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>

#include "dsn/parser.h"
#include "dsn/translate.h"
#include "net/event_loop.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload.h"

namespace perfbench {
namespace {

using sl::Duration;
using sl::Timestamp;
namespace duration = sl::duration;

constexpr Timestamp kT0 = 1458000000000;  // virtual time of input 0

sl::stt::SchemaPtr KeyedSchema(const std::string& attribute,
                               const std::string& unit,
                               const std::string& theme) {
  return *sl::stt::Schema::Make(
      {{attribute, sl::stt::ValueType::kDouble, unit, false},
       {"station", sl::stt::ValueType::kString, "", false},
       {"seq", sl::stt::ValueType::kInt, "", false}},
      *sl::stt::TemporalGranularity::Make(duration::kSecond),
      sl::stt::SpatialGranularity::Point(), *sl::stt::Theme::Parse(theme));
}

/// Common machinery of the two threaded workloads: the broker the
/// dataflow validates against, pre-generated inputs, the reference, and
/// the sink-side line log.
class LiveWorkload : public Workload {
 public:
  LiveWorkload(std::string name, uint64_t seed, double paced_rate)
      : name_(std::move(name)),
        seed_(seed),
        paced_rate_(paced_rate),
        loop_(kT0),
        broker_(&loop_.clock()) {}

  std::string Describe() const override {
    Digest digest;
    for (const FeedItem& in : inputs_) {
      digest.Add(in.source);
      digest.AddI64(in.at);
      digest.AddI64(in.tuple->timestamp());
      digest.AddF64(in.tuple->value(0).AsDouble());
      digest.Add(in.tuple->value(1).AsString());
    }
    return sl::StrFormat(
               "workload %s seed %llu input_digest %s inputs_per_run %zu\n",
               name_.c_str(), static_cast<unsigned long long>(seed_),
               digest.Hex().c_str(), inputs_.size()) +
           "params: runtime=threaded generator=1 thread, pool=" +
           std::to_string(PoolSize()) + " workers, batch_max=64 " + params_ +
           sl::StrFormat(" paced_rate=%.0f/s", paced_rate_);
  }

  double paced_rate() const override { return paced_rate_; }
  void PerturbReference() override { check_.PerturbOneRow(); }

  sl::Result<SetupTimes> SetupOnce() override {
    SL_ASSIGN_OR_RETURN(ThreadedRun run, RunThreaded(spec_, {}, 0, {}));
    return run.setup;
  }

  sl::Result<PhaseResult> Run(bool paced) override {
    log_->Clear();
    std::vector<double> lag(paced ? inputs_.size() : 0);
    PhaseProbe probe;
    ThreadedHooks hooks;
    hooks.probe = &probe;
    stalled_lines_ = 0;
    hooks.csv = [this](const std::string& line) {
      if (stall_.line_ns > 0) Stall();
      log_->Append(line);
    };
    if (paced) {
      hooks.on_submit = [&lag](size_t i, int64_t due, int64_t submit) {
        lag[i] = static_cast<double>(submit - due) / 1e6;
      };
    }
    SL_ASSIGN_OR_RETURN(ThreadedRun run,
                        RunThreaded(spec_, inputs_, paced ? paced_rate_ : 0,
                                    hooks));
    PhaseResult out;
    out.inputs = inputs_.size();
    out.results = check_.expected_rows();
    out.setup = run.setup;
    out.peak_rss_bytes = probe.peak_rss_bytes();
    out.gen_lag_ms = std::move(lag);

    check_.Reset();
    int64_t last_arrival = run.first_submit_ns;
    if (paced) out.latency_ms.assign(check_.expected_rows(), INFINITY);
    Observe([&](ReferenceCheck::Match match, int64_t arrival_ns) {
      last_arrival = std::max(last_arrival, arrival_ns);
      if (paced && match.index >= 0) {
        const double due = static_cast<double>(run.DueNs(match.due));
        out.latency_ms[match.index] =
            (static_cast<double>(arrival_ns) - due) / 1e6;
      }
    });
    check_.AddSystemErrors(run.result.process_errors);
    check_.AddFailures(log_->overflow(), "lines beyond the sink log's capacity");
    CheckOperatorCounters(run.result);
    out.wall_s = static_cast<double>(last_arrival - run.first_submit_ns) / 1e9;
    out.cpu_ns = static_cast<double>(probe.cpu_ns());
    out.failures = check_.failures();
    if (out.failures > 0) out.differences = check_.FirstDifferences();
    return out;
  }

  sl::Result<std::vector<Metric>> Trace(double untraced_tps,
                                        const std::string& trace_path) override;

 protected:
  /// Registers a keyed sensor the dataflow's sources bind to.
  void Register(const std::string& id, sl::stt::SchemaPtr schema) {
    sl::pubsub::SensorInfo info;
    info.id = id;
    info.type = "keyed_replay";
    info.schema = std::move(schema);
    info.period = duration::kSecond;
    info.location = sl::stt::GeoPoint{34.69, 135.50};
    info.node_id = "node_0";
    (void)broker_.Publish(info);
  }

  /// Sizes the sink log for the expected rows (with head room for
  /// headers and a bounded number of extra rows).
  void SizeLog() {
    const size_t lines = check_.expected_rows() + check_.expected_rows() / 8 + 64;
    log_ = std::make_unique<LineLog>(lines, lines * 160);
  }

  /// Holds the sink consumer on the self-test's fixed wall schedule
  /// (live_chain has one sink, so the consumer is never concurrent).
  void Stall() {
    const int64_t now = NowNs();
    if (stalled_lines_ == 0) stall_anchor_ns_ = now;
    const int64_t due = stall_anchor_ns_ + ++stalled_lines_ * stall_.line_ns;
    if (stall_.spin) {
      while (NowNs() < due) {
      }
    } else {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
    }
  }

  /// Turns one sink row into its reference key and compared values;
  /// false when the row is not a result of this workload.
  virtual bool RowOf(const std::vector<std::string>& header,
                     const std::vector<std::string>& fields, std::string* key,
                     std::vector<double>* values) const = 0;

  /// Checks the operators' own counters (late drops) against the
  /// reference; a mismatch counts as failures.
  virtual void CheckOperatorCounters(const sl::exec::ThreadedRunResult&) {}

  /// Feeds every logged row to the checker; `seen(match, arrival)` runs
  /// for each row (match.index -1 for extra or wrong rows).
  template <typename Fn>
  void Observe(Fn seen) {
    std::map<size_t, std::vector<std::string>> headers;  // by column count
    for (size_t i = 0; i < log_->size(); ++i) {
      std::string line = log_->line(i);
      if (line.rfind("ts,", 0) == 0) {
        auto h = SplitCsv(line);
        headers[h.size()] = h;
      }
    }
    std::string key;
    std::vector<double> values;
    for (size_t i = 0; i < log_->size(); ++i) {
      std::string line = log_->line(i);
      if (line.rfind("ts,", 0) == 0) continue;
      auto fields = SplitCsv(line);
      auto h = headers.find(fields.size());
      values.clear();
      if (h == headers.end() || !RowOf(h->second, fields, &key, &values)) {
        check_.AddFailures(1, "unreadable row: " + line);
        seen(ReferenceCheck::Match{}, log_->arrival_ns(i));
        continue;
      }
      seen(check_.Observe(key, values, line), log_->arrival_ns(i));
    }
  }

  static double Field(const std::vector<std::string>& header,
                      const std::vector<std::string>& fields,
                      const std::string& name) {
    for (size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return std::atof(fields[i].c_str());
    }
    return NAN;
  }
  static std::string Text(const std::vector<std::string>& header,
                          const std::vector<std::string>& fields,
                          const std::string& name) {
    for (size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return fields[i];
    }
    return "";
  }

  std::string name_;
  uint64_t seed_;
  double paced_rate_;
  std::string params_;
  sl::net::EventLoop loop_;
  sl::pubsub::Broker broker_;
  ThreadedSpec spec_;
  std::vector<FeedItem> inputs_;
  ReferenceCheck check_;
  std::unique_ptr<LineLog> log_;
  size_t replay_batch_ = 64;
  SinkStall stall_;
  int64_t stalled_lines_ = 0;
  int64_t stall_anchor_ns_ = 0;
};

sl::Result<std::vector<Metric>> LiveWorkload::Trace(
    double untraced_tps, const std::string& trace_path) {
  LedgerParts parts;
  SpanLog spans;
  const double inputs = static_cast<double>(inputs_.size());

  // Set-up steps; the DSN round trip is not on the threaded path, so it
  // is timed on its own over the same dataflow.
  std::vector<SetupTimes> setups;
  for (int i = 0; i < 9; ++i) {
    SL_ASSIGN_OR_RETURN(SetupTimes s, SetupOnce());
    int64_t t = NowNs();
    SL_ASSIGN_OR_RETURN(sl::dsn::DsnSpec dsn,
                        sl::dsn::TranslateToDsn(spec_.dataflow));
    std::string text = dsn.ToString();
    s.translate_s = static_cast<double>(NowNs() - t) / 1e9;
    t = NowNs();
    SL_RETURN_IF_ERROR(sl::dsn::ParseDsn(text).status());
    s.parse_s = static_cast<double>(NowNs() - t) / 1e9;
    setups.push_back(s);
  }
  AddSetupMetrics(setups, &parts);

  // Traced run: stage sampler and per-thread CPU poller on. The fastest of
  // a few repetitions is kept; ledger.trace_overhead compares it with the
  // fast decile of the untraced repetitions.
  ThreadedHooks hooks;
  hooks.csv = [this](const std::string& line) { log_->Append(line); };
  hooks.poll_interval_ns = 2000000;
  std::map<std::string, sl::monitor::OperatorSample> peak, rep_peak;
  std::vector<double> sample_ns, rep_sample_ns;
  hooks.on_stages = [&](const std::vector<sl::monitor::OperatorSample>& samples,
                        int64_t call_ns) {
    rep_sample_ns.push_back(static_cast<double>(call_ns));
    for (const auto& s : samples) {
      auto& p = rep_peak[s.op_name];
      p.queue_depth = std::max(p.queue_depth, s.queue_depth);
    }
  };
  std::optional<ThreadedRun> fastest;
  double cpu_ns = 0;
  for (int rep = 0; rep < 5; ++rep) {
    log_->Clear();
    rep_peak.clear();
    rep_sample_ns.clear();
    int64_t cpu0 = ProcessCpuNs();
    SL_ASSIGN_OR_RETURN(ThreadedRun r, RunThreaded(spec_, inputs_, 0, hooks));
    if (!fastest || r.end_ns - r.first_submit_ns <
                        fastest->end_ns - fastest->first_submit_ns) {
      cpu_ns = static_cast<double>(ProcessCpuNs() - cpu0);
      fastest = std::move(r);
      peak = rep_peak;
      sample_ns = rep_sample_ns;
    }
  }
  const ThreadedRun& run = *fastest;
  const double wall_s =
      static_cast<double>(run.end_ns - run.first_submit_ns) / 1e9;
  const double traced_tps = inputs / wall_s;
  const double e2e_cpu_ns = cpu_ns / inputs;

  double depth_peak = 0, waits = 0, fill = 0, quanta = 0;
  size_t batched_stages = 0;
  for (const auto& s : run.result.stage_samples) {
    const double depth = static_cast<double>(
        std::max(s.queue_depth, peak[s.op_name].queue_depth));
    depth_peak = std::max(depth_peak, depth);
    waits += static_cast<double>(s.backpressure_waits);
    quanta += static_cast<double>(s.quanta);
    if (s.batches > 0) {
      fill += s.batch_fill;
      ++batched_stages;
    }
    PrintLedgerLine("exec." + s.op_name + ".queue_depth_peak", depth, "count");
    PrintLedgerLine("exec." + s.op_name + ".backpressure_waits",
                    static_cast<double>(s.backpressure_waits), "count");
    PrintLedgerLine("exec." + s.op_name + ".batch_fill", s.batch_fill, "count");
    PrintLedgerLine("exec." + s.op_name + ".quanta",
                    static_cast<double>(s.quanta), "count");
  }
  parts.metrics.push_back({"exec.queue_depth_peak", depth_peak, "count"});
  parts.metrics.push_back({"exec.backpressure_waits", waits, "count"});
  parts.metrics.push_back(
      {"exec.batch_fill",
       batched_stages > 0 ? fill / static_cast<double>(batched_stages) : 0,
       "count"});
  parts.metrics.push_back({"exec.quanta", quanta, "count"});
  double busy_max = 0, generator_busy = 0;
  for (const auto& [tid, cpu_s] : run.thread_cpu_s) {
    busy_max = std::max(busy_max, cpu_s / wall_s);
    if (tid == run.generator_tid) generator_busy = cpu_s / wall_s;
  }
  parts.metrics.push_back({"exec.thread_busy_max", busy_max, "share"});
  parts.metrics.push_back({"exec.generator_busy", generator_busy, "share"});
  const double monitor_ns = Median(sample_ns) *
                            static_cast<double>(sample_ns.size()) / inputs;
  parts.metrics.push_back({"monitor.sample_ns", monitor_ns, "ns"});

  // The generator is the sensor layer here: minting one input tuple.
  {
    int64_t t = NowNs();
    std::vector<sl::stt::TupleRef> minted;
    minted.reserve(inputs_.size());
    for (const FeedItem& in : inputs_) {
      minted.push_back(sl::stt::Tuple::Share(sl::stt::Tuple::MakeUnsafe(
          in.tuple->schema(), in.tuple->values(), in.tuple->timestamp(),
          in.tuple->location(), in.tuple->sensor_id())));
    }
    parts.metrics.push_back(
        {"sensors.generate_ns", static_cast<double>(NowNs() - t) / inputs,
         "ns"});
  }
  // pubsub is not on the threaded path; PublishTuple over the same
  // inputs shows what the layer would cost (left out of the coverage).
  {
    for (const auto& name : spec_.dataflow.SourceNames()) {
      const auto* node = *spec_.dataflow.node(name);
      (void)broker_.SubscribeData(node->sensor_id,
                                  [](const sl::stt::TupleRef&) {});
    }
    int64_t t = NowNs();
    for (const FeedItem& in : inputs_) {
      const auto* node = *spec_.dataflow.node(in.source);
      (void)broker_.PublishTuple(node->sensor_id, in.tuple);
    }
    parts.metrics.push_back(
        {"pubsub.publish_ns", static_cast<double>(NowNs() - t) / inputs,
         "ns"});
    parts.metrics.push_back({"pubsub.enriched_share", 0, "share"});
  }
  parts.metrics.push_back({"net.messages_per_tuple", 0, "count"});
  parts.metrics.push_back({"net.bytes_per_tuple", 0, "B"});
  parts.metrics.push_back({"net.events_per_tuple", 0, "count"});

  // Operators over the captured stage inputs at the ring batch size.
  std::vector<SourceInput> sources;
  sources.reserve(inputs_.size());
  for (const FeedItem& in : inputs_) {
    sources.push_back({in.source, in.tuple, in.at, in.watermark});
  }
  sl::dataflow::Validator validator(&broker_);
  SL_ASSIGN_OR_RETURN(sl::dataflow::ValidationReport report,
                      validator.Validate(spec_.dataflow));
  ReplayOptions replay_options;
  replay_options.batch = replay_batch_;
  replay_options.watermark = spec_.watermark;
  replay_options.deploy_time = spec_.deploy_time;
  replay_options.spans = &spans;
  SL_ASSIGN_OR_RETURN(ReplayResult replay,
                      ReplayOperators(spec_.dataflow, report.schemas, sources,
                                      spec_.end_time, replay_options));
  for (StageCost& stage : replay.stages) {
    SL_RETURN_IF_ERROR(EvalStage(&stage, replay_batch_));
  }
  sl::sinks::SinkContext sink_context;
  sink_context.csv_consumer = [](const std::string&) {};
  uint64_t writes = 0;
  SL_ASSIGN_OR_RETURN(double sink_ns, ReplaySinks(spec_.dataflow,
                                                  replay.sink_inputs,
                                                  sink_context, &writes));
  AddReplayMetrics(replay, inputs, sink_ns, &parts);
  ReplayOptions baseline_options = replay_options;
  baseline_options.batch = 1;
  baseline_options.time_calls = false;
  baseline_options.spans = nullptr;
  baseline_options.sink_context = sink_context;
  SL_ASSIGN_OR_RETURN(ReplayResult baseline,
                      ReplayOperators(spec_.dataflow, report.schemas, sources,
                                      spec_.end_time, baseline_options));
  parts.metrics.push_back(
      {"ops.chain.single_thread_ns", baseline.total_ns / inputs, "ns"});

  uint64_t late = 0, delivered = run.result.tuples_delivered;
  for (const auto& [op, stats] : run.result.op_stats) {
    late += stats.late_dropped + stats.late_routed;
    if (stats.tuples_in > 0) {
      PrintLedgerLine("ops." + op + ".selectivity",
                      static_cast<double>(stats.tuples_out) /
                          static_cast<double>(stats.tuples_in),
                      "share");
    }
  }
  parts.metrics.push_back(
      {"ops.selectivity", static_cast<double>(delivered) / inputs, "share"});
  parts.metrics.push_back(
      {"ops.late_share", static_cast<double>(late) / inputs, "share"});

  // Ring transfers: one push + pop per message on every edge.
  const double ring_ns = RingPushPopNs();
  double messages = 0;
  for (const StageCost& stage : replay.stages) {
    messages += static_cast<double>(stage.in) /
                static_cast<double>(replay_batch_);
  }
  for (const auto& [sink, tuples] : replay.sink_inputs) {
    messages += static_cast<double>(tuples.size()) /
                static_cast<double>(replay_batch_);
  }
  const double ring_per_input = ring_ns * messages / inputs;
  parts.metrics.push_back({"exec.ring_ns", ring_ns, "ns"});
  PrintLedgerLine("exec.ring_per_input_ns", ring_per_input, "ns",
                  "ring_ns x batched messages per input");

  // Paced phase lateness of the generator.
  SL_ASSIGN_OR_RETURN(PhaseResult paced, Run(true));
  parts.metrics.push_back(
      {"exec.gen_lag_p99_ms", Summarize(paced.gen_lag_ms).p99, "ms"});

  // The ledger: isolated layer CPU against traced CPU per input.
  const double layers = parts.ops_ns + parts.sinks_ns + ring_per_input +
                        monitor_ns;
  parts.metrics.push_back(
      {"exec.overhead_ns", e2e_cpu_ns - parts.ops_ns - parts.sinks_ns, "ns"});
  parts.metrics.push_back(
      {"exec.sim_residual_ns", wall_s * 1e9 / inputs - layers, "ns"});
  parts.metrics.push_back({"ledger.coverage", layers / e2e_cpu_ns, "share"});
  parts.metrics.push_back(
      {"ledger.trace_overhead", untraced_tps / traced_tps - 1, "share"});
  PrintLedgerLine("ledger.end_to_end_ns", e2e_cpu_ns, "ns",
                  "traced process CPU time per input");
  if (layers / e2e_cpu_ns < 0.9) {
    PrintLedgerLine("ledger.finding", layers / e2e_cpu_ns, "share",
                    "layers cover less than 0.9 of end-to-end CPU time");
  }
  if (!spans.WriteTraceEvents(trace_path)) {
    return sl::Status::Internal("cannot write " + trace_path);
  }
  return parts.metrics;
}

// ---------------------------------------------------------------------------

constexpr char kHeatIndex[] = "temp * temp * 0.01 + temp * 1.8 + 32";
constexpr char kChainPredicate[] = "heat_index > 70 and temp < 34";

class LiveChain : public LiveWorkload {
 public:
  LiveChain(uint64_t seed, uint64_t count, SinkStall stall)
      : LiveWorkload("live_chain", seed, 200000) {
    stall_ = stall;
    auto schema = KeyedSchema("temp", "celsius", "weather/temperature");
    Register("lc_src", schema);
    params_ = sl::StrFormat(
        "chain=vprop->filter->transform->csv stations=1000 inputs=%llu",
        static_cast<unsigned long long>(count));
    sl::Rng rng(seed);
    inputs_.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      const double temp = rng.NextDouble(-5.0, 35.0);
      const std::string station = sl::StrFormat("s%03llu",
          static_cast<unsigned long long>(rng.NextBounded(1000)));
      const Timestamp at = kT0 + static_cast<Timestamp>(i);
      inputs_.push_back(
          {"src",
           sl::stt::Tuple::Share(sl::stt::Tuple::MakeUnsafe(
               schema,
               {sl::stt::Value::Double(temp), sl::stt::Value::String(station),
                sl::stt::Value::Int(static_cast<int64_t>(i))},
               at, sl::stt::GeoPoint{34.69, 135.50}, "lc_src")),
           at, at});
      const double heat = temp * temp * 0.01 + temp * 1.8 + 32;
      if (heat > 70 && temp < 34) {
        check_.Expect(std::to_string(i), {temp, heat * 0.5 + 10},
                      static_cast<int64_t>(i));
      }
    }
    using sl::dataflow::OpKind;
    spec_.broker = &broker_;
    spec_.dataflow =
        *sl::dataflow::DataflowBuilder("live_chain")
             .AddSource("src", "lc_src")
             .AddOperator("vprop", OpKind::kVirtualProperty,
                          sl::dataflow::VirtualPropertySpec{
                              "heat_index", kHeatIndex, "fahrenheit"},
                          {"src"})
             .AddOperator("filter", OpKind::kFilter,
                          sl::dataflow::FilterSpec{kChainPredicate}, {"vprop"})
             .AddOperator("transform", OpKind::kTransform,
                          sl::dataflow::TransformSpec{
                              "heat_index", "heat_index * 0.5 + 10", ""},
                          {"filter"})
             .AddSink("out", "transform", sl::dataflow::SinkKind::kCsv)
             .Build();
    spec_.deploy_time = kT0;
    spec_.end_time = kT0 + static_cast<Timestamp>(count) + duration::kSecond;
    SizeLog();
  }

 protected:
  bool RowOf(const std::vector<std::string>& header,
             const std::vector<std::string>& fields, std::string* key,
             std::vector<double>* values) const override {
    *key = Text(header, fields, "seq");
    values->push_back(Field(header, fields, "temp"));
    values->push_back(Field(header, fields, "heat_index"));
    return !key->empty();
  }
};

// ---------------------------------------------------------------------------

constexpr Duration kWindow = duration::kSecond;
constexpr Duration kLateness = 200;

class LiveWindows : public LiveWorkload {
 public:
  LiveWindows(uint64_t seed, uint64_t count)
      : LiveWorkload("live_windows", seed, 250000) {
    auto temp_schema = KeyedSchema("temp", "celsius", "weather/temperature");
    auto rain_schema = KeyedSchema("rain", "mm/h", "weather/rain");
    Register("lw_temp", temp_schema);
    Register("lw_rain", rain_schema);
    params_ = sl::StrFormat(
        "sources=temp+rain stations=1000 window=1s event_time "
        "lateness=200ms in_lateness=3%% beyond_lateness=0.5%% faulty=1%% "
        "inputs=%llu",
        static_cast<unsigned long long>(count));
    Generate(seed, count, temp_schema, rain_schema);
    using sl::dataflow::OpKind;
    sl::dataflow::AggregationSpec agg;
    agg.interval = kWindow;
    agg.func = sl::dataflow::AggFunc::kAvg;
    agg.attributes = {"temp"};
    agg.group_by = {"station"};
    sl::dataflow::JoinSpec join;
    join.interval = kWindow;
    join.predicate = "valid_station == rain_station";
    spec_.broker = &broker_;
    spec_.dataflow =
        *sl::dataflow::DataflowBuilder("live_windows")
             .AddSource("temp", "lw_temp")
             .AddSource("rain", "lw_rain")
             .AddOperator("valid", OpKind::kFilter,
                          sl::dataflow::FilterSpec{"temp > -40 and temp < 60"},
                          {"temp"})
             .AddOperator("agg", OpKind::kAggregation, agg, {"valid"})
             .AddOperator("join", OpKind::kJoin, join, {"valid", "rain"})
             .AddSink("agg_out", "agg", sl::dataflow::SinkKind::kCsv)
             .AddSink("join_out", "join", sl::dataflow::SinkKind::kCsv)
             .Build();
    spec_.watermark.time_policy = sl::ops::TimePolicy::kEvent;
    spec_.watermark.late_policy = sl::ops::LatePolicy::kDrop;
    spec_.watermark.allowed_lateness = kLateness;
    spec_.deploy_time = kT0;
    spec_.end_time = inputs_.back().at + 4 * kWindow;
    SizeLog();
  }

 protected:
  bool RowOf(const std::vector<std::string>& header,
             const std::vector<std::string>& fields, std::string* key,
             std::vector<double>* values) const override {
    if (header.size() > 6) {
      *key = "pair " + Text(header, fields, "valid_seq") + "|" +
             Text(header, fields, "rain_seq");
      values->push_back(Field(header, fields, "temp"));
      values->push_back(Field(header, fields, "rain"));
    } else {
      *key = "avg " + Text(header, fields, "station") + "@" + fields[0];
      values->push_back(Field(header, fields, "avg_temp"));
    }
    return true;
  }

  void CheckOperatorCounters(
      const sl::exec::ThreadedRunResult& result) override {
    for (const auto& [op, want] : expected_late_) {
      auto it = result.op_stats.find(op);
      uint64_t got = it == result.op_stats.end()
                         ? 0
                         : it->second.late_dropped + it->second.late_routed;
      if (got != want) {
        check_.AddFailures(got > want ? got - want : want - got,
                           sl::StrFormat("%s late drops: %llu, expected %llu",
                                         op.c_str(),
                                         static_cast<unsigned long long>(got),
                                         static_cast<unsigned long long>(want)));
      }
    }
  }

 private:
  struct Reading {
    size_t index;
    Timestamp ts;
    double value;
    bool late;
  };

  void Generate(uint64_t seed, uint64_t count,
                const sl::stt::SchemaPtr& temp_schema,
                const sl::stt::SchemaPtr& rain_schema) {
    sl::Rng rng(seed);
    inputs_.reserve(count);
    Timestamp wm_temp = sl::stt::kNoWatermark, wm_rain = sl::stt::kNoWatermark;
    // Per (station, window): on-time readings of each side.
    std::map<std::pair<std::string, Timestamp>, std::vector<Reading>> temps,
        rains;
    Timestamp frontier_temp = sl::stt::kNoWatermark;
    for (uint64_t i = 0; i < count; ++i) {
      const bool is_temp = rng.NextBool(0.5);
      const std::string station = sl::StrFormat(
          "s%03llu", static_cast<unsigned long long>(rng.NextBounded(1000)));
      double value = is_temp ? rng.NextDouble(-5.0, 35.0)
                             : 5.0 * -std::log(1.0 - rng.NextDouble());
      // The tail stays valid: the agg's final frontier is then the last
      // temperature's watermark.
      const bool faulty = is_temp && rng.NextBool(0.01) && i + 100 < count;
      if (faulty) value = -99.9;
      const Timestamp at = kT0 + static_cast<Timestamp>(i);
      Timestamp delay = 0;
      const double u = rng.NextDouble();
      if (u < 0.005) {
        delay = 2300 + static_cast<Timestamp>(rng.NextBounded(600));
      } else if (u < 0.035) {
        delay = 1 + static_cast<Timestamp>(rng.NextBounded(kLateness / 2));
      }
      if (at - delay < kT0) delay = 0;
      const Timestamp ts = at - delay;
      Timestamp& wm = is_temp ? wm_temp : wm_rain;
      wm = std::max(wm, ts);
      inputs_.push_back(
          {is_temp ? "temp" : "rain",
           sl::stt::Tuple::Share(sl::stt::Tuple::MakeUnsafe(
               is_temp ? temp_schema : rain_schema,
               {sl::stt::Value::Double(value), sl::stt::Value::String(station),
                sl::stt::Value::Int(static_cast<int64_t>(i))},
               ts, sl::stt::GeoPoint{34.69, 135.50},
               is_temp ? "lw_temp" : "lw_rain")),
           at, wm});
      if (faulty) continue;
      // The filter forwards valid temperatures with their watermark.
      if (is_temp) frontier_temp = wm;
      const bool late = delay > kLateness;
      Reading r{i, ts, value, late};
      const Timestamp start = sl::stt::AlignDown(ts, kWindow);
      (is_temp ? temps : rains)[{station, start}].push_back(r);
    }
    const Timestamp frontier_join = std::min(frontier_temp, wm_rain);
    // Windows [start, start + 1 s) fire once the operator's input
    // frontier minus the lateness reaches their end.
    auto fires = [](Timestamp start, Timestamp frontier) {
      return start + kWindow <= frontier - kLateness;
    };
    for (const auto& [group, readings] : temps) {
      double sum = 0;
      int64_t n = 0;
      size_t last = 0;
      for (const Reading& r : readings) {
        if (r.late) {
          ++expected_late_["agg"];
          ++expected_late_["join"];
          continue;
        }
        sum += r.value;
        ++n;
        last = std::max(last, r.index);
      }
      if (n > 0 && fires(group.second, frontier_temp)) {
        check_.Expect("avg " + group.first + "@" +
                          sl::FormatTimestamp(group.second),
                      {sum / static_cast<double>(n)},
                      static_cast<int64_t>(last));
      }
      auto other = rains.find(group);
      if (other == rains.end() || !fires(group.second, frontier_join)) continue;
      for (const Reading& t : readings) {
        if (t.late) continue;
        for (const Reading& r : other->second) {
          if (r.late) continue;
          check_.Expect("pair " + std::to_string(t.index) + "|" +
                            std::to_string(r.index),
                        {t.value, r.value},
                        static_cast<int64_t>(std::max(t.index, r.index)));
        }
      }
    }
    for (const auto& [group, readings] : rains) {
      for (const Reading& r : readings) {
        if (r.late) ++expected_late_["join"];
      }
    }
  }

  std::map<std::string, uint64_t> expected_late_;
};

}  // namespace

std::unique_ptr<Workload> MakeLiveChain(uint64_t seed, uint64_t inputs,
                                        SinkStall stall) {
  return std::make_unique<LiveChain>(seed, inputs, stall);
}

std::unique_ptr<Workload> MakeLiveWindows(uint64_t seed, uint64_t inputs) {
  return std::make_unique<LiveWindows>(seed, inputs);
}

}  // namespace perfbench
