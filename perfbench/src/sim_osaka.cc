// sim_osaka: the paper's §3 Osaka scenario, scaled up, on the
// discrete-event simulator.
//
// Why this workload: it is the only one whose time goes to the sensor
// generators, to broker enrichment, to network routing and to the
// executor's event loop. An operator or threaded-runtime change should
// leave it unmoved.

#include <cmath>
#include <unordered_set>

#include "net/network.h"
#include "sensors/osaka.h"
#include "util/strings.h"
#include "workload.h"

namespace perfbench {
namespace {

using sl::Duration;
using sl::Timestamp;
namespace duration = sl::duration;

// 07:00 on the demo day, so the run crosses the 08:00 rush hour (slow
// traffic for the alert join).
constexpr Timestamp kStart = 1458000000000 + 7 * duration::kHour;
// Deploying 5 s after the fleet starts keeps every emission (periods of
// 30 s and 60 s) at least 4 s away from every flush boundary, so window
// membership does not depend on simulated network delay.
constexpr Duration kWarmup = 5 * duration::kSecond;
constexpr Duration kUnpacedRun = duration::kHour + 10 * duration::kMinute;
constexpr Duration kPacedRun = 40 * duration::kMinute;
constexpr Duration kHourly = duration::kHour;
constexpr Duration kAlertWindow = 10 * duration::kMinute;
constexpr size_t kNodes = 8;
// Offered rate of the paced phase, about half of throughput_tps on a
// 4-core x86-64 container (see README.md).
constexpr double kPacedRate = 13000;

sl::sensors::OsakaFleetOptions FleetOptions(uint64_t seed) {
  sl::sensors::OsakaFleetOptions options;
  options.temperature_sensors = 160;  // every fourth reports Fahrenheit
  options.humidity_sensors = 40;
  options.rain_sensors = 80;
  options.tweet_sensors = 0;
  options.traffic_sensors = 40;       // timestamp + location from the broker
  options.reactive_sensors_start_active = true;
  options.seed = seed;
  for (size_t i = 0; i < kNodes; ++i) {
    options.node_ids.push_back(sl::StrFormat("node_%zu", i));
  }
  return options;
}

sl::pubsub::DiscoveryQuery Query(const std::string& type, double lat_lo,
                                 double lat_hi) {
  sl::pubsub::DiscoveryQuery q;
  q.type = type;
  if (lat_hi > lat_lo) q.area = sl::stt::BBox{{lat_lo, 100.0}, {lat_hi, 170.0}};
  return q;
}

// Celsius sensors sit at latitudes 34.62/34.65/34.68, the Fahrenheit
// ones (every fourth) at 34.71: the area query separates the two schemas.
sl::pubsub::DiscoveryQuery CelsiusQuery() {
  return Query("temperature", 34.60, 34.70);
}
sl::pubsub::DiscoveryQuery FahrenheitQuery() {
  return Query("temperature", 34.70, 34.72);
}

sl::Result<sl::dataflow::Dataflow> OsakaDataflow() {
  using sl::dataflow::AggFunc;
  using sl::dataflow::SinkKind;
  const char* kRange = "temp > -20 and temp < 45";
  const char* kKey = "concat($sensor, '@', to_string(ts_ms($ts)))";
  return sl::dataflow::DataflowBuilder("sim_osaka")
      .AddSourceByQuery("temp_c", CelsiusQuery())
      .AddVirtualProperty("station_c", "temp_c", "station", "$sensor")
      .AddFilter("range_c", "station_c", kRange)
      .AddSink("readings_c", "range_c", SinkKind::kWarehouse, "temperature_c")
      .AddAggregation("hourly_c", "range_c", kHourly, AggFunc::kAvg, {"temp"},
                      {"station"})
      .AddSink("hourly_c_out", "hourly_c", SinkKind::kWarehouse,
               "hourly_temperature_c")
      .AddSourceByQuery("temp_f", FahrenheitQuery())
      .AddTransform("f2c", "temp_f", "temp",
                    "convert_unit(temp, 'fahrenheit', 'celsius')", "celsius")
      .AddVirtualProperty("station_f", "f2c", "station", "$sensor")
      .AddFilter("range_f", "station_f", kRange)
      .AddSink("readings_f", "range_f", SinkKind::kWarehouse, "temperature_f")
      .AddAggregation("hourly_f", "range_f", kHourly, AggFunc::kAvg, {"temp"},
                      {"station"})
      .AddSink("hourly_f_out", "hourly_f", SinkKind::kWarehouse,
               "hourly_temperature_f")
      .AddSourceByQuery("humidity", Query("humidity", 0, 0))
      .AddFilter("humid", "humidity", "humidity > 70")
      .AddSink("humid_out", "humid", SinkKind::kWarehouse, "humid_readings")
      .AddSourceByQuery("rain", Query("rain", 0, 0))
      .AddFilter("torrential", "rain", "rain > 10")
      .AddVirtualProperty("rzone", "torrential", "rzone", "floor($lon * 10)")
      .AddVirtualProperty("rkey", "rzone", "rkey", kKey)
      .AddSourceByQuery("traffic", Query("traffic", 0, 0))
      .AddFilter("slow", "traffic", "speed < 45")
      .AddVirtualProperty("tzone", "slow", "tzone", "floor($lon * 10)")
      .AddVirtualProperty("tkey", "tzone", "tkey", kKey)
      .AddJoin("alerts", "rkey", "tkey", kAlertWindow, "rzone == tzone")
      .AddSink("alerts_out", "alerts", SinkKind::kWarehouse,
               "rain_traffic_alerts")
      .Build();
}

std::string InputKey(const std::string& sensor, Timestamp ts) {
  return sensor + "@" + std::to_string(ts);
}

/// One tapped input, compact (no tuple reference), so that recording it
/// does not keep tuples alive the system would have freed.
struct Tapped {
  uint8_t source = 0;
  uint32_t sensor = 0;
  Timestamp at = 0;
  Timestamp ts = 0;
  double value = 0;  ///< temp / humidity / rain / speed
  double lon = 0;
};

const char* const kSources[] = {"temp_c", "temp_f", "humidity", "rain",
                                "traffic"};

/// Sensor generator decorator for the traced run: times the wrapped
/// sensor's Generate and keeps the raw (pre-broker) tuples for the
/// pub/sub replay.
struct GenerateLog {
  double ns = 0;
  uint64_t calls = 0;
  std::vector<std::pair<std::string, sl::stt::TupleRef>> raw;
  SpanLog* spans = nullptr;
};

class TimedSensor : public sl::sensors::SensorSimulator {
 public:
  TimedSensor(sl::sensors::SensorSimulator* inner, GenerateLog* log)
      : SensorSimulator(inner->info()), inner_(inner), log_(log) {}

  sl::Result<sl::stt::TupleRef> Generate(Timestamp ts) override {
    int64_t start = NowNs();
    auto tuple = inner_->Generate(ts);
    int64_t end = NowNs();
    log_->ns += static_cast<double>(end - start);
    if (log_->spans != nullptr && log_->calls % 256 == 0) {
      log_->spans->Add("sensors.generate", start, end, 0,
                       static_cast<int64_t>(log_->calls));
    }
    ++log_->calls;
    if (tuple.ok()) log_->raw.emplace_back(id(), *tuple);
    return tuple;
  }

 private:
  sl::sensors::SensorSimulator* inner_;
  GenerateLog* log_;
};

class SimOsaka : public Workload {
 public:
  explicit SimOsaka(uint64_t seed) : seed_(seed) {}

  std::string Describe() const override {
    auto f = FleetOptions(seed_);
    return sl::StrFormat(
        "workload sim_osaka seed %llu input_digest %s inputs_per_run %llu\n"
        "params: runtime=simulator sensors=%zu (temperature %zu, 1 in 4 "
        "Fahrenheit; humidity %zu; rain %zu; traffic %zu broker-enriched) "
        "ring_nodes=%zu monitor_window=10s unpaced_virtual=%lldmin "
        "paced_virtual=%lldmin paced_rate=%.0f/s hourly_agg=1h "
        "alert_join=10min",
        static_cast<unsigned long long>(seed_), digest_.c_str(),
        static_cast<unsigned long long>(inputs_),
        f.temperature_sensors + f.humidity_sensors + f.rain_sensors +
            f.traffic_sensors,
        f.temperature_sensors, f.humidity_sensors, f.rain_sensors,
        f.traffic_sensors, kNodes,
        static_cast<long long>(kUnpacedRun / duration::kMinute),
        static_cast<long long>(kPacedRun / duration::kMinute), kPacedRate);
  }

  double paced_rate() const override { return kPacedRate; }

  void PerturbReference() override { perturb_ = true; }

  sl::Result<SetupTimes> SetupOnce() override {
    SimSpec spec = Spec(0);
    SL_ASSIGN_OR_RETURN(SimRun run, RunSimulator(spec, 0, {}));
    return run.setup;
  }

  sl::Result<PhaseResult> Run(bool paced) override {
    SimSpec spec = Spec(paced ? kPacedRun : kUnpacedRun);
    const double scale = paced ? kPacedScale : 0;
    tapped_.clear();
    tapped_.reserve(kInputsPerMinute *
                    static_cast<size_t>(spec.run_for / duration::kMinute + 2));
    // Touch the benchmark's own records up front so the probe does not
    // count them.
    tapped_.resize(tapped_.capacity());
    tapped_.clear();
    std::vector<int64_t> tap_ns(paced ? tapped_.capacity() : 0);
    tap_ns.clear();
    polled_.assign(paced ? 2 * tapped_.capacity() : 0, Polled{});
    polled_.clear();
    poll_state_.clear();
    last_total_ = 0;
    run_for_ = spec.run_for;

    PhaseProbe probe;
    SimHooks hooks;
    hooks.probe = &probe;
    hooks.on_input = [this, paced, &tap_ns](const std::string& source,
                                            const sl::stt::TupleRef& tuple,
                                            Timestamp at) {
      if (paced) tap_ns.push_back(NowNs());
      Tap(source, *tuple, at);
    };
    if (paced) {
      hooks.on_slice = [this](const sl::sinks::EventDataWarehouse& w) {
        Poll(w);
      };
    }
    SL_ASSIGN_OR_RETURN(SimRun run, RunSimulator(spec, scale, hooks));

    PhaseResult out;
    out.inputs = tapped_.size();
    out.wall_s = static_cast<double>(run.end_ns - run.start_ns) / 1e9;
    out.cpu_ns = static_cast<double>(probe.cpu_ns());
    out.setup = run.setup;
    out.peak_rss_bytes = probe.peak_rss_bytes();
    if (!paced) {
      inputs_ = tapped_.size();
      Digest digest;
      for (const Tapped& t : tapped_) {
        digest.Add(sensor_names_[t.sensor]);
        digest.AddI64(t.at);
        digest.AddI64(t.ts);
        digest.AddF64(t.value);
      }
      digest_ = digest.Hex();
    }

    ReferenceCheck check;
    BuildReference(run, &check);
    if (perturb_) check.PerturbOneRow();
    out.results = check.expected_rows();
    // Paced runs: a result's latency runs from its due time (virtual time
    // `due`, see BuildReference) to the slice that made it visible.
    auto due_ms = [&run](Timestamp at) {
      return static_cast<double>(run.start_ns) / 1e6 +
             static_cast<double>(at - run.v0) / run.virtual_ms_per_wall_s * 1e3;
    };
    std::unordered_map<std::string, int64_t> arrival_ns;
    for (const Polled& p : polled_) {
      arrival_ns.emplace(RowKey(*p.dataset, *p.row), p.arrival_ns);
    }
    if (paced) out.latency_ms.assign(check.expected_rows(), INFINITY);
    uint64_t unseen = 0;
    std::string first_unseen;
    CheckWarehouse(run, &check, [&](const std::string& key,
                                    ReferenceCheck::Match match) {
      if (!paced || match.index < 0) return;
      auto it = arrival_ns.find(key);
      if (it == arrival_ns.end()) {
        // In the warehouse, but the sink consumer never saw it arrive.
        if (unseen++ == 0) first_unseen = key;
        return;
      }
      out.latency_ms[match.index] =
          static_cast<double>(it->second) / 1e6 - due_ms(match.due);
    });
    check.AddFailures(unseen, "row the sink consumer missed: " + first_unseen);
    check.AddSystemErrors(run.stats.process_errors);
    out.failures = check.failures();
    if (out.failures > 0) out.differences = check.FirstDifferences();
    for (size_t i = 0; i < tap_ns.size(); ++i) {
      out.gen_lag_ms.push_back(static_cast<double>(tap_ns[i]) / 1e6 -
                               due_ms(tapped_[i].at));
    }
    return out;
  }

  sl::Result<std::vector<Metric>> Trace(double untraced_tps,
                                        const std::string& trace_path) override;

 private:
  static constexpr size_t kInputsPerMinute = 160 + 40 + 80 + 80;

  SimSpec Spec(Duration run_for) const {
    SimSpec spec;
    spec.options.network_nodes = kNodes;
    spec.options.start_time = kStart;
    spec.options.monitor_window = 10 * duration::kSecond;
    const uint64_t seed = seed_;
    spec.build_fleet = [seed](sl::sensors::SensorFleet* fleet) {
      return sl::sensors::BuildOsakaFleet(fleet, FleetOptions(seed)).status();
    };
    spec.build_dataflow = OsakaDataflow;
    spec.warmup = kWarmup;
    spec.run_for = run_for;
    return spec;
  }

  /// Virtual ms per wall second that offers kPacedRate inputs/s.
  static constexpr double kPacedScale =
      kPacedRate / (static_cast<double>(kInputsPerMinute) / duration::kMinute);

  void Tap(const std::string& source, const sl::stt::Tuple& tuple,
           Timestamp at) {
    Tapped t;
    for (uint8_t s = 0; s < 5; ++s) {
      if (source == kSources[s]) t.source = s;
    }
    auto [it, inserted] =
        sensor_index_.emplace(tuple.sensor_id(), sensor_index_.size());
    if (inserted) sensor_names_.push_back(tuple.sensor_id());
    t.sensor = static_cast<uint32_t>(it->second);
    t.at = at;
    t.ts = tuple.timestamp();
    t.value = tuple.value(0).is_null() ? NAN : tuple.value(0).AsDouble();
    t.lon = tuple.location().has_value() ? tuple.location()->lon : NAN;
    tapped_.push_back(t);
  }

  /// Sink consumer of paced runs: records each warehouse row the first
  /// time a slice makes it visible. Rows are stored in event-time order
  /// per dataset, so only rows from the newest one seen on are queried;
  /// a row that lands before it is never recorded, and Run counts it as
  /// a failure.
  void Poll(const sl::sinks::EventDataWarehouse& warehouse) {
    if (warehouse.total_events() == last_total_) return;
    last_total_ = warehouse.total_events();
    const int64_t now = NowNs();
    for (const std::string& dataset : warehouse.DatasetNames()) {
      auto entry = poll_state_.try_emplace(dataset).first;
      PollState& state = entry->second;
      if (warehouse.DatasetSize(dataset) == state.size) continue;
      state.size = warehouse.DatasetSize(dataset);
      sl::sinks::EventQuery q;
      q.time_begin = state.newest;
      auto rows = warehouse.Query(dataset, q);
      if (!rows.ok()) continue;
      for (const auto& row : *rows) {
        if (row->timestamp() > state.newest) {
          state.newest = row->timestamp();
          state.at_newest.clear();
        }
        if (row->timestamp() == state.newest &&
            !state.at_newest.insert(row.get()).second) {
          continue;
        }
        polled_.push_back({&entry->first, row.get(), now});
      }
    }
  }

  /// Output ts of window k of a blocking operator -> k.
  static int64_t WindowIndex(Timestamp row_ts, Timestamp v0, Duration interval) {
    return std::llround(static_cast<double>(row_ts - v0) /
                        static_cast<double>(interval)) - 1;
  }

  std::string RowKey(const std::string& dataset, const sl::stt::Tuple& row) const {
    if (dataset == "hourly_temperature_c" || dataset == "hourly_temperature_f") {
      return dataset + "|" + row.value(0).ToString() + "@" +
             std::to_string(WindowIndex(row.timestamp(), v0_, kHourly));
    }
    if (dataset == "rain_traffic_alerts") {
      auto r = row.ValueByName("rkey");
      auto t = row.ValueByName("tkey");
      return dataset + "|" + (r.ok() ? r->ToString() : "?") + "|" +
             (t.ok() ? t->ToString() : "?");
    }
    return dataset + "|" + InputKey(row.sensor_id(), row.timestamp());
  }

  /// Expected warehouse rows from the tapped inputs. Blocking operators
  /// fire window k at deploy + interval + 50 ms * depth + k * interval
  /// (depth: earlier blocking operators in topological order, here
  /// hourly_c = 0, hourly_f = 1, alerts = 2 — asserted below) and
  /// consume the inputs ingested since the previous boundary. A reading
  /// falls due when its input was ingested; a window result when its
  /// window fires, so that its latency is the simulator's flush and
  /// delivery time, not the window's length.
  void BuildReference(const SimRun& run, ReferenceCheck* check) {
    v0_ = run.v0;
    const Timestamp run_end = run.v0 + run_for_;
    std::map<std::string, int> depth;
    int next_depth = 0;
    for (const auto& name : run.dataflow.topological_order()) {
      if (name == "hourly_c" || name == "hourly_f" || name == "alerts") {
        depth[name] = next_depth++;
      }
    }
    auto fire_at = [&](const std::string& op, Duration interval, int64_t k) {
      return run.v0 + interval + 50 * depth[op] + k * interval;
    };
    auto fires = [&](const std::string& op, Duration interval, int64_t k) {
      return fire_at(op, interval, k) <= run_end;
    };
    auto window = [&](Timestamp at, Duration interval) {
      return (at - run.v0) / interval;
    };
    struct Acc {
      double sum = 0;
      int64_t n = 0;
      Timestamp due = 0;
    };
    std::map<std::string, Acc> hourly;
    struct Side {
      std::string key;
      double value;
      int64_t zone;
    };
    std::map<int64_t, std::vector<Side>> rain, slow;
    for (const Tapped& t : tapped_) {
      const std::string& sensor = sensor_names_[t.sensor];
      switch (t.source) {
        case 0:
        case 1: {
          double c = t.source == 0 ? t.value : (t.value - 32.0) * 5.0 / 9.0;
          if (!(c > -20 && c < 45)) break;
          const char* ds = t.source == 0 ? "temperature_c" : "temperature_f";
          check->Expect(std::string(ds) + "|" + InputKey(sensor, t.ts), {c},
                        t.at);
          const char* op = t.source == 0 ? "hourly_c" : "hourly_f";
          int64_t k = window(t.at, kHourly);
          if (!fires(op, kHourly, k)) break;
          Acc& a = hourly[std::string(t.source == 0 ? "hourly_temperature_c"
                                                    : "hourly_temperature_f") +
                          "|" + sensor + "@" + std::to_string(k)];
          a.sum += c;
          ++a.n;
          a.due = fire_at(op, kHourly, k);
          break;
        }
        case 2:
          if (t.value > 70) {
            check->Expect("humid_readings|" + InputKey(sensor, t.ts),
                          {t.value}, t.at);
          }
          break;
        case 3:
        case 4: {
          const bool is_rain = t.source == 3;
          if (is_rain ? !(t.value > 10) : !(t.value < 45)) break;
          int64_t k = window(t.at, kAlertWindow);
          if (!fires("alerts", kAlertWindow, k)) break;
          auto zone = static_cast<int64_t>(std::floor(t.lon * 10));
          (is_rain ? rain : slow)[k].push_back(
              {InputKey(sensor, t.ts), t.value, zone});
          break;
        }
      }
    }
    for (const auto& [key, a] : hourly) {
      check->Expect(key, {a.sum / static_cast<double>(a.n)}, a.due);
    }
    for (const auto& [k, rains] : rain) {
      const Timestamp due = fire_at("alerts", kAlertWindow, k);
      for (const Side& r : rains) {
        for (const Side& s : slow[k]) {
          if (r.zone != s.zone) continue;
          check->Expect("rain_traffic_alerts|" + r.key + "|" + s.key,
                        {r.value, s.value}, due);
        }
      }
    }
  }

  /// Observes every warehouse row; `matched(key, match)` runs for each.
  template <typename Fn>
  void CheckWarehouse(const SimRun& run, ReferenceCheck* check,
                      Fn matched) const {
    for (const auto& [dataset, rows] : run.datasets) {
      for (const auto& row : rows) {
        std::vector<double> values;
        if (dataset == "rain_traffic_alerts") {
          auto r = row->ValueByName("rain");
          auto s = row->ValueByName("speed");
          values = {r.ok() ? r->AsDouble() : NAN, s.ok() ? s->AsDouble() : NAN};
        } else {
          size_t idx = dataset.rfind("hourly", 0) == 0 ? 1 : 0;
          const auto& v = row->value(idx);
          values = {v.is_null() ? NAN : *v.ToNumeric()};
        }
        const std::string key = RowKey(dataset, *row);
        matched(key,
                check->Observe(key, values, dataset + " " + row->ToString()));
      }
    }
  }

  uint64_t seed_;
  std::string digest_ = "-";
  uint64_t inputs_ = 0;
  bool perturb_ = false;
  Timestamp v0_ = 0;
  Duration run_for_ = 0;
  std::vector<Tapped> tapped_;
  std::unordered_map<std::string, size_t> sensor_index_;
  std::vector<std::string> sensor_names_;
  struct PollState {
    size_t size = 0;
    Timestamp newest = std::numeric_limits<Timestamp>::min();
    std::unordered_set<const sl::stt::Tuple*> at_newest;
  };
  std::map<std::string, PollState> poll_state_;
  uint64_t last_total_ = 0;
  /// A warehouse row the sink consumer saw (kept alive by the run's
  /// dataset copies) and when.
  struct Polled {
    const std::string* dataset = nullptr;
    const sl::stt::Tuple* row = nullptr;
    int64_t arrival_ns = 0;
  };
  std::vector<Polled> polled_;
};

sl::Result<std::vector<Metric>> SimOsaka::Trace(double untraced_tps,
                                                const std::string& trace_path) {
  LedgerParts parts;
  SpanLog spans;
  std::vector<SetupTimes> setups;
  for (int i = 0; i < 9; ++i) {
    SL_ASSIGN_OR_RETURN(SetupTimes s, SetupOnce());
    setups.push_back(s);
  }
  AddSetupMetrics(setups, &parts);

  // Traced run: the fleet's sensors wrapped in the timing decorator, and
  // every source input captured in full for the replays.
  sl::net::EventLoop scratch_loop(kStart);
  sl::pubsub::Broker scratch_broker(&scratch_loop.clock());
  sl::sensors::SensorFleet scratch_fleet(&scratch_loop, &scratch_broker);
  SL_RETURN_IF_ERROR(
      sl::sensors::BuildOsakaFleet(&scratch_fleet, FleetOptions(seed_))
          .status());
  GenerateLog generated;
  generated.spans = &spans;
  SimSpec spec = Spec(kUnpacedRun);
  spec.build_fleet = [&](sl::sensors::SensorFleet* fleet) -> sl::Status {
    for (const std::string& id : scratch_fleet.SensorIds()) {
      SL_ASSIGN_OR_RETURN(sl::sensors::SensorSimulator * inner,
                          scratch_fleet.Find(id));
      SL_RETURN_IF_ERROR(
          fleet->Add(std::make_unique<TimedSensor>(inner, &generated), true));
    }
    return sl::Status::OK();
  };
  std::vector<SourceInput> captured;
  SimHooks hooks;
  hooks.on_input = [&captured](const std::string& source,
                               const sl::stt::TupleRef& tuple, Timestamp at) {
    captured.push_back({source, tuple, at, sl::stt::kNoWatermark});
  };
  hooks.monitor_samples = 64;
  int64_t cpu0 = ProcessCpuNs();
  SL_ASSIGN_OR_RETURN(SimRun run, RunSimulator(spec, 0, hooks));
  const double cpu_s = static_cast<double>(ProcessCpuNs() - cpu0) / 1e9;
  const double inputs = static_cast<double>(captured.size());
  const double wall_s = static_cast<double>(run.end_ns - run.start_ns) / 1e9;
  const double e2e_ns = wall_s * 1e9 / inputs;
  const double traced_tps = inputs / wall_s;

  // sensors: the decorator's Generate time.
  const double generate_ns = generated.ns / inputs;
  parts.metrics.push_back({"sensors.generate_ns", generate_ns, "ns"});

  // pubsub: PublishTuple over the raw tuples, no-op query subscribers.
  sl::net::EventLoop pub_loop(kStart);
  sl::pubsub::Broker broker(&pub_loop.clock());
  uint64_t enriched = 0;
  for (const auto& info : scratch_broker.All()) {
    SL_RETURN_IF_ERROR(broker.Publish(info));
  }
  for (const auto& q : {CelsiusQuery(), FahrenheitQuery(),
                        Query("humidity", 0, 0), Query("rain", 0, 0),
                        Query("traffic", 0, 0)}) {
    broker.SubscribeDataByQuery(q, [](const sl::stt::TupleRef&) {});
  }
  int64_t t = NowNs();
  for (const auto& [sensor, tuple] : generated.raw) {
    SL_RETURN_IF_ERROR(broker.PublishTuple(sensor, tuple));
  }
  const double publish_ns = static_cast<double>(NowNs() - t) / inputs;
  for (const auto& [sensor, tuple] : generated.raw) {
    auto info = scratch_broker.Find(sensor);
    if (info.ok() && (!info->provides_timestamp || !info->provides_location)) {
      ++enriched;
    }
  }
  parts.metrics.push_back({"pubsub.publish_ns", publish_ns, "ns"});
  parts.metrics.push_back(
      {"pubsub.enriched_share",
       static_cast<double>(enriched) /
           static_cast<double>(std::max<size_t>(1, generated.raw.size())),
       "share"});

  // net: the deployment's transfers, replayed over the same ring.
  sl::net::EventLoop net_loop(kStart);
  sl::net::Network network(&net_loop);
  SL_RETURN_IF_ERROR(sl::net::BuildRingTopology(
      &network, kNodes, spec.options.node_capacity_per_sec,
      spec.options.link_latency, spec.options.link_bandwidth_bytes_per_ms));
  struct Hop {
    std::string from, to;
    size_t bytes;
  };
  std::vector<Hop> hops;
  double bytes_sum = 0;
  for (const SourceInput& in : captured) {
    auto info = scratch_broker.Find(in.tuple->sensor_id());
    const std::string from = info.ok() ? info->node_id : "node_0";
    const size_t bytes = in.tuple->ApproxValueBytes() + 24;
    bytes_sum += static_cast<double>(bytes);
    for (const std::string& to : run.dataflow.Downstream(in.source)) {
      hops.push_back({from, run.placement[to], bytes});
    }
  }
  const auto mean_bytes = static_cast<size_t>(bytes_sum / inputs);
  for (const auto& [op, stats] : run.op_stats) {
    for (const std::string& to : run.dataflow.Downstream(op)) {
      for (uint64_t i = 0; i < stats.tuples_out; ++i) {
        hops.push_back({run.placement[op], run.placement[to], mean_bytes});
      }
    }
  }
  t = NowNs();
  for (size_t i = 0; i < hops.size(); ++i) {
    SL_RETURN_IF_ERROR(
        network.Transfer(hops[i].from, hops[i].to, hops[i].bytes, [] {}));
    if (i % 256 == 255) net_loop.RunUntil(net_loop.Now() + 1000);
  }
  net_loop.RunUntilIdle();
  const double transfer_ns = static_cast<double>(NowNs() - t) / inputs;
  PrintLedgerLine("net.transfer_ns", transfer_ns, "ns",
                  sl::StrFormat("%zu transfers replayed", hops.size()));
  parts.metrics.push_back({"net.messages_per_tuple",
                           static_cast<double>(run.net_messages) / inputs,
                           "count"});
  parts.metrics.push_back(
      {"net.bytes_per_tuple", static_cast<double>(run.net_bytes) / inputs, "B"});
  parts.metrics.push_back({"net.events_per_tuple",
                           static_cast<double>(run.loop_events) / inputs,
                           "count"});

  // ops / expr / stt: every operator over its captured stage inputs;
  // sinks: MakeSink + Write over the captured sink inputs.
  ReplayOptions replay_options;
  replay_options.deploy_time = run.v0;
  replay_options.spans = &spans;
  SL_ASSIGN_OR_RETURN(
      ReplayResult replay,
      ReplayOperators(run.dataflow, run.schemas, captured,
                      run.v0 + kUnpacedRun, replay_options));
  for (StageCost& stage : replay.stages) SL_RETURN_IF_ERROR(EvalStage(&stage, 1));
  sl::sinks::EventDataWarehouse warehouse;
  sl::sinks::SinkContext sink_context;
  sink_context.warehouse = &warehouse;
  uint64_t writes = 0;
  SL_ASSIGN_OR_RETURN(double sink_ns, ReplaySinks(run.dataflow,
                                                  replay.sink_inputs,
                                                  sink_context, &writes));
  AddReplayMetrics(replay, inputs, sink_ns, &parts);
  ReplayOptions baseline_options;
  baseline_options.deploy_time = run.v0;
  baseline_options.time_calls = false;
  sl::sinks::EventDataWarehouse baseline_warehouse;
  baseline_options.sink_context.warehouse = &baseline_warehouse;
  SL_ASSIGN_OR_RETURN(ReplayResult baseline,
                      ReplayOperators(run.dataflow, run.schemas, captured,
                                      run.v0 + kUnpacedRun, baseline_options));
  parts.metrics.push_back(
      {"ops.chain.single_thread_ns", baseline.total_ns / inputs, "ns"});

  // monitor: one Sample per monitor window of the run.
  const double ticks = static_cast<double>(kUnpacedRun) /
                       static_cast<double>(spec.options.monitor_window);
  const double monitor_ns = Median(run.monitor_sample_ns) * ticks / inputs;
  parts.metrics.push_back({"monitor.sample_ns", monitor_ns, "ns"});

  // exec: the simulator has one thread, which is also the generator.
  const double busy = cpu_s / wall_s;
  SL_ASSIGN_OR_RETURN(PhaseResult paced, Run(true));
  const double lag_p99 = Summarize(paced.gen_lag_ms).p99;
  const double ring_ns = RingPushPopNs();
  for (const char* name : {"exec.queue_depth_peak", "exec.backpressure_waits",
                           "exec.batch_fill", "exec.quanta"}) {
    parts.metrics.push_back({name, 0, "count"});
  }
  parts.metrics.push_back({"exec.ring_ns", ring_ns, "ns"});
  parts.metrics.push_back({"exec.thread_busy_max", busy, "share"});
  parts.metrics.push_back({"exec.generator_busy", busy, "share"});
  parts.metrics.push_back({"exec.gen_lag_p99_ms", lag_p99, "ms"});

  uint64_t late = 0;
  for (const auto& [op, stats] : run.op_stats) {
    late += stats.late_dropped + stats.late_routed;
    if (stats.tuples_in > 0) {
      PrintLedgerLine("ops." + op + ".selectivity",
                      static_cast<double>(stats.tuples_out) /
                          static_cast<double>(stats.tuples_in),
                      "share");
    }
  }
  parts.metrics.push_back(
      {"ops.selectivity",
       static_cast<double>(run.stats.tuples_delivered) / inputs, "share"});
  parts.metrics.push_back(
      {"ops.late_share", static_cast<double>(late) / inputs, "share"});

  // The ledger: isolated layer costs against traced wall ns per input.
  const double layers = generate_ns + publish_ns + transfer_ns + parts.ops_ns +
                        parts.sinks_ns + monitor_ns;
  parts.metrics.push_back({"exec.sim_residual_ns", e2e_ns - layers, "ns"});
  parts.metrics.push_back(
      {"exec.overhead_ns", cpu_s * 1e9 / inputs - layers, "ns"});
  parts.metrics.push_back({"ledger.coverage", layers / e2e_ns, "share"});
  parts.metrics.push_back(
      {"ledger.trace_overhead", untraced_tps / traced_tps - 1, "share"});
  PrintLedgerLine("ledger.end_to_end_ns", e2e_ns, "ns",
                  "traced wall time per input");
  if (layers / e2e_ns < 0.9) {
    PrintLedgerLine("ledger.finding", layers / e2e_ns, "share",
                    "layers cover less than 0.9 of end-to-end time");
  }
  if (!spans.WriteTraceEvents(trace_path)) {
    return sl::Status::Internal("cannot write " + trace_path);
  }
  return parts.metrics;
}

}  // namespace

std::unique_ptr<Workload> MakeSimOsaka(uint64_t seed) {
  return std::make_unique<SimOsaka>(seed);
}

}  // namespace perfbench
