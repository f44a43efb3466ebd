// Shared helpers for the StreamLoader test suite.

#ifndef STREAMLOADER_TESTS_TEST_UTIL_H_
#define STREAMLOADER_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "dsn/translate.h"
#include "exec/executor.h"
#include "monitor/monitor.h"
#include "net/fault.h"
#include "net/network.h"
#include "sensors/generators.h"
#include "sinks/streams.h"
#include "stt/schema.h"
#include "stt/tuple.h"
#include "util/rng.h"

namespace sl::testing {

/// Asserts a Status is OK with a useful message.
#define SL_EXPECT_OK(expr)                                 \
  do {                                                     \
    const ::sl::Status _s = (expr);                        \
    EXPECT_TRUE(_s.ok()) << "status: " << _s.ToString();   \
  } while (false)

#define SL_ASSERT_OK(expr)                                 \
  do {                                                     \
    const ::sl::Status _s = (expr);                        \
    ASSERT_TRUE(_s.ok()) << "status: " << _s.ToString();   \
  } while (false)

/// {temp: double[celsius], station: string} @1m/point, weather/temperature.
inline stt::SchemaPtr TempSchema(
    Duration granularity_ms = duration::kMinute) {
  auto tgran = stt::TemporalGranularity::Make(granularity_ms);
  auto theme = stt::Theme::Parse("weather/temperature");
  auto schema = stt::Schema::Make(
      {{"temp", stt::ValueType::kDouble, "celsius", false},
       {"station", stt::ValueType::kString, "", true}},
      *tgran, stt::SpatialGranularity::Point(), *theme);
  return *schema;
}

/// One temperature tuple.
inline stt::Tuple TempTuple(const stt::SchemaPtr& schema, double temp,
                            Timestamp ts,
                            std::optional<stt::GeoPoint> loc = stt::GeoPoint{
                                34.69, 135.50},
                            const std::string& sensor = "t0") {
  return stt::Tuple::MakeUnsafe(
      schema, {stt::Value::Double(temp), stt::Value::String("osaka")}, ts,
      loc, sensor);
}

/// A randomized temperature batch: nulls, NaN, -0.0, missing
/// locations, null stations, and (optionally) rows whose dynamic temp
/// type contradicts the schema — the per-tuple type-error path.
inline std::vector<stt::TupleRef> RandomTempBatch(Rng* rng, size_t n,
                                                  bool with_bad_rows) {
  auto schema = TempSchema();
  std::vector<stt::TupleRef> refs;
  for (size_t i = 0; i < n; ++i) {
    stt::Value temp;
    switch (rng->NextBounded(with_bad_rows ? 6 : 5)) {
      case 0: temp = stt::Value::Null(); break;
      case 1: temp = stt::Value::Double(std::nan("")); break;
      case 2: temp = stt::Value::Double(-0.0); break;
      case 5: temp = stt::Value::Int(7); break;  // contradicts kDouble
      default: temp = stt::Value::Double(rng->NextDouble(-50, 50));
    }
    stt::Value station = rng->NextBounded(5) == 0
                             ? stt::Value::Null()
                             : stt::Value::String("osaka");
    std::optional<stt::GeoPoint> loc;
    if (rng->NextBounded(4) != 0) {
      loc = stt::GeoPoint{34.0 + rng->NextDouble(0, 1), 135.5};
    }
    refs.push_back(stt::Tuple::Share(stt::Tuple::MakeUnsafe(
        schema, {temp, station}, 1458000000000 + Timestamp(i) * 60000, loc,
        "sensor_7")));
  }
  return refs;
}

/// {rain: double[mm/h]} @1m/point, weather/rain.
inline stt::SchemaPtr RainSchema(Duration granularity_ms = duration::kMinute) {
  auto tgran = stt::TemporalGranularity::Make(granularity_ms);
  auto theme = stt::Theme::Parse("weather/rain");
  auto schema = stt::Schema::Make(
      {{"rain", stt::ValueType::kDouble, "mm/h", false}}, *tgran,
      stt::SpatialGranularity::Point(), *theme);
  return *schema;
}

inline stt::Tuple RainTuple(const stt::SchemaPtr& schema, double mmh,
                            Timestamp ts,
                            std::optional<stt::GeoPoint> loc = stt::GeoPoint{
                                34.60, 135.46},
                            const std::string& sensor = "r0") {
  return stt::Tuple::MakeUnsafe(schema, {stt::Value::Double(mmh)}, ts, loc,
                                sensor);
}

// ------------------------------------------------- chaos test harness --
//
// Seed-replayable fault-injection runs: ChaosRun deploys a dataflow on a
// small ring network, installs a FaultPlan, advances virtual time, and
// returns every counter the invariants need. Because the whole system
// runs on one virtual-clock event loop with seeded RNGs, the same seed
// reproduces a failing run bit-for-bit — re-run a single seed with
//   SL_CHAOS_SEED=<seed> ./chaos_test

/// Knobs for ChaosRun; the defaults are the reference chaos scenario.
struct ChaosOptions {
  size_t nodes = 5;                        ///< ring size
  Duration run_for = 60 * duration::kSecond;
  bool reliable = true;                    ///< ack/retransmit delivery
  Duration ack_timeout_ms = 250;
  Duration heartbeat_ms = 500;             ///< crash detection period
  bool gate_broker = true;                 ///< crashed nodes mute sensors
  Duration monitor_window = 5 * duration::kSecond;
  /// When false the FaultPlan is ignored entirely — the un-wrapped
  /// baseline for the zero-fault equivalence property.
  bool install_plan = true;
};

/// Everything a chaos run produces.
struct ChaosResult {
  bool deployed = false;
  std::string deploy_error;
  exec::DeploymentStats stats;
  net::Network::FaultStats net_stats;
  monitor::FaultSample monitor_faults;  ///< last monitor sample of the run
  uint64_t broker_suppressed = 0;
};

/// The reference dataflow: one periodic sensor feeding a pass-all filter
/// into a collect sink — linear, so tuple conservation is checkable.
inline dsn::DsnSpec ChaosReferenceSpec() {
  auto df = *dataflow::DataflowBuilder("chaos_flow")
                 .AddSource("src", "chaos_t0")
                 .AddFilter("keep", "src", "temp > -1000")
                 .AddSink("out", "keep", dataflow::SinkKind::kCollect)
                 .Build();
  return *dsn::TranslateToDsn(df);
}

/// \brief Deploys `spec` under the faults of `plan` and runs the clock.
/// `seed` seeds the sensor; the plan carries its own seed (usually the
/// same one). Reproducible: equal arguments ⇒ equal ChaosResult counters.
inline ChaosResult ChaosRun(uint64_t seed, const net::FaultPlan& plan,
                            const dsn::DsnSpec& spec,
                            const ChaosOptions& options = {}) {
  ChaosResult result;

  net::EventLoop loop;
  net::Network net(&loop);
  if (!net::BuildRingTopology(&net, options.nodes, 10000.0, 1, 1e5).ok()) {
    result.deploy_error = "topology construction failed";
    return result;
  }

  pubsub::Broker broker(&loop.clock());
  sensors::SensorFleet fleet(&loop, &broker);
  sensors::PhysicalConfig sensor;
  sensor.id = "chaos_t0";
  sensor.period = duration::kSecond;
  sensor.temporal_granularity = duration::kSecond;
  sensor.node_id = "node_0";  // never crashed by MakeRandomFaultPlan
  sensor.seed = seed;
  if (!fleet.Add(sensors::MakeTemperatureSensor(sensor)).ok()) {
    result.deploy_error = "sensor construction failed";
    return result;
  }
  if (options.gate_broker) {
    broker.set_node_gate(
        [&net](const std::string& node_id) { return net.NodeIsUp(node_id); });
  }

  monitor::Monitor monitor(&loop, &net);
  monitor.set_window(options.monitor_window);

  sinks::EventDataWarehouse warehouse;
  sinks::SinkContext sink_context;
  sink_context.warehouse = &warehouse;
  exec::ExecutorOptions exec_options;
  exec_options.reliable_delivery = options.reliable;
  exec_options.ack_timeout_ms = options.ack_timeout_ms;
  exec_options.heartbeat_ms = options.heartbeat_ms;
  exec::Executor executor(&loop, &net, &broker, &monitor, sink_context,
                          exec_options);
  executor.set_fleet(&fleet);

  if (options.install_plan && !net.InstallFaultPlan(plan).ok()) {
    result.deploy_error = "fault plan installation failed";
    return result;
  }
  if (!monitor.Start().ok()) {
    result.deploy_error = "monitor start failed";
    return result;
  }

  auto id = executor.Deploy(spec);
  if (!id.ok()) {
    result.deploy_error = id.status().ToString();
    return result;
  }
  result.deployed = true;

  loop.RunFor(options.run_for);

  result.stats = **executor.stats(*id);
  result.net_stats = net.fault_stats();
  result.monitor_faults = monitor.Sample().faults;
  result.broker_suppressed = broker.tuples_suppressed();
  return result;
}

/// \brief Asserts the chaos invariants on one run, printing the seed and
/// the full plan on failure so the run can be replayed.
inline void ExpectChaosInvariants(const ChaosResult& result, uint64_t seed,
                                  const net::FaultPlan& plan) {
  std::string context =
      "failing seed " + std::to_string(seed) + " — replay with " +
      "SL_CHAOS_SEED=" + std::to_string(seed) + "\n" + plan.ToString();
  ASSERT_TRUE(result.deployed) << result.deploy_error << "\n" << context;
  // Conservation: on a linear pass-all flow every ingested tuple is
  // delivered, conclusively lost, or still in flight — never both
  // delivered and lost, never duplicated into the sink.
  EXPECT_GE(result.stats.tuples_ingested,
            result.stats.tuples_delivered + result.stats.messages_lost)
      << "stats: " << result.stats.ToString() << "\n" << context;
  // Recovery accounting is consistent: re-placements imply failures.
  if (result.stats.recoveries > 0) {
    EXPECT_GT(result.stats.node_failures, 0u)
        << "stats: " << result.stats.ToString() << "\n" << context;
  }
  // The monitor's view agrees with the deployment counters.
  EXPECT_EQ(result.monitor_faults.messages_lost, result.stats.messages_lost)
      << context;
  EXPECT_EQ(result.monitor_faults.retransmits, result.stats.retransmits)
      << context;
  EXPECT_EQ(result.monitor_faults.node_failures, result.stats.node_failures)
      << context;
  EXPECT_EQ(result.monitor_faults.recoveries, result.stats.recoveries)
      << context;
}

/// \brief The seed sweep for chaos tests: `n` consecutive seeds from
/// `base` — unless SL_CHAOS_SEED is set, in which case only that seed
/// runs (replay mode).
inline std::vector<uint64_t> ChaosSeeds(size_t n, uint64_t base = 1000) {
  if (const char* env = std::getenv("SL_CHAOS_SEED")) {
    return {std::strtoull(env, nullptr, 0)};
  }
  std::vector<uint64_t> seeds;
  seeds.reserve(n);
  for (size_t i = 0; i < n; ++i) seeds.push_back(base + i);
  return seeds;
}

// --------------------------------------------- event-time test harness --
//
// Order-independence oracle for ops::TimePolicy::kEvent: EventTimeRun
// deploys a blocking dataflow on the chaos ring, drives seeded sensors
// under an (optionally installed) FaultPlan, then drains — deactivating
// the sensors and running slack so every in-flight tuple lands, its
// piggybacked watermark advances the frontiers, and every ripe window
// fires. Because event-time windows close on watermark progress rather
// than delivery time, a *delay-only* plan within the allowed lateness
// must reproduce the zero-fault run's sink rows exactly.

/// Knobs for EventTimeRun.
struct EventTimeOptions {
  size_t nodes = 5;                              ///< ring size
  Duration active_for = 60 * duration::kSecond;  ///< sensors emitting
  Duration drain_for = 20 * duration::kSecond;   ///< post-deactivation slack
  ops::LatePolicy late_policy = ops::LatePolicy::kAdmit;
  Duration allowed_lateness = 5 * duration::kSecond;
  /// When false the FaultPlan is ignored — the zero-fault baseline.
  bool install_plan = true;
  /// Adds the rain sensor "wm_r0" (join dataflows need a second stream).
  bool with_rain = false;
};

/// Everything an event-time run produces.
struct EventTimeResult {
  bool deployed = false;
  std::string deploy_error;
  /// ToString of every tuple in the "out" CollectSink, sorted — the
  /// order-independence comparand. (Sorted because equal-content runs
  /// may interleave flush batches differently; Tuple::ToString carries
  /// values, timestamp, location and sensor but no delivery artifacts.)
  std::vector<std::string> sink_rows;
  /// ToString of every late-side tuple (LatePolicy::kSideOutput), sorted.
  std::vector<std::string> late_rows;
  std::map<std::string, ops::OperatorStats> op_stats;  ///< by operator name
  exec::DeploymentStats stats;
};

/// Temperature sensor → 5 s sliding average over 10 s → collect.
inline dsn::DsnSpec EventAggSpec() {
  auto df = *dataflow::DataflowBuilder("wm_agg")
                 .AddSource("src", "wm_t0")
                 .AddAggregation("agg", "src", 5 * duration::kSecond,
                                 dataflow::AggFunc::kAvg, {"temp"}, {},
                                 10 * duration::kSecond)
                 .AddSink("out", "agg", dataflow::SinkKind::kCollect)
                 .Build();
  return *dsn::TranslateToDsn(df);
}

/// Sliding join of the temperature and rain streams (pass-all predicate
/// so the pairing itself — not the condition — is under test).
inline dsn::DsnSpec EventJoinSpec() {
  auto df = *dataflow::DataflowBuilder("wm_join")
                 .AddSource("left", "wm_t0")
                 .AddSource("right", "wm_r0")
                 .AddJoin("join", "left", "right", 5 * duration::kSecond,
                          "temp > -1000", 10 * duration::kSecond)
                 .AddSink("out", "join", dataflow::SinkKind::kCollect)
                 .Build();
  return *dsn::TranslateToDsn(df);
}

/// Trigger watching the temperature stream. The target is a ghost
/// sensor (never registered), so firing cannot perturb the streams
/// under comparison — activation requests merely log a warning.
inline dsn::DsnSpec EventTriggerSpec() {
  auto df = *dataflow::DataflowBuilder("wm_trig")
                 .AddSource("src", "wm_t0")
                 .AddTriggerOn("trig", "src", 5 * duration::kSecond,
                               "temp > 10", {"wm_ghost"},
                               10 * duration::kSecond)
                 .AddSink("out", "trig", dataflow::SinkKind::kCollect)
                 .Build();
  return *dsn::TranslateToDsn(df);
}

/// \brief Runs `spec` in event-time mode under the faults of `plan`.
/// `seed` seeds the sensors (rain gets seed + 1). Reproducible: equal
/// arguments ⇒ equal EventTimeResult.
inline EventTimeResult EventTimeRun(uint64_t seed, const net::FaultPlan& plan,
                                    const dsn::DsnSpec& spec,
                                    const EventTimeOptions& options = {}) {
  EventTimeResult result;

  net::EventLoop loop;
  net::Network net(&loop);
  if (!net::BuildRingTopology(&net, options.nodes, 10000.0, 1, 1e5).ok()) {
    result.deploy_error = "topology construction failed";
    return result;
  }

  pubsub::Broker broker(&loop.clock());
  sensors::SensorFleet fleet(&loop, &broker);
  sensors::PhysicalConfig temp;
  temp.id = "wm_t0";
  temp.period = duration::kSecond;
  temp.temporal_granularity = duration::kSecond;
  // Away from node_0: least-loaded placement puts the first operator on
  // node_0, and a same-node source→operator hop traverses no links, so
  // injected delays would never touch the stream under test.
  temp.node_id = "node_2";
  temp.seed = seed;
  if (!fleet.Add(sensors::MakeTemperatureSensor(temp)).ok()) {
    result.deploy_error = "sensor construction failed";
    return result;
  }
  if (options.with_rain) {
    sensors::PhysicalConfig rain;
    rain.id = "wm_r0";
    rain.period = duration::kSecond;
    rain.temporal_granularity = duration::kSecond;
    rain.node_id = "node_3";
    rain.seed = seed + 1;
    if (!fleet.Add(sensors::MakeRainSensor(rain)).ok()) {
      result.deploy_error = "rain sensor construction failed";
      return result;
    }
  }

  monitor::Monitor monitor(&loop, &net);

  sinks::EventDataWarehouse warehouse;
  sinks::SinkContext sink_context;
  sink_context.warehouse = &warehouse;
  exec::ExecutorOptions exec_options;
  exec_options.watermark.time_policy = ops::TimePolicy::kEvent;
  exec_options.watermark.late_policy = options.late_policy;
  exec_options.watermark.allowed_lateness = options.allowed_lateness;
  exec::Executor executor(&loop, &net, &broker, &monitor, sink_context,
                          exec_options);
  executor.set_fleet(&fleet);

  if (options.install_plan && !net.InstallFaultPlan(plan).ok()) {
    result.deploy_error = "fault plan installation failed";
    return result;
  }

  auto id = executor.Deploy(spec);
  if (!id.ok()) {
    result.deploy_error = id.status().ToString();
    return result;
  }
  result.deployed = true;

  loop.RunFor(options.active_for);
  // Stop the sources, then run slack: in-flight tuples land, their
  // watermarks advance the frontiers, and every ripe window fires.
  (void)fleet.Deactivate("wm_t0");
  if (options.with_rain) (void)fleet.Deactivate("wm_r0");
  loop.RunFor(options.drain_for);

  result.stats = **executor.stats(*id);
  const dataflow::Dataflow* df = *executor.DeployedDataflow(*id);
  for (const auto& name : df->OperatorNames()) {
    result.op_stats[name] = *executor.OperatorStatsOf(*id, name);
  }
  auto* out = static_cast<sinks::CollectSink*>(*executor.SinkOf(*id, "out"));
  for (const auto& t : out->tuples()) {
    result.sink_rows.push_back(t->ToString());
  }
  std::sort(result.sink_rows.begin(), result.sink_rows.end());
  if (auto late = executor.LateSinkOf(*id); late.ok() && *late != nullptr) {
    for (const auto& t : (*late)->tuples()) {
      result.late_rows.push_back(t->ToString());
    }
    std::sort(result.late_rows.begin(), result.late_rows.end());
  }
  return result;
}

/// Link endpoints of a ring of `n` nodes, for MakeRandomFaultPlan.
inline std::vector<std::pair<std::string, std::string>> RingLinks(size_t n) {
  std::vector<std::pair<std::string, std::string>> links;
  for (size_t i = 0; i < n; ++i) {
    if (n == 2 && i == 1) break;
    links.emplace_back("node_" + std::to_string(i),
                       "node_" + std::to_string((i + 1) % n));
  }
  return links;
}

// ------------------------------------------------ printf reference forms --
// The printf formulas the CSV encoder (AppendTimestamp, Value::AppendTo,
// stt::AppendCoordinate, CsvSink) replaced, kept as the reference its
// output must match byte for byte.

/// "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" over Hinnant's civil-from-days,
/// the year narrowed to int as before.
inline std::string PrintfTimestamp(Timestamp ts) {
  int64_t ms = ts % 1000;
  int64_t secs = ts / 1000;
  if (ms < 0) {
    ms += 1000;
    secs -= 1;
  }
  int64_t days = secs / 86400;
  int64_t sod = secs % 86400;
  if (sod < 0) {
    sod += 86400;
    days -= 1;
  }
  const int64_t z = days + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const int d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  const int m = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  const int y = static_cast<int>(yy + (m <= 2));
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ", y, m,
                d, static_cast<int>(sod / 3600), static_cast<int>(sod / 60 % 60),
                static_cast<int>(sod % 60), static_cast<int>(ms));
  return buf;
}

/// Value::ToString in printf form: "%lld", "%.10g", "(%.6f, %.6f)".
inline std::string PrintfValue(const stt::Value& v) {
  char buf[700];  // two "%.6f" of DBL_MAX are 317 characters each
  switch (v.type()) {
    case stt::ValueType::kNull: return "null";
    case stt::ValueType::kBool: return v.AsBool() ? "true" : "false";
    case stt::ValueType::kInt:
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(v.AsInt()));
      return buf;
    case stt::ValueType::kDouble:
      std::snprintf(buf, sizeof(buf), "%.10g", v.AsDouble());
      return buf;
    case stt::ValueType::kString: return v.AsString();
    case stt::ValueType::kTimestamp: return PrintfTimestamp(v.AsTime());
    case stt::ValueType::kGeoPoint:
      std::snprintf(buf, sizeof(buf), "(%.6f, %.6f)", v.AsGeo().lat,
                    v.AsGeo().lon);
      return buf;
  }
  return "?";
}

/// The string-returning CSV quoting of `,`, `"` and `\n`.
inline std::string PrintfCsvQuote(const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) return text;
  std::string out = "\"";
  for (char c : text) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

/// One CsvSink data row in printf form.
inline std::string PrintfCsvRow(const stt::Tuple& t) {
  std::string line = PrintfTimestamp(t.timestamp());
  if (t.location().has_value()) {
    char buf[700];
    std::snprintf(buf, sizeof(buf), ",%.6f,%.6f", t.location()->lat,
                  t.location()->lon);
    line += buf;
  } else {
    line += ",,";
  }
  line += ",";
  line += PrintfCsvQuote(t.sensor_id());
  for (const auto& v : t.values()) {
    line += ",";
    line += v.is_null() ? "" : PrintfCsvQuote(PrintfValue(v));
  }
  return line;
}

}  // namespace sl::testing

#endif  // STREAMLOADER_TESTS_TEST_UTIL_H_
