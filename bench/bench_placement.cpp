// E7 (§2 "isolation of data traffic" + §3 workload placement, ablation):
// placement-strategy comparison — round-robin vs least-loaded vs
// sensor-locality — on network bytes moved and maximum node load, with
// sensors skewed onto a few nodes.
//
// Expected shape: sensor-locality minimizes bytes moved across links
// (operators co-located with their sources) at the price of higher load
// on the sensor-heavy nodes; least-loaded minimizes the maximum node
// utilization at the price of more network traffic; round-robin is the
// baseline that is best at neither.

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include <algorithm>

#include "core/streamloader.h"
#include "sensors/generators.h"
#include "util/strings.h"

namespace sl {
namespace {

using dataflow::SinkKind;

void RunWithStrategy(benchmark::State& state,
                     exec::PlacementStrategy strategy) {
  uint64_t bytes = 0;
  double max_load = 0;
  uint64_t delivered = 0;
  for (auto _ : state) {
    state.PauseTiming();
    StreamLoaderOptions options;
    options.network_nodes = 8;
    options.executor.placement = strategy;
    options.executor.rebalance_threshold = 0;  // isolate initial placement
    options.monitor_window = duration::kMinute;
    StreamLoader loader(options);
    // Skew: all 24 sensors managed by nodes 0 and 1.
    for (size_t i = 0; i < 24; ++i) {
      sensors::PhysicalConfig config;
      config.id = StrFormat("t_%02zu", i);
      config.period = duration::kSecond;
      config.temporal_granularity = duration::kSecond;
      config.node_id = StrFormat("node_%zu", i % 2);
      config.seed = i + 1;
      if (!loader.AddSensor(sensors::MakeTemperatureSensor(config)).ok()) {
        state.SkipWithError("sensor failed");
        return;
      }
    }
    auto builder = loader.NewDataflow("placement");
    for (size_t i = 0; i < 24; ++i) {
      std::string src = StrFormat("s_%02zu", i);
      std::string f = StrFormat("f_%02zu", i);
      std::string v = StrFormat("v_%02zu", i);
      builder.AddSource(src, StrFormat("t_%02zu", i))
          .AddFilter(f, src, "temp > -100")
          .AddVirtualProperty(v, f, "h", "hour_of($ts)")
          .AddSink(StrFormat("o_%02zu", i), v, SinkKind::kCollect);
    }
    auto id = loader.Deploy(*builder.Build());
    if (!id.ok()) {
      state.SkipWithError("deploy failed");
      return;
    }
    state.ResumeTiming();

    loader.RunFor(duration::kMinute);

    state.PauseTiming();
    bytes += loader.network().total_bytes_sent();
    delivered += (*loader.executor().stats(*id))->tuples_delivered;
    // Max node utilization over the last monitoring window.
    monitor::MonitorReport report = loader.monitor().Sample();
    const monitor::NodeSample* busiest = report.BusiestNode();
    if (busiest != nullptr) max_load = std::max(max_load, busiest->utilization);
    state.ResumeTiming();
  }
  double runs = static_cast<double>(state.iterations());
  state.counters["net_bytes"] =
      benchmark::Counter(static_cast<double>(bytes) / runs);
  state.counters["max_node_util_pct"] = benchmark::Counter(max_load * 100.0);
  state.counters["delivered"] =
      benchmark::Counter(static_cast<double>(delivered) / runs);
}

void BM_PlacementRoundRobin(benchmark::State& state) {
  RunWithStrategy(state, exec::PlacementStrategy::kRoundRobin);
}
void BM_PlacementLeastLoaded(benchmark::State& state) {
  RunWithStrategy(state, exec::PlacementStrategy::kLeastLoaded);
}
void BM_PlacementSensorLocality(benchmark::State& state) {
  RunWithStrategy(state, exec::PlacementStrategy::kSensorLocality);
}
BENCHMARK(BM_PlacementRoundRobin)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PlacementLeastLoaded)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PlacementSensorLocality)->Unit(benchmark::kMillisecond);

/// Ablation: workload-driven re-assignment on/off under a deliberately
/// overloaded node (auto-rebalance should cut the maximum utilization).
void BM_AutoRebalance(benchmark::State& state) {
  bool rebalance = state.range(0) != 0;
  double max_load = 0;
  uint64_t migrations = 0;
  for (auto _ : state) {
    state.PauseTiming();
    StreamLoaderOptions options;
    options.network_nodes = 4;
    options.executor.placement = exec::PlacementStrategy::kSensorLocality;
    options.executor.rebalance_threshold = rebalance ? 0.000001 : 0.0;
    options.monitor_window = 10 * duration::kSecond;
    // Tiny node capacity so the skewed load overwhelms one node.
    options.node_capacity_per_sec = 50.0;
    StreamLoader loader(options);
    for (size_t i = 0; i < 8; ++i) {
      sensors::PhysicalConfig config;
      config.id = StrFormat("t_%02zu", i);
      config.period = 250;  // 4 Hz
      config.temporal_granularity = 250;
      config.node_id = "node_0";  // all sensors on one node
      config.seed = i + 1;
      if (!loader.AddSensor(sensors::MakeTemperatureSensor(config)).ok()) {
        state.SkipWithError("sensor failed");
        return;
      }
    }
    auto builder = loader.NewDataflow("hotspot");
    for (size_t i = 0; i < 8; ++i) {
      std::string src = StrFormat("s_%02zu", i);
      std::string f = StrFormat("f_%02zu", i);
      builder.AddSource(src, StrFormat("t_%02zu", i))
          .AddFilter(f, src, "temp > -100")
          .AddSink(StrFormat("o_%02zu", i), f, SinkKind::kCollect);
    }
    auto id = loader.Deploy(*builder.Build());
    if (!id.ok()) {
      state.SkipWithError("deploy failed");
      return;
    }
    state.ResumeTiming();
    loader.RunFor(duration::kMinute);
    state.PauseTiming();
    monitor::MonitorReport report = loader.monitor().Sample();
    const monitor::NodeSample* busiest = report.BusiestNode();
    if (busiest != nullptr) max_load = std::max(max_load, busiest->utilization);
    migrations += (*loader.executor().stats(*id))->migrations;
    state.ResumeTiming();
  }
  state.counters["rebalance"] = benchmark::Counter(rebalance ? 1 : 0);
  state.counters["max_node_util_pct"] = benchmark::Counter(max_load * 100.0);
  state.counters["migrations"] = benchmark::Counter(
      static_cast<double>(migrations) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_AutoRebalance)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sl

SL_BENCH_MAIN("placement");
