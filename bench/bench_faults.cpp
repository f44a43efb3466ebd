// E8: fault injection — what reliable delivery costs under lossy links,
// and how long crash recovery takes (detection + re-placement until the
// first post-crash delivery).
//
// Expected shape: retransmit overhead grows superlinearly with the drop
// rate (each retry re-rolls every link); recovery latency is dominated
// by the heartbeat confirmation window (heartbeat_ms times the two missed
// beats that confirm a crash) rather than the re-placement itself, which
// is microseconds.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench_util.h"

#include "dsn/translate.h"
#include "exec/executor.h"
#include "monitor/monitor.h"
#include "net/fault.h"
#include "net/network.h"
#include "sensors/generators.h"
#include "sinks/streams.h"

namespace sl {
namespace {

using dataflow::SinkKind;

dsn::DsnSpec LinearSpec() {
  auto df = *dataflow::DataflowBuilder("fault_flow")
                 .AddSource("src", "t0")
                 .AddFilter("keep", "src", "temp > -1000")
                 .AddSink("out", "keep", SinkKind::kCollect)
                 .Build();
  return *dsn::TranslateToDsn(df);
}

/// Everything one simulated run needs, wired on a fresh event loop.
struct Rig {
  net::EventLoop loop;
  net::Network net{&loop};
  pubsub::Broker broker{&loop.clock()};
  sensors::SensorFleet fleet{&loop, &broker};
  monitor::Monitor monitor{&loop, &net};
  sinks::EventDataWarehouse warehouse;
  std::unique_ptr<exec::Executor> executor;

  explicit Rig(const exec::ExecutorOptions& options, uint64_t seed,
               Duration sensor_period = duration::kSecond) {
    (void)net::BuildRingTopology(&net, 5, 10000.0, 1, 1e5);
    sensors::PhysicalConfig sensor;
    sensor.id = "t0";
    sensor.period = sensor_period;
    sensor.temporal_granularity = sensor_period;
    sensor.node_id = "node_0";
    sensor.seed = seed;
    (void)fleet.Add(sensors::MakeTemperatureSensor(sensor));
    broker.set_node_gate(
        [this](const std::string& id) { return net.NodeIsUp(id); });
    sinks::SinkContext ctx;
    ctx.warehouse = &warehouse;
    executor = std::make_unique<exec::Executor>(&loop, &net, &broker,
                                                &monitor, ctx, options);
    executor->set_fleet(&fleet);
  }
};

/// Retransmit overhead: simulate a stream-minute of the linear flow with
/// reliable delivery over links dropping `drop_permille`/1000 of the
/// messages. Counters expose goodput and the retransmission tax.
void BM_RetransmitOverheadVsDropRate(benchmark::State& state) {
  double drop = static_cast<double>(state.range(0)) / 1000.0;
  uint64_t delivered = 0, retransmits = 0, lost = 0, sent = 0;
  uint64_t seed = 1;
  for (auto _ : state) {
    state.PauseTiming();
    exec::ExecutorOptions options;
    options.reliable_delivery = true;
    options.ack_timeout_ms = 100;
    Rig rig(options, seed++);
    net::FaultPlan plan(seed);
    net::FaultProfile profile;
    profile.drop_probability = drop;
    plan.set_default_profile(profile);
    (void)rig.net.InstallFaultPlan(plan);
    auto id = rig.executor->Deploy(LinearSpec());
    if (!id.ok()) {
      state.SkipWithError("deploy failed");
      return;
    }
    state.ResumeTiming();
    rig.loop.RunFor(duration::kMinute);
    state.PauseTiming();
    const exec::DeploymentStats& stats = **rig.executor->stats(*id);
    delivered += stats.tuples_delivered;
    retransmits += stats.retransmits;
    lost += stats.messages_lost;
    sent += rig.net.total_messages();
    state.ResumeTiming();
  }
  double iters = static_cast<double>(state.iterations());
  state.counters["drop_permille"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
  state.counters["delivered_per_min"] =
      benchmark::Counter(static_cast<double>(delivered) / iters);
  state.counters["retransmits_per_min"] =
      benchmark::Counter(static_cast<double>(retransmits) / iters);
  state.counters["lost_per_min"] =
      benchmark::Counter(static_cast<double>(lost) / iters);
  state.counters["net_messages_per_min"] =
      benchmark::Counter(static_cast<double>(sent) / iters);
}
BENCHMARK(BM_RetransmitOverheadVsDropRate)
    ->Arg(0)
    ->Arg(10)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond);

/// Recovery latency: crash the node hosting the filter, then measure the
/// *virtual* time from the crash until the sink sees its next tuple —
/// heartbeat detection plus re-placement plus the first re-routed hop.
void BM_CrashRecoveryLatency(benchmark::State& state) {
  Duration heartbeat = static_cast<Duration>(state.range(0));
  Duration recovery_virtual_ms = 0;
  uint64_t failures = 0;
  uint64_t seed = 1;
  for (auto _ : state) {
    state.PauseTiming();
    exec::ExecutorOptions options;
    options.reliable_delivery = true;
    options.ack_timeout_ms = 100;
    options.heartbeat_ms = heartbeat;
    // A fast sensor (100 ms period) so delivery timestamps resolve the
    // recovery instant finely.
    Rig rig(options, seed++, /*sensor_period=*/100);
    auto id = rig.executor->Deploy(LinearSpec());
    if (!id.ok() ||
        !rig.executor->MigrateOperator(*id, "keep", "node_2").ok()) {
      state.SkipWithError("setup failed");
      return;
    }
    rig.loop.RunFor(5 * duration::kSecond);
    state.ResumeTiming();

    Timestamp crash_at = rig.loop.Now();
    (void)rig.net.SetNodeUp("node_2", false);
    uint64_t delivered_at_crash = (**rig.executor->stats(*id)).tuples_delivered;
    // Advance until delivery resumes (bounded to 30 virtual seconds).
    Timestamp resumed_at = crash_at;
    while (rig.loop.Now() < crash_at + 30 * duration::kSecond) {
      rig.loop.RunFor(50);
      if ((**rig.executor->stats(*id)).tuples_delivered >
          delivered_at_crash) {
        resumed_at = rig.loop.Now();
        break;
      }
    }
    state.PauseTiming();
    recovery_virtual_ms += resumed_at - crash_at;
    failures += (**rig.executor->stats(*id)).node_failures;
    state.ResumeTiming();
  }
  double iters = static_cast<double>(state.iterations());
  state.counters["heartbeat_ms"] =
      benchmark::Counter(static_cast<double>(heartbeat));
  state.counters["recovery_virtual_ms"] =
      benchmark::Counter(static_cast<double>(recovery_virtual_ms) / iters);
  state.counters["node_failures"] =
      benchmark::Counter(static_cast<double>(failures) / iters);
}
BENCHMARK(BM_CrashRecoveryLatency)
    ->Arg(100)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

/// The cost of the fault machinery itself: one simulated stream-minute
/// with no faults, fast path vs reliable path vs zero-fault plan.
void BM_FaultMachineryBaseline(benchmark::State& state) {
  bool reliable = state.range(0) != 0;
  bool install_plan = state.range(1) != 0;
  uint64_t delivered = 0;
  uint64_t seed = 1;
  for (auto _ : state) {
    state.PauseTiming();
    exec::ExecutorOptions options;
    options.reliable_delivery = reliable;
    Rig rig(options, seed++, /*sensor_period=*/100);
    if (install_plan) (void)rig.net.InstallFaultPlan(net::FaultPlan(seed));
    auto id = rig.executor->Deploy(LinearSpec());
    if (!id.ok()) {
      state.SkipWithError("deploy failed");
      return;
    }
    state.ResumeTiming();
    rig.loop.RunFor(duration::kMinute);
    state.PauseTiming();
    delivered += (**rig.executor->stats(*id)).tuples_delivered;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(delivered));
  state.counters["reliable"] = benchmark::Counter(reliable ? 1 : 0);
  state.counters["plan_installed"] =
      benchmark::Counter(install_plan ? 1 : 0);
}
BENCHMARK(BM_FaultMachineryBaseline)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sl

SL_BENCH_MAIN("faults");
