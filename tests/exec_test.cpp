// Unit + integration tests for placement and the executor/SCN controller
// (src/exec).

#include <gtest/gtest.h>

#include "dsn/translate.h"
#include "exec/executor.h"
#include "exec/placement.h"
#include "sensors/generators.h"
#include "sinks/streams.h"
#include "tests/test_util.h"

namespace sl::exec {
namespace {

using dataflow::AggFunc;
using dataflow::DataflowBuilder;
using dataflow::SinkKind;

// -------------------------------------------------------------- placement --

class PlacementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* id : {"n0", "n1", "n2"}) {
      SL_ASSERT_OK(net_.AddNode({id, 1000.0, {}}));
    }
  }
  net::EventLoop loop_;
  net::Network net_{&loop_};
};

TEST_F(PlacementTest, RoundRobinCycles) {
  Placer placer(&net_, PlacementStrategy::kRoundRobin);
  EXPECT_EQ(*placer.Place({}), "n0");
  EXPECT_EQ(*placer.Place({}), "n1");
  EXPECT_EQ(*placer.Place({}), "n2");
  EXPECT_EQ(*placer.Place({}), "n0");
}

TEST_F(PlacementTest, RoundRobinHonorsExclude) {
  Placer placer(&net_, PlacementStrategy::kRoundRobin);
  EXPECT_EQ(*placer.Place({}, "n0"), "n1");
  EXPECT_EQ(*placer.Place({}, "n2"), "n0");
}

TEST_F(PlacementTest, LeastLoadedPicksIdleNode) {
  Placer placer(&net_, PlacementStrategy::kLeastLoaded);
  SL_ASSERT_OK(net_.ReportWork("n0", 500));
  SL_ASSERT_OK(net_.ReportWork("n1", 100));
  SL_ASSERT_OK(net_.ReportWork("n2", 900));
  EXPECT_EQ(*placer.Place({}), "n1");
  // Ties break on process count.
  net_.ResetWindows();
  SL_ASSERT_OK(net_.AdjustProcessCount("n0", 2));
  SL_ASSERT_OK(net_.AdjustProcessCount("n1", 1));
  EXPECT_EQ(*placer.Place({}), "n2");  // n1 vs n2: equal load, n2 has 0 procs
}

TEST_F(PlacementTest, LocalityFollowsMajorityUpstream) {
  Placer placer(&net_, PlacementStrategy::kSensorLocality);
  EXPECT_EQ(*placer.Place({"n2", "n1", "n2"}), "n2");
  // Unknown/empty upstream entries are ignored.
  EXPECT_EQ(*placer.Place({"", "ghost", "n1"}), "n1");
  // No usable upstream: falls back to least loaded.
  SL_ASSERT_OK(net_.ReportWork("n0", 100));
  EXPECT_EQ(*placer.Place({}), "n1");
  // Excluded majority is not chosen.
  EXPECT_EQ(*placer.Place({"n2", "n2", "n1"}, "n2"), "n1");
}

TEST_F(PlacementTest, StrategyNames) {
  for (auto s : {PlacementStrategy::kRoundRobin,
                 PlacementStrategy::kLeastLoaded,
                 PlacementStrategy::kSensorLocality}) {
    auto back = PlacementStrategyFromString(PlacementStrategyToString(s));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, s);
  }
  EXPECT_FALSE(PlacementStrategyFromString("random").ok());
}

TEST(PlacementEmptyNetworkTest, FailsGracefully) {
  net::EventLoop loop;
  net::Network net(&loop);
  Placer placer(&net, PlacementStrategy::kLeastLoaded);
  EXPECT_TRUE(placer.Place({}).status().IsFailedPrecondition());
}

// --------------------------------------------------------------- executor --

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SL_ASSERT_OK(net::BuildRingTopology(&net_, 4, 10000.0, 1, 1e5));
    sensors::PhysicalConfig config;
    config.id = "t1";
    config.period = duration::kSecond;
    config.temporal_granularity = duration::kSecond;
    config.node_id = "node_0";
    SL_ASSERT_OK(fleet_.Add(sensors::MakeTemperatureSensor(config)));
    monitor_.set_window(10 * duration::kSecond);
  }

  /// Builds the standard test executor (least-loaded placement).
  std::unique_ptr<Executor> MakeExecutor(ExecutorOptions options = {}) {
    sinks::SinkContext ctx;
    ctx.warehouse = &warehouse_;
    auto exec = std::make_unique<Executor>(&loop_, &net_, &broker_, &monitor_,
                                           ctx, options);
    exec->set_fleet(&fleet_);
    return exec;
  }

  dsn::DsnSpec SimpleSpec(const std::string& condition = "temp > -100") {
    auto df = *DataflowBuilder("flow")
                   .AddSource("src", "t1")
                   .AddFilter("keep", "src", condition)
                   .AddSink("out", "keep", SinkKind::kCollect)
                   .Build();
    return *dsn::TranslateToDsn(df);
  }

  net::EventLoop loop_;
  net::Network net_{&loop_};
  pubsub::Broker broker_{&loop_.clock()};
  sensors::SensorFleet fleet_{&loop_, &broker_};
  monitor::Monitor monitor_{&loop_, &net_};
  sinks::EventDataWarehouse warehouse_;
};

TEST_F(ExecutorTest, DeployRunsEndToEnd) {
  auto exec = MakeExecutor();
  auto id = exec->Deploy(SimpleSpec());
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(exec->ActiveDeployments(), (std::vector<DeploymentId>{*id}));
  loop_.RunFor(30 * duration::kSecond + 100);
  auto stats = *exec->stats(*id);
  EXPECT_EQ(stats->tuples_ingested, 30u);
  EXPECT_EQ(stats->tuples_delivered, 30u);
  EXPECT_EQ(stats->process_errors, 0u);
  // The collect sink holds what arrived.
  auto* sink = dynamic_cast<sinks::CollectSink*>(*exec->SinkOf(*id, "out"));
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->tuples().size(), 30u);
  // Deployment metadata is introspectable.
  EXPECT_TRUE(exec->AssignedNode(*id, "keep").ok());
  EXPECT_TRUE(exec->DeployedDataflow(*id).ok());
  EXPECT_TRUE(exec->OperatorStatsOf(*id, "keep").ok());
}

TEST_F(ExecutorTest, DeployRefusesUnsoundSpec) {
  auto exec = MakeExecutor();
  auto df = *DataflowBuilder("bad")
                 .AddSource("src", "ghost_sensor")
                 .AddSink("out", "src", SinkKind::kCollect)
                 .Build();
  auto id = exec->Deploy(*dsn::TranslateToDsn(df));
  EXPECT_TRUE(id.status().IsValidationError());
}

TEST_F(ExecutorTest, UndeployStopsFlow) {
  auto exec = MakeExecutor();
  auto id = *exec->Deploy(SimpleSpec());
  loop_.RunFor(5 * duration::kSecond);
  SL_EXPECT_OK(exec->Undeploy(id));
  EXPECT_TRUE(exec->Undeploy(id).IsFailedPrecondition());
  uint64_t ingested = (*exec->stats(id))->tuples_ingested;
  loop_.RunFor(10 * duration::kSecond);
  EXPECT_EQ((*exec->stats(id))->tuples_ingested, ingested);
  EXPECT_TRUE(exec->ActiveDeployments().empty());
  // Node process counts were released.
  for (const auto& node : net_.NodeIds()) {
    EXPECT_EQ((*net_.node(node))->process_count, 0) << node;
  }
}

TEST_F(ExecutorTest, NetworkMovesBytesBetweenNodes) {
  auto exec = MakeExecutor();
  auto id = *exec->Deploy(SimpleSpec());
  (void)id;
  loop_.RunFor(10 * duration::kSecond);
  // Source on node_0, operator and sink placed elsewhere (least loaded
  // spreads): some transfer must have crossed links.
  EXPECT_GT(net_.total_messages(), 0u);
  EXPECT_GT(net_.total_bytes_sent(), 0u);
}

TEST_F(ExecutorTest, BlockingOperatorFlushesOnSchedule) {
  auto exec = MakeExecutor();
  auto df = *DataflowBuilder("agg_flow")
                 .AddSource("src", "t1")
                 .AddAggregation("avg", "src", duration::kMinute,
                                 AggFunc::kAvg, {"temp"})
                 .AddSink("out", "avg", SinkKind::kCollect)
                 .Build();
  auto id = *exec->Deploy(*dsn::TranslateToDsn(df));
  loop_.RunFor(5 * duration::kMinute + duration::kSecond);
  auto stats = *exec->OperatorStatsOf(id, "avg");
  EXPECT_EQ(stats.flushes, 5u);
  auto* sink = dynamic_cast<sinks::CollectSink*>(*exec->SinkOf(id, "out"));
  ASSERT_EQ(sink->tuples().size(), 5u);
  // Each aggregate covers a minute of 1-second readings.
  EXPECT_EQ((*exec->stats(id))->tuples_ingested, 301u);
}

TEST_F(ExecutorTest, TriggerActivatesFleetSensor) {
  // A dormant rain sensor activated when the temperature stream shows
  // any tuple (condition always true).
  sensors::PhysicalConfig rain_config;
  rain_config.id = "r1";
  rain_config.period = duration::kSecond;
  rain_config.temporal_granularity = duration::kSecond;
  rain_config.node_id = "node_1";
  SL_ASSERT_OK(fleet_.Add(sensors::MakeRainSensor(rain_config),
                          /*start_active=*/false));

  auto exec = MakeExecutor();
  auto df = *DataflowBuilder("trig_flow")
                 .AddSource("src", "t1")
                 .AddTriggerOn("trig", "src", duration::kMinute, "temp > -100",
                               {"r1"})
                 .AddSink("out", "trig", SinkKind::kCollect)
                 .Build();
  auto id = *exec->Deploy(*dsn::TranslateToDsn(df));
  EXPECT_FALSE((*fleet_.Find("r1"))->running());
  loop_.RunFor(duration::kMinute + duration::kSecond);
  EXPECT_TRUE((*fleet_.Find("r1"))->running());
  EXPECT_GE((*exec->stats(id))->activations, 1u);
  auto stats = *exec->OperatorStatsOf(id, "trig");
  EXPECT_GE(stats.trigger_fires, 1u);
}

TEST_F(ExecutorTest, ManualMigrationReroutesWork) {
  auto exec = MakeExecutor();
  auto id = *exec->Deploy(SimpleSpec());
  loop_.RunFor(5 * duration::kSecond);
  std::string before = *exec->AssignedNode(id, "keep");
  std::string target = before == "node_3" ? "node_2" : "node_3";
  SL_EXPECT_OK(exec->MigrateOperator(id, "keep", target));
  EXPECT_EQ(*exec->AssignedNode(id, "keep"), target);
  EXPECT_EQ((*exec->stats(id))->migrations, 1u);
  // Migrating to the same node is a no-op.
  SL_EXPECT_OK(exec->MigrateOperator(id, "keep", target));
  EXPECT_EQ((*exec->stats(id))->migrations, 1u);
  EXPECT_TRUE(exec->MigrateOperator(id, "keep", "ghost").IsNotFound());
  EXPECT_TRUE(exec->MigrateOperator(id, "ghost", target).IsNotFound());
  // The stream keeps flowing after migration.
  uint64_t before_count = (*exec->stats(id))->tuples_delivered;
  loop_.RunFor(5 * duration::kSecond);
  EXPECT_GT((*exec->stats(id))->tuples_delivered, before_count);
  // Assignment change was logged.
  EXPECT_FALSE(monitor_.assignment_changes().empty());
}

TEST_F(ExecutorTest, AutoRebalanceMovesHotOperator) {
  ExecutorOptions options;
  options.rebalance_threshold = 1e-9;  // hair trigger
  auto exec = MakeExecutor(options);
  SL_ASSERT_OK(monitor_.Start());
  auto id = *exec->Deploy(SimpleSpec());
  std::string before = *exec->AssignedNode(id, "keep");
  loop_.RunFor(15 * duration::kSecond);  // one monitor tick
  EXPECT_GE((*exec->stats(id))->migrations, 1u);
  EXPECT_NE(*exec->AssignedNode(id, "keep"), before);
}

TEST_F(ExecutorTest, ReplaceOperatorKeepsSchemaContract) {
  auto exec = MakeExecutor();
  auto id = *exec->Deploy(SimpleSpec("temp > 1000"));  // passes nothing
  loop_.RunFor(5 * duration::kSecond);
  EXPECT_EQ((*exec->stats(id))->tuples_delivered, 0u);
  // Loosen the filter on the fly.
  SL_EXPECT_OK(exec->ReplaceOperator(id, "keep",
                                     dataflow::FilterSpec{"temp > -100"}));
  loop_.RunFor(5 * duration::kSecond + 100);
  EXPECT_EQ((*exec->stats(id))->tuples_delivered, 5u);
  // A replacement that changes the output schema is refused.
  EXPECT_TRUE(exec->ReplaceOperator(
                      id, "keep",
                      dataflow::VirtualPropertySpec{"x", "temp + 1", ""})
                  .IsValidationError());
  EXPECT_TRUE(exec->ReplaceOperator(id, "ghost",
                                    dataflow::FilterSpec{"true"})
                  .IsNotFound());
  EXPECT_TRUE(exec->ReplaceOperator(999, "keep",
                                    dataflow::FilterSpec{"true"})
                  .IsNotFound());
}

TEST_F(ExecutorTest, FlushStaggerDeliversCascadesInSameInterval) {
  // Two chained per-minute aggregations. With staggered flushes the
  // downstream stage consumes the upstream's output in the SAME minute;
  // with stagger disabled both flush exactly on the boundary and the
  // downstream misses it, adding a full interval of staleness.
  auto run = [this](Duration stagger) -> size_t {
    ExecutorOptions options;
    options.flush_stagger_ms = stagger;
    auto exec = MakeExecutor(options);
    auto df = *DataflowBuilder("cascade")
                   .AddSource("src", "t1")
                   .AddAggregation("a1", "src", duration::kMinute,
                                   AggFunc::kCount, {})
                   .AddAggregation("a2", "a1", duration::kMinute,
                                   AggFunc::kCount, {})
                   .AddSink("out", "a2", SinkKind::kCollect)
                   .Build();
    auto id = *exec->Deploy(*dsn::TranslateToDsn(df));
    // Run to just past the second stage's first two flushes.
    loop_.RunFor(2 * duration::kMinute + duration::kSecond);
    auto* sink = dynamic_cast<sinks::CollectSink*>(*exec->SinkOf(id, "out"));
    size_t produced = sink->tuples().size();
    Status s = exec->Undeploy(id);
    (void)s;
    return produced;
  };
  // Staggered: a2's flush at ~1m+50ms sees a1's 1m output -> first
  // result within the first interval; two results by 2m.
  EXPECT_EQ(run(50), 2u);
  // Unstaggered: a2 flushes at exactly 1m before a1's output arrives ->
  // one interval of extra staleness.
  EXPECT_EQ(run(0), 1u);
}

TEST_F(ExecutorTest, ReplacedAggregationKeepsFlushStagger) {
  // The same cascade, with a2 replaced by an identical aggregation 1 ms
  // before a1's first flush. The replacement's timer is re-armed one
  // interval plus the stagger later, so at ~2m it trails a1's second
  // flush and counts both of a1's results in that interval. Without the
  // stagger it flushes just ahead of a1 and counts only the first.
  auto run = [this](Duration stagger) -> std::vector<int64_t> {
    ExecutorOptions options;
    options.flush_stagger_ms = stagger;
    auto exec = MakeExecutor(options);
    auto df = *DataflowBuilder("cascade")
                   .AddSource("src", "t1")
                   .AddAggregation("a1", "src", duration::kMinute,
                                   AggFunc::kCount, {})
                   .AddAggregation("a2", "a1", duration::kMinute,
                                   AggFunc::kCount, {})
                   .AddSink("out", "a2", SinkKind::kCollect)
                   .Build();
    auto id = *exec->Deploy(*dsn::TranslateToDsn(df));
    loop_.RunFor(duration::kMinute - 1);
    dataflow::AggregationSpec count;
    count.func = AggFunc::kCount;
    SL_EXPECT_OK(exec->ReplaceOperator(id, "a2", count));
    loop_.RunFor(duration::kMinute + duration::kSecond);
    auto* sink = dynamic_cast<sinks::CollectSink*>(*exec->SinkOf(id, "out"));
    std::vector<int64_t> counts;
    for (const auto& t : sink->tuples()) counts.push_back(t->value(0).AsInt());
    Status s = exec->Undeploy(id);
    (void)s;
    return counts;
  };
  EXPECT_EQ(run(50), std::vector<int64_t>{2});
  EXPECT_EQ(run(0), std::vector<int64_t>{1});
}

TEST_F(ExecutorTest, QosViolationsCounted) {
  // Rebuild the network with brutal latency so every flow misses its
  // 500 ms bound.
  net::EventLoop slow_loop;
  net::Network slow_net(&slow_loop);
  SL_ASSERT_OK(net::BuildRingTopology(&slow_net, 4, 10000.0,
                                      /*latency=*/2000, 1e5));
  pubsub::Broker slow_broker(&slow_loop.clock());
  sensors::SensorFleet slow_fleet(&slow_loop, &slow_broker);
  sensors::PhysicalConfig config;
  config.id = "t1";
  config.period = duration::kSecond;
  config.temporal_granularity = duration::kSecond;
  config.node_id = "node_0";
  SL_ASSERT_OK(slow_fleet.Add(sensors::MakeTemperatureSensor(config)));
  monitor::Monitor slow_monitor(&slow_loop, &slow_net);
  sinks::SinkContext ctx;
  Executor exec(&slow_loop, &slow_net, &slow_broker, &slow_monitor, ctx, {});
  auto df = *DataflowBuilder("flow")
                 .AddSource("src", "t1")
                 .AddFilter("keep", "src", "true")
                 .AddSink("out", "keep", SinkKind::kCollect)
                 .Build();
  auto id = *exec.Deploy(*dsn::TranslateToDsn(df));
  slow_loop.RunFor(10 * duration::kSecond);
  auto stats = *exec.stats(id);
  if ((*exec.AssignedNode(id, "keep")) != "node_0") {
    EXPECT_GT(stats->qos_violations, 0u);
  }
  // The data still arrives (QoS is accounting, not dropping).
  EXPECT_GT(stats->tuples_delivered, 0u);
}

TEST_F(ExecutorTest, MonitorSamplerReportsRates) {
  auto exec = MakeExecutor();
  SL_ASSERT_OK(monitor_.Start());
  auto id = *exec->Deploy(SimpleSpec());
  (void)id;
  loop_.RunFor(10 * duration::kSecond);
  ASSERT_NE(monitor_.latest(), nullptr);
  ASSERT_EQ(monitor_.latest()->operators.size(), 1u);
  const auto& op = monitor_.latest()->operators[0];
  EXPECT_EQ(op.op_name, "keep");
  EXPECT_NEAR(op.in_per_sec, 1.0, 0.2);
  EXPECT_NEAR(op.out_per_sec, 1.0, 0.2);
}

TEST_F(ExecutorTest, TwoDeploymentsCoexist) {
  auto exec = MakeExecutor();
  auto id1 = *exec->Deploy(SimpleSpec());
  auto df2 = *DataflowBuilder("second")
                  .AddSource("src", "t1")
                  .AddFilter("cold", "src", "temp < 1000")
                  .AddSink("out", "cold", SinkKind::kCollect)
                  .Build();
  auto id2 = *exec->Deploy(*dsn::TranslateToDsn(df2));
  loop_.RunFor(10 * duration::kSecond + 100);
  EXPECT_EQ((*exec->stats(id1))->tuples_delivered, 10u);
  EXPECT_EQ((*exec->stats(id2))->tuples_delivered, 10u);
  SL_EXPECT_OK(exec->Undeploy(id1));
  loop_.RunFor(5 * duration::kSecond + 100);
  EXPECT_EQ((*exec->stats(id1))->tuples_delivered, 10u);
  EXPECT_EQ((*exec->stats(id2))->tuples_delivered, 15u);
}

}  // namespace
}  // namespace sl::exec
