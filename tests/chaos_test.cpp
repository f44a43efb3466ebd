// Seed-replayable chaos tests: deterministic fault injection over the
// reference dataflow (tests/test_util.h harness).
//
// Every failure prints its seed; replay one seed with
//   SL_CHAOS_SEED=<seed> ./chaos_test

#include <gtest/gtest.h>

#include "dsn/translate.h"
#include "exec/executor.h"
#include "net/fault.h"
#include "sensors/generators.h"
#include "sinks/streams.h"
#include "tests/test_util.h"

namespace sl::testing {
namespace {

std::vector<std::string> RingNodeIds(size_t n) {
  std::vector<std::string> ids;
  for (size_t i = 0; i < n; ++i) ids.push_back("node_" + std::to_string(i));
  return ids;
}

net::FaultPlan RandomPlan(uint64_t seed) {
  return net::MakeRandomFaultPlan(seed, RingNodeIds(5), RingLinks(5));
}

// ---------------------------------------------------------- determinism --

TEST(ChaosDeterminismTest, SameSeedProducesIdenticalStats) {
  for (uint64_t seed : ChaosSeeds(3, 42)) {
    net::FaultPlan plan = RandomPlan(seed);
    ChaosResult first = ChaosRun(seed, plan, ChaosReferenceSpec());
    ChaosResult second = ChaosRun(seed, plan, ChaosReferenceSpec());
    ASSERT_TRUE(first.deployed) << first.deploy_error;
    ASSERT_TRUE(second.deployed) << second.deploy_error;
    EXPECT_EQ(first.stats, second.stats)
        << "seed " << seed << "\nfirst:  " << first.stats.ToString()
        << "\nsecond: " << second.stats.ToString();
    EXPECT_EQ(first.net_stats, second.net_stats) << "seed " << seed;
    EXPECT_EQ(first.broker_suppressed, second.broker_suppressed)
        << "seed " << seed;
  }
}

TEST(ChaosDeterminismTest, ZeroFaultPlanMatchesUnwrappedBaseline) {
  // Property: installing a do-nothing FaultPlan must not perturb the run
  // at all — stats byte-identical to a run with no plan installed.
  net::FaultPlan zero_plan(/*seed=*/7);
  ASSERT_TRUE(zero_plan.IsZero());
  for (bool reliable : {false, true}) {
    ChaosOptions baseline_options;
    baseline_options.reliable = reliable;
    baseline_options.install_plan = false;
    ChaosOptions wrapped_options = baseline_options;
    wrapped_options.install_plan = true;

    ChaosResult baseline =
        ChaosRun(7, zero_plan, ChaosReferenceSpec(), baseline_options);
    ChaosResult wrapped =
        ChaosRun(7, zero_plan, ChaosReferenceSpec(), wrapped_options);
    ASSERT_TRUE(baseline.deployed) << baseline.deploy_error;
    ASSERT_TRUE(wrapped.deployed) << wrapped.deploy_error;
    EXPECT_EQ(baseline.stats, wrapped.stats)
        << "reliable=" << reliable
        << "\nbaseline: " << baseline.stats.ToString()
        << "\nwrapped:  " << wrapped.stats.ToString();
    EXPECT_EQ(wrapped.stats.retransmits, 0u);
    EXPECT_EQ(wrapped.stats.messages_lost, 0u);
    EXPECT_EQ(wrapped.stats.node_failures, 0u);
  }
}

TEST(ChaosDeterminismTest, ZeroFaultRunLosesNothing) {
  net::FaultPlan zero_plan(/*seed=*/9);
  ChaosResult result = ChaosRun(9, zero_plan, ChaosReferenceSpec());
  ASSERT_TRUE(result.deployed) << result.deploy_error;
  EXPECT_GT(result.stats.tuples_ingested, 0u);
  EXPECT_EQ(result.stats.messages_lost, 0u);
  EXPECT_EQ(result.net_stats.messages_dropped, 0u);
  // Everything not still in flight at the cutoff reached the sink.
  EXPECT_GE(result.stats.tuples_delivered + 2, result.stats.tuples_ingested);
}

// ----------------------------------------------------------- seed sweep --

TEST(ChaosSweepTest, InvariantsHoldAcross200Seeds) {
  for (uint64_t seed : ChaosSeeds(200)) {
    net::FaultPlan plan = RandomPlan(seed);
    ChaosResult result = ChaosRun(seed, plan, ChaosReferenceSpec());
    ExpectChaosInvariants(result, seed, plan);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ChaosSweepTest, UnreliableSweepAlsoConserves) {
  // Without retransmission every injected drop is a conclusive loss; the
  // conservation invariant must still hold.
  ChaosOptions options;
  options.reliable = false;
  for (uint64_t seed : ChaosSeeds(50, 5000)) {
    net::FaultPlan plan = RandomPlan(seed);
    ChaosResult result = ChaosRun(seed, plan, ChaosReferenceSpec(), options);
    ExpectChaosInvariants(result, seed, plan);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ------------------------------------------------------- crash recovery --

class ChaosRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SL_ASSERT_OK(net::BuildRingTopology(&net_, 5, 10000.0, 1, 1e5));
    sensors::PhysicalConfig config;
    config.id = "chaos_t0";
    config.period = duration::kSecond;
    config.temporal_granularity = duration::kSecond;
    config.node_id = "node_0";
    SL_ASSERT_OK(fleet_.Add(sensors::MakeTemperatureSensor(config)));
  }

  std::unique_ptr<exec::Executor> MakeExecutor(
      exec::ExecutorOptions options) {
    sinks::SinkContext ctx;
    ctx.warehouse = &warehouse_;
    auto executor = std::make_unique<exec::Executor>(
        &loop_, &net_, &broker_, &monitor_, ctx, options);
    executor->set_fleet(&fleet_);
    return executor;
  }

  net::EventLoop loop_;
  net::Network net_{&loop_};
  pubsub::Broker broker_{&loop_.clock()};
  sensors::SensorFleet fleet_{&loop_, &broker_};
  monitor::Monitor monitor_{&loop_, &net_};
  sinks::EventDataWarehouse warehouse_;
};

TEST_F(ChaosRecoveryTest, CrashedOperatorResumesOnSurvivingNode) {
  exec::ExecutorOptions options;
  options.reliable_delivery = true;
  options.heartbeat_ms = 500;
  auto executor = MakeExecutor(options);
  auto id = executor->Deploy(ChaosReferenceSpec());
  ASSERT_TRUE(id.ok()) << id.status();

  // Pin the filter somewhere crashable, then let the flow settle.
  SL_ASSERT_OK(executor->MigrateOperator(*id, "keep", "node_2"));
  loop_.RunFor(10 * duration::kSecond);
  uint64_t delivered_before = (*executor->stats(*id))->tuples_delivered;
  EXPECT_GT(delivered_before, 0u);

  // Crash the filter's node; the heartbeat confirms the failure after
  // two missed beats and re-places the process on a live node.
  SL_ASSERT_OK(net_.SetNodeUp("node_2", false));
  loop_.RunFor(5 * duration::kSecond);
  auto stats_after_crash = **executor->stats(*id);
  EXPECT_GE(stats_after_crash.node_failures, 1u);
  EXPECT_GE(stats_after_crash.recoveries, 1u);
  auto new_node = executor->AssignedNode(*id, "keep");
  ASSERT_TRUE(new_node.ok());
  EXPECT_NE(*new_node, "node_2");
  EXPECT_TRUE(net_.NodeIsUp(*new_node));

  // Delivery resumes and increases monotonically after recovery.
  loop_.RunFor(10 * duration::kSecond);
  uint64_t delivered_after = (*executor->stats(*id))->tuples_delivered;
  EXPECT_GT(delivered_after, delivered_before);

  // A restart brings the node back as a placement candidate, but the
  // recovered process stays where it is (no fail-back thrash).
  SL_ASSERT_OK(net_.SetNodeUp("node_2", true));
  loop_.RunFor(2 * duration::kSecond);
  EXPECT_EQ(*executor->AssignedNode(*id, "keep"), *new_node);

  // The dead node hosts no processes after recovery.
  EXPECT_EQ((*net_.node("node_2"))->process_count, 0);
}

TEST_F(ChaosRecoveryTest, ScheduledCrashViaPlanRecovers) {
  exec::ExecutorOptions options;
  options.reliable_delivery = true;
  options.heartbeat_ms = 500;
  auto executor = MakeExecutor(options);

  net::FaultPlan plan(/*seed=*/11);
  plan.CrashNode("node_1", 10 * duration::kSecond);
  plan.CrashNode("node_2", 10 * duration::kSecond);
  plan.RestartNode("node_1", 25 * duration::kSecond);
  plan.RestartNode("node_2", 25 * duration::kSecond);
  SL_ASSERT_OK(net_.InstallFaultPlan(plan));

  auto id = executor->Deploy(ChaosReferenceSpec());
  ASSERT_TRUE(id.ok()) << id.status();
  loop_.RunFor(40 * duration::kSecond);

  auto stats = **executor->stats(*id);
  EXPECT_EQ(net_.fault_stats().node_crashes, 2u);
  EXPECT_EQ(net_.fault_stats().node_restarts, 2u);
  // Whether the deployment was affected depends on placement; either
  // way the flow must keep delivering through the crash window.
  EXPECT_GT(stats.tuples_delivered, 25u);
  EXPECT_GE(stats.tuples_ingested,
            stats.tuples_delivered + stats.messages_lost);
  // All processes ended up on live nodes.
  for (const char* name : {"keep", "out"}) {
    auto node = executor->AssignedNode(*id, name);
    ASSERT_TRUE(node.ok());
    EXPECT_TRUE(net_.NodeIsUp(*node)) << name << " on " << *node;
  }
}

// ------------------------------------------------- teardown regressions --

TEST_F(ChaosRecoveryTest, ExecutorTeardownMidTransferIsSafe) {
  // Regression (ASan): destroying the executor while tuple transfers are
  // still scheduled on the loop must not leave callbacks dereferencing
  // freed deployments. The delivery callbacks hold weak references.
  {
    exec::ExecutorOptions options;
    auto executor = MakeExecutor(options);
    auto id = executor->Deploy(ChaosReferenceSpec());
    ASSERT_TRUE(id.ok()) << id.status();
    // Run exactly to a sensor emission: the hop transfers (1 ms+ link
    // latency) are now pending on the loop.
    loop_.RunUntil(3 * duration::kSecond);
    executor.reset();
  }
  // The pending deliveries fire into destroyed deployments: no-ops.
  loop_.RunFor(5 * duration::kSecond);
}

TEST_F(ChaosRecoveryTest, UndeployMidTransferDropsInFlightMessages) {
  exec::ExecutorOptions options;
  auto executor = MakeExecutor(options);
  auto id = executor->Deploy(ChaosReferenceSpec());
  ASSERT_TRUE(id.ok()) << id.status();
  loop_.RunUntil(3 * duration::kSecond);
  SL_ASSERT_OK(executor->Undeploy(*id));
  uint64_t delivered = (*executor->stats(*id))->tuples_delivered;
  loop_.RunFor(5 * duration::kSecond);
  // In-flight messages were dropped on arrival; stats are frozen.
  EXPECT_EQ((*executor->stats(*id))->tuples_delivered, delivered);
}

TEST_F(ChaosRecoveryTest, ExecutorTeardownDetachesMonitor) {
  {
    auto executor = MakeExecutor({});
    auto id = executor->Deploy(ChaosReferenceSpec());
    ASSERT_TRUE(id.ok()) << id.status();
    loop_.RunFor(2 * duration::kSecond);
  }
  // The executor is gone; sampling must not call back into it.
  monitor::MonitorReport report = monitor_.Sample();
  EXPECT_TRUE(report.operators.empty());
  EXPECT_FALSE(report.faults.Any());
}

}  // namespace
}  // namespace sl::testing
