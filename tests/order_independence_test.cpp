// The event-time order-independence oracle: under TimePolicy::kEvent
// with sufficient allowed lateness, a delay-only fault plan (messages
// reordered, never lost) must produce exactly the window outputs of the
// zero-fault run — watermarks, not delivery order, close the windows.
// This is the property the processing-time regime structurally cannot
// offer (a delayed tuple lands in the wrong flush window there).
//
// Replay one failing seed with SL_CHAOS_SEED=<seed> ./order_independence_test

#include <gtest/gtest.h>

#include "dsn/translate.h"
#include "net/fault.h"
#include "tests/test_util.h"

namespace sl {
namespace {

using sl::testing::ChaosSeeds;
using sl::testing::EventAggSpec;
using sl::testing::EventJoinSpec;
using sl::testing::EventTimeOptions;
using sl::testing::EventTimeResult;
using sl::testing::EventTimeRun;
using sl::testing::EventTriggerSpec;

/// Tumbling two-second aggregation: the narrowest windows in the suite,
/// so modest injected delays can actually beat the lateness bound (the
/// late-accounting tests want guaranteed-late tuples).
dsn::DsnSpec TightAggSpec() {
  auto df = *dataflow::DataflowBuilder("wm_agg_tight")
                 .AddSource("src", "wm_t0")
                 .AddAggregation("agg", "src", 2 * duration::kSecond,
                                 dataflow::AggFunc::kAvg, {"temp"})
                 .AddSink("out", "agg", dataflow::SinkKind::kCollect)
                 .Build();
  return *dsn::TranslateToDsn(df);
}

std::string Context(uint64_t seed) {
  return "failing seed " + std::to_string(seed) + " — replay with " +
         "SL_CHAOS_SEED=" + std::to_string(seed);
}

/// One seed of the oracle: zero-fault baseline vs delay-only run.
void ExpectOrderIndependent(uint64_t seed, const dsn::DsnSpec& spec,
                            Duration max_extra_delay,
                            const EventTimeOptions& options) {
  EventTimeOptions baseline = options;
  baseline.install_plan = false;
  net::FaultPlan zero(seed);
  EventTimeResult base = EventTimeRun(seed, zero, spec, baseline);
  ASSERT_TRUE(base.deployed) << base.deploy_error << "\n" << Context(seed);

  net::FaultPlan delays = net::MakeDelayOnlyFaultPlan(seed, max_extra_delay);
  EventTimeResult delayed = EventTimeRun(seed, delays, spec, options);
  ASSERT_TRUE(delayed.deployed) << delayed.deploy_error << "\n"
                                << Context(seed);

  // The windows fired from reordered deliveries carry the same rows.
  EXPECT_EQ(base.sink_rows, delayed.sink_rows) << Context(seed);
  // Within the lateness bound nothing is conclusively late.
  for (const auto& [name, stats] : delayed.op_stats) {
    EXPECT_EQ(stats.late_dropped, 0u) << name << "\n" << Context(seed);
    EXPECT_EQ(stats.late_routed, 0u) << name << "\n" << Context(seed);
  }
}

TEST(OrderIndependenceTest, AggregationSweep) {
  for (uint64_t seed : ChaosSeeds(50, 7000)) {
    ExpectOrderIndependent(seed, EventAggSpec(), /*max_extra_delay=*/400,
                           EventTimeOptions{});
  }
}

TEST(OrderIndependenceTest, JoinSweep) {
  EventTimeOptions options;
  options.with_rain = true;
  for (uint64_t seed : ChaosSeeds(10, 8000)) {
    ExpectOrderIndependent(seed, EventJoinSpec(), /*max_extra_delay=*/400,
                           options);
  }
}

TEST(OrderIndependenceTest, TriggerSweep) {
  for (uint64_t seed : ChaosSeeds(10, 9000)) {
    uint64_t s = seed;
    EventTimeOptions options;
    EventTimeOptions baseline = options;
    baseline.install_plan = false;
    net::FaultPlan zero(s);
    EventTimeResult base = EventTimeRun(s, zero, EventTriggerSpec(), baseline);
    ASSERT_TRUE(base.deployed) << base.deploy_error << "\n" << Context(s);
    net::FaultPlan delays = net::MakeDelayOnlyFaultPlan(s, 400);
    EventTimeResult delayed =
        EventTimeRun(s, delays, EventTriggerSpec(), options);
    ASSERT_TRUE(delayed.deployed) << delayed.deploy_error << "\n"
                                  << Context(s);
    // Pass-through rows are the same tuple set, and the condition fired
    // on the same windows.
    EXPECT_EQ(base.sink_rows, delayed.sink_rows) << Context(s);
    EXPECT_EQ(base.op_stats.at("trig").trigger_fires,
              delayed.op_stats.at("trig").trigger_fires)
        << Context(s);
  }
}

TEST(OrderIndependenceTest, ZeroPlanMatchesUninstalledBaseline) {
  // Wrapping a run in an all-zero fault plan must change nothing — the
  // event-time layer's piggybacked watermarks add no network events.
  for (uint64_t seed : ChaosSeeds(5, 9500)) {
    EventTimeOptions baseline;
    baseline.install_plan = false;
    net::FaultPlan zero(seed);
    EventTimeResult a = EventTimeRun(seed, zero, EventAggSpec(), baseline);
    EventTimeResult b =
        EventTimeRun(seed, zero, EventAggSpec(), EventTimeOptions{});
    ASSERT_TRUE(a.deployed && b.deployed) << Context(seed);
    EXPECT_EQ(a.sink_rows, b.sink_rows) << Context(seed);
    EXPECT_EQ(a.stats, b.stats) << Context(seed);
  }
}

TEST(LateAccountingTest, DropPolicyCountsBeatenTuples) {
  // Tight tumbling windows + zero allowed lateness + heavy delays:
  // some tuples must arrive behind their fired window.
  EventTimeOptions options;
  options.late_policy = ops::LatePolicy::kDrop;
  options.allowed_lateness = 0;
  uint64_t total_dropped = 0;
  for (uint64_t seed : ChaosSeeds(5, 9700)) {
    net::FaultPlan plan =
        net::MakeDelayOnlyFaultPlan(seed, 5 * duration::kSecond, 0.9);
    EventTimeResult r = EventTimeRun(seed, plan, TightAggSpec(), options);
    ASSERT_TRUE(r.deployed) << r.deploy_error << "\n" << Context(seed);
    total_dropped += r.op_stats.at("agg").late_dropped;
    // Dropped late tuples never reach the late sink under kDrop.
    EXPECT_TRUE(r.late_rows.empty()) << Context(seed);
  }
  EXPECT_GT(total_dropped, 0u);
}

TEST(LateAccountingTest, SideOutputRoutesEveryLateTuple) {
  EventTimeOptions options;
  options.late_policy = ops::LatePolicy::kSideOutput;
  options.allowed_lateness = 0;
  uint64_t total_routed = 0;
  for (uint64_t seed : ChaosSeeds(5, 9700)) {
    net::FaultPlan plan =
        net::MakeDelayOnlyFaultPlan(seed, 5 * duration::kSecond, 0.9);
    EventTimeResult r = EventTimeRun(seed, plan, TightAggSpec(), options);
    ASSERT_TRUE(r.deployed) << r.deploy_error << "\n" << Context(seed);
    uint64_t routed = r.op_stats.at("agg").late_dropped +
                      r.op_stats.at("agg").late_routed;
    EXPECT_EQ(r.op_stats.at("agg").late_dropped, 0u) << Context(seed);
    // Conservation: every late tuple the operator diverted is in the
    // deployment's late sink, none were silently discarded.
    EXPECT_EQ(r.late_rows.size(), r.op_stats.at("agg").late_routed)
        << Context(seed);
    total_routed += routed;
  }
  EXPECT_GT(total_routed, 0u);
}

}  // namespace
}  // namespace sl
