// Unit tests for the discrete-event engine and the programmable-network
// simulator (src/net).

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/event_loop.h"
#include "net/network.h"
#include "net/topology_text.h"
#include "tests/test_util.h"

namespace sl::net {
namespace {

// ------------------------------------------------------------ event loop --

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(30, [&] { order.push_back(3); });
  loop.Schedule(10, [&] { order.push_back(1); });
  loop.Schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(loop.RunUntil(100), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.Now(), 100);
}

TEST(EventLoopTest, FifoTieBreakAtSameInstant) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.Schedule(10, [&order, i] { order.push_back(i); });
  }
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, RunUntilRespectsLimit) {
  EventLoop loop;
  int ran = 0;
  loop.Schedule(10, [&] { ++ran; });
  loop.Schedule(50, [&] { ++ran; });
  EXPECT_EQ(loop.RunUntil(30), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.Now(), 30);
  EXPECT_EQ(loop.pending(), 1u);
  loop.RunUntil(50);
  EXPECT_EQ(ran, 2);
}

TEST(EventLoopTest, PastEventsRunNow) {
  EventLoop loop(1000);
  bool ran = false;
  loop.Schedule(5, [&] { ran = true; });  // in the past
  loop.RunFor(0);
  EXPECT_TRUE(ran);
  EXPECT_EQ(loop.Now(), 1000);
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  auto id = loop.Schedule(10, [&] { ran = true; });
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));  // idempotent-ish: already gone
  loop.RunUntilIdle();
  EXPECT_FALSE(ran);
}

TEST(EventLoopTest, PeriodicTimerRepeatsUntilCancelled) {
  EventLoop loop;
  int ticks = 0;
  EventLoop::TimerId id = loop.SchedulePeriodic(10, [&] { ++ticks; });
  loop.RunUntil(55);
  EXPECT_EQ(ticks, 5);  // at 10, 20, 30, 40, 50
  loop.Cancel(id);
  loop.RunUntil(200);
  EXPECT_EQ(ticks, 5);
}

TEST(EventLoopTest, PeriodicFirstAtOverride) {
  EventLoop loop;
  std::vector<Timestamp> at;
  loop.SchedulePeriodic(100, [&] { at.push_back(loop.Now()); },
                        /*first_at=*/5);
  loop.RunUntil(210);
  EXPECT_EQ(at, (std::vector<Timestamp>{5, 105, 205}));
}

TEST(EventLoopTest, PeriodicCallbackCanCancelItself) {
  EventLoop loop;
  int ticks = 0;
  EventLoop::TimerId id = 0;
  id = loop.SchedulePeriodic(10, [&] {
    if (++ticks == 3) loop.Cancel(id);
  });
  loop.RunUntil(1000);
  EXPECT_EQ(ticks, 3);
}

TEST(EventLoopTest, PeriodicSelfCancelKeepsCapturesAlive) {
  // Cancel erases the timer's entry while its callback is running; the
  // running closure must survive that, so its captures — a heap-backed
  // string here — stay readable after the Cancel.
  EventLoop loop;
  EventLoop::TimerId id = 0;
  std::string seen;
  id = loop.SchedulePeriodic(
      10, [&loop, &id, &seen, label = std::string(64, 'x')] {
        loop.Cancel(id);
        seen = label;
      });
  loop.RunUntil(100);
  EXPECT_EQ(seen, std::string(64, 'x'));
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopTest, PeriodicCancelledOnFirstFireRunsOnce) {
  EventLoop loop;
  int ticks = 0;
  EventLoop::TimerId id = 0;
  id = loop.SchedulePeriodic(10, [&] {
    ++ticks;
    loop.Cancel(id);
  });
  loop.RunUntil(1000);
  EXPECT_EQ(ticks, 1);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopTest, PeriodicCallbackCanCancelAnotherPeriodic) {
  EventLoop loop;
  int a_ticks = 0, b_ticks = 0;
  EventLoop::TimerId b = loop.SchedulePeriodic(15, [&] { ++b_ticks; });
  loop.SchedulePeriodic(10, [&] {
    if (++a_ticks == 2) loop.Cancel(b);  // at t=20; b fired only at 15
  });
  loop.RunUntil(100);
  EXPECT_EQ(b_ticks, 1);
  EXPECT_EQ(a_ticks, 10);
}

TEST(EventLoopTest, SameInstantNestedSchedulingKeepsFifoOrder) {
  // An event scheduled *from within* a callback at the current instant
  // runs after everything already queued for that instant (FIFO by
  // scheduling sequence, not LIFO).
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(10, [&] {
    order.push_back(1);
    loop.ScheduleAfter(0, [&] { order.push_back(3); });
  });
  loop.Schedule(10, [&] { order.push_back(2); });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTest, NestedSchedulingFromCallback) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(10, [&] {
    order.push_back(1);
    loop.ScheduleAfter(5, [&] { order.push_back(2); });
  });
  loop.RunUntil(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_GE(loop.events_executed(), 2u);
}

TEST(EventLoopTest, RunUntilIdleCapsEvents) {
  EventLoop loop;
  std::function<void()> reschedule = [&] { loop.ScheduleAfter(1, reschedule); };
  loop.ScheduleAfter(1, reschedule);
  EXPECT_EQ(loop.RunUntilIdle(50), 50u);
}

// --------------------------------------------------------------- network --

class NetworkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A line: a -- b -- c, plus a direct slow a -- c link.
    SL_ASSERT_OK(net_.AddNode({"a", 1000.0, {34.0, 135.0}}));
    SL_ASSERT_OK(net_.AddNode({"b", 1000.0, {34.1, 135.1}}));
    SL_ASSERT_OK(net_.AddNode({"c", 1000.0, {34.2, 135.2}}));
    SL_ASSERT_OK(net_.AddLink({"a", "b", 5, 1000.0}));
    SL_ASSERT_OK(net_.AddLink({"b", "c", 5, 1000.0}));
    SL_ASSERT_OK(net_.AddLink({"a", "c", 50, 1000.0}));
  }
  EventLoop loop_;
  Network net_{&loop_};
};

TEST_F(NetworkTest, TopologyValidation) {
  EXPECT_TRUE(net_.AddNode({"a", 1000.0, {}}).IsAlreadyExists());
  EXPECT_TRUE(net_.AddNode({"bad id", 1000.0, {}}).IsInvalidArgument());
  EXPECT_TRUE(net_.AddNode({"zero", 0.0, {}}).IsInvalidArgument());
  EXPECT_TRUE(net_.AddLink({"a", "ghost", 1, 1.0}).IsNotFound());
  EXPECT_TRUE(net_.AddLink({"a", "a", 1, 1.0}).IsInvalidArgument());
  EXPECT_TRUE(net_.AddLink({"a", "b", 1, 1.0}).IsAlreadyExists());
  // Parameter validation takes precedence over duplicate detection.
  EXPECT_TRUE(net_.AddLink({"b", "c", -1, 1.0}).IsInvalidArgument());
  EXPECT_TRUE(net_.AddLink({"b", "c", 1, 0.0}).IsInvalidArgument());
  EXPECT_EQ(net_.num_nodes(), 3u);
  EXPECT_EQ(net_.NodeIds(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(NetworkTest, RoutePrefersLowLatency) {
  // a->c via b costs 10; the direct link costs 50.
  auto route = net_.Route("a", "c");
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<std::string>{"a", "b", "c"}));
  auto self = net_.Route("b", "b");
  EXPECT_EQ(*self, (std::vector<std::string>{"b"}));
  EXPECT_TRUE(net_.Route("a", "ghost").status().IsNotFound());
}

TEST_F(NetworkTest, RouteFailsWhenDisconnected) {
  SL_ASSERT_OK(net_.AddNode({"island", 1000.0, {}}));
  EXPECT_TRUE(net_.Route("a", "island").status().IsNotFound());
}

TEST_F(NetworkTest, TransferDelayLatencyPlusSerialization) {
  // Path a->b->c: latency 10 ms, min bandwidth 1000 B/ms; 5000 bytes add
  // 5 ms of serialization.
  auto delay = net_.TransferDelay("a", "c", 5000);
  ASSERT_TRUE(delay.ok());
  EXPECT_EQ(*delay, 15);
  EXPECT_EQ(*net_.TransferDelay("a", "a", 5000), 0);
}

TEST_F(NetworkTest, TransferDeliversAfterDelay) {
  bool delivered = false;
  SL_ASSERT_OK(net_.Transfer("a", "c", 1000, [&] { delivered = true; }));
  loop_.RunUntil(10);  // latency 10 + serialization 1 = 11
  EXPECT_FALSE(delivered);
  loop_.RunUntil(11);
  EXPECT_TRUE(delivered);
}

TEST_F(NetworkTest, LocalDeliveryIsImmediate) {
  bool delivered = false;
  SL_ASSERT_OK(net_.Transfer("b", "b", 1 << 20, [&] { delivered = true; }));
  loop_.RunFor(0);
  EXPECT_TRUE(delivered);
}

TEST_F(NetworkTest, ByteAccountingPerLink) {
  SL_ASSERT_OK(net_.Transfer("a", "c", 1000, [] {}));
  SL_ASSERT_OK(net_.Transfer("a", "b", 500, [] {}));
  loop_.RunUntilIdle();
  EXPECT_EQ(net_.total_bytes_sent(), 1500u);
  EXPECT_EQ(net_.total_messages(), 2u);
  // a-b carried both messages; b-c only the first; a-c direct none.
  uint64_t ab = 0, bc = 0, ac = 0;
  for (const auto& link : net_.links()) {
    if (link.config.a == "a" && link.config.b == "b") ab = link.bytes_transferred;
    if (link.config.a == "b" && link.config.b == "c") bc = link.bytes_transferred;
    if (link.config.a == "a" && link.config.b == "c") ac = link.bytes_transferred;
  }
  EXPECT_EQ(ab, 1500u);
  EXPECT_EQ(bc, 1000u);
  EXPECT_EQ(ac, 0u);
}

TEST_F(NetworkTest, WorkAccountingAndWindows) {
  SL_ASSERT_OK(net_.ReportWork("a", 500));
  SL_ASSERT_OK(net_.ReportWork("a", 250));
  EXPECT_TRUE(net_.ReportWork("ghost", 1).IsNotFound());
  const NodeState* a = *net_.node("a");
  EXPECT_DOUBLE_EQ(a->work_in_window, 750.0);
  EXPECT_DOUBLE_EQ(a->work_total, 750.0);
  // Utilization over a 1 s window at capacity 1000/s.
  EXPECT_DOUBLE_EQ(a->Utilization(1000), 0.75);
  net_.ResetWindows();
  EXPECT_DOUBLE_EQ((*net_.node("a"))->work_in_window, 0.0);
  EXPECT_DOUBLE_EQ((*net_.node("a"))->work_total, 750.0);
}

TEST_F(NetworkTest, ProcessCountTracking) {
  SL_ASSERT_OK(net_.AdjustProcessCount("a", +2));
  SL_ASSERT_OK(net_.AdjustProcessCount("a", -1));
  EXPECT_EQ((*net_.node("a"))->process_count, 1);
  EXPECT_TRUE(net_.AdjustProcessCount("a", -5).IsInternal());  // clamped
  EXPECT_EQ((*net_.node("a"))->process_count, 0);
}

TEST_F(NetworkTest, RemoveNodeDropsLinks) {
  SL_ASSERT_OK(net_.RemoveNode("b"));
  EXPECT_FALSE(net_.HasNode("b"));
  // Only the direct a-c link remains.
  auto route = net_.Route("a", "c");
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(net_.links().size(), 1u);
}

TEST_F(NetworkTest, RemoveLinkReroutesTraffic) {
  // Removing the cheap a-b link forces a->c traffic onto the direct
  // (slow) link; routing recomputes per message with no flow changes.
  SL_ASSERT_OK(net_.RemoveLink("a", "b"));
  auto route = net_.Route("a", "c");
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(*net_.TransferDelay("a", "c", 0), 50);
  bool delivered = false;
  SL_ASSERT_OK(net_.Transfer("a", "c", 100, [&] { delivered = true; }));
  loop_.RunUntilIdle();
  EXPECT_TRUE(delivered);
  // Direction-insensitive removal; unknown links are NotFound.
  SL_ASSERT_OK(net_.RemoveLink("c", "b"));
  EXPECT_TRUE(net_.RemoveLink("a", "b").IsNotFound());
  EXPECT_EQ(net_.links().size(), 1u);
  // b is now an island.
  EXPECT_TRUE(net_.Route("a", "b").status().IsNotFound());
}

TEST_F(NetworkTest, RemoveNodeRefusesWhileHostingProcesses) {
  SL_ASSERT_OK(net_.AdjustProcessCount("b", +1));
  EXPECT_TRUE(net_.RemoveNode("b").IsFailedPrecondition());
  SL_ASSERT_OK(net_.AdjustProcessCount("b", -1));
  SL_ASSERT_OK(net_.RemoveNode("b"));
}

TEST_F(NetworkTest, RemoveNodeWithInFlightTransferStillDelivers) {
  // The fast-path transfer is committed at Transfer() time; removing an
  // intermediate node afterwards must neither crash nor lose it.
  bool delivered = false;
  SL_ASSERT_OK(net_.Transfer("a", "c", 1000, [&] { delivered = true; }));
  SL_ASSERT_OK(net_.RemoveNode("b"));
  loop_.RunUntilIdle();
  EXPECT_TRUE(delivered);
}

TEST_F(NetworkTest, RemoveLinkWithInFlightTransferStillDelivers) {
  bool delivered = false;
  SL_ASSERT_OK(net_.Transfer("a", "c", 1000, [&] { delivered = true; }));
  SL_ASSERT_OK(net_.RemoveLink("a", "b"));
  loop_.RunUntilIdle();
  EXPECT_TRUE(delivered);
}

TEST_F(NetworkTest, RemoveTargetNodeMidReliableTransferConcludesLost) {
  // The reliable path re-resolves the topology per attempt; a target that
  // disappears entirely (not merely down) must end in on_lost, not UB.
  TransferOptions options;
  options.reliable = true;
  options.ack_timeout = 50;
  options.max_retransmits = 2;
  bool delivered = false, lost = false;
  options.on_lost = [&] { lost = true; };
  SL_ASSERT_OK(
      net_.Transfer("a", "c", 1000, [&] { delivered = true; }, options));
  SL_ASSERT_OK(net_.RemoveNode("c"));  // before the 11 ms arrival
  loop_.RunUntil(5000);
  EXPECT_FALSE(delivered);
  EXPECT_TRUE(lost);
  EXPECT_EQ(net_.fault_stats().messages_lost, 1u);
}

// ---------------------------------------------------------------- faults --

TEST_F(NetworkTest, NodeCrashAffectsRoutingUntilRestart) {
  SL_ASSERT_OK(net_.SetNodeUp("b", false));
  EXPECT_FALSE(net_.NodeIsUp("b"));
  EXPECT_FALSE(net_.NodeIsUp("ghost"));
  // Routing detours around the crashed relay onto the direct slow link.
  auto route = net_.Route("a", "c");
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<std::string>{"a", "c"}));
  // Routes from/to the crashed node itself fail.
  EXPECT_TRUE(net_.Route("b", "c").status().IsNotFound());
  EXPECT_TRUE(net_.Route("a", "b").status().IsNotFound());
  // Crash is idempotent; the counters see one transition each way.
  SL_ASSERT_OK(net_.SetNodeUp("b", false));
  SL_ASSERT_OK(net_.SetNodeUp("b", true));
  EXPECT_EQ(net_.fault_stats().node_crashes, 1u);
  EXPECT_EQ(net_.fault_stats().node_restarts, 1u);
  EXPECT_EQ(*net_.Route("a", "c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(net_.SetNodeUp("ghost", true).IsNotFound());
}

TEST_F(NetworkTest, LinkCutReroutesUntilHealed) {
  SL_ASSERT_OK(net_.SetLinkUp("b", "a", false));  // order-insensitive
  EXPECT_EQ(*net_.Route("a", "c"), (std::vector<std::string>{"a", "c"}));
  SL_ASSERT_OK(net_.SetLinkUp("a", "b", true));
  EXPECT_EQ(*net_.Route("a", "c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(net_.SetLinkUp("a", "ghost", false).IsNotFound());
}

/// Bytes and messages carried per link, keyed by the link's endpoints.
using LinkCounters =
    std::map<std::pair<std::string, std::string>,
             std::pair<uint64_t, uint64_t>>;

LinkCounters CountersOf(const Network& net) {
  LinkCounters counters;
  for (const LinkState& link : net.links()) {
    counters[{link.config.a, link.config.b}] = {link.bytes_transferred,
                                                link.messages};
  }
  return counters;
}

/// Checks every route, delay and per-link transfer accounting of `net`
/// (its routes memoized by earlier calls) against a network freshly
/// built with the same topology and liveness, over every ordered pair of
/// `names` — existing or not.
void ExpectMatchesFreshNetwork(Network* net, EventLoop* loop,
                               const std::vector<std::string>& names) {
  EventLoop fresh_loop;
  Network fresh(&fresh_loop);
  for (const std::string& id : net->NodeIds()) {
    const NodeState* node = *net->node(id);
    SL_ASSERT_OK(fresh.AddNode(node->config));
    SL_ASSERT_OK(fresh.SetNodeUp(id, node->up));
  }
  for (const LinkState& link : net->links()) {
    SL_ASSERT_OK(fresh.AddLink(link.config));
    SL_ASSERT_OK(fresh.SetLinkUp(link.config.a, link.config.b, link.up));
  }
  LinkCounters before = CountersOf(*net);
  for (const std::string& from : names) {
    for (const std::string& to : names) {
      SCOPED_TRACE(from + " -> " + to);
      auto route = net->Route(from, to);
      auto want_route = fresh.Route(from, to);
      EXPECT_EQ(route.status(), want_route.status());
      if (route.ok() && want_route.ok()) {
        EXPECT_EQ(*route, *want_route);
      }
      auto delay = net->TransferDelay(from, to, 5000);
      auto want_delay = fresh.TransferDelay(from, to, 5000);
      EXPECT_EQ(delay.status(), want_delay.status());
      if (delay.ok() && want_delay.ok()) {
        EXPECT_EQ(*delay, *want_delay);
      }
      EXPECT_EQ(net->Transfer(from, to, 5000, [] {}),
                fresh.Transfer(from, to, 5000, [] {}));
    }
  }
  loop->RunUntilIdle();
  fresh_loop.RunUntilIdle();
  LinkCounters carried = CountersOf(*net);
  for (auto& [key, counts] : carried) {
    counts.first -= before[key].first;
    counts.second -= before[key].second;
  }
  EXPECT_EQ(carried, CountersOf(fresh));
}

TEST_F(NetworkTest, RouteMemoNeverServesAStaleRoute) {
  // Every step first runs on routes memoized by the previous step's
  // checks — including NotFound routes to "d" before it exists and
  // before it has links.
  const std::vector<std::string> names = {"a", "b", "c", "d"};
  ExpectMatchesFreshNetwork(&net_, &loop_, names);
  const std::vector<std::pair<std::string, std::function<Status()>>> steps = {
      {"add node d", [&] { return net_.AddNode({"d", 1000.0, {}}); }},
      {"add link c-d", [&] { return net_.AddLink({"c", "d", 1, 500.0}); }},
      {"add link a-d", [&] { return net_.AddLink({"a", "d", 2, 2000.0}); }},
      {"remove link a-b", [&] { return net_.RemoveLink("a", "b"); }},
      {"cut link c-d", [&] { return net_.SetLinkUp("c", "d", false); }},
      {"crash node c", [&] { return net_.SetNodeUp("c", false); }},
      {"restart node c", [&] { return net_.SetNodeUp("c", true); }},
      {"heal link c-d", [&] { return net_.SetLinkUp("d", "c", true); }},
      {"remove node b", [&] { return net_.RemoveNode("b"); }},
      {"remove node d", [&] { return net_.RemoveNode("d"); }},
  };
  for (const auto& [name, mutate] : steps) {
    SCOPED_TRACE(name);
    SL_ASSERT_OK(mutate());
    ExpectMatchesFreshNetwork(&net_, &loop_, names);
  }
}

TEST_F(NetworkTest, CertainDropLosesUnreliableMessage) {
  FaultPlan plan(/*seed=*/3);
  FaultProfile lossy;
  lossy.drop_probability = 1.0;
  plan.set_default_profile(lossy);
  SL_ASSERT_OK(net_.InstallFaultPlan(plan));
  EXPECT_TRUE(net_.fault_plan_installed());

  bool delivered = false, lost = false;
  TransferOptions options;
  options.on_lost = [&] { lost = true; };
  SL_ASSERT_OK(
      net_.Transfer("a", "c", 1000, [&] { delivered = true; }, options));
  loop_.RunUntilIdle();
  EXPECT_FALSE(delivered);
  EXPECT_TRUE(lost);
  EXPECT_EQ(net_.fault_stats().messages_dropped, 1u);
  EXPECT_EQ(net_.fault_stats().messages_lost, 1u);
  // The drop is attributed to the first link of the a->b->c path.
  for (const auto& link : net_.links()) {
    if (link.config.a == "a" && link.config.b == "b") {
      EXPECT_EQ(link.messages_dropped, 1u);
    }
  }
}

TEST_F(NetworkTest, ReliableTransferRetriesUntilLinkHeals) {
  // Isolate `a` entirely, then heal one link at t=500. With ack_timeout
  // 100 the retries land at 100, 300, 700; the third one finds the path.
  SL_ASSERT_OK(net_.SetLinkUp("a", "b", false));
  SL_ASSERT_OK(net_.SetLinkUp("a", "c", false));
  loop_.Schedule(500, [&] { SL_EXPECT_OK(net_.SetLinkUp("a", "b", true)); });

  TransferOptions options;
  options.reliable = true;
  options.ack_timeout = 100;
  std::vector<int> retransmits;
  options.on_retransmit = [&](int attempt) { retransmits.push_back(attempt); };
  bool delivered = false, lost = false;
  options.on_lost = [&] { lost = true; };
  SL_ASSERT_OK(
      net_.Transfer("a", "c", 1000, [&] { delivered = true; }, options));

  loop_.RunUntil(699);
  EXPECT_FALSE(delivered);
  loop_.RunUntil(5000);
  EXPECT_TRUE(delivered);
  EXPECT_FALSE(lost);
  EXPECT_EQ(retransmits, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(net_.fault_stats().retransmits, 3u);
  EXPECT_EQ(net_.fault_stats().messages_lost, 0u);
  EXPECT_EQ(net_.fault_stats().acks_sent, 1u);
  EXPECT_EQ(loop_.pending(), 0u);  // no timers leak past the ack
}

TEST_F(NetworkTest, ReliableBudgetExhaustionConcludesLost) {
  SL_ASSERT_OK(net_.SetLinkUp("a", "b", false));
  SL_ASSERT_OK(net_.SetLinkUp("a", "c", false));
  TransferOptions options;
  options.reliable = true;
  options.ack_timeout = 100;
  options.max_retransmits = 2;
  bool delivered = false, lost = false;
  options.on_lost = [&] { lost = true; };
  SL_ASSERT_OK(
      net_.Transfer("a", "c", 1000, [&] { delivered = true; }, options));
  // Attempts at 0, 100, 300; the timer at 700 exhausts the budget.
  loop_.RunUntil(699);
  EXPECT_FALSE(lost);
  loop_.RunUntil(701);
  EXPECT_TRUE(lost);
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net_.fault_stats().retransmits, 2u);
  EXPECT_EQ(net_.fault_stats().messages_lost, 1u);
}

TEST_F(NetworkTest, CertainDuplicationDeliversExactlyOnce) {
  FaultPlan plan(/*seed=*/4);
  FaultProfile dupey;
  dupey.duplicate_probability = 1.0;
  plan.set_default_profile(dupey);
  SL_ASSERT_OK(net_.InstallFaultPlan(plan));

  TransferOptions options;
  options.reliable = true;
  int deliveries = 0;
  SL_ASSERT_OK(net_.Transfer("a", "c", 1000, [&] { ++deliveries; }, options));
  loop_.RunUntil(10000);
  EXPECT_EQ(deliveries, 1);
  EXPECT_GE(net_.fault_stats().messages_duplicated, 2u);  // per link
  EXPECT_EQ(net_.fault_stats().messages_lost, 0u);
  EXPECT_EQ(loop_.pending(), 0u);
}

TEST_F(NetworkTest, ZeroFaultPlanKeepsFastPathBehaviour) {
  // Installing an all-zero plan must not change delivery timing: same
  // 11 ms arrival as TransferDeliversAfterDelay.
  SL_ASSERT_OK(net_.InstallFaultPlan(FaultPlan(/*seed=*/5)));
  bool delivered = false;
  SL_ASSERT_OK(net_.Transfer("a", "c", 1000, [&] { delivered = true; }));
  loop_.RunUntil(10);
  EXPECT_FALSE(delivered);
  loop_.RunUntil(11);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net_.fault_stats(), Network::FaultStats{});
}

TEST_F(NetworkTest, ScheduledFaultEventsFireAtTheirInstant) {
  FaultPlan plan(/*seed=*/6);
  plan.CrashNode("b", 100).RestartNode("b", 200);
  plan.CutLink("a", "c", 100).HealLink("a", "c", 300);
  SL_ASSERT_OK(net_.InstallFaultPlan(plan));
  loop_.RunUntil(150);
  EXPECT_FALSE(net_.NodeIsUp("b"));
  EXPECT_TRUE(net_.Route("a", "c").status().IsNotFound());  // fully cut off
  loop_.RunUntil(250);
  EXPECT_TRUE(net_.NodeIsUp("b"));
  EXPECT_EQ(*net_.Route("a", "c"), (std::vector<std::string>{"a", "b", "c"}));
  loop_.RunUntil(350);
  EXPECT_EQ(net_.fault_stats().node_crashes, 1u);
  EXPECT_EQ(net_.fault_stats().node_restarts, 1u);
}

// --------------------------------------------------------- topology text --

TEST(TopologyTextTest, ParsesDocument) {
  EventLoop loop;
  Network net(&loop);
  const char* text = R"(
    # Two data centers and an edge node.
    network demo {
      node dc_0 { capacity: 20000; location: 34.65, 135.45; }
      node dc_1 { capacity: 20000; location: 34.70, 135.52; }
      node edge { capacity: 500; }
      link dc_0 -- dc_1 [latency: "2ms"; bandwidth_mbps: 800];
      link dc_1 -- edge [latency: 15; bandwidth_mbps: 10];
    }
  )";
  SL_ASSERT_OK(BuildTopologyFromText(&net, text));
  EXPECT_EQ(net.num_nodes(), 3u);
  EXPECT_EQ(net.links().size(), 2u);
  EXPECT_DOUBLE_EQ((*net.node("dc_0"))->config.capacity_per_sec, 20000.0);
  EXPECT_DOUBLE_EQ((*net.node("dc_0"))->config.location.lat, 34.65);
  EXPECT_EQ(net.links()[0].config.latency, 2);
  EXPECT_DOUBLE_EQ(net.links()[0].config.bandwidth_bytes_per_ms, 100000.0);
  EXPECT_EQ(net.links()[1].config.latency, 15);
  auto route = net.Route("dc_0", "edge");
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->size(), 3u);
}

TEST(TopologyTextTest, SerializeParseRoundTrip) {
  EventLoop loop;
  Network net(&loop);
  SL_ASSERT_OK(BuildRingTopology(&net, 4, 12345.0, 3, 2.5e5));
  auto text = SerializeTopology(net, "ring");
  ASSERT_TRUE(text.ok()) << text.status();
  Network restored(&loop);
  SL_ASSERT_OK(BuildTopologyFromText(&restored, *text));
  EXPECT_EQ(restored.num_nodes(), net.num_nodes());
  EXPECT_EQ(restored.links().size(), net.links().size());
  for (const auto& id : net.NodeIds()) {
    EXPECT_DOUBLE_EQ((*restored.node(id))->config.capacity_per_sec,
                     (*net.node(id))->config.capacity_per_sec);
    EXPECT_DOUBLE_EQ((*restored.node(id))->config.location.lat,
                     (*net.node(id))->config.location.lat);
  }
  for (size_t i = 0; i < net.links().size(); ++i) {
    EXPECT_EQ(restored.links()[i].config.latency,
              net.links()[i].config.latency);
    EXPECT_DOUBLE_EQ(restored.links()[i].config.bandwidth_bytes_per_ms,
                     net.links()[i].config.bandwidth_bytes_per_ms);
  }
  // A second serialization is textually identical (canonical form).
  EXPECT_EQ(*SerializeTopology(restored, "ring"), *text);
}

TEST(TopologyTextTest, Rejections) {
  EventLoop loop;
  Network net(&loop);
  EXPECT_TRUE(BuildTopologyFromText(&net, "").IsParseError());
  EXPECT_TRUE(BuildTopologyFromText(&net, "network x {").IsParseError());
  EXPECT_TRUE(
      BuildTopologyFromText(&net, "network x { widget w; }").IsParseError());
  EXPECT_TRUE(BuildTopologyFromText(
                  &net, "network x { node a { color: 7; } }")
                  .IsParseError());
  EXPECT_TRUE(BuildTopologyFromText(
                  &net, "network x { node a { capacity: 1; } "
                        "link a -- ghost; }")
                  .IsNotFound());
  // Atomic: the failed document added nothing, including node a.
  EXPECT_FALSE(net.HasNode("a"));
  SL_ASSERT_OK(BuildTopologyFromText(
      &net, "network x { node a { capacity: 1; } }"));
  EXPECT_TRUE(BuildTopologyFromText(
                  &net, "network y { node a { capacity: 2; } "
                        "node b { capacity: 2; } }")
                  .IsAlreadyExists());
  EXPECT_FALSE(net.HasNode("b"));
  EXPECT_TRUE(SerializeTopology(net, "bad name").status()
                  .IsInvalidArgument());
}

TEST(RingTopologyTest, BuildsRing) {
  EventLoop loop;
  Network net(&loop);
  SL_ASSERT_OK(BuildRingTopology(&net, 5, 1000.0, 2, 1000.0));
  EXPECT_EQ(net.num_nodes(), 5u);
  EXPECT_EQ(net.links().size(), 5u);
  // Opposite nodes route around the shorter arc.
  auto route = net.Route("node_0", "node_2");
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->size(), 3u);
}

TEST(RingTopologyTest, SmallSizes) {
  EventLoop loop;
  Network one(&loop);
  SL_ASSERT_OK(BuildRingTopology(&one, 1, 1000.0, 2, 1000.0));
  EXPECT_EQ(one.links().size(), 0u);
  Network two(&loop);
  SL_ASSERT_OK(BuildRingTopology(&two, 2, 1000.0, 2, 1000.0));
  EXPECT_EQ(two.links().size(), 1u);
  Network zero(&loop);
  EXPECT_TRUE(BuildRingTopology(&zero, 0, 1000.0, 2, 1000.0)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace sl::net
