// Unit tests for the publish/subscribe sensor layer (src/pubsub).

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "pubsub/broker.h"
#include "tests/test_util.h"

namespace sl::pubsub {
namespace {

using sl::testing::TempSchema;
using sl::testing::TempTuple;
using stt::Value;

SensorInfo MakeInfo(const std::string& id, const std::string& type = "temperature",
                    Duration period = duration::kMinute) {
  SensorInfo info;
  info.id = id;
  info.type = type;
  info.schema = TempSchema();
  info.period = period;
  info.location = stt::GeoPoint{34.69, 135.50};
  info.owner = "osaka_met";
  info.node_id = "node_0";
  return info;
}

class BrokerTest : public ::testing::Test {
 protected:
  VirtualClock clock_{1000};
  Broker broker_{&clock_};
};

TEST_F(BrokerTest, PublishFindUnpublish) {
  SL_EXPECT_OK(broker_.Publish(MakeInfo("t1")));
  EXPECT_TRUE(broker_.IsPublished("t1"));
  EXPECT_EQ(broker_.size(), 1u);
  auto found = broker_.Find("t1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->type, "temperature");

  SL_EXPECT_OK(broker_.Unpublish("t1"));
  EXPECT_FALSE(broker_.IsPublished("t1"));
  EXPECT_TRUE(broker_.Find("t1").status().IsNotFound());
  EXPECT_TRUE(broker_.Unpublish("t1").IsNotFound());
}

TEST_F(BrokerTest, PublishValidation) {
  EXPECT_TRUE(broker_.Publish(MakeInfo("bad id!")).IsInvalidArgument());
  SensorInfo no_schema = MakeInfo("x");
  no_schema.schema = nullptr;
  EXPECT_TRUE(broker_.Publish(no_schema).IsInvalidArgument());
  SensorInfo no_period = MakeInfo("x");
  no_period.period = 0;
  EXPECT_TRUE(broker_.Publish(no_period).IsInvalidArgument());
  SensorInfo no_type = MakeInfo("x");
  no_type.type = "";
  EXPECT_TRUE(broker_.Publish(no_type).IsInvalidArgument());
  // No tuple locations and no installation point: enrichment impossible.
  SensorInfo unlocatable = MakeInfo("x");
  unlocatable.provides_location = false;
  unlocatable.location = std::nullopt;
  EXPECT_TRUE(broker_.Publish(unlocatable).IsInvalidArgument());
  // Duplicate.
  SL_EXPECT_OK(broker_.Publish(MakeInfo("dup")));
  EXPECT_TRUE(broker_.Publish(MakeInfo("dup")).IsAlreadyExists());
}

TEST_F(BrokerTest, DiscoveryByEveryCriterion) {
  SL_EXPECT_OK(broker_.Publish(MakeInfo("t_fast", "temperature",
                                        duration::kSecond)));
  SensorInfo rain = MakeInfo("r1", "rain");
  rain.schema = sl::testing::RainSchema();
  rain.location = stt::GeoPoint{35.5, 139.7};  // tokyo-ish
  rain.node_id = "node_1";
  SL_EXPECT_OK(broker_.Publish(rain));

  DiscoveryQuery by_type;
  by_type.type = "rain";
  EXPECT_EQ(broker_.Discover(by_type).size(), 1u);

  DiscoveryQuery by_theme;
  by_theme.theme = *stt::Theme::Parse("weather");
  EXPECT_EQ(broker_.Discover(by_theme).size(), 2u);
  by_theme.theme = *stt::Theme::Parse("weather/rain");
  EXPECT_EQ(broker_.Discover(by_theme).size(), 1u);
  by_theme.theme = *stt::Theme::Parse("social");
  EXPECT_TRUE(broker_.Discover(by_theme).empty());

  DiscoveryQuery by_area;
  by_area.area = stt::BBox{{34.0, 135.0}, {35.0, 136.0}};  // osaka box
  auto hits = broker_.Discover(by_area);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, "t_fast");

  DiscoveryQuery by_period;
  by_period.max_period = duration::kSecond;
  EXPECT_EQ(broker_.Discover(by_period).size(), 1u);

  DiscoveryQuery by_node;
  by_node.node_id = "node_1";
  EXPECT_EQ(broker_.Discover(by_node).size(), 1u);

  // Conjunction of criteria.
  DiscoveryQuery combo;
  combo.type = "temperature";
  combo.area = stt::BBox{{34.0, 135.0}, {35.0, 136.0}};
  EXPECT_EQ(broker_.Discover(combo).size(), 1u);
  combo.type = "rain";
  EXPECT_TRUE(broker_.Discover(combo).empty());

  EXPECT_EQ(broker_.All().size(), 2u);
}

TEST_F(BrokerTest, GroupByCriteria) {
  SL_EXPECT_OK(broker_.Publish(MakeInfo("t1")));
  SL_EXPECT_OK(broker_.Publish(MakeInfo("t2")));
  SensorInfo rain = MakeInfo("r1", "rain");
  rain.schema = sl::testing::RainSchema();
  rain.owner = "npo_x";
  rain.node_id = "node_1";
  SL_EXPECT_OK(broker_.Publish(rain));

  auto by_type = broker_.GroupBy(GroupCriterion::kType);
  EXPECT_EQ(by_type["temperature"].size(), 2u);
  EXPECT_EQ(by_type["rain"].size(), 1u);

  auto by_theme = broker_.GroupBy(GroupCriterion::kTheme);
  EXPECT_EQ(by_theme["weather/temperature"].size(), 2u);

  auto by_node = broker_.GroupBy(GroupCriterion::kNode);
  EXPECT_EQ(by_node["node_0"].size(), 2u);
  EXPECT_EQ(by_node["node_1"].size(), 1u);

  auto by_owner = broker_.GroupBy(GroupCriterion::kOwner);
  EXPECT_EQ(by_owner["npo_x"].size(), 1u);

  auto by_period = broker_.GroupBy(GroupCriterion::kPeriod);
  EXPECT_EQ(by_period["1m"].size(), 3u);

  auto by_cell = broker_.GroupBy(GroupCriterion::kSpatialCell);
  EXPECT_EQ(by_cell["cell(34,135)"].size(), 3u);
}

TEST_F(BrokerTest, RegistryNotifications) {
  std::vector<std::string> events;
  broker_.SubscribeRegistry([&events](const SensorEvent& e) {
    events.push_back((e.kind == SensorEvent::Kind::kPublished ? "+" : "-") +
                     e.info.id);
  });
  SL_EXPECT_OK(broker_.Publish(MakeInfo("a")));
  SL_EXPECT_OK(broker_.Publish(MakeInfo("b")));
  SL_EXPECT_OK(broker_.Unpublish("a"));
  EXPECT_EQ(events, (std::vector<std::string>{"+a", "+b", "-a"}));
}

TEST_F(BrokerTest, DataSubscriptionAndFanout) {
  SL_EXPECT_OK(broker_.Publish(MakeInfo("t1")));
  int count1 = 0, count2 = 0;
  auto sub1 = broker_.SubscribeData("t1", [&](const stt::TupleRef&) { ++count1; });
  ASSERT_TRUE(sub1.ok());
  auto sub2 = broker_.SubscribeData("t1", [&](const stt::TupleRef&) { ++count2; });
  ASSERT_TRUE(sub2.ok());
  EXPECT_TRUE(broker_.SubscribeData("ghost", [](const stt::TupleRef&) {})
                  .status().IsNotFound());

  auto schema = TempSchema();
  SL_EXPECT_OK(broker_.PublishTuple("t1", TempTuple(schema, 20.0, 60000)));
  EXPECT_EQ(count1, 1);
  EXPECT_EQ(count2, 1);
  EXPECT_EQ(broker_.tuples_ingested(), 1u);
  EXPECT_EQ(broker_.tuples_delivered(), 2u);

  broker_.Unsubscribe(*sub1);
  SL_EXPECT_OK(broker_.PublishTuple("t1", TempTuple(schema, 21.0, 120000)));
  EXPECT_EQ(count1, 1);
  EXPECT_EQ(count2, 2);

  EXPECT_TRUE(broker_.PublishTuple("ghost", TempTuple(schema, 1.0, 0))
                  .IsNotFound());
}

TEST_F(BrokerTest, SttEnrichmentTimestamp) {
  // Sensor that cannot stamp its own tuples: arrival time is used,
  // truncated to the schema granularity (1 minute).
  SensorInfo info = MakeInfo("t1");
  info.provides_timestamp = false;
  SL_EXPECT_OK(broker_.Publish(info));
  clock_.AdvanceTo(90500);  // 1m30.5s
  stt::Tuple received;
  auto sub = broker_.SubscribeData("t1", [&](const stt::TupleRef& t) {
    received = *t;
  });
  ASSERT_TRUE(sub.ok());
  auto schema = TempSchema();
  SL_EXPECT_OK(broker_.PublishTuple(
      "t1", TempTuple(schema, 20.0, /*bogus sensor ts=*/5)));
  EXPECT_EQ(received.timestamp(), 60000);  // arrival 90500 -> minute floor
}

TEST_F(BrokerTest, SttEnrichmentLocation) {
  // Sensor without per-tuple locations: the installation point is added.
  SensorInfo info = MakeInfo("t1");
  info.provides_location = false;
  info.location = stt::GeoPoint{34.1, 135.2};
  SL_EXPECT_OK(broker_.Publish(info));
  stt::Tuple received;
  auto sub = broker_.SubscribeData("t1", [&](const stt::TupleRef& t) {
    received = *t;
  });
  ASSERT_TRUE(sub.ok());
  auto schema = TempSchema();
  SL_EXPECT_OK(broker_.PublishTuple(
      "t1", TempTuple(schema, 20.0, 60000, std::nullopt)));
  ASSERT_TRUE(received.location().has_value());
  EXPECT_DOUBLE_EQ(received.location()->lat, 34.1);
}

TEST_F(BrokerTest, SttEnrichmentSpatialSnap) {
  // Schema with a 0.5-degree cell granularity: locations snap to cell
  // centers.
  auto tgran = stt::TemporalGranularity::Minute();
  auto sgran = *stt::SpatialGranularity::MakeCell(0.5);
  auto schema = *stt::Schema::Make(
      {{"temp", stt::ValueType::kDouble, "celsius", false},
       {"station", stt::ValueType::kString, "", true}},
      tgran, sgran, *stt::Theme::Parse("weather/temperature"));
  SensorInfo info = MakeInfo("t1");
  info.schema = schema;
  SL_EXPECT_OK(broker_.Publish(info));
  stt::Tuple received;
  auto sub = broker_.SubscribeData("t1", [&](const stt::TupleRef& t) {
    received = *t;
  });
  ASSERT_TRUE(sub.ok());
  SL_EXPECT_OK(broker_.PublishTuple(
      "t1", TempTuple(schema, 20.0, 60000, stt::GeoPoint{34.69, 135.50})));
  ASSERT_TRUE(received.location().has_value());
  EXPECT_DOUBLE_EQ(received.location()->lat, 34.75);   // center of [34.5,35)
  EXPECT_DOUBLE_EQ(received.location()->lon, 135.75);  // center of [135.5,136)
}

TEST_F(BrokerTest, UnpublishDropsDataSubscriptions) {
  SL_EXPECT_OK(broker_.Publish(MakeInfo("t1")));
  int count = 0;
  auto sub = broker_.SubscribeData("t1", [&](const stt::TupleRef&) { ++count; });
  ASSERT_TRUE(sub.ok());
  SL_EXPECT_OK(broker_.Unpublish("t1"));
  // Re-publishing the same id starts with a clean subscriber list.
  SL_EXPECT_OK(broker_.Publish(MakeInfo("t1")));
  auto schema = TempSchema();
  SL_EXPECT_OK(broker_.PublishTuple("t1", TempTuple(schema, 20.0, 0)));
  EXPECT_EQ(count, 0);
}

TEST_F(BrokerTest, QuerySubscriptionCoversFutureJoiners) {
  DiscoveryQuery query;
  query.theme = *stt::Theme::Parse("weather");
  std::vector<std::string> seen;
  auto sub = broker_.SubscribeDataByQuery(
      query, [&](const stt::TupleRef& t) { seen.push_back(t->sensor_id()); });

  SL_EXPECT_OK(broker_.Publish(MakeInfo("t1")));
  auto schema = TempSchema();
  SL_EXPECT_OK(broker_.PublishTuple("t1", TempTuple(schema, 1.0, 0,
                                                    stt::GeoPoint{34, 135},
                                                    "t1")));
  EXPECT_EQ(seen, (std::vector<std::string>{"t1"}));

  // A sensor that joins AFTER the subscription is routed too.
  SL_EXPECT_OK(broker_.Publish(MakeInfo("t2")));
  SL_EXPECT_OK(broker_.PublishTuple("t2", TempTuple(schema, 2.0, 0,
                                                    stt::GeoPoint{34, 135},
                                                    "t2")));
  EXPECT_EQ(seen, (std::vector<std::string>{"t1", "t2"}));

  // A non-matching sensor (social theme) is not routed.
  SensorInfo tweet = MakeInfo("tw", "tweet");
  auto tweet_theme = *stt::Theme::Parse("social/tweet");
  tweet.schema = schema->WithStt(schema->temporal_granularity(),
                                 schema->spatial_granularity(), tweet_theme);
  SL_EXPECT_OK(broker_.Publish(tweet));
  SL_EXPECT_OK(broker_.PublishTuple(
      "tw", stt::Tuple::MakeUnsafe(tweet.schema,
                                   {stt::Value::Double(0), stt::Value::Null()},
                                   0, std::nullopt, "tw")));
  EXPECT_EQ(seen.size(), 2u);

  // Unsubscribe stops delivery.
  broker_.Unsubscribe(sub);
  SL_EXPECT_OK(broker_.PublishTuple("t1", TempTuple(schema, 3.0, 0)));
  EXPECT_EQ(seen.size(), 2u);

  // A query subscribed after a sensor has produced reaches its next tuple.
  broker_.SubscribeDataByQuery(
      query, [&](const stt::TupleRef& t) { seen.push_back(t->sensor_id()); });
  SL_EXPECT_OK(broker_.PublishTuple("t1", TempTuple(schema, 4.0, 0,
                                                    stt::GeoPoint{34, 135},
                                                    "t1")));
  EXPECT_EQ(seen, (std::vector<std::string>{"t1", "t2", "t1"}));
}

TEST_F(BrokerTest, ReentrantCallbacksAreSafe) {
  // A registry callback that publishes another sensor must not corrupt
  // iteration.
  int notifications = 0;
  broker_.SubscribeRegistry([&](const SensorEvent& e) {
    ++notifications;
    if (e.info.id == "first") {
      Status s = broker_.Publish(MakeInfo("second"));
      (void)s;
    }
  });
  SL_EXPECT_OK(broker_.Publish(MakeInfo("first")));
  EXPECT_TRUE(broker_.IsPublished("second"));
  EXPECT_EQ(notifications, 2);
}

TEST_F(BrokerTest, FanOutReachesExactlyTheSubscribersPresentAtItsStart) {
  // Data and query callbacks that, during the first fan-out, cancel
  // themselves, cancel later subscribers of either kind, or add new ones.
  // The fan-out still reaches each subscriber present at its start
  // exactly once and none added during it; the changes hold from the
  // next fan-out on.
  SL_ASSERT_OK(broker_.Publish(MakeInfo("t1")));
  DiscoveryQuery temps;
  temps.type = "temperature";
  std::map<std::string, int> got;
  auto counter = [&got](const std::string& label) {
    return [&got, label](const stt::TupleRef&) { ++got[label]; };
  };
  Broker::SubscriptionId d_self = 0, d_victim = 0, q_self = 0, q_victim = 0,
                         q_victim_of_data = 0;
  bool d_mutated = false, q_mutated = false;

  d_self = *broker_.SubscribeData("t1", [&](const stt::TupleRef&) {
    ++got["d_self"];
    broker_.Unsubscribe(d_self);
  });
  SL_ASSERT_OK(broker_.SubscribeData("t1", [&](const stt::TupleRef&) {
    ++got["d_mutator"];
    if (d_mutated) return;
    d_mutated = true;
    broker_.Unsubscribe(d_victim);
    broker_.Unsubscribe(q_victim_of_data);
    SL_EXPECT_OK(broker_.SubscribeData("t1", counter("d_added")).status());
    broker_.SubscribeDataByQuery(temps, counter("q_added"));
  }).status());
  d_victim = *broker_.SubscribeData("t1", counter("d_victim"));
  q_self = broker_.SubscribeDataByQuery(temps, [&](const stt::TupleRef&) {
    ++got["q_self"];
    broker_.Unsubscribe(q_self);
  });
  broker_.SubscribeDataByQuery(temps, [&](const stt::TupleRef&) {
    ++got["q_mutator"];
    if (q_mutated) return;
    q_mutated = true;
    broker_.Unsubscribe(q_victim);
    SL_EXPECT_OK(broker_.SubscribeData("t1", counter("d_added2")).status());
    broker_.SubscribeDataByQuery(temps, counter("q_added2"));
  });
  q_victim = broker_.SubscribeDataByQuery(temps, counter("q_victim"));
  q_victim_of_data =
      broker_.SubscribeDataByQuery(temps, counter("q_victim_of_data"));

  auto schema = TempSchema();
  SL_ASSERT_OK(broker_.PublishTuple("t1", TempTuple(schema, 20.0, 60000)));
  EXPECT_EQ(got, (std::map<std::string, int>{{"d_self", 1},
                                             {"d_mutator", 1},
                                             {"d_victim", 1},
                                             {"q_self", 1},
                                             {"q_mutator", 1},
                                             {"q_victim", 1},
                                             {"q_victim_of_data", 1}}));
  EXPECT_EQ(broker_.tuples_delivered(), 7u);

  SL_ASSERT_OK(broker_.PublishTuple("t1", TempTuple(schema, 21.0, 120000)));
  EXPECT_EQ(got, (std::map<std::string, int>{{"d_self", 1},
                                             {"d_mutator", 2},
                                             {"d_victim", 1},
                                             {"q_self", 1},
                                             {"q_mutator", 2},
                                             {"q_victim", 1},
                                             {"q_victim_of_data", 1},
                                             {"d_added", 1},
                                             {"q_added", 1},
                                             {"d_added2", 1},
                                             {"q_added2", 1}}));
  EXPECT_EQ(broker_.tuples_delivered(), 13u);
}

TEST_F(BrokerTest, UnpublishDuringFanOutFinishesTheFanOut) {
  // A data callback that unpublishes the producing sensor: the remaining
  // subscribers present at the start still get the tuple once, and the
  // sensor is gone afterwards.
  SL_ASSERT_OK(broker_.Publish(MakeInfo("t1")));
  DiscoveryQuery temps;
  temps.type = "temperature";
  int data = 0, query = 0;
  SL_ASSERT_OK(broker_.SubscribeData("t1", [&](const stt::TupleRef&) {
    ++data;
    SL_EXPECT_OK(broker_.Unpublish("t1"));
  }).status());
  SL_ASSERT_OK(broker_.SubscribeData("t1", [&](const stt::TupleRef&) {
    ++data;
  }).status());
  broker_.SubscribeDataByQuery(temps, [&](const stt::TupleRef&) { ++query; });

  auto schema = TempSchema();
  SL_ASSERT_OK(broker_.PublishTuple("t1", TempTuple(schema, 20.0, 60000)));
  EXPECT_EQ(data, 2);
  EXPECT_EQ(query, 1);
  EXPECT_FALSE(broker_.IsPublished("t1"));
  EXPECT_TRUE(broker_.PublishTuple("t1", TempTuple(schema, 21.0, 120000))
                  .IsNotFound());
}

}  // namespace
}  // namespace sl::pubsub
