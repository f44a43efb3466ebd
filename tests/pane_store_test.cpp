// Tests for the blocking operators' window state (ops/tuple_cache.h):
// the pane store's sorted reads and capacity bound against a plain FIFO
// model, key ranks, join key buckets under `==` equality, and the
// bounded firing work of a watermark jump.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>

#include "ops/operator.h"
#include "ops/tuple_cache.h"
#include "tests/reference/blocking.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace sl::ops {
namespace {

using dataflow::AggFunc;
using dataflow::AggregationSpec;
using dataflow::JoinSpec;
using dataflow::OpKind;
using dataflow::TriggerSpec;
using sl::testing::RainSchema;
using sl::testing::RainTuple;
using sl::testing::TempSchema;
using sl::testing::TempTuple;
using stt::Tuple;
using stt::TupleRef;
using stt::Value;

// ------------------------------------------------------ sorted reads --

/// The cache the store must behave like: a deque in arrival order, the
/// capacity bound popping the front, expiry scanning it whole.
struct FifoModel {
  explicit FifoModel(size_t cap) : cap(cap) {}

  size_t Add(TupleRef t) {
    entries.push_back(std::move(t));
    size_t evicted = 0;
    while (entries.size() > cap) {
      entries.pop_front();
      ++evicted;
    }
    return evicted;
  }
  void Expire(Timestamp cutoff) {
    std::erase_if(entries,
                  [cutoff](const TupleRef& t) { return t->timestamp() < cutoff; });
  }
  /// The window [begin, end), sorted by EventOrderLess, as strings.
  std::vector<std::string> Window(Timestamp begin, Timestamp end) const {
    std::vector<TupleRef> view;
    for (const auto& t : entries) {
      if (t->timestamp() >= begin && t->timestamp() < end) view.push_back(t);
    }
    std::sort(view.begin(), view.end(), [](const TupleRef& a, const TupleRef& b) {
      return EventOrderLess(*a, *b);
    });
    std::vector<std::string> out;
    for (const auto& t : view) out.push_back(t->ToString());
    return out;
  }

  size_t cap;
  std::deque<TupleRef> entries;
};

std::vector<std::string> Strings(const PaneStore::View& view) {
  std::vector<std::string> out;
  for (const PaneStore::Slot* s : view) out.push_back(s->tuple->ToString());
  return out;
}

TEST(PaneStoreTest, SortedReadMatchesTheWindowScan) {
  // Sliding windows 2.5 panes wide (not a multiple of the interval),
  // arrivals up to a few panes out of order, duplicate timestamps that
  // fall through to the sensor and content tie-breaks, capacity
  // evictions and expiry, over many seeds.
  const Duration kInterval = 100;
  const Duration kWindow = 250;
  auto schema = TempSchema();
  uint64_t evicted_total = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    const size_t cap = seed % 2 == 0 ? 30 : 1000;
    PaneStore store(cap);
    FifoModel model(cap);
    EventWindow grid(kInterval, kWindow);
    Timestamp frontier = 0;
    PaneStore::View view;
    for (int round = 0; round < 12; ++round) {
      const size_t n = rng.NextBounded(40);
      for (size_t i = 0; i < n; ++i) {
        Timestamp ts = frontier + static_cast<Timestamp>(rng.NextBounded(400)) - 200;
        ts -= ts % 5;  // frequent timestamp ties
        auto t = Tuple::Share(TempTuple(
            schema, static_cast<double>(rng.NextBounded(4)), ts,
            stt::GeoPoint{34.0, 135.0},
            rng.NextBounded(2) == 0 ? "a" : "b"));
        const size_t dropped =
            store.Add(stt::AlignDown(ts, kInterval), t, /*key=*/0);
        ASSERT_EQ(dropped, model.Add(t)) << "seed " << seed;
        evicted_total += dropped;
      }
      frontier += 150;
      for (Timestamp end : grid.Advance(frontier, store.PaneKeys())) {
        const Timestamp begin = end - kWindow;
        store.Read({stt::AlignDown(begin, kInterval), end, begin, end},
                   /*sorted=*/true, &view);
        ASSERT_EQ(Strings(view), model.Window(begin, end))
            << "seed " << seed << ", window ending " << end;
      }
      store.EvictOlderThan(grid.EvictionCutoff());
      model.Expire(grid.EvictionCutoff());
      ASSERT_EQ(store.size(), model.entries.size()) << "seed " << seed;
    }
    // Arrival order survives sorting, eviction and sweeps: an unsorted
    // read lists the panes in order, each in arrival order.
    std::vector<TupleRef> by_pane(model.entries.begin(), model.entries.end());
    std::stable_sort(by_pane.begin(), by_pane.end(),
                     [&](const TupleRef& a, const TupleRef& b) {
                       return stt::AlignDown(a->timestamp(), kInterval) <
                              stt::AlignDown(b->timestamp(), kInterval);
                     });
    store.Read({}, /*sorted=*/false, &view);
    ASSERT_EQ(view.size(), by_pane.size());
    for (size_t i = 0; i < view.size(); ++i) {
      EXPECT_EQ(view[i]->tuple, by_pane[i]) << "seed " << seed;
    }
  }
  EXPECT_GT(evicted_total, 0u);
}

TEST(PaneStoreTest, UnsortedReadIsArrivalOrderAcrossEpochs) {
  PaneStore store(4);
  auto schema = TempSchema();
  std::vector<TupleRef> added;
  for (int i = 0; i < 6; ++i) {
    auto t = Tuple::Share(TempTuple(schema, i, 1000 - 100 * i));
    added.push_back(t);
    store.Add(store.epoch(), t, 0);
    if (i == 2) store.CloseEpoch();
  }
  // The bound kept the four newest arrivals; a read lists them in
  // arrival order even though their timestamps descend.
  PaneStore::View view;
  store.Read({}, /*sorted=*/false, &view);
  ASSERT_EQ(view.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(view[i]->tuple, added[i + 2]);
  // Expiry removes by timestamp, whatever the epoch.
  store.EvictOlderThan(650);
  store.Read({}, /*sorted=*/false, &view);
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0]->tuple, added[2]);
  EXPECT_EQ(view[1]->tuple, added[3]);
  EXPECT_EQ(store.size(), 2u);
}

// -------------------------------------------------------------- ranks --

TEST(KeyInternerTest, RanksFollowByteOrderForInterleavedInterning) {
  Rng rng(7);
  KeyInterner keys;
  std::vector<std::string> forms;
  for (int batch = 0; batch < 6; ++batch) {
    for (int i = 0; i < 25; ++i) {
      std::string form = "s" + std::to_string(rng.NextBounded(120)) + '\x1f';
      uint32_t id = keys.Intern(form);
      if (id == forms.size()) forms.push_back(form);
      ASSERT_EQ(forms[id], form);
    }
    const std::vector<uint32_t>& rank = keys.Ranks();
    ASSERT_EQ(rank.size(), forms.size());
    for (uint32_t a = 0; a < forms.size(); ++a) {
      for (uint32_t b = 0; b < forms.size(); ++b) {
        ASSERT_EQ(rank[a] < rank[b], forms[a] < forms[b]) << forms[a] << " "
                                                         << forms[b];
      }
    }
  }
  // Compaction forgets the unmarked ids and keeps the order of the rest.
  std::vector<bool> used(forms.size());
  for (size_t id = 0; id < forms.size(); id += 3) used[id] = true;
  std::vector<uint32_t> remap = keys.Compact(used);
  std::vector<std::string> kept(keys.size());
  for (size_t id = 0; id < forms.size(); ++id) {
    if (!used[id]) {
      EXPECT_EQ(remap[id], KeyInterner::kNoId);
      continue;
    }
    kept[remap[id]] = forms[id];
    EXPECT_EQ(keys.Intern(forms[id]), remap[id]);
  }
  const std::vector<uint32_t>& rank = keys.Ranks();
  for (uint32_t a = 0; a < kept.size(); ++a) {
    for (uint32_t b = 0; b < kept.size(); ++b) {
      ASSERT_EQ(rank[a] < rank[b], kept[a] < kept[b]);
    }
  }
}

// -------------------------------------------------------- join buckets --

TEST(PaneStoreTest, JoinBucketsFollowKeyEquality) {
  // One key column, the `==` corner cases on both sides: null matches
  // nothing, NaN matches every number, -0.0 equals +0.0, an int equals
  // the same double, and int64 keys above 2^53 that share a double.
  auto schema = *stt::Schema::Make(
      {{"k", stt::ValueType::kDouble, "", true}},
      *stt::TemporalGranularity::Make(duration::kSecond),
      stt::SpatialGranularity::Point(), *stt::Theme::Parse("test/keys"));
  const int64_t big = int64_t{1} << 53;
  const std::vector<Value> values = {
      Value::Null(),       Value::Double(std::nan("")), Value::Double(-0.0),
      Value::Double(0.0),  Value::Int(0),               Value::Int(3),
      Value::Double(3.0),  Value::Double(3.5),          Value::Int(big),
      Value::Int(big + 1), Value::String("3"),
  };
  const std::vector<size_t> cols = {0};
  KeyInterner keys;
  std::string form;
  auto key_of = [&](const Tuple& t) {
    switch (JoinKeyForm(t, cols, &form)) {
      case JoinKeyKind::kNull: return PaneStore::kNullKey;
      case JoinKeyKind::kNan: return PaneStore::kNanKey;
      case JoinKeyKind::kNormal: break;
    }
    return keys.Intern(form);
  };
  PaneStore right(1000);
  std::vector<TupleRef> stored;
  for (int copy = 0; copy < 2; ++copy) {
    for (size_t i = 0; i < values.size(); ++i) {
      // Two panes, so candidates come from both in pane order.
      Timestamp ts = static_cast<Timestamp>(copy * 1000 + i);
      auto t = Tuple::Share(Tuple::MakeUnsafe(schema, {values[i]}, ts,
                                              std::nullopt, "r"));
      right.Add(stt::AlignDown(ts, 1000), t, key_of(*t));
      stored.push_back(t);
    }
  }
  PaneStore::View all;
  right.Read({}, /*sorted=*/true, &all);
  PaneStore::View candidates;
  for (const Value& probe_value : values) {
    Tuple probe = Tuple::MakeUnsafe(schema, {probe_value}, 0, std::nullopt, "l");
    const uint32_t key = key_of(probe);
    if (key == PaneStore::kNullKey || key == PaneStore::kNanKey) continue;
    right.Probe(key, {}, &candidates);
    // Every tuple `==` accepts is a candidate, in read order; NaN-keyed
    // tuples always are, null-keyed ones never.
    std::vector<const PaneStore::Slot*> matching;
    for (const PaneStore::Slot* s : all) {
      if (JoinKeyEquals(probe_value, s->tuple->value(0))) matching.push_back(s);
    }
    std::vector<const PaneStore::Slot*> accepted;
    for (const PaneStore::Slot* s : candidates) {
      EXPECT_FALSE(s->tuple->value(0).is_null());
      if (JoinKeyEquals(probe_value, s->tuple->value(0))) accepted.push_back(s);
    }
    EXPECT_EQ(accepted, matching) << probe_value.ToString();
    // Candidates `==` rejects: the other int64 of the pair that shares a
    // double, and the NaN keys for a string probe — which is why
    // candidates must still pass it.
    const bool is_big = probe_value.type() == stt::ValueType::kInt &&
                        probe_value.AsInt() >= big;
    EXPECT_EQ(candidates.size() - accepted.size(),
              is_big || !probe_value.is_numeric() ? 2u : 0u)
        << probe_value.ToString();
  }
}

// ------------------------------------------------------------ key churn --

TEST(KeyChurnTest, CompactedKeyTablesKeepTheOutput) {
  // Every window brings 60 keys never seen before, so the key tables
  // outgrow twice the cache by their slack many times over and are
  // compacted while tuples and (for the join) key buckets hold ids. The
  // output must stay the reference's.
  for (bool sliding : {false, true}) {
    AggregationSpec agg;
    agg.interval = duration::kSecond;
    agg.window = sliding ? 2 * duration::kSecond : 0;
    agg.func = AggFunc::kSum;
    agg.attributes = {"temp"};
    agg.group_by = {"station"};
    JoinSpec join;
    join.interval = duration::kSecond;
    join.window = agg.window;
    join.predicate = "l_station == r_station";
    OperatorOptions options;
    options.watermark.time_policy = TimePolicy::kEvent;
    auto schema = TempSchema(duration::kSecond);
    std::vector<Tuple> out[4];
    std::unique_ptr<Operator> ops[4];
    for (int i = 0; i < 4; ++i) {
      const bool reference = i % 2 == 1;
      auto made =
          i < 2 ? (reference
                       ? reference::MakeBlockingReference(
                             "agg", OpKind::kAggregation, agg, {schema},
                             {"in"}, options)
                       : MakeOperator("agg", OpKind::kAggregation, agg,
                                      {schema}, {"in"}, options))
                : (reference ? reference::MakeBlockingReference(
                                   "join", OpKind::kJoin, join,
                                   {schema, schema}, {"l", "r"}, options)
                             : MakeOperator("join", OpKind::kJoin, join,
                                            {schema, schema}, {"l", "r"},
                                            options));
      ASSERT_TRUE(made.ok()) << made.status();
      ops[i] = std::move(made).ValueOrDie();
      ops[i]->set_emit([&out, i](const TupleRef& t) { out[i].push_back(*t); });
    }
    const Timestamp t0 = 1458000000000;
    for (int window = 0; window < 40; ++window) {
      for (int k = 0; k < 120; ++k) {
        const Timestamp ts = t0 + window * duration::kSecond + k * 8;
        const std::string station =
            "w" + std::to_string(window) + "_" + std::to_string(k % 60);
        auto t = Tuple::Share(Tuple::MakeUnsafe(
            schema, {Value::Double(k % 7), Value::String(station)}, ts,
            std::nullopt, "s"));
        const size_t port = static_cast<size_t>(k / 60);
        for (int i = 0; i < 4; ++i) {
          const size_t p = i < 2 ? 0 : port;
          ops[i]->ObserveWatermark(p, ts);
          if (i >= 2) ops[i]->ObserveWatermark(1 - p, ts);
          SL_ASSERT_OK(ops[i]->Process(p, t));
        }
      }
      for (int i = 0; i < 4; ++i) SL_ASSERT_OK(ops[i]->Flush(0));
    }
    EXPECT_FALSE(out[0].empty());
    EXPECT_FALSE(out[2].empty());
    for (int i = 0; i < 4; i += 2) {
      ASSERT_EQ(out[i].size(), out[i + 1].size()) << i << " " << sliding;
      for (size_t r = 0; r < out[i].size(); ++r) {
        ASSERT_EQ(out[i][r].ToString(), out[i + 1][r].ToString())
            << "operator " << i << ", row " << r << ", sliding " << sliding;
      }
    }
  }
}

// ------------------------------------------------------ watermark jump --

TEST(EventWindowTest, WatermarkJumpFiresOnlyTheEndsThatHoldData) {
  // A 1 s tumbling grid, one tuple before and one after a 30-day gap:
  // two ends fire, not the 2.6 million the gap spans.
  EventWindow grid(duration::kSecond, 0);
  const Timestamp t0 = 1458000000000;
  const Timestamp t1 = t0 + 30 * duration::kDay;
  std::vector<Timestamp> ends = grid.Advance(
      t1 + 5 * duration::kSecond,
      {stt::AlignDown(t0, duration::kSecond), stt::AlignDown(t1, duration::kSecond)});
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends[0], stt::AlignDown(t0, duration::kSecond) + duration::kSecond);
  EXPECT_EQ(ends[1], stt::AlignDown(t1, duration::kSecond) + duration::kSecond);
  EXPECT_EQ(grid.fired_end(), t1 + 5 * duration::kSecond);
  // The grid then reads as fired through the horizon.
  EXPECT_TRUE(grid.IsLate(t1 + 4 * duration::kSecond));
  EXPECT_FALSE(grid.IsLate(t1 + 5 * duration::kSecond));
  // A sliding window reaches the ends its panes overlap.
  EventWindow sliding(100, 250);
  EXPECT_EQ(sliding.Advance(1000, {0, 500}),
            (std::vector<Timestamp>{100, 200, 300, 600, 700, 800}));
  EXPECT_EQ(sliding.Advance(1200, {500, 1000}),
            (std::vector<Timestamp>{1100, 1200}));
}

/// Rows as strings, with `shift` subtracted from the timestamps of rows
/// stamped at or after `from` (a gap's worth, so a run over a gap
/// compares with one without it).
std::vector<std::string> Unshifted(const std::vector<Tuple>& rows,
                                   Timestamp from, Duration shift) {
  std::vector<std::string> out;
  for (const Tuple& t : rows) {
    Timestamp ts = t.timestamp() >= from ? t.timestamp() - shift : t.timestamp();
    out.push_back(Tuple::MakeUnsafe(t.schema(), t.values(), ts, t.location(),
                                    t.sensor_id())
                      .ToString());
  }
  return out;
}

class CountingActivation : public ActivationHandler {
 public:
  void ActivateSensors(const std::vector<std::string>&, Timestamp) override {
    ++count;
  }
  void DeactivateSensors(const std::vector<std::string>&, Timestamp) override {
    ++count;
  }
  uint64_t count = 0;
};

struct GapRun {
  std::vector<Tuple> rows;
  uint64_t activations = 0;
};

const Timestamp kGapT0 = 1458000000000;

/// Feeds an event-time operator over the temp schema (port 0) and, for a
/// join, the rain schema (port 1) a burst of tuples spanning a few
/// seconds, then the same burst `gap` later, each port's watermark at
/// its latest timestamp, so the watermark jumps across the gap.
GapRun RunAcrossGap(OpKind kind, const dataflow::OpSpec& spec, Duration gap) {
  CountingActivation activation;
  OperatorOptions options;
  options.activation = &activation;
  options.watermark.time_policy = TimePolicy::kEvent;
  options.watermark.allowed_lateness = 400;
  const bool join = kind == OpKind::kJoin;
  std::vector<stt::SchemaPtr> inputs = {TempSchema(duration::kSecond)};
  std::vector<std::string> names = {"in"};
  if (join) {
    inputs.push_back(RainSchema(duration::kSecond));
    names = {"l", "r"};
  }
  auto made = MakeOperator("op", kind, spec, inputs, names, options);
  EXPECT_TRUE(made.ok()) << made.status();
  std::unique_ptr<Operator> op = std::move(made).ValueOrDie();
  GapRun run;
  op->set_emit([&run](const TupleRef& t) { run.rows.push_back(*t); });
  Timestamp watermark[2] = {kGapT0, kGapT0};
  for (int burst = 0; burst < 2; ++burst) {
    const Timestamp base = kGapT0 + burst * gap;
    for (int i = 0; i < 60; ++i) {
      const size_t port = join ? static_cast<size_t>(i % 2) : 0;
      // Mostly ascending, every seventh tuple 300 ms behind.
      const Timestamp ts = base + i * 70 - (i % 7 == 0 ? 300 : 0);
      const double value = static_cast<double>(i % 5);
      Tuple t = port == 0 ? TempTuple(inputs[0], value, ts)
                          : RainTuple(inputs[1], value, ts);
      watermark[port] = std::max(watermark[port], ts);
      op->ObserveWatermark(port, watermark[port]);
      SL_EXPECT_OK(op->Process(port, std::move(t)));
      if (i % 10 == 9) {
        SL_EXPECT_OK(op->Flush(0));
      }
    }
  }
  for (size_t port = 0; port < inputs.size(); ++port) {
    op->ObserveWatermark(port, kGapT0 + gap + 10 * duration::kSecond);
  }
  SL_EXPECT_OK(op->Flush(0));
  run.activations = activation.count;
  return run;
}

/// The rows a 30-day gap produces are the rows a 20 s gap produces,
/// the second burst's shifted by the difference.
void ExpectGapInvisible(OpKind kind, const dataflow::OpSpec& spec,
                        const char* what) {
  const Duration kShort = 20 * duration::kSecond;
  const Duration kLong = 30 * duration::kDay;
  GapRun near = RunAcrossGap(kind, spec, kShort);
  GapRun far = RunAcrossGap(kind, spec, kLong);
  EXPECT_FALSE(near.rows.empty()) << what;
  // Rows past the middle of the gap belong to the second burst.
  EXPECT_EQ(Unshifted(far.rows, kGapT0 + kLong / 2, kLong - kShort),
            Unshifted(near.rows, kGapT0 + kLong / 2, 0))
      << what;
  EXPECT_EQ(far.activations, near.activations) << what;
}

TEST(WatermarkJumpTest, OperatorsEmitTheSameRowsAcrossAGap) {
  AggregationSpec tumbling;
  tumbling.interval = duration::kSecond;
  tumbling.func = AggFunc::kAvg;
  tumbling.attributes = {"temp"};
  tumbling.group_by = {"station"};
  ExpectGapInvisible(OpKind::kAggregation, tumbling, "tumbling aggregation");

  AggregationSpec sliding = tumbling;
  sliding.window = 2500;  // not a multiple of the interval
  ExpectGapInvisible(OpKind::kAggregation, sliding, "sliding aggregation");

  JoinSpec join;
  join.interval = duration::kSecond;
  join.predicate = "temp == rain";
  ExpectGapInvisible(OpKind::kJoin, join, "tumbling join");
  join.window = 2 * duration::kSecond;
  ExpectGapInvisible(OpKind::kJoin, join, "sliding join");

  TriggerSpec trigger;
  trigger.interval = duration::kSecond;
  trigger.condition = "temp > 3";
  trigger.target_sensors = {"r1"};
  ExpectGapInvisible(OpKind::kTriggerOn, trigger, "trigger");
  GapRun fired = RunAcrossGap(OpKind::kTriggerOn, trigger, 30 * duration::kDay);
  EXPECT_GT(fired.activations, 0u);
}

}  // namespace
}  // namespace sl::ops
