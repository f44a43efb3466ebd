// Unit + property tests for the Table 1 runtime operators (src/ops) and
// the sample-based dataflow debugger.

#include <gtest/gtest.h>

#include <cmath>

#include "dataflow/op_spec.h"
#include "ops/debugger.h"
#include "ops/operator.h"
#include "pubsub/broker.h"
#include "tests/reference/blocking.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sl::ops {
namespace {

using dataflow::AggFunc;
using dataflow::AggregationSpec;
using dataflow::CullSpaceSpec;
using dataflow::CullTimeSpec;
using dataflow::FilterSpec;
using dataflow::JoinSpec;
using dataflow::OpKind;
using dataflow::TransformSpec;
using dataflow::TriggerSpec;
using dataflow::VirtualPropertySpec;
using sl::testing::RainSchema;
using sl::testing::RainTuple;
using sl::testing::TempSchema;
using sl::testing::TempTuple;
using stt::Tuple;
using stt::Value;
using stt::ValueType;
using sl::Rng;
using sl::StrFormat;

/// Records trigger requests for assertions.
class FakeActivation : public ActivationHandler {
 public:
  void ActivateSensors(const std::vector<std::string>& ids,
                       Timestamp) override {
    for (const auto& id : ids) activated.push_back(id);
  }
  void DeactivateSensors(const std::vector<std::string>& ids,
                         Timestamp) override {
    for (const auto& id : ids) deactivated.push_back(id);
  }
  std::vector<std::string> activated;
  std::vector<std::string> deactivated;
};

/// Builds an operator over the temp schema and collects its emissions.
struct Harness {
  explicit Harness(dataflow::OpKind op, dataflow::OpSpec spec,
                   std::vector<stt::SchemaPtr> inputs = {TempSchema()},
                   std::vector<std::string> names = {"in"},
                   size_t max_cache = 1 << 20) {
    OperatorOptions options;
    options.activation = &activation;
    options.max_cache_tuples = max_cache;
    auto result = MakeOperator("op", op, std::move(spec), inputs, names,
                               options);
    EXPECT_TRUE(result.ok()) << result.status();
    if (result.ok()) {
      op_ = std::move(result).ValueOrDie();
      op_->set_emit([this](const stt::TupleRef& t) { out.push_back(*t); });
    }
  }
  Operator& op() { return *op_; }

  std::unique_ptr<Operator> op_;
  std::vector<Tuple> out;
  FakeActivation activation;
};

// ---------------------------------------------------------------- filter --

TEST(FilterOperatorTest, KeepsOnlyMatching) {
  Harness h(OpKind::kFilter, FilterSpec{"temp > 20"});
  auto schema = TempSchema();
  for (double v : {15.0, 25.0, 20.0, 30.0}) {
    SL_EXPECT_OK(h.op().Process(0, TempTuple(schema, v, 0)));
  }
  ASSERT_EQ(h.out.size(), 2u);
  EXPECT_DOUBLE_EQ(h.out[0].value(0).AsDouble(), 25.0);
  EXPECT_DOUBLE_EQ(h.out[1].value(0).AsDouble(), 30.0);
  EXPECT_EQ(h.op().stats().tuples_in, 4u);
  EXPECT_EQ(h.op().stats().tuples_out, 2u);
  EXPECT_FALSE(h.op().is_blocking());
}

TEST(FilterOperatorTest, NullConditionDropsTuple) {
  Harness h(OpKind::kFilter, FilterSpec{"station == 'osaka'"});
  auto schema = TempSchema();
  Tuple with_null = Tuple::MakeUnsafe(
      schema, {Value::Double(1.0), Value::Null()}, 0, std::nullopt, "s");
  SL_EXPECT_OK(h.op().Process(0, with_null));
  EXPECT_TRUE(h.out.empty());
}

// Property: filter output is a subsequence of its input.
TEST(FilterOperatorTest, OutputSubsetOfInput) {
  Rng rng(41);
  Harness h(OpKind::kFilter, FilterSpec{"temp > 20"});
  auto schema = TempSchema();
  std::vector<Tuple> fed;
  for (int i = 0; i < 500; ++i) {
    Tuple t = TempTuple(schema, rng.NextDouble(0, 40), i);
    fed.push_back(t);
    SL_EXPECT_OK(h.op().Process(0, t));
  }
  size_t fi = 0;
  for (const auto& o : h.out) {
    while (fi < fed.size() && !fed[fi].EqualsIgnoringSensor(o)) ++fi;
    ASSERT_LT(fi, fed.size()) << "emitted tuple not found in input order";
    ++fi;
  }
}

// ------------------------------------------------------------- transform --

TEST(TransformOperatorTest, RewritesAttributeInPlace) {
  Harness h(OpKind::kTransform,
            TransformSpec{"temp", "convert_unit(temp, 'celsius', 'fahrenheit')",
                          "fahrenheit"});
  auto schema = TempSchema();
  SL_EXPECT_OK(h.op().Process(0, TempTuple(schema, 100.0, 0)));
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_NEAR(h.out[0].value(0).AsDouble(), 212.0, 1e-9);
  EXPECT_EQ((*h.out[0].schema()->FieldByName("temp")).unit, "fahrenheit");
  // Station column untouched.
  EXPECT_EQ(h.out[0].value(1).AsString(), "osaka");
}

TEST(TransformOperatorTest, TypeChangeCoerces) {
  // floor() yields int: the attribute's declared type changes.
  Harness h(OpKind::kTransform, TransformSpec{"temp", "floor(temp)", ""});
  auto schema = TempSchema();
  SL_EXPECT_OK(h.op().Process(0, TempTuple(schema, 21.7, 0)));
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_EQ(h.out[0].value(0).type(), ValueType::kInt);
  EXPECT_EQ(h.out[0].value(0).AsInt(), 21);
}

// -------------------------------------------------------- virtual property --

TEST(VirtualPropertyOperatorTest, AppendsComputedAttribute) {
  // The paper's own example: apparent temperature.
  Harness h(OpKind::kVirtualProperty,
            VirtualPropertySpec{"feels", "apparent_temp(temp, 70)",
                                "celsius"});
  auto schema = TempSchema();
  SL_EXPECT_OK(h.op().Process(0, TempTuple(schema, 30.0, 0)));
  ASSERT_EQ(h.out.size(), 1u);
  ASSERT_EQ(h.out[0].values().size(), 3u);
  EXPECT_GT(h.out[0].value(2).AsDouble(), 30.0);
  EXPECT_TRUE(h.out[0].schema()->HasField("feels"));
  // One output per input, always.
  SL_EXPECT_OK(h.op().Process(0, TempTuple(schema, 10.0, 1)));
  EXPECT_EQ(h.out.size(), 2u);
}

// ------------------------------------------------ batch vs per-tuple --

// ProcessBatch is the threaded runtime's path for kBatch messages; a
// Process loop on a fresh operator is its reference. Seeded batches mix
// null, NaN, -0.0 and type-mismatched rows, so the per-row error path
// runs too.
TEST(ProcessBatchOracleTest, MatchesProcessLoop) {
  const std::pair<OpKind, dataflow::OpSpec> cases[] = {
      {OpKind::kFilter, FilterSpec{"temp > 0 and station == 'osaka'"}},
      {OpKind::kFilter, FilterSpec{"sqrt(temp) > 5 or $lat > 34.5"}},
      {OpKind::kTransform, TransformSpec{"temp", "temp * 1.8 + 32", ""}},
      {OpKind::kTransform, TransformSpec{"temp", "floor(temp)", ""}},
      {OpKind::kVirtualProperty,
       VirtualPropertySpec{"feels", "apparent_temp(temp, 70)", "celsius"}},
      {OpKind::kVirtualProperty,
       VirtualPropertySpec{"band", "if(temp > 20, 'hot', 'cold')", ""}},
  };
  Rng rng(431);
  size_t total_errors = 0;
  size_t total_out = 0;
  for (const auto& [kind, spec] : cases) {
    const std::string what = dataflow::SpecToString(kind, spec);
    for (int round = 0; round < 8; ++round) {
      const std::vector<stt::TupleRef> refs = sl::testing::RandomTempBatch(
          &rng, 1 + rng.NextBounded(96), /*with_bad_rows=*/true);
      const std::string context =
          what + StrFormat(" round %d (%zu rows)", round, refs.size());

      // Reference: one Process call per row. Each emission is tagged
      // with the row that produced it.
      Harness scalar(kind, spec);
      ASSERT_NE(scalar.op_, nullptr) << context;
      std::vector<size_t> scalar_rows;
      std::vector<std::pair<size_t, std::string>> scalar_errors;
      for (size_t row = 0; row < refs.size(); ++row) {
        Status s = scalar.op().Process(0, refs[row]);
        if (!s.ok()) scalar_errors.emplace_back(row, s.ToString());
        scalar_rows.resize(scalar.out.size(), row);
      }

      // ProcessBatch on a fresh operator: each emission is tagged with
      // the row on_row announced last.
      Harness batched(kind, spec);
      ASSERT_NE(batched.op_, nullptr) << context;
      ASSERT_TRUE(batched.op().batchable(0)) << context;
      size_t announced = refs.size();  // no row announced yet
      std::vector<size_t> batched_rows;
      batched.op().set_emit([&](const stt::TupleRef& t) {
        batched.out.push_back(*t);
        batched_rows.push_back(announced);
      });
      Operator::BatchContext ctx;
      ctx.on_row = [&](size_t row) { announced = row; };
      SL_EXPECT_OK(batched.op().ProcessBatch(0, refs.data(), refs.size(),
                                             &ctx));
      std::vector<std::pair<size_t, std::string>> batched_errors;
      for (const Operator::BatchRowError& e : ctx.errors) {
        batched_errors.emplace_back(e.row, e.status.ToString());
      }

      ASSERT_EQ(batched.out.size(), scalar.out.size()) << context;
      for (size_t i = 0; i < scalar.out.size(); ++i) {
        EXPECT_EQ(batched.out[i].ToString(), scalar.out[i].ToString())
            << context << " @ emission " << i;
      }
      EXPECT_EQ(batched_errors, scalar_errors) << context;
      EXPECT_EQ(batched.op().stats().tuples_in, scalar.op().stats().tuples_in)
          << context;
      EXPECT_EQ(batched.op().stats().tuples_out,
                scalar.op().stats().tuples_out)
          << context;
      EXPECT_EQ(batched_rows, scalar_rows) << context;
      total_errors += scalar_errors.size();
      total_out += scalar.out.size();
    }
  }
  // Neither comparison may be vacuous.
  EXPECT_GT(total_errors, 0u);
  EXPECT_GT(total_out, 0u);
}

// ------------------------------------------------------------------ cull --

TEST(CullTimeOperatorTest, DecimatesInsideIntervalOnly) {
  CullTimeSpec spec;
  spec.t_begin = 1000;
  spec.t_end = 1999;
  spec.rate = 0.5;
  Harness h(OpKind::kCullTime, spec);
  auto schema = TempSchema();
  // 100 tuples inside the interval, 50 outside.
  for (int i = 0; i < 100; ++i) {
    SL_EXPECT_OK(h.op().Process(0, TempTuple(schema, 1.0, 1000 + i)));
  }
  for (int i = 0; i < 50; ++i) {
    SL_EXPECT_OK(h.op().Process(0, TempTuple(schema, 1.0, 5000 + i)));
  }
  // Inside: exactly half survive (systematic); outside: all survive.
  size_t inside = 0, outside = 0;
  for (const auto& t : h.out) {
    (t.timestamp() < 2000 ? inside : outside)++;
  }
  EXPECT_EQ(inside, 50u);
  EXPECT_EQ(outside, 50u);
}

TEST(CullTimeOperatorTest, RateEdgeCases) {
  auto schema = TempSchema();
  {
    CullTimeSpec all{0, 1000000, 1.0};  // cull everything inside
    Harness h(OpKind::kCullTime, all);
    for (int i = 0; i < 20; ++i) {
      SL_EXPECT_OK(h.op().Process(0, TempTuple(schema, 1.0, i)));
    }
    EXPECT_TRUE(h.out.empty());
  }
  {
    CullTimeSpec none{0, 1000000, 0.0};  // keep everything
    Harness h(OpKind::kCullTime, none);
    for (int i = 0; i < 20; ++i) {
      SL_EXPECT_OK(h.op().Process(0, TempTuple(schema, 1.0, i)));
    }
    EXPECT_EQ(h.out.size(), 20u);
  }
}

// Property: for any rate, the kept fraction inside the region converges
// to 1 - rate and order is preserved.
class CullRateProperty : public ::testing::TestWithParam<double> {};

TEST_P(CullRateProperty, KeepsExpectedFraction) {
  double rate = GetParam();
  CullTimeSpec spec{0, 10000000, rate};
  Harness h(OpKind::kCullTime, spec);
  auto schema = TempSchema();
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    SL_EXPECT_OK(h.op().Process(0, TempTuple(schema, i, i)));
  }
  double kept = static_cast<double>(h.out.size()) / n;
  EXPECT_NEAR(kept, 1.0 - rate, 0.002) << "rate=" << rate;
  // Order preserved.
  for (size_t i = 1; i < h.out.size(); ++i) {
    EXPECT_LT(h.out[i - 1].timestamp(), h.out[i].timestamp());
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, CullRateProperty,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           1.0));

TEST(CullSpaceOperatorTest, DecimatesInsideBoxOnly) {
  CullSpaceSpec spec;
  spec.corner1 = {35.0, 136.0};  // corners in "wrong" order on purpose
  spec.corner2 = {34.0, 135.0};
  spec.rate = 0.5;
  Harness h(OpKind::kCullSpace, spec);
  auto schema = TempSchema();
  for (int i = 0; i < 100; ++i) {
    SL_EXPECT_OK(h.op().Process(
        0, TempTuple(schema, 1.0, i, stt::GeoPoint{34.5, 135.5})));
  }
  for (int i = 0; i < 30; ++i) {
    SL_EXPECT_OK(h.op().Process(
        0, TempTuple(schema, 1.0, 1000 + i, stt::GeoPoint{33.0, 135.5})));
  }
  // Tuples without location pass unchanged.
  for (int i = 0; i < 10; ++i) {
    SL_EXPECT_OK(
        h.op().Process(0, TempTuple(schema, 1.0, 2000 + i, std::nullopt)));
  }
  EXPECT_EQ(h.out.size(), 50u + 30u + 10u);
}

// ----------------------------------------------------------- aggregation --

TEST(AggregationOperatorTest, AvgOverInterval) {
  AggregationSpec spec;
  spec.interval = duration::kHour;
  spec.func = AggFunc::kAvg;
  spec.attributes = {"temp"};
  Harness h(OpKind::kAggregation, spec);
  auto schema = TempSchema();
  for (double v : {10.0, 20.0, 30.0}) {
    SL_EXPECT_OK(h.op().Process(0, TempTuple(schema, v, 1000)));
  }
  EXPECT_TRUE(h.out.empty());  // blocking: nothing until the flush
  EXPECT_EQ(h.op().stats().cache_size, 3u);
  SL_EXPECT_OK(h.op().Flush(duration::kHour));
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_DOUBLE_EQ(h.out[0].value(0).AsDouble(), 20.0);
  EXPECT_EQ(h.op().stats().cache_size, 0u);
  EXPECT_EQ(h.op().stats().flushes, 1u);
  // Output timestamp lies at the interval granularity.
  EXPECT_EQ(h.out[0].timestamp() % duration::kHour, 0);
  EXPECT_TRUE(h.op().is_blocking());
  EXPECT_EQ(h.op().interval(), duration::kHour);
}

TEST(AggregationOperatorTest, EmptyFlushEmitsNothing) {
  AggregationSpec spec;
  spec.interval = duration::kHour;
  spec.func = AggFunc::kAvg;
  spec.attributes = {"temp"};
  Harness h(OpKind::kAggregation, spec);
  SL_EXPECT_OK(h.op().Flush(duration::kHour));
  EXPECT_TRUE(h.out.empty());
}

TEST(AggregationOperatorTest, AllFunctions) {
  auto schema = TempSchema();
  auto run = [&](AggFunc func) {
    AggregationSpec spec;
    spec.interval = duration::kHour;
    spec.func = func;
    spec.attributes = {"temp"};
    Harness h(OpKind::kAggregation, spec);
    for (double v : {3.0, 1.0, 2.0}) {
      EXPECT_TRUE(h.op().Process(0, TempTuple(schema, v, 0)).ok());
    }
    EXPECT_TRUE(h.op().Flush(duration::kHour).ok());
    return h.out.at(0).value(0);
  };
  EXPECT_DOUBLE_EQ(run(AggFunc::kAvg).AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(run(AggFunc::kSum).AsDouble(), 6.0);
  EXPECT_DOUBLE_EQ(run(AggFunc::kMin).AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(run(AggFunc::kMax).AsDouble(), 3.0);
  EXPECT_EQ(run(AggFunc::kCount).AsInt(), 3);
}

TEST(AggregationOperatorTest, GroupByEmitsPerGroup) {
  AggregationSpec spec;
  spec.interval = duration::kHour;
  spec.func = AggFunc::kCount;
  spec.attributes = {"temp"};
  spec.group_by = {"station"};
  Harness h(OpKind::kAggregation, spec);
  auto schema = TempSchema();
  auto mk = [&](double v, const std::string& st) {
    return Tuple::MakeUnsafe(schema, {Value::Double(v), Value::String(st)},
                             1000, stt::GeoPoint{34, 135}, "s");
  };
  SL_EXPECT_OK(h.op().Process(0, mk(1, "osaka")));
  SL_EXPECT_OK(h.op().Process(0, mk(2, "kyoto")));
  SL_EXPECT_OK(h.op().Process(0, mk(3, "osaka")));
  SL_EXPECT_OK(h.op().Flush(duration::kHour));
  ASSERT_EQ(h.out.size(), 2u);  // one tuple per group
  // Groups are keyed deterministically; find osaka.
  int osaka_count = -1;
  for (const auto& t : h.out) {
    if (t.value(0).AsString() == "osaka") osaka_count = t.value(1).AsInt();
  }
  EXPECT_EQ(osaka_count, 2);
}

TEST(AggregationOperatorTest, NullsIgnored) {
  AggregationSpec spec;
  spec.interval = duration::kHour;
  spec.func = AggFunc::kAvg;
  spec.attributes = {"temp"};
  Harness h(OpKind::kAggregation, spec);
  auto schema = TempSchema();
  // Note: temp is declared non-nullable, but the operator must still be
  // defensive about nulls (MakeUnsafe bypasses checks, as the network
  // path does).
  SL_EXPECT_OK(h.op().Process(
      0, Tuple::MakeUnsafe(schema, {Value::Null(), Value::Null()}, 0,
                           std::nullopt, "")));
  SL_EXPECT_OK(h.op().Process(0, TempTuple(schema, 10.0, 0)));
  SL_EXPECT_OK(h.op().Flush(duration::kHour));
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_DOUBLE_EQ(h.out[0].value(0).AsDouble(), 10.0);
}

TEST(AggregationOperatorTest, CentroidLocation) {
  AggregationSpec spec;
  spec.interval = duration::kHour;
  spec.func = AggFunc::kCount;
  spec.attributes = {};
  Harness h(OpKind::kAggregation, spec);
  auto schema = TempSchema();
  SL_EXPECT_OK(h.op().Process(
      0, TempTuple(schema, 1, 0, stt::GeoPoint{34.0, 135.0})));
  SL_EXPECT_OK(h.op().Process(
      0, TempTuple(schema, 2, 0, stt::GeoPoint{35.0, 136.0})));
  SL_EXPECT_OK(h.op().Flush(duration::kHour));
  ASSERT_EQ(h.out.size(), 1u);
  ASSERT_TRUE(h.out[0].location().has_value());
  EXPECT_DOUBLE_EQ(h.out[0].location()->lat, 34.5);
  EXPECT_DOUBLE_EQ(h.out[0].location()->lon, 135.5);
}

// Property: COUNT conserves tuples — the sum of group counts equals the
// number of cached tuples, for any grouping.
TEST(AggregationOperatorTest, CountConservation) {
  Rng rng(43);
  AggregationSpec spec;
  spec.interval = duration::kHour;
  spec.func = AggFunc::kCount;
  spec.attributes = {};
  spec.group_by = {"station"};
  Harness h(OpKind::kAggregation, spec);
  auto schema = TempSchema();
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    std::string station = StrFormat("st_%d", (int)rng.NextBounded(7));
    SL_EXPECT_OK(h.op().Process(
        0, Tuple::MakeUnsafe(schema,
                             {Value::Double(1.0), Value::String(station)}, i,
                             std::nullopt, "s")));
  }
  SL_EXPECT_OK(h.op().Flush(duration::kHour));
  int64_t total = 0;
  for (const auto& t : h.out) total += t.value(1).AsInt();
  EXPECT_EQ(total, n);
}

// ------------------------------------------------------------------ join --

TEST(JoinOperatorTest, JoinsOnPredicateEveryInterval) {
  JoinSpec spec;
  spec.interval = duration::kMinute;
  spec.predicate = "temp > 25 and rain > 10";
  Harness h(OpKind::kJoin, spec, {TempSchema(), RainSchema()},
            {"t", "r"});
  auto ts = TempSchema();
  auto rs = RainSchema();
  SL_EXPECT_OK(h.op().Process(0, TempTuple(ts, 30.0, 1000)));
  SL_EXPECT_OK(h.op().Process(0, TempTuple(ts, 20.0, 2000)));
  SL_EXPECT_OK(h.op().Process(1, RainTuple(rs, 15.0, 1500)));
  SL_EXPECT_OK(h.op().Process(1, RainTuple(rs, 5.0, 2500)));
  EXPECT_TRUE(h.out.empty());
  SL_EXPECT_OK(h.op().Flush(duration::kMinute));
  // Only (30, 15) matches out of the 2x2 product.
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_DOUBLE_EQ(h.out[0].value(0).AsDouble(), 30.0);
  EXPECT_DOUBLE_EQ((*h.out[0].ValueByName("rain")).AsDouble(), 15.0);
  // Output timestamp: max of the pair, truncated to the coarser gran.
  EXPECT_EQ(h.out[0].timestamp(), 0);  // 1500 -> minute floor
  // Caches cleared: a second flush emits nothing.
  SL_EXPECT_OK(h.op().Flush(2 * duration::kMinute));
  EXPECT_EQ(h.out.size(), 1u);
}

TEST(JoinOperatorTest, RejectsBadPort) {
  JoinSpec spec;
  spec.interval = duration::kMinute;
  spec.predicate = "true";
  Harness h(OpKind::kJoin, spec, {TempSchema(), RainSchema()}, {"t", "r"});
  EXPECT_TRUE(h.op().Process(2, TempTuple(TempSchema(), 1.0, 0))
                  .IsInvalidArgument());
}

// Property: join output size never exceeds |left| * |right|, and with
// predicate `true` equals it exactly.
TEST(JoinOperatorTest, CrossProductBound) {
  Rng rng(47);
  for (int round = 0; round < 10; ++round) {
    JoinSpec spec;
    spec.interval = duration::kMinute;
    spec.predicate = "true";
    Harness h(OpKind::kJoin, spec, {TempSchema(), RainSchema()}, {"t", "r"});
    size_t nl = rng.NextBounded(8);
    size_t nr = rng.NextBounded(8);
    for (size_t i = 0; i < nl; ++i) {
      SL_EXPECT_OK(h.op().Process(0, TempTuple(TempSchema(), i, i)));
    }
    for (size_t i = 0; i < nr; ++i) {
      SL_EXPECT_OK(h.op().Process(1, RainTuple(RainSchema(), i, i)));
    }
    SL_EXPECT_OK(h.op().Flush(duration::kMinute));
    EXPECT_EQ(h.out.size(), nl * nr);
  }
}

// ------------------------------------------- fast vs naive blocking oracles --
//
// reference::MakeBlockingReference (tests/reference) builds the naive
// blocking operators (nested-loop join, full-recompute aggregation).
// The hash-join / incremental-state fast paths are required to be
// BIT-identical to them — same rows, same order, same late rows and
// counters — for any input, including the key-equality edge cases (null
// keys never match, NaN matches every numeric, -0.0 == +0.0, int 5 ==
// double 5.0).

/// {rain: int[mm/h]} @1m/point — an integer-keyed right side, so the
/// equi-join oracle also crosses the int/double canonicalization.
stt::SchemaPtr IntRainSchema() {
  auto tgran = stt::TemporalGranularity::Make(duration::kMinute);
  auto theme = stt::Theme::Parse("weather/rain");
  return *stt::Schema::Make({{"rain", ValueType::kInt, "mm/h", true}}, *tgran,
                            stt::SpatialGranularity::Point(), *theme);
}

/// The production operator, or with `naive` its reference. Emissions
/// go to `out`, late-side rows to `late` (when given).
std::unique_ptr<Operator> MakeBlocking(OpKind op, dataflow::OpSpec spec,
                                       std::vector<stt::SchemaPtr> inputs,
                                       std::vector<std::string> names,
                                       bool naive, std::vector<Tuple>* out,
                                       size_t max_cache = 1 << 20,
                                       WatermarkOptions wm = {},
                                       std::vector<Tuple>* late = nullptr) {
  OperatorOptions options;
  options.max_cache_tuples = max_cache;
  options.watermark = wm;
  auto result =
      naive ? reference::MakeBlockingReference("op", op, spec, inputs, names,
                                               options)
            : MakeOperator("op", op, spec, inputs, names, options);
  EXPECT_TRUE(result.ok()) << result.status();
  auto oper = std::move(result).ValueOrDie();
  oper->set_emit([out](const stt::TupleRef& t) { out->push_back(*t); });
  if (late != nullptr) {
    oper->set_late_emit(
        [late](const stt::TupleRef& t) { late->push_back(*t); });
  }
  return oper;
}

/// Bit-identical comparison: same row count, same rows, same order.
void ExpectSameRows(const std::vector<Tuple>& fast,
                    const std::vector<Tuple>& naive, uint64_t seed,
                    const char* what) {
  ASSERT_EQ(fast.size(), naive.size()) << what << ", seed " << seed;
  for (size_t i = 0; i < fast.size(); ++i) {
    ASSERT_EQ(fast[i].ToString(), naive[i].ToString())
        << what << ", row " << i << ", seed " << seed;
  }
}

/// Same per-operator counters: inputs, outputs, late drops, late
/// routings and cache evictions.
void ExpectSameCounters(const Operator& fast, const Operator& naive,
                        uint64_t seed, const char* what) {
  const OperatorStats& f = fast.stats();
  const OperatorStats& n = naive.stats();
  EXPECT_EQ(f.tuples_in, n.tuples_in) << what << ", seed " << seed;
  EXPECT_EQ(f.tuples_out, n.tuples_out) << what << ", seed " << seed;
  EXPECT_EQ(f.late_dropped, n.late_dropped) << what << ", seed " << seed;
  EXPECT_EQ(f.late_routed, n.late_routed) << what << ", seed " << seed;
  EXPECT_EQ(f.dropped, n.dropped) << what << ", seed " << seed;
}

/// Event-time configuration with a random allowed lateness and late
/// policy.
WatermarkOptions RandomEventTime(Rng* rng) {
  const LatePolicy kPolicies[] = {LatePolicy::kAdmit, LatePolicy::kDrop,
                                  LatePolicy::kSideOutput};
  WatermarkOptions wm;
  wm.time_policy = TimePolicy::kEvent;
  wm.allowed_lateness = rng->NextBounded(2) * 30000;
  wm.late_policy = kPolicies[rng->NextBounded(3)];
  return wm;
}

/// Delivers `t` to both operators the way Executor::Deliver does: the
/// port's piggybacked watermark, advanced by a random step, is observed
/// first. Now and then a flush timer fires between deliveries.
void DeliverBoth(Operator* fast, Operator* naive, size_t port,
                 const Tuple& t, Timestamp* watermark, Rng* rng) {
  *watermark += rng->NextBounded(1000);
  for (Operator* op : {fast, naive}) {
    op->ObserveWatermark(port, *watermark);
    SL_ASSERT_OK(op->Process(port, t));
  }
  if (rng->NextBounded(8) == 0) {
    SL_ASSERT_OK(fast->Flush(0));
    SL_ASSERT_OK(naive->Flush(0));
  }
}

/// A left tuple whose key column mixes a selective integer-valued
/// domain with the equality edge cases.
Tuple KeyedTemp(const stt::SchemaPtr& schema, Rng& rng, Timestamp ts) {
  Value v;
  uint64_t roll = rng.NextBounded(100);
  if (roll < 5) {
    v = Value::Null();
  } else if (roll < 10) {
    v = Value::Double(std::nan(""));
  } else if (roll < 15) {
    v = Value::Double(-0.0);
  } else {
    v = Value::Double(static_cast<double>(rng.NextBounded(8)));
  }
  return Tuple::MakeUnsafe(schema, {v, Value::String("osaka")}, ts,
                           stt::GeoPoint{34.69, 135.50}, "t");
}

Tuple KeyedRain(const stt::SchemaPtr& schema, Rng& rng, Timestamp ts) {
  Value v;
  uint64_t roll = rng.NextBounded(100);
  if (roll < 5) {
    v = Value::Null();
  } else {
    v = Value::Int(static_cast<int64_t>(rng.NextBounded(8)));
  }
  return Tuple::MakeUnsafe(schema, {v}, ts, stt::GeoPoint{34.60, 135.46},
                           "r");
}

const char* const kJoinPredicates[] = {
    "temp == rain",                       // pure equi: empty residual
    "temp == rain and temp > 2",          // equi + residual conjunct
    "temp == rain and rain < 6",          // residual on the right side
    "temp > rain",                        // no equi: pair-view fallback
    "temp == rain or temp > 6",           // top-level or: no equi chain
};

TEST(FastVsNaiveOracleTest, TumblingJoinSweep) {
  for (uint64_t seed = 100; seed < 150; ++seed) {
    Rng rng(seed);
    JoinSpec spec;
    spec.interval = duration::kMinute;
    spec.predicate = kJoinPredicates[rng.NextBounded(5)];
    std::vector<Tuple> fast_out, naive_out;
    auto fast = MakeBlocking(OpKind::kJoin, spec,
                             {TempSchema(), IntRainSchema()}, {"l", "r"},
                             /*naive=*/false, &fast_out);
    auto naive = MakeBlocking(OpKind::kJoin, spec,
                              {TempSchema(), IntRainSchema()}, {"l", "r"},
                              /*naive=*/true, &naive_out);
    for (int round = 0; round < 2; ++round) {
      size_t nl = rng.NextBounded(30), nr = rng.NextBounded(30);
      Timestamp base = round * duration::kMinute;
      for (size_t i = 0; i < nl; ++i) {
        Tuple t = KeyedTemp(TempSchema(), rng, base + rng.NextBounded(60000));
        SL_ASSERT_OK(fast->Process(0, t));
        SL_ASSERT_OK(naive->Process(0, t));
      }
      for (size_t i = 0; i < nr; ++i) {
        Tuple t = KeyedRain(IntRainSchema(), rng,
                            base + rng.NextBounded(60000));
        SL_ASSERT_OK(fast->Process(1, t));
        SL_ASSERT_OK(naive->Process(1, t));
      }
      SL_ASSERT_OK(fast->Flush((round + 1) * duration::kMinute));
      SL_ASSERT_OK(naive->Flush((round + 1) * duration::kMinute));
    }
    ExpectSameRows(fast_out, naive_out, seed, "tumbling join");
  }
}

TEST(FastVsNaiveOracleTest, JoinKeyEqualityEdgeCases) {
  // One deterministic pass over the quirky corner of join-key equality:
  // NaN keys match EVERY numeric key (three-way comparison answers
  // "neither less nor greater"), null keys match nothing (a null
  // operand nulls the predicate), -0.0 matches +0.0, and int 3 matches
  // double 3.0 across types. The hash index must reproduce all of it.
  JoinSpec spec;
  spec.interval = duration::kMinute;
  spec.predicate = "temp == rain";
  std::vector<Tuple> fast_out, naive_out;
  auto fast = MakeBlocking(OpKind::kJoin, spec,
                           {TempSchema(), IntRainSchema()}, {"l", "r"},
                           /*naive=*/false, &fast_out);
  auto naive = MakeBlocking(OpKind::kJoin, spec,
                            {TempSchema(), IntRainSchema()}, {"l", "r"},
                            /*naive=*/true, &naive_out);
  auto ls = TempSchema();
  auto rs = IntRainSchema();
  auto feed_left = [&](Value v, Timestamp ts) {
    Tuple t = Tuple::MakeUnsafe(ls, {std::move(v), Value::String("osaka")},
                                ts, std::nullopt, "t");
    SL_ASSERT_OK(fast->Process(0, t));
    SL_ASSERT_OK(naive->Process(0, t));
  };
  auto feed_right = [&](Value v, Timestamp ts) {
    Tuple t = Tuple::MakeUnsafe(rs, {std::move(v)}, ts, std::nullopt, "r");
    SL_ASSERT_OK(fast->Process(1, t));
    SL_ASSERT_OK(naive->Process(1, t));
  };
  feed_left(Value::Double(3.0), 0);          // matches int 3
  feed_left(Value::Double(-0.0), 1000);      // matches int 0
  feed_left(Value::Double(std::nan("")), 2000);  // matches every numeric
  feed_left(Value::Null(), 3000);            // matches nothing
  feed_right(Value::Int(3), 500);
  feed_right(Value::Int(0), 1500);
  feed_right(Value::Null(), 2500);
  SL_ASSERT_OK(fast->Flush(duration::kMinute));
  SL_ASSERT_OK(naive->Flush(duration::kMinute));
  ExpectSameRows(fast_out, naive_out, 0, "key edge cases");
  // From first principles: 3.0↔3, -0.0↔0, NaN↔{3, 0}; nulls never pair.
  EXPECT_EQ(naive_out.size(), 4u);
}

TEST(FastVsNaiveOracleTest, TumblingAggregationSweep) {
  const AggFunc kFuncs[] = {AggFunc::kAvg, AggFunc::kSum, AggFunc::kMin,
                            AggFunc::kMax, AggFunc::kCount};
  const char* kStations[] = {"osaka", "kyoto", "nara", "kobe"};
  for (uint64_t seed = 200; seed < 250; ++seed) {
    Rng rng(seed);
    AggregationSpec spec;
    spec.interval = duration::kMinute;
    spec.func = kFuncs[rng.NextBounded(5)];
    if (spec.func != AggFunc::kCount || rng.NextBounded(2) == 0) {
      spec.attributes = {"temp"};
    }
    if (rng.NextBounded(2) == 0) spec.group_by = {"station"};
    // Occasionally shrink the cache so capacity evictions invalidate
    // the incremental state and force the recompute fallback.
    size_t max_cache = rng.NextBounded(4) == 0 ? 24 : (1 << 20);
    std::vector<Tuple> fast_out, naive_out;
    auto fast = MakeBlocking(OpKind::kAggregation, spec, {TempSchema()},
                             {"in"}, /*naive=*/false, &fast_out, max_cache);
    auto naive = MakeBlocking(OpKind::kAggregation, spec, {TempSchema()},
                              {"in"}, /*naive=*/true, &naive_out, max_cache);
    size_t stations = 1 + rng.NextBounded(4);
    for (int round = 0; round < 2; ++round) {
      size_t n = rng.NextBounded(200);
      Timestamp base = round * duration::kMinute;
      for (size_t i = 0; i < n; ++i) {
        Value temp = rng.NextBounded(20) == 0
                         ? Value::Null()
                         : Value::Double(rng.NextDouble(-10, 35));
        Timestamp ts = base + rng.NextBounded(60000);
        // A few "future" stamps beyond the flush tick: outside the
        // half-open window, so the folded state stops mirroring the
        // window and the fast path must fall back to recomputing.
        if (rng.NextBounded(20) == 0) ts += 2 * duration::kMinute;
        Tuple t = Tuple::MakeUnsafe(
            TempSchema(),
            {std::move(temp),
             Value::String(kStations[rng.NextBounded(stations)])},
            ts, stt::GeoPoint{34.0 + rng.NextDouble(0, 1), 135.0}, "s");
        SL_ASSERT_OK(fast->Process(0, t));
        SL_ASSERT_OK(naive->Process(0, t));
      }
      SL_ASSERT_OK(fast->Flush((round + 1) * duration::kMinute));
      SL_ASSERT_OK(naive->Flush((round + 1) * duration::kMinute));
    }
    ExpectSameRows(fast_out, naive_out, seed, "tumbling aggregation");
  }
}

TEST(FastVsNaiveOracleTest, EventTimeAggregationSweep) {
  const AggFunc kFuncs[] = {AggFunc::kAvg, AggFunc::kSum, AggFunc::kMin,
                            AggFunc::kMax, AggFunc::kCount};
  const char* kStations[] = {"osaka", "kyoto", "nara"};
  uint64_t late_total = 0;
  uint64_t dropped_total = 0;
  for (uint64_t seed = 300; seed < 350; ++seed) {
    Rng rng(seed);
    // Every other seed caps the cache, so the capacity bound (FIFO by
    // arrival across panes) is compared too. The cap is not an rng draw,
    // so it leaves the seed's other draws alone.
    const size_t max_cache = seed % 2 == 0 ? 24 : (1 << 20);
    AggregationSpec spec;
    spec.interval = duration::kMinute;
    spec.window = rng.NextBounded(3) * duration::kMinute;  // 0 = tumbling
    spec.func = kFuncs[rng.NextBounded(5)];
    spec.attributes = {"temp"};
    if (rng.NextBounded(2) == 0) spec.group_by = {"station"};
    WatermarkOptions wm = RandomEventTime(&rng);
    std::vector<Tuple> fast_out, naive_out, fast_late, naive_late;
    auto fast = MakeBlocking(OpKind::kAggregation, spec, {TempSchema()},
                             {"in"}, /*naive=*/false, &fast_out, max_cache,
                             wm, &fast_late);
    auto naive = MakeBlocking(OpKind::kAggregation, spec, {TempSchema()},
                              {"in"}, /*naive=*/true, &naive_out, max_cache,
                              wm, &naive_late);
    Timestamp watermark = 0;
    for (int round = 0; round < 5; ++round) {
      size_t n = rng.NextBounded(60);
      for (size_t i = 0; i < n; ++i) {
        // Unordered event times, some behind the fired horizon (late) —
        // the pane index and the sorted scan must agree on every
        // window's membership, and both sides on which tuples are late.
        Timestamp ts = rng.NextBounded(5 * 60000);
        Tuple t = Tuple::MakeUnsafe(
            TempSchema(),
            {Value::Double(rng.NextDouble(-10, 35)),
             Value::String(kStations[rng.NextBounded(3)])},
            ts, stt::GeoPoint{34.5, 135.5}, "s");
        DeliverBoth(fast.get(), naive.get(), 0, t, &watermark, &rng);
      }
      watermark += rng.NextBounded(90000);
      fast->ObserveWatermark(0, watermark);
      naive->ObserveWatermark(0, watermark);
      SL_ASSERT_OK(fast->Flush(0));
      SL_ASSERT_OK(naive->Flush(0));
    }
    fast->ObserveWatermark(0, 10 * 60000);
    naive->ObserveWatermark(0, 10 * 60000);
    SL_ASSERT_OK(fast->Flush(0));
    SL_ASSERT_OK(naive->Flush(0));
    ExpectSameRows(fast_out, naive_out, seed, "event-time aggregation");
    ExpectSameRows(fast_late, naive_late, seed, "event-time aggregation late");
    ExpectSameCounters(*fast, *naive, seed, "event-time aggregation");
    EXPECT_EQ(fast->stats().cache_size, naive->stats().cache_size)
        << "event-time aggregation, seed " << seed;
    late_total += naive->stats().late_dropped + naive->stats().late_routed;
    dropped_total += naive->stats().dropped;
  }
  // The late and capacity paths must actually run — a sweep with no late
  // tuple or no eviction would vacuously agree on them.
  EXPECT_GT(late_total, 0u);
  EXPECT_GT(dropped_total, 0u);
}

TEST(FastVsNaiveOracleTest, EventTimeJoinSweep) {
  uint64_t late_total = 0;
  uint64_t dropped_total = 0;
  for (uint64_t seed = 400; seed < 450; ++seed) {
    Rng rng(seed);
    const size_t max_cache = seed % 2 == 0 ? 8 : (1 << 20);
    JoinSpec spec;
    spec.interval = duration::kMinute;
    spec.window = rng.NextBounded(3) * duration::kMinute;
    spec.predicate = kJoinPredicates[rng.NextBounded(5)];
    WatermarkOptions wm = RandomEventTime(&rng);
    std::vector<Tuple> fast_out, naive_out, fast_late, naive_late;
    auto fast = MakeBlocking(OpKind::kJoin, spec,
                             {TempSchema(), IntRainSchema()}, {"l", "r"},
                             /*naive=*/false, &fast_out, max_cache, wm,
                             &fast_late);
    auto naive = MakeBlocking(OpKind::kJoin, spec,
                              {TempSchema(), IntRainSchema()}, {"l", "r"},
                              /*naive=*/true, &naive_out, max_cache, wm,
                              &naive_late);
    // Per-port watermarks: the frontier is their minimum.
    Timestamp watermark[2] = {0, 0};
    for (int round = 0; round < 5; ++round) {
      size_t nl = rng.NextBounded(15), nr = rng.NextBounded(15);
      for (size_t i = 0; i < nl; ++i) {
        Tuple t = KeyedTemp(TempSchema(), rng, rng.NextBounded(4 * 60000));
        DeliverBoth(fast.get(), naive.get(), 0, t, &watermark[0], &rng);
      }
      for (size_t i = 0; i < nr; ++i) {
        Tuple t =
            KeyedRain(IntRainSchema(), rng, rng.NextBounded(4 * 60000));
        DeliverBoth(fast.get(), naive.get(), 1, t, &watermark[1], &rng);
      }
      for (size_t port = 0; port < 2; ++port) {
        watermark[port] += rng.NextBounded(90000);
        fast->ObserveWatermark(port, watermark[port]);
        naive->ObserveWatermark(port, watermark[port]);
      }
      SL_ASSERT_OK(fast->Flush(0));
      SL_ASSERT_OK(naive->Flush(0));
    }
    for (size_t port = 0; port < 2; ++port) {
      fast->ObserveWatermark(port, 10 * 60000);
      naive->ObserveWatermark(port, 10 * 60000);
    }
    SL_ASSERT_OK(fast->Flush(0));
    SL_ASSERT_OK(naive->Flush(0));
    ExpectSameRows(fast_out, naive_out, seed, "event-time join");
    ExpectSameRows(fast_late, naive_late, seed, "event-time join late");
    ExpectSameCounters(*fast, *naive, seed, "event-time join");
    EXPECT_EQ(fast->stats().cache_size, naive->stats().cache_size)
        << "event-time join, seed " << seed;
    late_total += naive->stats().late_dropped + naive->stats().late_routed;
    dropped_total += naive->stats().dropped;
  }
  EXPECT_GT(late_total, 0u);
  EXPECT_GT(dropped_total, 0u);
}

// --------------------------------------------------------------- trigger --

TEST(TriggerOperatorTest, OnFiresWhenAnyCachedTupleMatches) {
  TriggerSpec spec;
  spec.interval = duration::kHour;
  spec.condition = "temp > 25";
  spec.target_sensors = {"rain_01", "tweet_01"};
  Harness h(OpKind::kTriggerOn, spec);
  auto schema = TempSchema();
  SL_EXPECT_OK(h.op().Process(0, TempTuple(schema, 20.0, 0)));
  SL_EXPECT_OK(h.op().Process(0, TempTuple(schema, 26.0, 1)));
  // Pass-through: both tuples already emitted.
  EXPECT_EQ(h.out.size(), 2u);
  SL_EXPECT_OK(h.op().Flush(duration::kHour));
  EXPECT_EQ(h.activation.activated,
            (std::vector<std::string>{"rain_01", "tweet_01"}));
  EXPECT_TRUE(h.activation.deactivated.empty());
  EXPECT_EQ(h.op().stats().trigger_fires, 1u);
}

TEST(TriggerOperatorTest, DoesNotFireWithoutMatch) {
  TriggerSpec spec;
  spec.interval = duration::kHour;
  spec.condition = "temp > 25";
  spec.target_sensors = {"rain_01"};
  Harness h(OpKind::kTriggerOn, spec);
  auto schema = TempSchema();
  SL_EXPECT_OK(h.op().Process(0, TempTuple(schema, 20.0, 0)));
  SL_EXPECT_OK(h.op().Flush(duration::kHour));
  EXPECT_TRUE(h.activation.activated.empty());
  EXPECT_EQ(h.op().stats().trigger_fires, 0u);
  // Cache cleared after the check: old tuples do not retrigger.
  SL_EXPECT_OK(h.op().Process(0, TempTuple(schema, 30.0, 1)));
  SL_EXPECT_OK(h.op().Flush(2 * duration::kHour));
  EXPECT_EQ(h.op().stats().trigger_fires, 1u);
}

TEST(TriggerOperatorTest, OffDeactivates) {
  TriggerSpec spec;
  spec.interval = duration::kHour;
  spec.condition = "temp < 20";
  spec.target_sensors = {"rain_01"};
  Harness h(OpKind::kTriggerOff, spec);
  auto schema = TempSchema();
  SL_EXPECT_OK(h.op().Process(0, TempTuple(schema, 15.0, 0)));
  SL_EXPECT_OK(h.op().Flush(duration::kHour));
  EXPECT_EQ(h.activation.deactivated, (std::vector<std::string>{"rain_01"}));
  EXPECT_TRUE(h.activation.activated.empty());
}

TEST(TriggerOperatorTest, RequiresActivationHandler) {
  TriggerSpec spec;
  spec.interval = duration::kHour;
  spec.condition = "true";
  spec.target_sensors = {"x"};
  auto result = MakeOperator("t", OpKind::kTriggerOn, spec, {TempSchema()},
                             {"in"}, OperatorOptions{});
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

// ----------------------------------------------------- cache boundedness --

TEST(CacheBoundTest, OldestEvictedBeyondLimit) {
  AggregationSpec spec;
  spec.interval = duration::kHour;
  spec.func = AggFunc::kMin;
  spec.attributes = {"temp"};
  Harness h(OpKind::kAggregation, spec, {TempSchema()}, {"in"},
            /*max_cache=*/10);
  auto schema = TempSchema();
  for (int i = 0; i < 25; ++i) {
    SL_EXPECT_OK(h.op().Process(0, TempTuple(schema, i, i)));
  }
  EXPECT_EQ(h.op().stats().cache_size, 10u);
  EXPECT_EQ(h.op().stats().dropped, 15u);
  SL_EXPECT_OK(h.op().Flush(duration::kHour));
  // The minimum reflects only the surviving (newest) tuples.
  EXPECT_DOUBLE_EQ(h.out.at(0).value(0).AsDouble(), 15.0);
}

// ---------------------------------------------------------- window stats --

TEST(WindowStatsTest, ResetKeepsTotals) {
  Harness h(OpKind::kFilter, FilterSpec{"true"});
  auto schema = TempSchema();
  SL_EXPECT_OK(h.op().Process(0, TempTuple(schema, 1.0, 0)));
  EXPECT_EQ(h.op().window_in(), 1u);
  h.op().ResetWindowCounters();
  EXPECT_EQ(h.op().window_in(), 0u);
  EXPECT_EQ(h.op().stats().tuples_in, 1u);
}

// ----------------------------------------------------------- the debugger --

TEST(DebuggerTest, RunsDataflowOnSamples) {
  VirtualClock clock;
  pubsub::Broker broker(&clock);
  pubsub::SensorInfo info;
  info.id = "t1";
  info.type = "temperature";
  info.schema = TempSchema();
  info.period = duration::kMinute;
  info.location = stt::GeoPoint{34.69, 135.50};
  SL_ASSERT_OK(broker.Publish(info));

  auto df = *dataflow::DataflowBuilder("dbg")
                 .AddSource("src", "t1")
                 .AddFilter("hot", "src", "temp > 25")
                 .AddAggregation("cnt", "hot", duration::kHour,
                                 AggFunc::kCount, {})
                 .AddTriggerOn("trig", "cnt", duration::kHour, "count > 1",
                               {"rain_01"})
                 .AddSink("out", "trig", dataflow::SinkKind::kCollect)
                 .Build();

  auto schema = TempSchema();
  std::map<std::string, std::vector<Tuple>> samples;
  samples["src"] = {TempTuple(schema, 20.0, 1000),
                    TempTuple(schema, 26.0, 2000),
                    TempTuple(schema, 30.0, 3000)};

  DataflowDebugger debugger(&broker);
  auto result = debugger.Run(df, samples);
  ASSERT_TRUE(result.ok()) << result.status();
  // Source echoes its samples; filter keeps 2; aggregation emits one
  // count tuple; the trigger fires (count 2 > 1).
  EXPECT_EQ(result->outputs.at("src").size(), 3u);
  EXPECT_EQ(result->outputs.at("hot").size(), 2u);
  ASSERT_EQ(result->outputs.at("cnt").size(), 1u);
  EXPECT_EQ(result->outputs.at("cnt")[0]->value(0).AsInt(), 2);
  ASSERT_EQ(result->activations.size(), 1u);
  EXPECT_TRUE(result->activations[0].activate);
  EXPECT_EQ(result->activations[0].sensor_ids,
            (std::vector<std::string>{"rain_01"}));
  // The sink saw the trigger's pass-through (count tuple).
  EXPECT_EQ(result->outputs.at("out").size(), 1u);
  // Human-readable rendering mentions every node.
  std::string text = result->ToString(df);
  for (const char* n : {"src", "hot", "cnt", "trig", "out"}) {
    EXPECT_NE(text.find(n), std::string::npos) << n;
  }
}

TEST(DebuggerTest, RefusesUnsoundDataflow) {
  VirtualClock clock;
  pubsub::Broker broker(&clock);
  auto df = *dataflow::DataflowBuilder("dbg")
                 .AddSource("src", "ghost")
                 .AddSink("out", "src", dataflow::SinkKind::kCollect)
                 .Build();
  DataflowDebugger debugger(&broker);
  auto result = debugger.Run(df, {});
  EXPECT_TRUE(result.status().IsValidationError());
}

TEST(DebuggerTest, RefusesSamplesForNonSource) {
  VirtualClock clock;
  pubsub::Broker broker(&clock);
  pubsub::SensorInfo info;
  info.id = "t1";
  info.type = "temperature";
  info.schema = TempSchema();
  info.period = duration::kMinute;
  info.location = stt::GeoPoint{34.69, 135.50};
  SL_ASSERT_OK(broker.Publish(info));
  auto df = *dataflow::DataflowBuilder("dbg")
                 .AddSource("src", "t1")
                 .AddFilter("f", "src", "true")
                 .AddSink("out", "f", dataflow::SinkKind::kCollect)
                 .Build();
  DataflowDebugger debugger(&broker);
  std::map<std::string, std::vector<Tuple>> samples;
  samples["f"] = {TempTuple(TempSchema(), 1.0, 0)};
  EXPECT_TRUE(debugger.Run(df, samples).status().IsInvalidArgument());
}

}  // namespace
}  // namespace sl::ops
