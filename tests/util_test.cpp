// Unit tests for src/util: Status/Result, clock, RNG, strings, JSON.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>

#include "tests/test_util.h"
#include "util/clock.h"
#include "util/json.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace sl {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("sensor x");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "sensor x");
  EXPECT_EQ(s.ToString(), "NotFound: sensor x");
}

TEST(StatusTest, AllConstructorsMatchPredicates) {
  EXPECT_TRUE(Status::InvalidArgument("m").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("m").IsAlreadyExists());
  EXPECT_TRUE(Status::FailedPrecondition("m").IsFailedPrecondition());
  EXPECT_TRUE(Status::OutOfRange("m").IsOutOfRange());
  EXPECT_TRUE(Status::Unimplemented("m").IsUnimplemented());
  EXPECT_TRUE(Status::Internal("m").IsInternal());
  EXPECT_TRUE(Status::ParseError("m").IsParseError());
  EXPECT_TRUE(Status::TypeError("m").IsTypeError());
  EXPECT_TRUE(Status::ValidationError("m").IsValidationError());
  EXPECT_TRUE(Status::CapacityExceeded("m").IsCapacityExceeded());
  EXPECT_TRUE(Status::Timeout("m").IsTimeout());
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::ParseError("bad token").WithContext("line 3");
  EXPECT_EQ(s.message(), "line 3: bad token");
  EXPECT_TRUE(s.IsParseError());
  EXPECT_TRUE(Status::OK().WithContext("x").ok());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_NE(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_NE(Status::NotFound("a"), Status::Internal("a"));
  EXPECT_EQ(Status::OK(), Status());
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = [] { return Status::Timeout("slow"); };
  auto wrapper = [&]() -> Status {
    SL_RETURN_IF_ERROR(fails());
    return Status::Internal("unreached");
  };
  EXPECT_TRUE(wrapper().IsTimeout());
}

// ---------------------------------------------------------------- Result --

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto producer = []() -> Result<std::string> { return std::string("ok"); };
  auto consumer = [&]() -> Result<size_t> {
    SL_ASSIGN_OR_RETURN(std::string v, producer());
    return v.size();
  };
  ASSERT_TRUE(consumer().ok());
  EXPECT_EQ(*consumer(), 2u);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  auto producer = []() -> Result<std::string> {
    return Status::ParseError("nope");
  };
  auto consumer = [&]() -> Result<size_t> {
    SL_ASSIGN_OR_RETURN(std::string v, producer());
    return v.size();
  };
  EXPECT_TRUE(consumer().status().IsParseError());
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(9));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 9);
}

// ----------------------------------------------------------------- Clock --

TEST(ClockTest, FormatKnownInstant) {
  // 2016-03-15T00:00:00Z == 1458000000000 ms (EDBT 2016 demo day).
  EXPECT_EQ(FormatTimestamp(1458000000000), "2016-03-15T00:00:00.000Z");
}

TEST(ClockTest, FormatEpoch) {
  EXPECT_EQ(FormatTimestamp(0), "1970-01-01T00:00:00.000Z");
}

TEST(ClockTest, ParseFullForm) {
  Timestamp ts = 0;
  ASSERT_TRUE(ParseTimestamp("2016-03-15T10:30:05.250Z", &ts));
  EXPECT_EQ(FormatTimestamp(ts), "2016-03-15T10:30:05.250Z");
}

TEST(ClockTest, ParsePartialForms) {
  Timestamp a = 0, b = 0, c = 0;
  ASSERT_TRUE(ParseTimestamp("2016-03-15", &a));
  ASSERT_TRUE(ParseTimestamp("2016-03-15T10:30", &b));
  ASSERT_TRUE(ParseTimestamp("2016-03-15 10:30:05", &c));
  EXPECT_EQ(b - a, 10 * duration::kHour + 30 * duration::kMinute);
  EXPECT_EQ(c - b, 5 * duration::kSecond);
}

TEST(ClockTest, ParseRejectsGarbage) {
  Timestamp ts = 0;
  EXPECT_FALSE(ParseTimestamp("not a date", &ts));
  EXPECT_FALSE(ParseTimestamp("2016-13-01", &ts));     // month 13
  EXPECT_FALSE(ParseTimestamp("2016-02-30", &ts));     // Feb 30
  EXPECT_FALSE(ParseTimestamp("2016-03-15T25:00", &ts));  // hour 25
  EXPECT_FALSE(ParseTimestamp("2016-03-15junk", &ts));
}

TEST(ClockTest, LeapYearFebruary29) {
  Timestamp ts = 0;
  EXPECT_TRUE(ParseTimestamp("2016-02-29", &ts));
  EXPECT_FALSE(ParseTimestamp("2015-02-29", &ts));
  EXPECT_TRUE(ParseTimestamp("2000-02-29", &ts));   // divisible by 400
  EXPECT_FALSE(ParseTimestamp("1900-02-29", &ts));  // divisible by 100
}

// Property: format -> parse is the identity over a broad range.
TEST(ClockTest, FormatParseRoundTrip) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    Timestamp ts = rng.NextInt(0, 4102444800000LL);  // 1970..2100
    Timestamp back = 0;
    ASSERT_TRUE(ParseTimestamp(FormatTimestamp(ts), &back))
        << FormatTimestamp(ts);
    EXPECT_EQ(back, ts);
  }
  // Every year ParseTimestamp accepts up to 99999, five-digit years too.
  Timestamp lo = 0, hi = 0;
  ASSERT_TRUE(ParseTimestamp("0001-01-01", &lo));
  ASSERT_TRUE(ParseTimestamp("99999-12-31T23:59:59.999Z", &hi));
  for (int i = 0; i < 200; ++i) {
    Timestamp ts = rng.NextInt(lo, hi);
    Timestamp back = 0;
    ASSERT_TRUE(ParseTimestamp(FormatTimestamp(ts), &back))
        << FormatTimestamp(ts);
    EXPECT_EQ(back, ts);
  }
}

// AppendTimestamp writes what the printf form wrote over the whole int64
// range: before 1970, before year 1, past 9999, and at the extremes where
// the year no longer fits an int.
TEST(ClockTest, FormatMatchesPrintfForm) {
  Timestamp year1 = 0, last9999 = 0, year10000 = 0;
  ASSERT_TRUE(ParseTimestamp("0001-01-01", &year1));
  ASSERT_TRUE(ParseTimestamp("9999-12-31T23:59:59.999Z", &last9999));
  ASSERT_TRUE(ParseTimestamp("10000-01-01", &year10000));
  EXPECT_EQ(FormatTimestamp(year10000), "10000-01-01T00:00:00.000Z");
  EXPECT_EQ(FormatTimestamp(year1 - 1), "0000-12-31T23:59:59.999Z");
  // Year 0 is a leap year: 367 days before year 1 is in year -1.
  EXPECT_EQ(FormatTimestamp(year1 - 367 * duration::kDay),
            "-001-12-31T00:00:00.000Z");
  EXPECT_EQ(FormatTimestamp(-1), "1969-12-31T23:59:59.999Z");

  std::vector<Timestamp> cases = {std::numeric_limits<Timestamp>::min(),
                                  std::numeric_limits<Timestamp>::max()};
  for (Timestamp base : {Timestamp{0}, year1, last9999, year10000,
                         cases[0], cases[1]}) {
    for (Timestamp d = -1001; d <= 1001; ++d) {
      if ((d < 0 && base < cases[0] - d) || (d > 0 && base > cases[1] - d)) {
        continue;  // would overflow
      }
      cases.push_back(base + d);
    }
  }
  Rng rng(13);
  for (int i = 0; i < 50000; ++i) {
    cases.push_back(static_cast<Timestamp>(rng.Next()));  // any int64
    // Years about -5000 .. 15000.
    cases.push_back(rng.NextInt(-220000000000000LL, 410000000000000LL));
  }
  for (Timestamp ts : cases) {
    const std::string want = sl::testing::PrintfTimestamp(ts);
    std::string appended = "x";
    AppendTimestamp(ts, &appended);
    ASSERT_EQ(appended, "x" + want) << ts;
    ASSERT_EQ(FormatTimestamp(ts), want) << ts;
  }
}

TEST(ClockTest, VirtualClockNeverMovesBackwards) {
  VirtualClock clock(100);
  clock.AdvanceTo(50);
  EXPECT_EQ(clock.Now(), 100);
  clock.AdvanceTo(200);
  EXPECT_EQ(clock.Now(), 200);
  clock.AdvanceBy(-5);
  EXPECT_EQ(clock.Now(), 200);
  clock.AdvanceBy(5);
  EXPECT_EQ(clock.Now(), 205);
}

TEST(ClockTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(250), "250ms");
  EXPECT_EQ(FormatDuration(1000), "1s");
  EXPECT_EQ(FormatDuration(1500), "1.5s");
  EXPECT_EQ(FormatDuration(duration::kMinute * 2), "2m");
  EXPECT_EQ(FormatDuration(duration::kHour * 3), "3h");
  EXPECT_EQ(FormatDuration(-1000), "-1s");
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    int64_t v = rng.NextInt(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedCoversRange) {
  Rng rng(6);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(3);
  Rng child1 = parent.Fork(1);
  Rng child2 = parent.Fork(2);
  EXPECT_NE(child1.Next(), child2.Next());
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(4);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

// --------------------------------------------------------------- Strings --

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, SplitAndTrim) {
  EXPECT_EQ(SplitAndTrim(" a , b ,c ", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringsTest, JoinAndCase) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("aBc"), "ABC");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("streamloader", "stream"));
  EXPECT_FALSE(StartsWith("s", "stream"));
  EXPECT_TRUE(EndsWith("streamloader", "loader"));
  EXPECT_FALSE(EndsWith("x", "loader"));
}

TEST(StringsTest, IsIdentifier) {
  EXPECT_TRUE(IsIdentifier("abc_123"));
  EXPECT_TRUE(IsIdentifier("_x"));
  EXPECT_FALSE(IsIdentifier("1abc"));
  EXPECT_FALSE(IsIdentifier("a-b"));
  EXPECT_FALSE(IsIdentifier(""));
}

TEST(StringsTest, MatchesDatePattern) {
  EXPECT_TRUE(MatchesDatePattern("2016-03-15", "YYYY-MM-DD"));
  EXPECT_TRUE(MatchesDatePattern("10:30:05", "hh:mm:ss"));
  EXPECT_FALSE(MatchesDatePattern("2016/03/15", "YYYY-MM-DD"));
  EXPECT_FALSE(MatchesDatePattern("2016-3-15", "YYYY-MM-DD"));
  EXPECT_FALSE(MatchesDatePattern("abcd-ef-gh", "YYYY-MM-DD"));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StringsTest, QuoteUnquoteRoundTrip) {
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    std::string s;
    size_t len = rng.NextBounded(24);
    for (size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(rng.NextInt(1, 126)));
    }
    std::string quoted = QuoteString(s);
    std::string back;
    ASSERT_TRUE(UnquoteString(quoted, &back)) << quoted;
    EXPECT_EQ(back, s);
  }
}

TEST(StringsTest, UnquoteRejectsMalformed) {
  std::string out;
  EXPECT_FALSE(UnquoteString("noquotes", &out));
  EXPECT_FALSE(UnquoteString("\"unterminated", &out));
  EXPECT_FALSE(UnquoteString("\"bad\\q\"", &out));
}

// ------------------------------------------------------------------ JSON --

TEST(JsonTest, ObjectWithAllValueKinds) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s"); w.String("a\"b");
  w.Key("i"); w.Int(-5);
  w.Key("d"); w.Double(1.5);
  w.Key("b"); w.Bool(true);
  w.Key("n"); w.Null();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\",\"i\":-5,\"d\":1.5,\"b\":true,\"n\":null}");
}

TEST(JsonTest, NestedArrays) {
  JsonWriter w;
  w.BeginArray();
  w.Int(1);
  w.BeginArray();
  w.Int(2);
  w.Int(3);
  w.EndArray();
  w.BeginObject();
  w.Key("k");
  w.Int(4);
  w.EndObject();
  w.EndArray();
  EXPECT_EQ(w.str(), "[1,[2,3],{\"k\":4}]");
}

TEST(JsonTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::nan(""));
  w.Double(std::numeric_limits<double>::infinity());
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(JsonTest, TakeStringResets) {
  JsonWriter w;
  w.BeginObject();
  w.EndObject();
  EXPECT_EQ(w.TakeString(), "{}");
  w.BeginArray();
  w.EndArray();
  EXPECT_EQ(w.TakeString(), "[]");
}

}  // namespace
}  // namespace sl
