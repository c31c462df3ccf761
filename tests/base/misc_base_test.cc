// Tests for time types, token bucket, flags, table rendering and JSON number
// formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <string>

#include "src/base/flags.h"
#include "src/base/json_util.h"
#include "src/base/table.h"
#include "src/base/time_types.h"
#include "src/base/token_bucket.h"

namespace potemkin {
namespace {

TEST(DurationTest, ConversionsRoundTrip) {
  EXPECT_EQ(Duration::Millis(3).nanos(), 3000000);
  EXPECT_EQ(Duration::Micros(5).nanos(), 5000);
  EXPECT_EQ(Duration::Seconds(2.5).nanos(), 2500000000);
  EXPECT_DOUBLE_EQ(Duration::Hours(1).seconds(), 3600.0);
  EXPECT_DOUBLE_EQ(Duration::Minutes(2).seconds(), 120.0);
}

TEST(DurationTest, Arithmetic) {
  const Duration d = Duration::Millis(10) + Duration::Millis(5);
  EXPECT_EQ(d, Duration::Millis(15));
  EXPECT_EQ(Duration::Millis(10) * 2.5, Duration::Millis(25));
  EXPECT_DOUBLE_EQ(Duration::Millis(10) / Duration::Millis(4), 2.5);
}

TEST(DurationTest, Comparisons) {
  EXPECT_LT(Duration::Millis(1), Duration::Millis(2));
  EXPECT_EQ(Duration::Seconds(1.0), Duration::Millis(1000));
}

TEST(DurationTest, ToStringPicksUnits) {
  EXPECT_EQ(Duration::Nanos(500).ToString(), "500ns");
  EXPECT_EQ(Duration::Micros(2).ToString(), "2us");
  EXPECT_EQ(Duration::Millis(15).ToString(), "15ms");
  EXPECT_EQ(Duration::Seconds(3.0).ToString(), "3s");
}

TEST(TimePointTest, ArithmeticWithDurations) {
  const TimePoint t = TimePoint::FromNanos(1000);
  EXPECT_EQ((t + Duration::Nanos(500)).nanos(), 1500);
  EXPECT_EQ((t - TimePoint::FromNanos(400)).nanos(), 600);
}

TEST(TokenBucketTest, StartsFull) {
  TokenBucket bucket(10.0, 5.0);
  TimePoint now;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(bucket.TryConsume(now));
  }
  EXPECT_FALSE(bucket.TryConsume(now));
}

TEST(TokenBucketTest, RefillsOverTime) {
  TokenBucket bucket(10.0, 5.0);
  TimePoint now;
  for (int i = 0; i < 5; ++i) {
    bucket.TryConsume(now);
  }
  EXPECT_FALSE(bucket.TryConsume(now));
  now += Duration::Millis(100);  // 1 token at 10/s
  EXPECT_TRUE(bucket.TryConsume(now));
  EXPECT_FALSE(bucket.TryConsume(now));
}

TEST(TokenBucketTest, BurstCapsAccumulation) {
  TokenBucket bucket(10.0, 3.0);
  TimePoint now;
  now += Duration::Seconds(100.0);
  EXPECT_TRUE(bucket.TryConsume(now, 3.0));
  EXPECT_FALSE(bucket.TryConsume(now));
}

TEST(TokenBucketTest, ZeroRateNeverRefills) {
  TokenBucket bucket(0.0, 2.0);
  TimePoint now;
  EXPECT_TRUE(bucket.TryConsume(now));
  EXPECT_TRUE(bucket.TryConsume(now));
  EXPECT_FALSE(bucket.TryConsume(now));
  now += Duration::Hours(1000);
  EXPECT_FALSE(bucket.TryConsume(now));
}

TEST(TokenBucketTest, ZeroBurstNeverAdmits) {
  TokenBucket bucket(100.0, 0.0);
  TimePoint now;
  EXPECT_FALSE(bucket.TryConsume(now));
  now += Duration::Hours(1);
  EXPECT_FALSE(bucket.TryConsume(now));
}

TEST(TokenBucketTest, RequestAboveBurstIsNeverSatisfiable) {
  TokenBucket bucket(10.0, 5.0);
  TimePoint now;
  EXPECT_FALSE(bucket.TryConsume(now, 6.0));
  now += Duration::Hours(1);
  EXPECT_FALSE(bucket.TryConsume(now, 6.0));
}

TEST(TokenBucketTest, LargeTimeJumpSaturatesAtBurst) {
  TokenBucket bucket(1e9, 4.0);
  TimePoint now;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(bucket.TryConsume(now));
  }
  // Centuries of virtual time at a gigatoken rate: the refill math must not
  // overflow or go non-finite, just clamp to the burst.
  now += Duration::Hours(24.0 * 365 * 200);
  EXPECT_TRUE(bucket.TryConsume(now, 4.0));
  EXPECT_FALSE(bucket.TryConsume(now));
}

TEST(TokenBucketTest, TimeGoingBackwardsDoesNotRefill) {
  TokenBucket bucket(10.0, 5.0);
  TimePoint now = TimePoint::FromNanos(1000000000);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(bucket.TryConsume(now));
  }
  // An out-of-order (earlier) timestamp must not mint tokens.
  EXPECT_FALSE(bucket.TryConsume(TimePoint::FromNanos(0)));
  EXPECT_FALSE(bucket.TryConsume(now));
}

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog",      "--alpha=1", "--beta",      "2",
                        "--gamma",   "--no-delta", "positional", "--rate=2.5"};
  Flags flags = Flags::Parse(8, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("alpha", 0), 1);
  EXPECT_EQ(flags.GetInt("beta", 0), 2);
  EXPECT_TRUE(flags.GetBool("gamma", false));
  EXPECT_FALSE(flags.GetBool("delta", true));
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 2.5);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagsTest, DefaultsWhenAbsentOrMalformed) {
  const char* argv[] = {"prog", "--count=notanumber"};
  Flags flags = Flags::Parse(2, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("count", 7), 7);
  EXPECT_EQ(flags.GetInt("missing", 9), 9);
  EXPECT_EQ(flags.GetString("missing", "dflt"), "dflt");
  EXPECT_FALSE(flags.Has("missing"));
  EXPECT_TRUE(flags.Has("count"));
}

TEST(TableTest, AsciiRendering) {
  Table table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"beta", "22"});
  const std::string out = table.ToAscii();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TableTest, CsvEscaping) {
  Table table({"a", "b"});
  table.AddRow({"has,comma", "has\"quote"});
  const std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

std::string JsonNumber(double value) {
  std::string out;
  AppendJsonNumber(out, value);
  return out;
}

TEST(JsonUtilTest, AppendJsonNumberGoldenTable) {
  // Every artifact's numbers go through this one function; CI byte-compares
  // the artifacts, so its output is pinned digit for digit.
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    double value;
    const char* want;
  } kCases[] = {
      {0.0, "0"},
      {-0.0, "-0"},
      {1.0, "1"},
      {-1.0, "-1"},
      {999999999999999.0, "999999999999999"},
      {-999999999999999.0, "-999999999999999"},
      {1e15, "1000000000000000"},
      {-1e15, "-1000000000000000"},
      {9007199254740992.0, "9007199254740992"},  // 2^53
      {0.5, "0.5"},
      {-2.5, "-2.5"},
      {0.1, "0.10000000000000001"},
      {1.0 / 3.0, "0.33333333333333331"},
      {1e300, "1.0000000000000001e+300"},
      {4.9e-324, "4.9406564584124654e-324"},
      {std::nan(""), "null"},
      {inf, "null"},
      {-inf, "null"},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(JsonNumber(c.value), c.want) << "value " << c.value;
  }
}

TEST(JsonUtilTest, AppendJsonNumberIntegersMatchPrintf) {
  // Integral values below 1e15 print the digits "%.0f" gives.
  std::mt19937_64 rng(11);
  for (int i = 0; i < 20000; ++i) {
    const double magnitude =
        static_cast<double>(rng() % 1000000000000000ull >> (rng() % 50));
    for (const double value : {magnitude, -magnitude}) {
      char want[32];
      std::snprintf(want, sizeof(want), "%.0f", value);
      ASSERT_EQ(JsonNumber(value), want) << "value " << value;
    }
  }
}

}  // namespace
}  // namespace potemkin
