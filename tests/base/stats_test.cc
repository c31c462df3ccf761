#include "src/base/stats.h"

#include <gtest/gtest.h>

namespace potemkin {
namespace {

TEST(TimeSeriesTest, RecordsAndQueries) {
  TimeSeries s;
  EXPECT_TRUE(s.empty());
  s.Record(TimePoint::FromNanos(100), 1.0);
  s.Record(TimePoint::FromNanos(200), 5.0);
  s.Record(TimePoint::FromNanos(300), 2.0);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.MaxValue(), 5.0);
  EXPECT_DOUBLE_EQ(s.LastValue(), 2.0);
}

TEST(TimeSeriesTest, TimeWeightedMean) {
  TimeSeries s;
  // Value 10 for 1s, then 20 for 3s: mean = (10*1 + 20*3)/4 = 17.5.
  s.Record(TimePoint::FromNanos(0), 10.0);
  s.Record(TimePoint() + Duration::Seconds(1.0), 20.0);
  const double mean = s.TimeWeightedMean(TimePoint() + Duration::Seconds(4.0));
  EXPECT_NEAR(mean, 17.5, 1e-9);
}

TEST(TimeSeriesTest, ResampleMaxPicksBucketMaxima) {
  TimeSeries s;
  for (int i = 0; i < 100; ++i) {
    s.Record(TimePoint::FromNanos(i * 10), static_cast<double>(i % 10));
  }
  const auto resampled = s.ResampleMax(Duration::Nanos(100));
  ASSERT_FALSE(resampled.empty());
  for (const auto& sample : resampled) {
    EXPECT_DOUBLE_EQ(sample.value, 9.0);  // every bucket of 10 has a 9
  }
}

TEST(TimeSeriesTest, ResampleEmptyIsEmpty) {
  TimeSeries s;
  EXPECT_TRUE(s.ResampleMax(Duration::Nanos(10)).empty());
}

}  // namespace
}  // namespace potemkin
