#include "src/base/stats.h"

#include <gtest/gtest.h>

namespace potemkin {
namespace {

TEST(TimeSeriesTest, RecordsAndQueries) {
  TimeSeries s;
  EXPECT_TRUE(s.empty());
  s.Record(TimePoint::FromNanos(100), 1.0);
  s.Record(TimePoint::FromNanos(200), 5.0);
  ASSERT_EQ(s.samples().size(), 2u);
  EXPECT_EQ(s.samples()[0].time, TimePoint::FromNanos(100));
  EXPECT_DOUBLE_EQ(s.samples()[1].value, 5.0);
}

}  // namespace
}  // namespace potemkin
