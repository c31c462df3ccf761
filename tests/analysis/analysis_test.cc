#include <gtest/gtest.h>

#include <algorithm>

#include "src/analysis/cdf.h"
#include "src/analysis/series_util.h"

namespace potemkin {
namespace {

TEST(CdfTest, QuantilesOfKnownData) {
  Cdf cdf;
  for (int i = 1; i <= 100; ++i) {
    cdf.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Max(), 100.0);
  EXPECT_NEAR(cdf.Median(), 50.5, 0.5);
  EXPECT_NEAR(cdf.Quantile(0.25), 25.75, 0.5);
  EXPECT_DOUBLE_EQ(cdf.Mean(), 50.5);
}

TEST(CdfTest, UnsortedInsertOrderIrrelevant) {
  Cdf a;
  Cdf b;
  for (const double v : {3.0, 1.0, 2.0}) {
    a.Add(v);
  }
  for (const double v : {1.0, 2.0, 3.0}) {
    b.Add(v);
  }
  EXPECT_DOUBLE_EQ(a.Median(), b.Median());
}

TEST(CdfTest, EmptyCdfSafe) {
  Cdf cdf;
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.Mean(), 0.0);
}

TEST(SeriesUtilTest, AlignSeriesStepSemantics) {
  TimeSeries s1;
  s1.Record(TimePoint() + Duration::Seconds(0.0), 1.0);
  s1.Record(TimePoint() + Duration::Seconds(2.5), 5.0);
  TimeSeries s2;
  s2.Record(TimePoint() + Duration::Seconds(1.0), 10.0);
  const Table table = AlignSeries({{"a", s1}, {"b", s2}}, Duration::Seconds(1.0),
                                  TimePoint() + Duration::Seconds(4.0));
  const std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("t_seconds,a,b"), std::string::npos);
  EXPECT_NE(csv.find("0.0,1,0"), std::string::npos);   // before s2 starts
  EXPECT_NE(csv.find("2.0,1,10"), std::string::npos);  // s1 still 1
  EXPECT_NE(csv.find("3.0,5,10"), std::string::npos);  // s1 stepped to 5
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 6);  // header + 5 rows
}

TEST(SeriesUtilTest, SparklineReflectsShape) {
  TimeSeries s;
  for (int i = 0; i <= 10; ++i) {
    s.Record(TimePoint() + Duration::Seconds(i), static_cast<double>(i));
  }
  const std::string line =
      Sparkline(s, 10, TimePoint() + Duration::Seconds(10.0));
  ASSERT_EQ(line.size(), 10u);
  EXPECT_EQ(line.back(), '#');  // maximum at the end
}

TEST(SeriesUtilTest, SparklineEmptyInputs) {
  TimeSeries s;
  EXPECT_EQ(Sparkline(s, 10, TimePoint() + Duration::Seconds(1.0)), "");
}

}  // namespace
}  // namespace potemkin
