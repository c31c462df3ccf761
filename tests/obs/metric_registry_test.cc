// Tests for the metric registry: handle semantics, same-name aggregation,
// probes, the collected row layout, and handle stability under growth.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/metric_registry.h"

namespace potemkin {
namespace {

TEST(MetricRegistryTest, CounterIncrementsAndCollects) {
  MetricRegistry registry;
  Counter c = registry.RegisterCounter("pkts", "count");
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_DOUBLE_EQ(registry.ValueOf("pkts"), 42.0);
  const auto samples = registry.Collect();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "pkts");
  EXPECT_EQ(samples[0].unit, "count");
}

TEST(MetricRegistryTest, DefaultConstructedHandlesAreSafeSinks) {
  // An uninstrumented component's handles must be usable without a registry;
  // they write into shared sink cells and never fault.
  Counter c;
  LatencyHistogram h;
  c.Inc(7);
  h.Record(12);
  SUCCEED();
}

TEST(MetricRegistryTest, SameNameRegistrationAggregates) {
  // Two component instances registering the same metric share storage.
  MetricRegistry registry;
  Counter a = registry.RegisterCounter("clone.completed", "count");
  Counter b = registry.RegisterCounter("clone.completed", "count");
  a.Inc(2);
  b.Inc(3);
  EXPECT_DOUBLE_EQ(registry.ValueOf("clone.completed"), 5.0);
}

TEST(MetricRegistryTest, HandlesStayValidAsRegistryGrows) {
  // Deque storage: the first handle must still hit its own cell after many
  // later registrations (a vector would have reallocated under it).
  MetricRegistry registry;
  Counter first = registry.RegisterCounter("first", "count");
  for (int i = 0; i < 1000; ++i) {
    registry.RegisterCounter("filler_" + std::to_string(i), "count").Inc();
  }
  first.Inc(5);
  EXPECT_DOUBLE_EQ(registry.ValueOf("first"), 5.0);
  EXPECT_DOUBLE_EQ(registry.ValueOf("filler_999"), 1.0);
}

TEST(MetricRegistryTest, ProbesSampleAtCollectTime) {
  MetricRegistry registry;
  int owner = 0;
  double level = 1.5;
  registry.RegisterProbe(&owner, "pool.occupancy", "ratio",
                         [&level] { return level; });
  EXPECT_DOUBLE_EQ(registry.ValueOf("pool.occupancy"), 1.5);
  level = 2.5;  // probes are live views, not cached values
  EXPECT_DOUBLE_EQ(registry.ValueOf("pool.occupancy"), 2.5);
}

TEST(MetricRegistryTest, RemoveProbesDropsOnlyThatOwner) {
  MetricRegistry registry;
  int owner_a = 0;
  int owner_b = 0;
  registry.RegisterProbe(&owner_a, "a.one", "count", [] { return 1.0; });
  registry.RegisterProbe(&owner_a, "a.two", "count", [] { return 2.0; });
  registry.RegisterProbe(&owner_b, "b.one", "count", [] { return 3.0; });
  EXPECT_DOUBLE_EQ(registry.ValueOf("a.two"), 2.0);
  registry.RemoveProbes(&owner_a);
  EXPECT_DOUBLE_EQ(registry.ValueOf("b.one"), 3.0);
  EXPECT_DOUBLE_EQ(registry.ValueOf("a.one"), 0.0);  // gone -> absent -> 0
  EXPECT_DOUBLE_EQ(registry.ValueOf("a.two"), 0.0);
}

TEST(MetricRegistryTest, DuplicateProbeNameKeepsLatest) {
  MetricRegistry registry;
  int owner = 0;
  registry.RegisterProbe(&owner, "level", "count", [] { return 1.0; });
  registry.RegisterProbe(&owner, "level", "count", [] { return 9.0; });
  EXPECT_DOUBLE_EQ(registry.ValueOf("level"), 9.0);
  // Both slots are retained (removal is by owner), but Collect folds them into
  // a single sample carrying the latest registration's value.
  size_t level_samples = 0;
  for (const auto& sample : registry.Collect()) {
    level_samples += sample.name == "level" ? 1 : 0;
  }
  EXPECT_EQ(level_samples, 1u);
}

TEST(MetricRegistryTest, CollectRowsAreTheVisitedRowsWithProbesDeduplicated) {
  // Every kind, registered interleaved, plus a probe name registered twice
  // and a probe sharing a counter's name. The expected rows are the layout
  // Collect() has always produced: counters, histograms, probes, each in
  // registration order; a duplicate probe name keeps its first position
  // with the newest value and unit; counter rows are never merged with probes.
  MetricRegistry registry;
  int owner_a = 0;
  int owner_b = 0;
  Counter rx = registry.RegisterCounter("gw.rx", "count");
  registry.RegisterProbe(&owner_a, "pool.level", "ratio", [] { return 0.25; });
  registry.RegisterProbe(&owner_a, "gw.depth", "items", [] { return -2.0; });
  LatencyHistogram lat = registry.RegisterLatency("gw.lat", "ns");
  Counter tx = registry.RegisterCounter("gw.tx", "pkts");
  registry.RegisterProbe(&owner_a, "pool.free", "frames", [] { return 7.0; });
  LatencyHistogram size = registry.RegisterLatency("gw.size", "bytes");
  registry.RegisterProbe(&owner_b, "pool.level", "fraction", [] { return 0.5; });
  registry.RegisterProbe(&owner_b, "gw.rx", "count", [] { return 9.0; });
  rx.Inc(3);
  tx.Inc(5);
  for (const uint64_t v : {1, 2, 3, 100, 1000}) {
    lat.Record(v);
  }
  size.Record(64);
  size.Record(1500);

  const std::vector<MetricRegistry::Sample> expected = {
      {"gw.rx", 3, "count"},          {"gw.tx", 5, "pkts"},
      {"gw.lat_count", 5, "count"},   {"gw.lat_p50", 3, "ns"},
      {"gw.lat_p90", 1023, "ns"},     {"gw.lat_p99", 1023, "ns"},
      {"gw.lat_p999", 1023, "ns"},    {"gw.lat_max", 1000, "ns"},
      {"gw.size_count", 2, "count"},  {"gw.size_p50", 67, "bytes"},
      {"gw.size_p90", 1535, "bytes"}, {"gw.size_p99", 1535, "bytes"},
      {"gw.size_p999", 1535, "bytes"}, {"gw.size_max", 1500, "bytes"},
      {"pool.level", 0.5, "fraction"}, {"gw.depth", -2, "items"},
      {"pool.free", 7, "frames"},     {"gw.rx", 9, "count"},
  };
  const std::vector<MetricRegistry::Sample> rows = registry.Collect();
  ASSERT_EQ(rows.size(), expected.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].name, expected[i].name) << "row " << i;
    EXPECT_EQ(rows[i].value, expected[i].value) << expected[i].name;
    EXPECT_EQ(rows[i].unit, expected[i].unit) << expected[i].name;
  }

  // The visitor walk carries the same rows, except that it keeps every
  // probe registration: both pool.level rows, in registration order.
  struct Recorder final : MetricRegistry::SampleVisitor {
    void OnSample(const std::string& name, double value,
                  const std::string& unit) override {
      rows.push_back({name, value, unit});
    }
    std::vector<MetricRegistry::Sample> rows;
  } recorder;
  registry.VisitSamples(recorder);
  ASSERT_EQ(recorder.rows.size(), expected.size() + 1);
  EXPECT_EQ(recorder.rows[14].name, "pool.level");
  EXPECT_EQ(recorder.rows[14].value, 0.25);
  EXPECT_EQ(recorder.rows[14].unit, "ratio");
  EXPECT_EQ(recorder.rows[17].name, "pool.level");
  EXPECT_EQ(recorder.rows[17].unit, "fraction");
  registry.RemoveProbes(&owner_a);
  registry.RemoveProbes(&owner_b);
}

TEST(MetricRegistryTest, CollectOrderIsRegistrationOrder) {
  MetricRegistry registry;
  registry.RegisterCounter("z", "count");
  registry.RegisterCounter("a", "count");
  const auto samples = registry.Collect();
  ASSERT_GE(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "z");
  EXPECT_EQ(samples[1].name, "a");
}

}  // namespace
}  // namespace potemkin
