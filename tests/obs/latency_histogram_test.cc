// Tests for the zero-alloc log-linear latency histogram: bucket math at the
// exact/log boundary, saturation, deterministic cross-shard merge, windowed
// subtraction, percentile sanity under randomized input, and the registry's
// one-pass histogram rows against a snapshot of the same cells.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/obs/metric_registry.h"

namespace potemkin {
namespace {

LatencySnapshot SnapOf(const LatencyHistogram& h) {
  LatencySnapshot snap;
  h.SnapshotInto(&snap);
  return snap;
}

// The six rows the registry visits for histogram `name` (read from the cells
// in place) must equal the total, the four row quantiles and the max of a
// LatencySnapshot copy of the same cells.
void ExpectRowsMatchSnapshot(const MetricRegistry& registry,
                             const std::string& name) {
  LatencySnapshot snap;
  ASSERT_TRUE(registry.SnapshotLatency(name, &snap));
  const std::vector<MetricRegistry::Sample> rows = registry.Collect();
  const auto row = [&](const char* suffix) {
    for (const MetricRegistry::Sample& sample : rows) {
      if (sample.name == name + suffix) {
        return sample.value;
      }
    }
    ADD_FAILURE() << "missing row " << name << suffix;
    return -1.0;
  };
  EXPECT_EQ(row("_count"), static_cast<double>(snap.total)) << name;
  EXPECT_EQ(row("_p50"), static_cast<double>(snap.Quantile(0.5))) << name;
  EXPECT_EQ(row("_p90"), static_cast<double>(snap.Quantile(0.9))) << name;
  EXPECT_EQ(row("_p99"), static_cast<double>(snap.Quantile(0.99))) << name;
  EXPECT_EQ(row("_p999"), static_cast<double>(snap.Quantile(0.999))) << name;
  EXPECT_EQ(row("_max"), static_cast<double>(snap.max)) << name;
}

TEST(LatencyHistogramTest, EmptyHistogramQuantilesAreZero) {
  MetricRegistry registry;
  LatencyHistogram h = registry.RegisterLatency("empty", "ns");
  const LatencySnapshot snap = SnapOf(h);
  EXPECT_EQ(snap.total, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_EQ(snap.Quantile(0.5), 0u);
  EXPECT_EQ(snap.Quantile(0.999), 0u);
  ExpectRowsMatchSnapshot(registry, "empty");
}

TEST(LatencyHistogramTest, SingleSampleDominatesEveryQuantile) {
  MetricRegistry registry;
  LatencyHistogram h = registry.RegisterLatency("single", "ns");
  h.Record(12345);
  const LatencySnapshot snap = SnapOf(h);
  EXPECT_EQ(snap.total, 1u);
  EXPECT_EQ(snap.max, 12345u);
  // One sample: every quantile lands in its bucket; the upper bound must
  // cover the recorded value within one sub-bucket of relative error.
  const uint64_t p50 = snap.Quantile(0.5);
  EXPECT_GE(p50, 12345u);
  EXPECT_LE(p50, 12345u + 12345u / LatencyHistogram::kSubBuckets + 1);
  EXPECT_EQ(snap.Quantile(0.5), snap.Quantile(0.999));
  ExpectRowsMatchSnapshot(registry, "single");
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  // Values below kSubBuckets get dedicated unit-width buckets: quantiles on
  // them are exact, not approximations.
  MetricRegistry registry;
  LatencyHistogram h = registry.RegisterLatency("small", "ns");
  for (uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    h.Record(v);
  }
  const LatencySnapshot snap = SnapOf(h);
  EXPECT_EQ(snap.total, LatencyHistogram::kSubBuckets);
  EXPECT_EQ(snap.Quantile(0.0), 0u);
  // 16 samples 0..15: rank of q=0.5 is ceil(0.5*16)-1 = 7.
  EXPECT_EQ(snap.Quantile(0.5), 7u);
  EXPECT_EQ(snap.Quantile(1.0), 15u);
  // Each sample is a new maximum by exactly one.
  EXPECT_EQ(snap.max, 15u);
  ExpectRowsMatchSnapshot(registry, "small");
}

TEST(LatencyHistogramTest, SaturatesAtMaxTrackableButKeepsRawMax) {
  MetricRegistry registry;
  LatencyHistogram h = registry.RegisterLatency("sat", "ns");
  const uint64_t huge = ~0ull;  // far beyond kMaxTrackable
  h.Record(huge);
  const LatencySnapshot snap = SnapOf(h);
  EXPECT_EQ(snap.total, 1u);
  // Bucketing clamps to the top bucket...
  EXPECT_LE(snap.Quantile(0.999), LatencyHistogram::kMaxTrackable);
  // ...but the exact maximum survives untouched.
  EXPECT_EQ(snap.max, huge);
  h.Record(LatencyHistogram::kMaxTrackable);
  h.Record(LatencyHistogram::kMaxTrackable + 1);
  ExpectRowsMatchSnapshot(registry, "sat");
}

TEST(LatencyHistogramTest, RegistrySharesCellsByName) {
  // Two handles registered under one name in one registry alias the same
  // cells: how sharded gateways aggregate without locks.
  MetricRegistry registry;
  LatencyHistogram a = registry.RegisterLatency("shared", "ns");
  LatencyHistogram b = registry.RegisterLatency("shared", "ns");
  a.Record(100);
  b.Record(200);
  EXPECT_EQ(SnapOf(a).total, 2u);
  EXPECT_EQ(SnapOf(b).total, 2u);
}

TEST(LatencyHistogramTest, QuantilesMonotoneAndAccurateUnderRandomInput) {
  MetricRegistry registry;
  LatencyHistogram h = registry.RegisterLatency("rand", "ns");
  Rng rng(42);
  std::vector<uint64_t> values;
  values.reserve(50000);
  for (int i = 0; i < 50000; ++i) {
    // Mixed scales: exact range, microseconds, and multi-millisecond tail.
    const uint64_t v = (i % 3 == 0) ? rng.NextU64() % 16
                                    : (i % 3 == 1) ? rng.NextU64() % 100000
                                                   : rng.NextU64() % 50000000;
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  const LatencySnapshot snap = SnapOf(h);
  ASSERT_EQ(snap.total, values.size());

  uint64_t prev = 0;
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const uint64_t est = snap.Quantile(q);
    EXPECT_GE(est, prev) << "quantiles must be monotone, q=" << q;
    prev = est;
    const uint64_t exact =
        values[static_cast<size_t>(q * static_cast<double>(values.size() - 1))];
    // Log-linear with 16 sub-buckets: <= 1/16 relative error plus rank slop.
    const double bound = static_cast<double>(exact) * (1.0 / 16.0) + 2.0;
    EXPECT_LE(static_cast<double>(est),
              static_cast<double>(exact) + bound + static_cast<double>(exact) * 0.02)
        << "q=" << q << " est=" << est << " exact=" << exact;
    EXPECT_GE(static_cast<double>(est),
              static_cast<double>(exact) * 0.90 - 2.0)
        << "q=" << q << " est=" << est << " exact=" << exact;
  }
  ExpectRowsMatchSnapshot(registry, "rand");
}

TEST(LatencyHistogramTest, RowQuantilesEqualRankedSamplesOnRandomHistograms) {
  // Many random histograms: small ones, where the four row quantiles often
  // share a bucket, and heavy-tailed ones (log-uniform values up to 2^63,
  // past kMaxTrackable), where p99 and p999 fall in different buckets. Each
  // estimate must be the bucket bound of the sample at its rank in sorted
  // order, and the visited rows must equal the snapshot's.
  MetricRegistry registry;
  Rng rng(2024);
  for (int h = 0; h < 200; ++h) {
    const std::string name = "r" + std::to_string(h);
    LatencyHistogram histogram = registry.RegisterLatency(name, "ns");
    const uint64_t samples = 1 + rng.NextU64() % (h % 2 == 0 ? 8 : 3000);
    const uint64_t top_bits = 1 + rng.NextU64() % 63;
    std::vector<uint64_t> values;
    for (uint64_t i = 0; i < samples; ++i) {
      values.push_back(rng.NextU64() %
                       (uint64_t{1} << (rng.NextU64() % top_bits + 1)));
      histogram.Record(values.back());
    }
    std::sort(values.begin(), values.end());
    const LatencySnapshot snap = SnapOf(histogram);
    for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const double up = std::ceil(q * static_cast<double>(samples));
      const size_t rank = up >= 1.0 ? static_cast<size_t>(up) - 1 : 0;
      EXPECT_EQ(snap.Quantile(q),
                LatencyHistogram::BucketUpperBound(
                    LatencyHistogram::BucketIndex(values[rank])))
          << name << " q=" << q;
    }
    ExpectRowsMatchSnapshot(registry, name);
  }
}

TEST(LatencyHistogramTest, SubtractBaselineGivesWindowedView) {
  MetricRegistry registry;
  LatencyHistogram h = registry.RegisterLatency("window", "ns");
  for (int i = 0; i < 1000; ++i) {
    h.Record(100);  // first window: all fast
  }
  LatencySnapshot mid = SnapOf(h);
  for (int i = 0; i < 1000; ++i) {
    h.Record(1000000);  // second window: all slow
  }
  LatencySnapshot second = SnapOf(h);
  second.SubtractBaseline(mid);
  EXPECT_EQ(second.total, 1000u);
  // The windowed view must see only the slow half.
  EXPECT_GE(second.Quantile(0.5), 1000000u);
  // The cumulative view's p50 straddles both.
  EXPECT_LE(SnapOf(h).Quantile(0.25), 110u);
}

TEST(LatencyHistogramTest, CollectEmitsSixRowsPerLatency) {
  MetricRegistry registry;
  LatencyHistogram h = registry.RegisterLatency("lat", "ns");
  h.Record(50);
  h.Record(5000);
  const std::vector<MetricRegistry::Sample> samples = registry.Collect();
  std::vector<std::string> names;
  for (const auto& sample : samples) {
    names.push_back(sample.name);
  }
  for (const char* want :
       {"lat_count", "lat_p50", "lat_p90", "lat_p99", "lat_p999", "lat_max"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << "missing row " << want;
  }
  for (const auto& sample : samples) {
    if (sample.name == "lat_count") {
      EXPECT_EQ(sample.value, 2.0);
      EXPECT_EQ(sample.unit, "count");
    }
    if (sample.name == "lat_max") {
      EXPECT_EQ(sample.value, 5000.0);
      EXPECT_EQ(sample.unit, "ns");
    }
  }
}

TEST(LatencyHistogramTest, DefaultHandleIsSafeSink) {
  // A default-constructed handle (metrics disabled) must swallow records
  // without touching any registry.
  LatencyHistogram h;
  h.Record(123);
  EXPECT_GE(h.count(), 1u);  // sink cells are shared; count only grows
}

}  // namespace
}  // namespace potemkin
