// Tests for versioned health snapshots and the periodic HealthMonitor.
#include <gtest/gtest.h>

#include <vector>

#include "src/base/event_loop.h"
#include "src/obs/health_snapshot.h"
#include "src/obs/metric_registry.h"

namespace potemkin {
namespace {

TEST(HealthSnapshotTest, JsonCarriesSchemaVersionAndMetricRows) {
  HealthSnapshot snapshot;
  snapshot.source = "honeyfarm";
  snapshot.time_ns = 5000000000;
  snapshot.sequence = 3;
  snapshot.metrics.push_back({"gateway.rx.packets", 42.0, "count"});
  snapshot.metrics.push_back({"pool.hit_rate", 0.5, "ratio"});
  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"snapshot\": \"honeyfarm\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"sequence\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"time_ns\": 5000000000"), std::string::npos);
  // The metric rows share the BENCH report shape, so `bench_report diff`
  // reads both.
  EXPECT_NE(json.find("{\"metric\": \"gateway.rx.packets\", \"value\": 42, "
                      "\"unit\": \"count\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"value\": 0.5"), std::string::npos);
}

TEST(HealthSnapshotTest, FromJsonReadsBackWhatToJsonWrote) {
  HealthSnapshot snapshot;
  snapshot.source = "honeyfarm";
  snapshot.time_ns = 5000000000;
  snapshot.sequence = 3;
  snapshot.alerts.push_back({"clone_total_p99", "clone.phase_ns.total_p99",
                             6e8, 5e8, true, 4000000000});
  snapshot.metrics.push_back({"gateway.rx.packets", 42.0, "count"});
  snapshot.metrics.push_back({"pool.hit_rate", 0.5, "ratio"});
  HealthSnapshot parsed;
  std::string error;
  ASSERT_TRUE(HealthSnapshot::FromJson(snapshot.ToJson(), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.source, "honeyfarm");
  EXPECT_EQ(parsed.time_ns, 5000000000);
  EXPECT_EQ(parsed.sequence, 3u);
  ASSERT_EQ(parsed.alerts.size(), 1u);
  EXPECT_EQ(parsed.alerts[0].rule, "clone_total_p99");
  EXPECT_EQ(parsed.alerts[0].metric, "clone.phase_ns.total_p99");
  EXPECT_EQ(parsed.alerts[0].value, 6e8);
  EXPECT_EQ(parsed.alerts[0].threshold, 5e8);
  EXPECT_EQ(parsed.alerts[0].since_ns, 4000000000);
  ASSERT_EQ(parsed.metrics.size(), 2u);
  EXPECT_EQ(parsed.metrics[0].name, "gateway.rx.packets");
  EXPECT_EQ(parsed.metrics[0].value, 42.0);
  EXPECT_EQ(parsed.metrics[0].unit, "count");
  EXPECT_EQ(parsed.metrics[1].value, 0.5);
  // The re-rendered snapshot is byte-identical.
  EXPECT_EQ(parsed.ToJson(), snapshot.ToJson());
}

TEST(HealthSnapshotTest, FromJsonRejectsOtherDocumentsAndVersions) {
  HealthSnapshot snapshot;
  snapshot.source = "honeyfarm";
  snapshot.metrics.push_back({"gateway.rx.packets", 42.0, "count"});
  std::string json = snapshot.ToJson();
  const std::string current = "\"schema_version\": 1";
  json.replace(json.find(current), current.size(), "\"schema_version\": 999");
  HealthSnapshot parsed;
  std::string error;
  EXPECT_FALSE(HealthSnapshot::FromJson(json, &parsed, &error));
  EXPECT_NE(error.find("schema_version 999"), std::string::npos) << error;
  EXPECT_FALSE(HealthSnapshot::FromJson(
      "{\"benchmark\": \"b\", \"metrics\": []}", &parsed, &error));
  EXPECT_FALSE(HealthSnapshot::FromJson(
      "{\"snapshot\": \"s\", \"schema_version\": 1, \"metrics\": "
      "[{\"metric\": \"m\", \"unit\": \"u\"}]}",
      &parsed, &error));
  EXPECT_EQ(error, "malformed metric entry");
}

TEST(HealthSnapshotTest, FromJsonReadsOutOfRangeCountsAsZero) {
  // A hand-edited file must not overflow the integer casts.
  HealthSnapshot parsed;
  std::string error;
  ASSERT_TRUE(HealthSnapshot::FromJson(
      "{\"snapshot\": \"s\", \"schema_version\": 1, \"sequence\": -1, "
      "\"time_ns\": 1e300, \"metrics\": [{\"metric\": \"m\", \"value\": 1, "
      "\"unit\": \"u\"}]}",
      &parsed, &error))
      << error;
  EXPECT_EQ(parsed.sequence, 0u);
  EXPECT_EQ(parsed.time_ns, 0);
}

TEST(HealthMonitorTest, PeriodicSamplingAtVirtualCadence) {
  EventLoop loop;
  MetricRegistry registry;
  Counter c = registry.RegisterCounter("events", "count");
  HealthMonitor monitor(&loop, &registry, "test");
  monitor.Start(Duration::Seconds(1));
  loop.ScheduleAfter(Duration::Millis(2500), [&] { c.Inc(7); });
  std::vector<HealthSnapshot> seen;
  for (int second = 1; second <= 4; ++second) {  // samples at t=1,2,3,4
    loop.RunFor(Duration::Seconds(1));
    seen.push_back(monitor.history().back());
  }
  EXPECT_EQ(monitor.samples_taken(), 4u);
  // Sequence and virtual timestamps are monotone and cadence-aligned.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(seen[i].sequence, i);
    EXPECT_EQ(seen[i].time_ns, static_cast<int64_t>((i + 1) * 1000000000));
  }
  // The counter bump lands between samples 2 and 3.
  auto value_in = [](const HealthSnapshot& snapshot) {
    for (const auto& sample : snapshot.metrics) {
      if (sample.name == "events") {
        return sample.value;
      }
    }
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(value_in(seen[1]), 0.0);
  EXPECT_DOUBLE_EQ(value_in(seen[2]), 7.0);
}

TEST(HealthMonitorTest, StopHaltsSamplingAndKeepsHistory) {
  EventLoop loop;
  MetricRegistry registry;
  HealthMonitor monitor(&loop, &registry, "test");
  monitor.Start(Duration::Seconds(1));
  loop.RunFor(Duration::Seconds(2));
  monitor.Stop();
  loop.RunFor(Duration::Seconds(10));
  EXPECT_EQ(monitor.samples_taken(), 2u);
  EXPECT_EQ(monitor.history().size(), 2u);
  EXPECT_EQ(loop.pending_events(), 0u);  // the periodic slot was actually cancelled
}

TEST(HealthMonitorTest, HistoryHoldsExactlyTheLastTwoSnapshots) {
  // Two is what a flight-recorder dump carries.
  EXPECT_EQ(HealthMonitor::kMaxHistory, 2u);
  EventLoop loop;
  MetricRegistry registry;
  HealthMonitor monitor(&loop, &registry, "test");
  monitor.SampleNow();
  ASSERT_EQ(monitor.history().size(), 1u);
  EXPECT_EQ(monitor.history().front().sequence, 0u);
  for (int i = 0; i < 9; ++i) {
    loop.RunFor(Duration::Seconds(1));
    monitor.SampleNow();
  }
  EXPECT_EQ(monitor.samples_taken(), 10u);
  ASSERT_EQ(monitor.history().size(), 2u);
  // The oldest entries were the ones discarded.
  EXPECT_EQ(monitor.history()[0].sequence, 8u);
  EXPECT_EQ(monitor.history()[0].time_ns, 8000000000);
  EXPECT_EQ(monitor.history()[1].sequence, 9u);
  EXPECT_EQ(monitor.history()[1].time_ns, 9000000000);
}

TEST(HealthMonitorTest, HistoryBoundKeepsJsonSchemaValid) {
  EventLoop loop;
  MetricRegistry registry;
  Counter c = registry.RegisterCounter("events", "count");
  HealthMonitor monitor(&loop, &registry, "bounded");
  for (uint64_t i = 0; i < HealthMonitor::kMaxHistory + 25; ++i) {
    c.Inc();
    monitor.SampleNow();
  }
  ASSERT_EQ(monitor.history().size(), HealthMonitor::kMaxHistory);
  // Every survivor still renders the full versioned layout — eviction must
  // never leave a snapshot that consumers (bench_report, the flight recorder)
  // would reject.
  for (const HealthSnapshot& snapshot : {monitor.history().front(),
                                         monitor.history().back()}) {
    const std::string json = snapshot.ToJson();
    EXPECT_NE(json.find("\"snapshot\": \"bounded\""), std::string::npos);
    EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"alerts_schema_version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"metrics\": ["), std::string::npos);
    EXPECT_NE(json.find("{\"metric\": \"events\""), std::string::npos);
    // Alerts precede metrics (string-scan consumers depend on the order).
    EXPECT_LT(json.find("\"alerts\""), json.find("\"metrics\""));
    int depth = 0;
    for (char ch : json) {
      depth += ch == '{';
      depth -= ch == '}';
      ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
  }
  // The retained window is the newest samples, values intact.
  EXPECT_EQ(monitor.history().front().sequence, 25u);
  EXPECT_DOUBLE_EQ(monitor.history().back().metrics[0].value,
                   static_cast<double>(HealthMonitor::kMaxHistory + 25));
}

TEST(HealthMonitorTest, StartIsIdempotentWhileRunning) {
  EventLoop loop;
  MetricRegistry registry;
  HealthMonitor monitor(&loop, &registry, "test");
  monitor.Start(Duration::Seconds(1));
  monitor.Start(Duration::Millis(10));  // ignored: already running
  loop.RunFor(Duration::Seconds(2));
  EXPECT_EQ(monitor.samples_taken(), 2u);
  EXPECT_EQ(loop.pending_events(), 1u);  // exactly one periodic armed
}

}  // namespace
}  // namespace potemkin
