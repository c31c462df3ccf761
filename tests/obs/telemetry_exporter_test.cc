// Tests for the JSONL telemetry exporter: schema shape, EventLoop cadence,
// determinism across identically-driven registries, the alerts column, and
// the Prometheus one-shot rendering.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/event_loop.h"
#include "src/base/json_util.h"
#include "src/obs/event_ledger.h"
#include "src/obs/metric_registry.h"
#include "src/obs/telemetry_exporter.h"
#include "src/obs/watchdog.h"

namespace potemkin {
namespace {

// The metrics array of a sample line, rendered the slow way: every visited
// name escaped afresh with AppendJsonString.
std::string ReferenceMetrics(const MetricRegistry& registry) {
  struct Renderer final : MetricRegistry::SampleVisitor {
    void OnSample(const std::string& name, double value,
                  const std::string& /*unit*/) override {
      out += out.empty() ? "[[" : ",[";
      AppendJsonString(out, name);
      out += ',';
      AppendJsonNumber(out, value);
      out += ']';
    }
    std::string out;
  } renderer;
  registry.VisitSamples(renderer);
  return renderer.out.empty() ? "[]" : renderer.out + "]";
}

TEST(TelemetryExporterTest, HeaderCarriesSchemaAndConfig) {
  EventLoop loop;
  MetricRegistry registry;
  TelemetryExporterConfig config;
  config.source = "test-farm";
  config.interval = Duration::Millis(250);
  TelemetryExporter exporter(&loop, &registry, config);
  const std::string header = exporter.HeaderLine();
  EXPECT_NE(header.find("\"telemetry\":\"potemkin\""), std::string::npos);
  EXPECT_NE(header.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(header.find("\"source\":\"test-farm\""), std::string::npos);
  EXPECT_NE(header.find("\"interval_ns\":250000000"), std::string::npos);
  // The exporter keeps no line ring, so the header names no ring size.
  EXPECT_EQ(header.find("ring_capacity"), std::string::npos);
}

TEST(TelemetryExporterTest, SampleLineShape) {
  EventLoop loop;
  MetricRegistry registry;
  Counter packets = registry.RegisterCounter("rx.packets", "pkts");
  LatencyHistogram lat = registry.RegisterLatency("lat_ns", "ns");
  packets.Inc(3);
  lat.Record(1000);
  TelemetryExporter exporter(&loop, &registry);
  const std::string& line = exporter.SampleNow();
  EXPECT_NE(line.find("{\"seq\":0,\"time_ns\":0,\"alerts\":[],\"metrics\":[["),
            std::string::npos);
  EXPECT_NE(line.find("[\"rx.packets\",3]"), std::string::npos);
  EXPECT_NE(line.find("[\"lat_ns_p99\","), std::string::npos);
  EXPECT_NE(line.find("[\"lat_ns_count\",1]"), std::string::npos);
  // Well-formed close: metrics array then object.
  EXPECT_EQ(line.substr(line.size() - 2), "]}");
  EXPECT_EQ(exporter.sequence(), 1u);
}

TEST(TelemetryExporterTest, LinesMatchFreshRenderingAsRowsChange) {
  // The exporter reuses each row position's rendered name prefix. Rows that
  // appear, vanish or move between ticks must still render exactly as a
  // fresh escape of every name would.
  EventLoop loop;
  MetricRegistry registry;
  Counter packets = registry.RegisterCounter("rx.packets", "pkts");
  LatencyHistogram lat = registry.RegisterLatency("lat_ns", "ns");
  int owner_a = 0;
  int owner_b = 0;
  registry.RegisterProbe(&owner_a, "a.depth", "count", [] { return 2.0; });
  registry.RegisterProbe(&owner_b, "b.load", "ratio", [] { return 0.25; });
  TelemetryExporter exporter(&loop, &registry);
  const auto expect_fresh_rendering = [&](const char* step) {
    const std::string want = "{\"seq\":" +
                             std::to_string(exporter.sequence()) +
                             ",\"time_ns\":0,\"alerts\":[],\"metrics\":" +
                             ReferenceMetrics(registry) + "}";
    EXPECT_EQ(exporter.SampleNow(), want) << step;
  };
  packets.Inc(3);
  lat.Record(1000);
  expect_fresh_rendering("first tick");
  // A name holding a quote, a backslash and a control byte.
  registry.RegisterProbe(&owner_b, "odd\"name\\with\x01" "ctl",
                         "count", [] { return -1.5; });
  expect_fresh_rendering("escaped probe added");
  // Another owner's probes go: every later row moves up one position.
  registry.RemoveProbes(&owner_a);
  expect_fresh_rendering("probes removed");
  // A new counter lands among the counters and shifts every row after it.
  Counter drops = registry.RegisterCounter("rx.drops", "pkts");
  drops.Inc();
  lat.Record(70000);
  expect_fresh_rendering("counter added");
  expect_fresh_rendering("rows unchanged");
}

TEST(TelemetryExporterTest, EmptyRegistryStillWellFormed) {
  EventLoop loop;
  MetricRegistry registry;
  TelemetryExporter exporter(&loop, &registry);
  const std::string& line = exporter.SampleNow();
  EXPECT_NE(line.find("\"metrics\":[]}"), std::string::npos);
}

TEST(TelemetryExporterTest, PeriodicTicksOnLoopCadence) {
  EventLoop loop;
  MetricRegistry registry;
  Counter ticks = registry.RegisterCounter("ticks", "count");
  TelemetryExporterConfig config;
  config.interval = Duration::Seconds(1);
  TelemetryExporter exporter(&loop, &registry, config);
  std::vector<std::string> seen;
  exporter.set_sink([&](const std::string& line) { seen.push_back(line); });
  exporter.Start();
  ticks.Inc(1);
  loop.RunFor(Duration::Seconds(5));
  exporter.Stop();
  loop.RunFor(Duration::Seconds(5));  // stopped: no further samples
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(exporter.sequence(), 5u);
  // First tick at t=1s, not t=0.
  EXPECT_NE(seen[0].find("\"time_ns\":1000000000"), std::string::npos);
}

TEST(TelemetryExporterTest, IdenticallyDrivenRegistriesProduceIdenticalSeries) {
  // The determinism contract CI leans on: same updates, same cadence ->
  // byte-identical lines.
  auto run = [] {
    EventLoop loop;
    MetricRegistry registry;
    Counter c = registry.RegisterCounter("c", "count");
    LatencyHistogram h = registry.RegisterLatency("h_ns", "ns");
    TelemetryExporter exporter(&loop, &registry);
    std::string series;
    exporter.set_sink([&](const std::string& line) {
      series += line;
      series += '\n';
    });
    exporter.Start();
    for (int t = 0; t < 5; ++t) {
      c.Inc(3);
      h.Record(static_cast<uint64_t>(1000 * (t + 1)));
      loop.RunFor(Duration::Seconds(1));
    }
    return exporter.HeaderLine() + "\n" + series;
  };
  EXPECT_EQ(run(), run());
}

TEST(TelemetryExporterTest, AlertsColumnListsFiringRules) {
  EventLoop loop;
  MetricRegistry registry;
  double depth = 0.0;
  registry.RegisterProbe(&depth, "queue.depth", "pkts", [&depth] { return depth; });
  EventLedger ledger(64);
  Watchdog dog(&ledger);
  dog.AddRule({"deep_queue", "queue.depth", WatchdogKind::kAbove,
               /*raise=*/100.0, /*clear=*/50.0, Duration::Zero()});
  TelemetryExporter exporter(&loop, &registry);
  exporter.set_watchdog(&dog);

  depth = 10.0;
  HealthSnapshot quiet;
  quiet.metrics.push_back({"queue.depth", 10.0, "pkts"});
  dog.Evaluate(quiet);
  EXPECT_NE(exporter.SampleNow().find("\"alerts\":[]"), std::string::npos);

  depth = 500.0;
  HealthSnapshot loud;
  loud.time_ns = 1;
  loud.metrics.push_back({"queue.depth", 500.0, "pkts"});
  dog.Evaluate(loud);
  EXPECT_NE(exporter.SampleNow().find("\"alerts\":[\"deep_queue\"]"),
            std::string::npos);
}

TEST(TelemetryExporterTest, PrometheusTextRendersMetricsAndAlerts) {
  HealthSnapshot snapshot;
  snapshot.source = "farm";
  snapshot.metrics.push_back({"gateway.rx.packets", 42.0, "pkts"});
  snapshot.metrics.push_back({"lat_p99", 1.5e6, "ns"});
  AlertSample alert;
  alert.rule = "hot_p99";
  alert.metric = "lat_p99";
  alert.firing = true;
  snapshot.alerts.push_back(alert);
  const std::string text = PrometheusTextFor(snapshot);
  // Dots sanitized to underscores, unit as label, exact value.
  EXPECT_NE(text.find("potemkin_gateway_rx_packets{unit=\"pkts\"} 42"),
            std::string::npos);
  EXPECT_NE(text.find("potemkin_lat_p99{unit=\"ns\"} 1500000"),
            std::string::npos);
  EXPECT_NE(text.find(
                "potemkin_alert_firing{rule=\"hot_p99\",metric=\"lat_p99\"} 1"),
            std::string::npos);
}

}  // namespace
}  // namespace potemkin
