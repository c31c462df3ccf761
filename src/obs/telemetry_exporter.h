// Periodic JSONL time-series exporter over the metric registry: the farm's
// flight-data recorder for soak runs.
//
// Where HealthSnapshot is a point-in-time document (one JSON object, built
// with Collect(), allocating freely), the TelemetryExporter is a *stream*: on
// every EventLoop tick it renders one JSONL line — sequence number, virtual
// timestamp, the firing watchdog alert set, and every registry sample row —
// into one string and hands it to the sink, so a soak harness streams the
// full series to disk while the exporter holds only the current line. Once
// that string has grown to the longest line, ticks allocate nothing: the
// registry is walked with VisitSamples (pre-built row names, no Collect()
// vector), each row's JSON-escaped `["name",` prefix is rendered once and
// reused while the same name is visited at its position (a tick appends only
// numbers), and the line is rewritten in place, keeping its capacity.
//
// Schema (kTelemetrySchemaVersion):
//   header:  {"telemetry":"potemkin","schema_version":1,"source":...,
//             "interval_ns":...}
//   sample:  {"seq":N,"time_ns":T,"alerts":["rule",...],
//             "metrics":[["name",value],...]}
// `metrics` is an array of [name,value] pairs, not an object: VisitSamples
// does not deduplicate probe names (that would allocate), and duplicate keys
// in a JSON object are a parsing trap — an array of pairs is dup-safe.
//
// Everything rendered is *virtual-time deterministic*: same seed, same
// traffic, same tick cadence → byte-identical series (CI diffs them with
// `cmp`). Keep wall-clock measurements (RSS, elapsed real time) out of the
// stream; they belong in BENCH report rows.
#ifndef SRC_OBS_TELEMETRY_EXPORTER_H_
#define SRC_OBS_TELEMETRY_EXPORTER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/event_loop.h"
#include "src/base/time_types.h"
#include "src/obs/health_snapshot.h"
#include "src/obs/metric_registry.h"

namespace potemkin {

class Watchdog;

inline constexpr int kTelemetrySchemaVersion = 1;

struct TelemetryExporterConfig {
  // Virtual-time cadence of Start()'s periodic tick.
  Duration interval = Duration::Seconds(1);
  std::string source = "honeyfarm";
};

class TelemetryExporter final : private MetricRegistry::SampleVisitor {
 public:
  TelemetryExporter(EventLoop* loop, MetricRegistry* registry,
                    TelemetryExporterConfig config = {});
  ~TelemetryExporter() override;
  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  // Alert-state source for the per-line `alerts` array. The exporter only
  // *reads* firing state — evaluation cadence stays the HealthMonitor's.
  void set_watchdog(const Watchdog* watchdog) { watchdog_ = watchdog; }
  // Called with every rendered line (no trailing newline). The next tick
  // overwrites the line: copy or write it out before returning if it must
  // outlive the tick.
  void set_sink(std::function<void(const std::string&)> sink) {
    sink_ = std::move(sink);
  }

  void Start();
  void Stop();

  // Renders one sample line immediately (Start()'s tick calls this). The
  // line stays valid until the next tick.
  const std::string& SampleNow();

  // The schema-versioned header line (no trailing newline).
  std::string HeaderLine() const;

  uint64_t sequence() const { return sequence_; }

 private:
  // Rows carry their unit, but the line schema is [name, value] pairs.
  void OnSample(const std::string& name, double value,
                const std::string& unit) override;

  EventLoop* loop_;
  MetricRegistry* registry_;
  TelemetryExporterConfig config_;
  const Watchdog* watchdog_ = nullptr;
  std::function<void(const std::string&)> sink_;
  std::string line_;
  uint64_t sequence_ = 0;
  bool running_ = false;
  EventHandle periodic_;
  // Rendered `["name",` prefix of the row last visited at each position. A
  // row whose name differs from its position's cached one (probes registered
  // or removed since the last tick shift rows) is re-rendered; the rest are
  // copied as they are.
  struct RowPrefix {
    std::string name;
    std::string json;  // empty until first rendered
  };
  std::vector<RowPrefix> row_prefixes_;
  // Rows visited so far by the SampleNow in progress.
  size_t render_row_ = 0;
};

// One-shot Prometheus text-exposition rendering of a health snapshot: every
// metric row as `potemkin_<sanitized_name>{unit="..."} value`, plus a
// `potemkin_alert_firing{rule="...",metric="..."} 1` series per firing alert.
// Metric names have every character outside [a-zA-Z0-9_:] replaced with '_'.
std::string PrometheusTextFor(const HealthSnapshot& snapshot);

}  // namespace potemkin

#endif  // SRC_OBS_TELEMETRY_EXPORTER_H_
