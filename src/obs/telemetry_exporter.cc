#include "src/obs/telemetry_exporter.h"

#include "src/base/json_util.h"
#include "src/base/log.h"
#include "src/obs/watchdog.h"

namespace potemkin {

TelemetryExporter::TelemetryExporter(EventLoop* loop, MetricRegistry* registry,
                                     TelemetryExporterConfig config)
    : loop_(loop), registry_(registry), config_(std::move(config)) {
  PK_CHECK(loop_ != nullptr) << "TelemetryExporter needs an event loop";
  PK_CHECK(registry_ != nullptr) << "TelemetryExporter needs a registry";
}

TelemetryExporter::~TelemetryExporter() { Stop(); }

void TelemetryExporter::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  periodic_ = loop_->SchedulePeriodic(config_.interval, [this] { SampleNow(); });
}

void TelemetryExporter::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  loop_->Cancel(periodic_);
  periodic_ = EventHandle{};
}

void TelemetryExporter::OnSample(const std::string& name, double value,
                                 const std::string& /*unit*/) {
  RowPrefix& row = render_row_ < row_prefixes_.size()
                       ? row_prefixes_[render_row_]
                       : row_prefixes_.emplace_back();
  if (row.json.empty() || row.name != name) {
    row.name = name;
    row.json = "[";
    AppendJsonString(row.json, name);
    row.json += ',';
  }
  // First sample opens the outer array and its own pair; later ones just
  // their pair.
  line_ += render_row_ == 0 ? '[' : ',';
  line_ += row.json;
  AppendJsonNumber(line_, value);
  line_ += ']';
  ++render_row_;
}

const std::string& TelemetryExporter::SampleNow() {
  line_.clear();
  line_ += "{\"seq\":";
  AppendJsonNumber(line_, static_cast<double>(sequence_));
  line_ += ",\"time_ns\":";
  AppendJsonNumber(line_, static_cast<double>(loop_->Now().nanos()));
  line_ += ",\"alerts\":[";
  if (watchdog_ != nullptr) {
    bool first = true;
    for (size_t i = 0; i < watchdog_->rule_count(); ++i) {
      if (!watchdog_->state(i).firing) {
        continue;
      }
      if (!first) {
        line_ += ',';
      }
      first = false;
      AppendJsonString(line_, watchdog_->rule(i).name);
    }
  }
  line_ += "],\"metrics\":";
  render_row_ = 0;
  registry_->VisitSamples(*this);
  if (render_row_ == 0) {
    line_ += "[";  // no samples at all: keep the array well-formed
  }
  line_ += "]}";
  ++sequence_;
  if (sink_) {
    sink_(line_);
  }
  return line_;
}

std::string TelemetryExporter::HeaderLine() const {
  std::string out = "{\"telemetry\":\"potemkin\",\"schema_version\":";
  AppendJsonNumber(out, kTelemetrySchemaVersion);
  out += ",\"source\":";
  AppendJsonString(out, config_.source);
  out += ",\"interval_ns\":";
  AppendJsonNumber(out, static_cast<double>(config_.interval.nanos()));
  out += "}";
  return out;
}

namespace {

void AppendPrometheusName(std::string& out, const std::string& name) {
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
}

void AppendPrometheusLabel(std::string& out, const std::string& value) {
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}

}  // namespace

std::string PrometheusTextFor(const HealthSnapshot& snapshot) {
  std::string out;
  out += "# Potemkin honeyfarm one-shot metrics dump (source=";
  AppendPrometheusLabel(out, snapshot.source);
  out += ", time_ns=";
  AppendJsonNumber(out, static_cast<double>(snapshot.time_ns));
  out += ")\n";
  for (const auto& metric : snapshot.metrics) {
    out += "potemkin_";
    AppendPrometheusName(out, metric.name);
    if (!metric.unit.empty()) {
      out += "{unit=\"";
      AppendPrometheusLabel(out, metric.unit);
      out += "\"}";
    }
    out += ' ';
    AppendJsonNumber(out, metric.value);
    out += '\n';
  }
  for (const auto& alert : snapshot.alerts) {
    out += "potemkin_alert_firing{rule=\"";
    AppendPrometheusLabel(out, alert.rule);
    out += "\",metric=\"";
    AppendPrometheusLabel(out, alert.metric);
    out += "\"} 1\n";
  }
  return out;
}

}  // namespace potemkin
