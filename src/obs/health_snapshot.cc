#include "src/obs/health_snapshot.h"

#include <cstdio>
#include <utility>

#include "src/base/json_util.h"
#include "src/base/log.h"
#include "src/obs/watchdog.h"

namespace potemkin {

std::string HealthSnapshot::ToJson() const {
  std::string out = "{\n  \"snapshot\": ";
  AppendJsonString(out, source);
  out += ",\n  \"schema_version\": ";
  AppendJsonNumber(out, static_cast<double>(kSchemaVersion));
  out += ",\n  \"sequence\": ";
  AppendJsonNumber(out, static_cast<double>(sequence));
  out += ",\n  \"time_ns\": ";
  AppendJsonNumber(out, static_cast<double>(time_ns));
  // Alerts come BEFORE metrics: FromJson treats every {...} after "metrics"
  // as a metric row.
  out += ",\n  \"alerts_schema_version\": ";
  AppendJsonNumber(out, static_cast<double>(kAlertsSchemaVersion));
  out += ",\n  \"alerts\": [";
  for (size_t i = 0; i < alerts.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"alert\": ";
    AppendJsonString(out, alerts[i].rule);
    out += ", \"metric\": ";
    AppendJsonString(out, alerts[i].metric);
    out += ", \"value\": ";
    AppendJsonNumber(out, alerts[i].value);
    out += ", \"threshold\": ";
    AppendJsonNumber(out, alerts[i].threshold);
    out += ", \"firing\": ";
    out += alerts[i].firing ? "true" : "false";
    out += ", \"since_ns\": ";
    AppendJsonNumber(out, static_cast<double>(alerts[i].since_ns));
    out += "}";
  }
  out += alerts.empty() ? "]" : "\n  ]";
  out += ",\n  \"metrics\": [";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"metric\": ";
    AppendJsonString(out, metrics[i].name);
    out += ", \"value\": ";
    AppendJsonNumber(out, metrics[i].value);
    out += ", \"unit\": ";
    AppendJsonString(out, metrics[i].unit);
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool HealthSnapshot::WriteJson(const std::string& path) const {
  return WriteFile(path, ToJson());
}

namespace {

// A count or virtual time read back from a file: what ToJson() writes converts,
// anything else (NaN, negative, too large for the cast) reads as 0.
int64_t ReadCount(double value) {
  return value >= 0.0 && value < 9.2e18 ? static_cast<int64_t>(value) : 0;
}

}  // namespace

bool HealthSnapshot::FromJson(const std::string& json, HealthSnapshot* out,
                              std::string* error) {
  const size_t metrics_at = json.find("\"metrics\"");
  const size_t header = metrics_at == std::string::npos ? json.size() : metrics_at;
  out->source = FindJsonString(json, "snapshot", 0, header);
  if (out->source.empty() || metrics_at == std::string::npos) {
    *error = "not a HealthSnapshot (missing \"snapshot\"/\"metrics\")";
    return false;
  }
  const double version = FindJsonNumber(json, "schema_version", 0, header);
  if (!(version == static_cast<double>(kSchemaVersion))) {
    char reason[96];
    std::snprintf(reason, sizeof(reason),
                  "unsupported snapshot schema_version %g (understood: %d)",
                  version, kSchemaVersion);
    *error = reason;
    return false;
  }
  out->sequence = static_cast<uint64_t>(
      ReadCount(FindJsonNumber(json, "sequence", 0, header)));
  out->time_ns = ReadCount(FindJsonNumber(json, "time_ns", 0, header));
  // Alert rows live between "alerts" and "metrics" (ToJson guarantees the
  // order).
  out->alerts.clear();
  const size_t alerts_at = json.find("\"alerts\"");
  if (alerts_at != std::string::npos && alerts_at < metrics_at) {
    for (size_t open = json.find('{', alerts_at);
         open != std::string::npos && open < metrics_at;
         open = json.find('{', open + 1)) {
      const size_t close = json.find('}', open);
      if (close == std::string::npos || close > metrics_at) {
        break;
      }
      AlertSample alert;
      alert.rule = FindJsonString(json, "alert", open, close);
      alert.metric = FindJsonString(json, "metric", open, close);
      alert.value = FindJsonNumber(json, "value", open, close);
      alert.threshold = FindJsonNumber(json, "threshold", open, close);
      alert.since_ns =
          ReadCount(FindJsonNumber(json, "since_ns", open, close));
      if (!alert.rule.empty()) {
        out->alerts.push_back(std::move(alert));
      }
      open = close;
    }
  }
  out->metrics.clear();
  for (size_t open = json.find('{', metrics_at); open != std::string::npos;
       open = json.find('{', open + 1)) {
    const size_t close = json.find('}', open);
    if (close == std::string::npos) {
      break;
    }
    MetricRegistry::Sample sample;
    sample.name = FindJsonString(json, "metric", open, close);
    sample.value = FindJsonNumber(json, "value", open, close);
    sample.unit = FindJsonString(json, "unit", open, close);
    if (sample.name.empty() || sample.value != sample.value) {
      *error = "malformed metric entry";
      return false;
    }
    out->metrics.push_back(std::move(sample));
    open = close;
  }
  return true;
}

HealthMonitor::HealthMonitor(EventLoop* loop, MetricRegistry* registry,
                             std::string source)
    : loop_(loop), registry_(registry), source_(std::move(source)) {
  PK_CHECK(loop_ != nullptr) << "HealthMonitor needs an event loop";
  PK_CHECK(registry_ != nullptr) << "HealthMonitor needs a registry";
}

HealthMonitor::~HealthMonitor() { Stop(); }

void HealthMonitor::Start(Duration interval) {
  if (running_) {
    return;
  }
  running_ = true;
  periodic_ = loop_->SchedulePeriodic(interval, [this] { SampleNow(); });
}

void HealthMonitor::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  loop_->Cancel(periodic_);
  periodic_ = EventHandle{};
}

const HealthSnapshot& HealthMonitor::SampleNow() {
  HealthSnapshot snapshot;
  snapshot.source = source_;
  snapshot.time_ns = loop_->Now().nanos();
  snapshot.sequence = next_sequence_++;
  snapshot.metrics = registry_->Collect();
  if (watchdog_ != nullptr) {
    watchdog_->Evaluate(snapshot);
    watchdog_->AppendAlertSamples(&snapshot.alerts);
  }
  history_.push_back(std::move(snapshot));
  while (history_.size() > kMaxHistory) {
    history_.pop_front();
  }
  return history_.back();
}

}  // namespace potemkin
