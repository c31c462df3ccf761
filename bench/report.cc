#include "bench/report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "src/base/json_util.h"

namespace potemkin {

namespace {

// Runs `command`, returning its first output line (trimmed), or "" on failure.
std::string FirstLineOf(const char* command) {
  FILE* pipe = ::popen(command, "r");
  if (pipe == nullptr) {
    return "";
  }
  char buffer[512];
  std::string line;
  if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    line = buffer;
  }
  ::pclose(pipe);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

}  // namespace

const char* BetterName(Better better) {
  switch (better) {
    case Better::kHigher:
      return "higher";
    case Better::kLower:
      return "lower";
    case Better::kUndeclared:
      break;
  }
  return "";
}

bool ParseBetter(std::string_view text, Better* out) {
  if (text == "higher") {
    *out = Better::kHigher;
  } else if (text == "lower") {
    *out = Better::kLower;
  } else {
    return false;
  }
  return true;
}

BenchReport::BenchReport(std::string benchmark) : benchmark_(std::move(benchmark)) {}

void BenchReport::Add(std::string metric, double value, std::string unit,
                      Better better) {
  metrics_.push_back(
      BenchMetric{std::move(metric), value, std::move(unit), better});
}

std::string BenchReport::OutputDir() {
  if (const char* dir = std::getenv("POTEMKIN_BENCH_DIR"); dir != nullptr && *dir) {
    return dir;
  }
  const std::string toplevel =
      FirstLineOf("git rev-parse --show-toplevel 2>/dev/null");
  return toplevel.empty() ? "." : toplevel;
}

std::string BenchReport::GitSha() {
  const std::string sha = FirstLineOf("git rev-parse --short HEAD 2>/dev/null");
  return sha.empty() ? "unknown" : sha;
}

std::string BenchReport::ToJson() const {
  std::string out = "{\n  \"benchmark\": ";
  AppendJsonString(out, benchmark_);
  out += ",\n  \"seed\": ";
  AppendJsonNumber(out, static_cast<double>(seed_));
  out += ",\n  \"git_sha\": ";
  AppendJsonString(out, GitSha());
  out += ",\n  \"shards\": ";
  AppendJsonNumber(out, static_cast<double>(shards_));
  out += ",\n  \"host_threads\": ";
  AppendJsonNumber(out,
                   static_cast<double>(std::thread::hardware_concurrency()));
  out += ",\n  \"metrics\": [";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"metric\": ";
    AppendJsonString(out, metrics_[i].name);
    out += ", \"value\": ";
    AppendJsonNumber(out, metrics_[i].value);
    out += ", \"unit\": ";
    AppendJsonString(out, metrics_[i].unit);
    if (metrics_[i].better != Better::kUndeclared) {
      out += ", \"better\": ";
      AppendJsonString(out, BetterName(metrics_[i].better));
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string BenchReport::WriteJson() const {
  const std::string path = OutputDir() + "/BENCH_" + benchmark_ + ".json";
  if (!WriteFile(path, ToJson())) {
    std::fprintf(stderr, "BenchReport: cannot write %s\n", path.c_str());
    return "";
  }
  std::fprintf(stderr, "perf report: %s\n", path.c_str());
  return path;
}

bool ParseBenchReport(const std::string& json, ParsedBenchReport* out,
                      std::string* error) {
  const size_t metrics_at = json.find("\"metrics\"");
  const size_t header = metrics_at == std::string::npos ? json.size() : metrics_at;
  out->benchmark = FindJsonString(json, "benchmark", 0, header);
  if (out->benchmark.empty() || metrics_at == std::string::npos) {
    *error = "not a BENCH report (missing \"benchmark\"/\"metrics\")";
    return false;
  }
  out->git_sha = FindJsonString(json, "git_sha", 0, header);
  out->seed = FindJsonNumber(json, "seed", 0, header);
  out->shards = FindJsonNumber(json, "shards", 0, header);
  out->host_threads = FindJsonNumber(json, "host_threads", 0, header);
  out->metrics.clear();
  for (size_t open = json.find('{', metrics_at); open != std::string::npos;
       open = json.find('{', open + 1)) {
    const size_t close = json.find('}', open);
    if (close == std::string::npos) {
      break;
    }
    BenchMetric metric;
    metric.name = FindJsonString(json, "metric", open, close);
    metric.value = FindJsonNumber(json, "value", open, close);
    metric.unit = FindJsonString(json, "unit", open, close);
    const std::string better = FindJsonString(json, "better", open, close);
    if (metric.name.empty() || std::isnan(metric.value) ||
        metric.unit.empty() ||
        (!better.empty() && !ParseBetter(better, &metric.better))) {
      *error = "malformed metric entry";
      return false;
    }
    out->metrics.push_back(std::move(metric));
    open = close;
  }
  if (out->metrics.empty()) {
    *error = "no metrics";
    return false;
  }
  return true;
}

}  // namespace potemkin
