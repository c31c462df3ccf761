// One CLI over the farm's performance reports: BENCH_<name>.json files (see
// bench/report.h), versioned health snapshots (src/obs/health_snapshot.h), and
// BENCH_TRAJECTORY.jsonl, the append-only history of BENCH reports across
// commits.
//
//   bench_report diff [--threshold=0.10] [--metric-threshold=name=frac ...]
//       baseline.json candidate.json
//   bench_report append [--out=BENCH_TRAJECTORY.jsonl] BENCH_a.json [...]
//   bench_report check [--last=3] [--tolerance=0.05]
//       [--out=BENCH_TRAJECTORY.jsonl]
//
// Exit status: 0 ok, 1 regression found, 2 usage or schema error (unreadable
// file, missing report keys, no rows, a malformed row, an unsupported snapshot
// schema_version).
//
// Direction is never guessed: each row's declared `better` says which way it
// should move. A row without one (work-size guards, every health-snapshot
// row) is a change to explain whichever way it moves.
//
// diff compares two reports (or two snapshots) row by row. A baseline row
// regresses when the candidate moved the losing way by more than the
// threshold, as a fraction of the baseline; an undeclared row loses either
// way. A zero baseline has no scale, so any losing move regresses. The
// baseline's `better` governs, and a row whose `better` differs between the
// files, or that the candidate lacks, is a schema error. Rows present only in
// the candidate are listed as new and never fail: reports may grow.
// `--metric-threshold` overrides the threshold for one row and may repeat
// (the last one for a name wins): wall-clock rows tolerate more noise than
// deterministic counts, so CI pins them individually.
//
// Like-for-like guard: BENCH reports stamp the host's hardware concurrency
// ("host_threads") and the shard topology they exercised ("shards"). When the
// reports disagree on shards, or they disagree on host_threads and either ran
// a parallel topology (shards > 1), the runs are not comparable — deltas are
// still printed, but regressions are demoted to informational and the exit
// status is 0. Single-threaded reports stay enforced across hosts: wall-clock
// noise there is a threshold problem, not a topology problem.
//
// append stamps each report (git SHA, seed, shard topology, host threads)
// into the trajectory as one JSONL entry, skipping a report whose SHA and rows
// equal its benchmark's latest entry (a CI re-run on one commit). check scans
// the trajectory for the compounding slow leak a single-step diff cannot see:
// for every benchmark with at least --last entries, a row fails when it moved
// strictly the losing way across each of the last N entries AND the
// cumulative move exceeds --tolerance. It reads each row's direction from the
// newest entry and skips undeclared rows and wall-clock rows (their names
// contain "wallclock"; they measure the runner, not the code).
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench/report.h"
#include "src/base/json_util.h"
#include "src/base/strings.h"
#include "src/obs/health_snapshot.h"

namespace potemkin {
namespace {

constexpr int kTrajectorySchemaVersion = 1;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: bench_report diff [--threshold=0.10] "
      "[--metric-threshold=name=frac ...] baseline.json candidate.json\n"
      "       bench_report append [--out=BENCH_TRAJECTORY.jsonl] "
      "BENCH_a.json [...]\n"
      "       bench_report check [--last=3] [--tolerance=0.05] "
      "[--out=BENCH_TRAJECTORY.jsonl]\n");
}

// `--name=value` flags in command-line order, plus the positionals.
struct Args {
  std::vector<std::pair<std::string, std::string>> flags;
  std::vector<std::string> positional;
};

// Splits argv[first..] into flags and positionals; false (after printing why)
// on a flag without '=' or one that `allowed` does not name.
bool ParseArgs(int argc, char** argv, int first,
               const std::vector<std::string>& allowed, Args* out) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      out->positional.push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    bool known = false;
    for (const std::string& candidate : allowed) {
      known = known || candidate == name;
    }
    if (!known || eq == std::string::npos) {
      std::fprintf(stderr, "bench_report: %s flag %s\n",
                   known ? "valueless" : "unknown", arg.c_str());
      PrintUsage();
      return false;
    }
    out->flags.emplace_back(name, arg.substr(eq + 1));
  }
  return true;
}

bool ParseNumberFlag(const std::string& name, const std::string& text,
                     double* out) {
  const std::optional<double> value = ParseDouble(text);
  if (!value) {
    std::fprintf(stderr, "bench_report: --%s wants a number, got '%s'\n",
                 name.c_str(), text.c_str());
    return false;
  }
  *out = *value;
  return true;
}

// A health snapshot as a report: its rows declare no direction and it carries
// no host stamps. Every row still needs a unit, and there must be one.
bool ParseSnapshotAsReport(const std::string& text, ParsedBenchReport* out,
                           std::string* error) {
  HealthSnapshot snapshot;
  if (!HealthSnapshot::FromJson(text, &snapshot, error)) {
    return false;
  }
  out->benchmark = snapshot.source;
  out->seed = out->shards = out->host_threads = kNaN;
  for (const MetricRegistry::Sample& sample : snapshot.metrics) {
    if (sample.unit.empty()) {
      *error = "malformed metric entry";
      return false;
    }
    out->metrics.push_back({sample.name, sample.value, sample.unit});
  }
  if (out->metrics.empty()) {
    *error = "no metrics";
    return false;
  }
  return true;
}

// Reads a BENCH report or a health snapshot (told apart by which names the
// file: "benchmark" or "snapshot").
bool LoadReport(const std::string& path, ParsedBenchReport* out) {
  const std::string text = ReadFile(path);
  if (text.empty()) {
    std::fprintf(stderr, "bench_report: cannot read %s\n", path.c_str());
    return false;
  }
  const size_t header = text.find("\"metrics\"");
  std::string error;
  const bool snapshot = FindJsonString(text, "benchmark", 0, header).empty() &&
                        !FindJsonString(text, "snapshot", 0, header).empty();
  if (snapshot ? !ParseSnapshotAsReport(text, out, &error)
               : !ParseBenchReport(text, out, &error)) {
    std::fprintf(stderr, "bench_report: %s: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

const BenchMetric* Find(const ParsedBenchReport& report,
                        const std::string& name) {
  for (const BenchMetric& metric : report.metrics) {
    if (metric.name == name) {
      return &metric;
    }
  }
  return nullptr;
}

// Whether moving from `base` to `candidate` loses by more than `limit`, a
// fraction of |base|. A zero baseline has no scale: any losing move counts.
bool Regressed(const BenchMetric& base, double candidate, double limit) {
  const double move = candidate - base.value;
  const double loss = base.better == Better::kHigher  ? -move
                      : base.better == Better::kLower ? move
                                                      : std::fabs(move);
  return base.value == 0.0 ? loss > 0.0 : loss / std::fabs(base.value) > limit;
}

int Diff(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, 2, {"threshold", "metric-threshold"}, &args)) {
    return 2;
  }
  double threshold = 0.10;
  std::vector<std::pair<std::string, double>> metric_thresholds;
  for (const auto& [name, value] : args.flags) {
    if (name == "threshold") {
      if (!ParseNumberFlag(name, value, &threshold)) {
        return 2;
      }
      continue;
    }
    const size_t eq = value.rfind('=');
    const std::optional<double> fraction =
        eq == std::string::npos || eq == 0 ? std::nullopt
                                           : ParseDouble(value.substr(eq + 1));
    if (!fraction) {
      std::fprintf(stderr,
                   "bench_report: bad --metric-threshold '%s' (want "
                   "name=fraction)\n",
                   value.c_str());
      return 2;
    }
    metric_thresholds.emplace_back(value.substr(0, eq), *fraction);
  }
  if (args.positional.size() != 2) {
    PrintUsage();
    return 2;
  }
  const auto threshold_for = [&](const std::string& name) {
    double chosen = threshold;
    for (const auto& [metric, fraction] : metric_thresholds) {
      if (metric == name) {
        chosen = fraction;  // last occurrence wins
      }
    }
    return chosen;
  };

  ParsedBenchReport baseline;
  ParsedBenchReport candidate;
  if (!LoadReport(args.positional[0], &baseline) ||
      !LoadReport(args.positional[1], &candidate)) {
    return 2;
  }
  if (baseline.benchmark != candidate.benchmark) {
    std::fprintf(stderr,
                 "bench_report: comparing different benchmarks (%s vs %s)\n",
                 baseline.benchmark.c_str(), candidate.benchmark.c_str());
    return 2;
  }

  // NaN != NaN and NaN > 1 is false, so a missing stamp on either side keeps
  // the guard inert.
  const bool shards_differ = baseline.shards == baseline.shards &&
                             candidate.shards == candidate.shards &&
                             baseline.shards != candidate.shards;
  const bool parallel = baseline.shards > 1 || candidate.shards > 1;
  const bool threads_differ = baseline.host_threads == baseline.host_threads &&
                              candidate.host_threads == candidate.host_threads &&
                              baseline.host_threads != candidate.host_threads;
  const bool cross_host = shards_differ || (parallel && threads_differ);
  if (cross_host) {
    std::printf("note: not like-for-like (shards %g vs %g, host_threads %g vs "
                "%g) — regressions reported but not enforced\n",
                baseline.shards, candidate.shards, baseline.host_threads,
                candidate.host_threads);
  }

  std::printf("%-44s %16s %16s %9s\n", "metric", "baseline", "candidate",
              "delta");
  bool regressed = false;
  bool mismatch = false;
  for (const BenchMetric& base : baseline.metrics) {
    const BenchMetric* cand = Find(candidate, base.name);
    if (cand == nullptr) {
      std::printf("%-44s %16.4g %16s %9s  MISSING\n", base.name.c_str(),
                  base.value, "-", "-");
      mismatch = true;
      continue;
    }
    if (cand->better != base.better) {
      std::printf("%-44s %16.4g %16.4g %9s  BETTER '%s' vs '%s'\n",
                  base.name.c_str(), base.value, cand->value, "-",
                  BetterName(base.better), BetterName(cand->better));
      mismatch = true;
      continue;
    }
    const bool worse = Regressed(base, cand->value, threshold_for(base.name));
    const std::string delta =
        base.value == 0.0
            ? "n/a"
            : StrFormat("%+.1f%%", 100.0 * (cand->value - base.value) /
                                       std::fabs(base.value));
    std::printf("%-44s %16.4g %16.4g %9s%s\n", base.name.c_str(), base.value,
                cand->value, delta.c_str(), worse ? "  REGRESSED" : "");
    regressed = regressed || worse;
  }
  for (const BenchMetric& cand : candidate.metrics) {
    if (Find(baseline, cand.name) == nullptr) {
      std::printf("%-44s %16s %16.4g %9s  NEW\n", cand.name.c_str(), "-",
                  cand.value, "-");
    }
  }
  if (mismatch) {
    std::fprintf(stderr,
                 "bench_report: baseline row(s) missing from the candidate or "
                 "declaring a different `better`\n");
    return 2;
  }
  return regressed && !cross_host ? 1 : 0;
}

// ---- Trajectory JSONL entries ----

std::string RenderEntry(const ParsedBenchReport& entry) {
  std::string out = "{\"trajectory_schema_version\":";
  AppendJsonNumber(out, kTrajectorySchemaVersion);
  out += ",\"benchmark\":";
  AppendJsonString(out, entry.benchmark);
  out += ",\"git_sha\":";
  AppendJsonString(out, entry.git_sha);
  out += ",\"seed\":";
  AppendJsonNumber(out, entry.seed);
  out += ",\"shards\":";
  AppendJsonNumber(out, entry.shards);
  out += ",\"host_threads\":";
  AppendJsonNumber(out, entry.host_threads);
  out += ",\"metrics\":[";
  for (size_t i = 0; i < entry.metrics.size(); ++i) {
    const BenchMetric& metric = entry.metrics[i];
    out += i == 0 ? "[" : ",[";
    AppendJsonString(out, metric.name);
    out += ',';
    AppendJsonNumber(out, metric.value);
    out += ',';
    AppendJsonString(out, metric.unit);
    if (metric.better != Better::kUndeclared) {
      out += ',';
      AppendJsonString(out, BetterName(metric.better));
    }
    out += ']';
  }
  out += "]}";
  return out;
}

// The next quoted string in line[*cursor, until): stores it and moves *cursor
// past its closing quote. False when there is none.
bool NextQuoted(const std::string& line, size_t until, size_t* cursor,
                std::string* out) {
  const size_t open = line.find('"', *cursor);
  const size_t close = open >= until ? open : line.find('"', open + 1);
  if (close >= until) {
    return false;
  }
  *out = line.substr(open + 1, close - open - 1);
  *cursor = close + 1;
  return true;
}

// Parses one trajectory line: the stamps, then the metrics array of
// ["name",value,"unit"] rows, each with an optional fourth "higher"/"lower"
// (entries written before rows declared a direction have three elements).
bool ParseEntryLine(const std::string& line, ParsedBenchReport* out) {
  const size_t metrics_at = line.find("\"metrics\"");
  const size_t outer =
      metrics_at == std::string::npos ? metrics_at : line.find('[', metrics_at);
  if (outer == std::string::npos) {
    return false;
  }
  out->benchmark = FindJsonString(line, "benchmark", 0, metrics_at);
  out->git_sha = FindJsonString(line, "git_sha", 0, metrics_at);
  out->seed = FindJsonNumber(line, "seed", 0, metrics_at);
  out->shards = FindJsonNumber(line, "shards", 0, metrics_at);
  out->host_threads = FindJsonNumber(line, "host_threads", 0, metrics_at);
  if (out->benchmark.empty()) {
    return false;
  }
  for (size_t open = line.find('[', outer + 1); open != std::string::npos;
       open = line.find('[', open + 1)) {
    const size_t close = line.find(']', open);
    BenchMetric metric;
    size_t cursor = open;
    std::string better;
    if (close == std::string::npos ||
        !NextQuoted(line, close, &cursor, &metric.name)) {
      return false;
    }
    metric.value = std::strtod(line.c_str() + cursor + 1, nullptr);
    NextQuoted(line, close, &cursor, &metric.unit);
    if (NextQuoted(line, close, &cursor, &better) &&
        !ParseBetter(better, &metric.better)) {
      return false;
    }
    out->metrics.push_back(std::move(metric));
    open = close;
  }
  return !out->metrics.empty();
}

// Every parseable entry of the trajectory at `path` (none when it is absent).
std::vector<ParsedBenchReport> LoadTrajectory(const std::string& path) {
  std::vector<ParsedBenchReport> entries;
  const std::string text = ReadFile(path);
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    ParsedBenchReport entry;
    if (!line.empty() && ParseEntryLine(line, &entry)) {
      entries.push_back(std::move(entry));
    }
  }
  return entries;
}

int Append(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, 2, {"out"}, &args)) {
    return 2;
  }
  std::string out_path = "BENCH_TRAJECTORY.jsonl";
  for (const auto& [name, value] : args.flags) {
    out_path = value;
  }
  if (args.positional.empty()) {
    std::fprintf(stderr, "bench_report: no BENCH report inputs\n");
    PrintUsage();
    return 2;
  }
  std::vector<ParsedBenchReport> history = LoadTrajectory(out_path);
  std::FILE* file = std::fopen(out_path.c_str(), "a");
  if (file == nullptr) {
    std::fprintf(stderr, "bench_report: cannot write %s\n", out_path.c_str());
    return 2;
  }
  size_t appended = 0;
  size_t skipped = 0;
  for (const std::string& input : args.positional) {
    const std::string text = ReadFile(input);
    ParsedBenchReport entry;
    std::string error = "cannot read";
    if (text.empty() || !ParseBenchReport(text, &entry, &error)) {
      std::fprintf(stderr, "bench_report: %s: %s\n", input.c_str(),
                   error.c_str());
      std::fclose(file);
      return 2;
    }
    const ParsedBenchReport* latest = nullptr;
    for (const ParsedBenchReport& prior : history) {
      if (prior.benchmark == entry.benchmark) {
        latest = &prior;
      }
    }
    if (latest != nullptr && latest->git_sha == entry.git_sha &&
        latest->metrics == entry.metrics) {
      std::printf("unchanged  %-36s (%s, already recorded)\n",
                  entry.benchmark.c_str(), entry.git_sha.c_str());
      ++skipped;
      continue;
    }
    const std::string line = RenderEntry(entry);
    std::fwrite(line.data(), 1, line.size(), file);
    std::fputc('\n', file);
    std::printf("appended   %-36s (%s, %zu metrics)\n",
                entry.benchmark.c_str(), entry.git_sha.c_str(),
                entry.metrics.size());
    history.push_back(std::move(entry));
    ++appended;
  }
  std::fclose(file);
  std::printf("trajectory: %zu appended, %zu unchanged -> %s\n", appended,
              skipped, out_path.c_str());
  return 0;
}

int Check(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, 2, {"out", "last", "tolerance"}, &args)) {
    return 2;
  }
  std::string out_path = "BENCH_TRAJECTORY.jsonl";
  std::optional<uint64_t> last = 3;
  double tolerance = 0.05;
  for (const auto& [name, value] : args.flags) {
    if (name == "out") {
      out_path = value;
    } else if (name == "last") {
      last = ParseUint64(value);
    } else if (!ParseNumberFlag(name, value, &tolerance)) {
      return 2;
    }
  }
  if (!args.positional.empty()) {
    std::fprintf(stderr, "bench_report: check takes no report arguments\n");
    PrintUsage();
    return 2;
  }
  if (!last || *last < 2) {
    std::fprintf(stderr, "bench_report: --last must be an integer >= 2\n");
    return 2;
  }
  const std::vector<ParsedBenchReport> history = LoadTrajectory(out_path);
  if (history.empty()) {
    std::fprintf(stderr, "bench_report: %s is empty or unreadable\n",
                 out_path.c_str());
    return 2;
  }
  // Benchmarks in first-seen order.
  std::vector<std::string> benchmarks;
  for (const ParsedBenchReport& entry : history) {
    bool seen = false;
    for (const std::string& name : benchmarks) {
      seen = seen || name == entry.benchmark;
    }
    if (!seen) {
      benchmarks.push_back(entry.benchmark);
    }
  }
  size_t checked = 0;
  size_t failures = 0;
  for (const std::string& benchmark : benchmarks) {
    std::vector<const ParsedBenchReport*> window;
    for (const ParsedBenchReport& entry : history) {
      if (entry.benchmark == benchmark) {
        window.push_back(&entry);
      }
    }
    if (window.size() < *last) {
      continue;  // not enough history yet to call a trend
    }
    window.erase(window.begin(), window.end() - static_cast<ptrdiff_t>(*last));
    for (const BenchMetric& metric : window.back()->metrics) {
      if (metric.better == Better::kUndeclared ||
          metric.name.find("wallclock") != std::string::npos) {
        continue;
      }
      std::vector<double> values;
      for (const ParsedBenchReport* entry : window) {
        if (const BenchMetric* row = Find(*entry, metric.name)) {
          values.push_back(row->value);
        }
      }
      if (values.size() != *last) {
        continue;  // row not present across the whole window
      }
      ++checked;
      const bool higher = metric.better == Better::kHigher;
      bool monotone_worse = true;
      for (size_t i = 0; i + 1 < values.size(); ++i) {
        monotone_worse = monotone_worse && (higher ? values[i + 1] < values[i]
                                                   : values[i + 1] > values[i]);
      }
      const double base = std::fabs(values.front());
      const double cumulative =
          base > 0.0 ? std::fabs(values.back() - values.front()) / base : 1.0;
      if (!monotone_worse || cumulative <= tolerance) {
        continue;
      }
      ++failures;
      std::printf("REGRESSION %s / %s: %s across last %zu entries "
                  "(%.6g -> %.6g, %+.1f%%)\n",
                  benchmark.c_str(), metric.name.c_str(),
                  higher ? "monotone fall" : "monotone rise",
                  static_cast<size_t>(*last),
                  values.front(), values.back(),
                  100.0 * (values.back() - values.front()) /
                      (base > 0.0 ? base : 1.0));
    }
  }
  if (failures > 0) {
    std::printf("trajectory check: %zu monotone regression(s) across %zu "
                "checked series\n", failures, checked);
    return 1;
  }
  std::printf("trajectory check OK: %zu series checked across %zu "
              "benchmarks, window %zu, tolerance %.0f%%\n",
              checked, benchmarks.size(), static_cast<size_t>(*last),
              100.0 * tolerance);
  return 0;
}

int Run(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "diff") {
    return Diff(argc, argv);
  }
  if (command == "append") {
    return Append(argc, argv);
  }
  if (command == "check") {
    return Check(argc, argv);
  }
  PrintUsage();
  return 2;
}

}  // namespace
}  // namespace potemkin

int main(int argc, char** argv) { return potemkin::Run(argc, argv); }
