// Perf-trajectory reporting: every benchmark binary records its headline
// metrics as BENCH_<name>.json at the repository root, so successive commits
// leave a machine-readable performance trail (compare two checkouts with
// `tools/bench_report diff`). The schema is deliberately flat — one object per
// binary, one row per metric — so a dashboard or CI check needs no
// bench-specific parsing:
//
//   {
//     "benchmark": "vm_scaling",
//     "seed": 42,
//     "git_sha": "97e6328",
//     "shards": 1,
//     "host_threads": 8,
//     "metrics": [
//       {"metric": "peak_live_vms_timeout_5s", "value": 533, "unit": "vms",
//        "better": "higher"}
//     ]
//   }
//
// `better` declares which way the row should move for the farm, in the words
// BENCHMARK.json uses ("higher" or "lower"). Rows that only guard the size of
// the work (packets replayed, traffic classes) leave it out, so every reader
// treats any move of theirs as a change to explain rather than a win or loss.
//
// The output directory is the enclosing git worktree root (queried from git at
// run time), overridable with POTEMKIN_BENCH_DIR; metric values come from the
// deterministic simulation, so a BENCH file diff is meaningful noise-free.
// `ParseBenchReport` is the one reader of the format.
#ifndef BENCH_REPORT_H_
#define BENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace potemkin {

enum class Better : uint8_t { kUndeclared, kHigher, kLower };

// "higher", "lower", or "" for kUndeclared.
const char* BetterName(Better better);

struct BenchMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Better better = Better::kUndeclared;

  bool operator==(const BenchMetric&) const = default;
};

class BenchReport {
 public:
  explicit BenchReport(std::string benchmark);

  void Add(std::string metric, double value, std::string unit,
           Better better = Better::kUndeclared);
  void set_seed(uint64_t seed) { seed_ = seed; }
  // Gateway shard count the run used (1 for unsharded benches). Stamped into
  // the JSON alongside `host_threads` (the machine's hardware concurrency) so
  // a diff can tell a code regression from a topology or host change.
  void set_shards(uint32_t shards) { shards_ = shards; }

  // Serializes the report (stable key order, trailing newline).
  std::string ToJson() const;

  // Writes BENCH_<benchmark>.json into OutputDir(). Returns the path written,
  // or an empty string when the file could not be created.
  std::string WriteJson() const;

  // POTEMKIN_BENCH_DIR if set, else `git rev-parse --show-toplevel`, else ".".
  static std::string OutputDir();
  // Short commit hash of the enclosing checkout, "unknown" outside git.
  static std::string GitSha();

 private:
  std::string benchmark_;
  uint64_t seed_ = 0;
  uint32_t shards_ = 1;
  std::vector<BenchMetric> metrics_;
};

// A BENCH report as read back from its JSON. Stamps a report predates are NaN
// (numbers) or empty (git_sha).
struct ParsedBenchReport {
  std::string benchmark;
  std::string git_sha;
  double seed = 0.0;
  double shards = 0.0;
  double host_threads = 0.0;
  std::vector<BenchMetric> metrics;
};

// Parses BenchReport::ToJson() output. Returns false with a one-line reason in
// `error` when `json` lacks "benchmark" or "metrics", has no rows, or holds a
// row without a name, a numeric value or a unit, or with a `better` other than
// "higher"/"lower".
bool ParseBenchReport(const std::string& json, ParsedBenchReport* out,
                      std::string* error);

// "higher"/"lower" to the enum; false for anything else.
bool ParseBetter(std::string_view text, Better* out);

}  // namespace potemkin

#endif  // BENCH_REPORT_H_
