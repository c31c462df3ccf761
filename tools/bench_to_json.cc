// Normalizes google-benchmark JSON output into the repo's BENCH_<name>.json
// perf-trajectory schema (see bench/report.h). Usage:
//
//   ./build/bench/bench_micro --benchmark_format=json > micro.json
//   ./build/tools/bench_to_json micro.json            # writes BENCH_micro.json
//   ./build/tools/bench_to_json --name=micro < micro.json
//
// Each benchmark entry becomes one metric row: the benchmark's name (slugified)
// with its cpu_time value and time_unit, declared lower-is-better. Benchmarks
// that report items_per_second (SetItemsProcessed) get a second
// `<slug>_items_per_s` row, declared higher-is-better, so throughput ratios
// between benchmarks with different per-iteration batch sizes can be read
// straight from the report. Aggregate rows (mean/median/stddev from
// --benchmark_repetitions) are kept too — their names already carry the
// suffix. The input is scanned with the shared key-scan helpers
// (src/base/json_util.h): the benchmark output grammar is fixed and flat
// enough that scanning for the four keys we need is simpler and
// dependency-free.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/report.h"
#include "src/base/json_util.h"

namespace potemkin {
namespace {

std::string Slugify(const std::string& name) {
  std::string slug;
  for (const char c : name) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9')) {
      slug += c;
    } else if (!slug.empty() && slug.back() != '_') {
      slug += '_';
    }
  }
  while (!slug.empty() && slug.back() == '_') {
    slug.pop_back();
  }
  return slug;
}

int Run(int argc, char** argv) {
  std::string report_name = "micro";
  std::string input_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--name=", 7) == 0) {
      report_name = argv[i] + 7;
    } else {
      input_path = argv[i];
    }
  }

  std::FILE* input = stdin;
  if (!input_path.empty()) {
    input = std::fopen(input_path.c_str(), "rb");
    if (input == nullptr) {
      std::fprintf(stderr, "bench_to_json: cannot open %s\n",
                   input_path.c_str());
      return 1;
    }
  }
  const std::string text = ReadAll(input);
  if (input != stdin) {
    std::fclose(input);
  }

  const size_t benchmarks = text.find("\"benchmarks\"");
  if (benchmarks == std::string::npos) {
    std::fprintf(stderr,
                 "bench_to_json: no \"benchmarks\" array in input (expected "
                 "--benchmark_format=json output)\n");
    return 1;
  }

  BenchReport report(report_name);
  size_t entries = 0;
  // Each array element is one flat object; walk them by brace pairs.
  for (size_t open = text.find('{', benchmarks); open != std::string::npos;
       open = text.find('{', open + 1)) {
    const size_t close = text.find('}', open);
    if (close == std::string::npos) {
      break;
    }
    const std::string name = FindJsonString(text, "name", open, close);
    const double cpu_time = FindJsonNumber(text, "cpu_time", open, close);
    if (name.empty() || cpu_time != cpu_time) {
      continue;  // context object or malformed entry
    }
    std::string unit = FindJsonString(text, "time_unit", open, close);
    if (unit.empty()) {
      unit = "ns";
    }
    report.Add(Slugify(name), cpu_time, unit, Better::kLower);
    const double items_per_second =
        FindJsonNumber(text, "items_per_second", open, close);
    if (items_per_second == items_per_second) {
      report.Add(Slugify(name) + "_items_per_s", items_per_second, "items/s",
                 Better::kHigher);
    }
    ++entries;
    open = close;
  }
  if (entries == 0) {
    std::fprintf(stderr, "bench_to_json: no benchmark entries found\n");
    return 1;
  }

  const std::string path = report.WriteJson();
  if (path.empty()) {
    std::fprintf(stderr, "bench_to_json: failed to write report\n");
    return 1;
  }
  std::printf("%s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace potemkin

int main(int argc, char** argv) { return potemkin::Run(argc, argv); }
