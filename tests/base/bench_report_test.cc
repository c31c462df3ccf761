// Validates the perf-trajectory report schema (bench/report.h): every bench
// binary ships BENCH_<name>.json with {benchmark, seed, git_sha, metrics:
// [{metric, value, unit, better?}]}. CI and dashboards diff these files across
// commits, so the shape, the write path and the reader are contract, not
// implementation detail.
#include "bench/report.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "gtest/gtest.h"
#include "src/base/json_util.h"

namespace potemkin {
namespace {

TEST(BenchReportTest, JsonCarriesAllRequiredKeys) {
  BenchReport report("schema_check");
  report.set_seed(42);
  report.Add("clone_latency", 0.512, "ms");
  report.Add("peak_vms", 533.0, "vms");

  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"benchmark\": \"schema_check\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\": "), std::string::npos);
  EXPECT_NE(json.find("\"metrics\": ["), std::string::npos);
  EXPECT_NE(json.find("{\"metric\": \"clone_latency\", \"value\": 0.512"),
            std::string::npos);
  EXPECT_NE(json.find("\"unit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("{\"metric\": \"peak_vms\", \"value\": 533,"),
            std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(BenchReportTest, IdenticalReportsSerializeIdentically) {
  // The whole point of the trajectory: a diff between two BENCH files must
  // reflect metric changes only, never serialization noise.
  BenchReport a("det");
  BenchReport b("det");
  for (BenchReport* r : {&a, &b}) {
    r->set_seed(7);
    r->Add("m", 1234.5678, "ns");
  }
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

TEST(BenchReportTest, EscapesQuotesAndBackslashesInStrings) {
  BenchReport report("weird");
  report.Add("path\\with\"quote", 1.0, "u");
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("path\\\\with\\\"quote"), std::string::npos);
}

TEST(BenchReportTest, NonFiniteValuesSerializeAsNull) {
  BenchReport report("nan_check");
  report.Add("bad", 0.0 / 0.0, "x");
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"value\": null"), std::string::npos);
}

TEST(BenchReportTest, WriteJsonHonorsOutputDirOverride) {
  char dir_template[] = "/tmp/bench_report_test_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  setenv("POTEMKIN_BENCH_DIR", dir_template, 1);

  BenchReport report("roundtrip");
  report.set_seed(9);
  report.Add("value_under_test", 3.25, "x");
  const std::string path = report.WriteJson();
  unsetenv("POTEMKIN_BENCH_DIR");

  ASSERT_EQ(path, std::string(dir_template) + "/BENCH_roundtrip.json");
  const std::string on_disk = ReadFile(path);
  EXPECT_EQ(on_disk, report.ToJson());
  std::remove(path.c_str());
  rmdir(dir_template);
}

TEST(BenchReportTest, BetterIsWrittenOnlyWhenDeclared) {
  BenchReport report("direction");
  report.Add("pps", 1e6, "pkts/s", Better::kHigher);
  report.Add("p99", 12.0, "ns", Better::kLower);
  report.Add("packets_replayed", 100.0, "pkts");
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("{\"metric\": \"pps\", \"value\": 1000000, "
                      "\"unit\": \"pkts/s\", \"better\": \"higher\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"unit\": \"ns\", \"better\": \"lower\"}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"metric\": \"packets_replayed\", \"value\": 100, "
                      "\"unit\": \"pkts\"}"),
            std::string::npos);
}

TEST(BenchReportTest, ParseReadsBackWhatToJsonWrote) {
  BenchReport report("roundtrip");
  report.set_seed(9);
  report.set_shards(2);
  report.Add("pps", 1234.5678, "pkts/s", Better::kHigher);
  report.Add("escapes", 0.0, "packets", Better::kLower);
  report.Add("classes", 5.0, "classes");
  ParsedBenchReport parsed;
  std::string error;
  ASSERT_TRUE(ParseBenchReport(report.ToJson(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.benchmark, "roundtrip");
  EXPECT_EQ(parsed.git_sha, BenchReport::GitSha());
  EXPECT_EQ(parsed.seed, 9.0);
  EXPECT_EQ(parsed.shards, 2.0);
  const std::vector<BenchMetric> expected = {
      {"pps", 1234.5678, "pkts/s", Better::kHigher},
      {"escapes", 0.0, "packets", Better::kLower},
      {"classes", 5.0, "classes", Better::kUndeclared},
  };
  EXPECT_EQ(parsed.metrics, expected);
}

TEST(BenchReportTest, ParseRejectsMalformedReports) {
  const char* const kBad[] = {
      // No "benchmark" key, no "metrics" key, no rows.
      "{\"metrics\": [{\"metric\": \"a\", \"value\": 1, \"unit\": \"u\"}]}",
      "{\"benchmark\": \"b\"}",
      "{\"benchmark\": \"b\", \"metrics\": []}",
      // A row without a name, a numeric value or a unit.
      "{\"benchmark\": \"b\", \"metrics\": [{\"value\": 1, \"unit\": \"u\"}]}",
      "{\"benchmark\": \"b\", \"metrics\": [{\"metric\": \"a\", \"unit\": \"u\"}]}",
      "{\"benchmark\": \"b\", \"metrics\": [{\"metric\": \"a\", \"value\": 1}]}",
      // A direction outside the two words.
      "{\"benchmark\": \"b\", \"metrics\": [{\"metric\": \"a\", \"value\": 1, "
      "\"unit\": \"u\", \"better\": \"up\"}]}",
  };
  for (const char* json : kBad) {
    ParsedBenchReport parsed;
    std::string error;
    EXPECT_FALSE(ParseBenchReport(json, &parsed, &error)) << json;
    EXPECT_FALSE(error.empty()) << json;
  }
}

TEST(BenchReportTest, WriteJsonReportsFailureAsEmptyPath) {
  setenv("POTEMKIN_BENCH_DIR", "/nonexistent_dir_for_bench_report_test", 1);
  BenchReport report("unwritable");
  EXPECT_EQ(report.WriteJson(), "");
  unsetenv("POTEMKIN_BENCH_DIR");
}

}  // namespace
}  // namespace potemkin
