// Tests for the post-mortem flight recorder: trip wiring, artifact schema,
// dump budgets and debounce.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/base/event_loop.h"
#include "src/base/json_util.h"
#include "src/obs/event_ledger.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/health_snapshot.h"

namespace potemkin {
namespace {

TEST(FlightRecorderTest, BreachTripsASchemaValidDumpWithSnapshots) {
  EventLoop loop;
  MetricRegistry registry;
  HealthMonitor monitor(&loop, &registry, "farm");
  monitor.SampleNow();
  monitor.SampleNow();
  monitor.SampleNow();  // three in history; artifact must carry the last two

  EventLedger ledger(64);
  FlightRecorderConfig config;
  config.output_dir = ::testing::TempDir();
  config.prefix = "fr_breach";
  FlightRecorder recorder(config, &ledger, &monitor);
  recorder.Arm();

  ledger.Append(LedgerEvent::kFirstContact, 1, 100, 42, 43);
  ledger.Append(LedgerEvent::kContainmentAllow, 1, 150);  // not a trip type
  EXPECT_EQ(recorder.dumps_written(), 0u);
  ledger.Append(LedgerEvent::kContainmentBreach, 1, 200, 99, 445);
  ASSERT_EQ(recorder.dumps_written(), 1u);

  const std::string text = ReadFile(recorder.last_path());
  ASSERT_FALSE(text.empty());
  EXPECT_NE(text.find("\"postmortem\": \"potemkin\""), std::string::npos);
  EXPECT_NE(text.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"reason\": \"containment_breach\""), std::string::npos);
  EXPECT_NE(text.find("\"trigger_seq\": 2"), std::string::npos);
  // The ledger tail, byte-compatible with the JSONL record shape.
  EXPECT_NE(text.find("\"type\":\"first_contact\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"containment_breach\""), std::string::npos);
  // The last two health snapshots, still versioned.
  EXPECT_NE(text.find("\"snapshots\": ["), std::string::npos);
  EXPECT_NE(text.find("\"sequence\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"sequence\": 2"), std::string::npos);
  EXPECT_EQ(text.find("\"sequence\": 0,"), std::string::npos);
  // Balanced braces: the artifact parses as one JSON object.
  int depth = 0;
  for (char c : text) {
    depth += c == '{';
    depth -= c == '}';
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(FlightRecorderTest, EventTailIsBounded) {
  EventLedger ledger(1024);
  FlightRecorder recorder(FlightRecorderConfig{}, &ledger, nullptr);
  const int64_t total = FlightRecorder::kMaxEvents + 10;
  for (int64_t i = 0; i < total; ++i) {
    ledger.Append(LedgerEvent::kPacketDelivered, 1, i);
  }
  const std::string json = recorder.BuildDumpJson("manual", 999, 0);
  // The tail keeps records 10 .. total - 1.
  EXPECT_EQ(json.find("\"seq\":9,"), std::string::npos);  // older than the tail
  EXPECT_NE(json.find("\"seq\":10,"), std::string::npos);
  EXPECT_NE(json.find("\"seq\":" + std::to_string(total - 1) + ","),
            std::string::npos);
}

TEST(FlightRecorderTest, DumpBudgetAndDebounce) {
  EventLedger ledger(64);
  FlightRecorderConfig config;
  config.output_dir = ::testing::TempDir();
  config.prefix = "fr_budget";
  FlightRecorder recorder(config, &ledger, nullptr);
  recorder.Arm();

  const int64_t interval = FlightRecorder::kMinInterval.nanos();
  ledger.Append(LedgerEvent::kContainmentBreach, 1, 0);
  EXPECT_EQ(recorder.dumps_written(), 1u);
  // Within the debounce window: suppressed.
  ledger.Append(LedgerEvent::kContainmentBreach, 1, interval / 2);
  EXPECT_EQ(recorder.dumps_written(), 1u);
  // Past the window: the rest of the budget.
  for (uint64_t i = 2; i <= FlightRecorder::kMaxDumps; ++i) {
    ledger.Append(LedgerEvent::kContainmentBreach, 1,
                  static_cast<int64_t>(i) * 2 * interval);
    EXPECT_EQ(recorder.dumps_written(), i);
  }
  // Budget exhausted forever after.
  ledger.Append(LedgerEvent::kContainmentBreach, 1, 100 * interval);
  EXPECT_EQ(recorder.dumps_written(), FlightRecorder::kMaxDumps);
}

TEST(FlightRecorderTest, DisarmStopsTripsAndDestructorDisarms) {
  EventLedger ledger(16);
  FlightRecorderConfig config;
  config.output_dir = ::testing::TempDir();
  config.prefix = "fr_disarm";
  {
    FlightRecorder recorder(config, &ledger, nullptr);
    recorder.Arm();
    recorder.Disarm();
    EXPECT_EQ(ledger.trip_mask(), 0u);
    ledger.Append(LedgerEvent::kContainmentBreach, 1, 0);
    EXPECT_EQ(recorder.dumps_written(), 0u);
    recorder.Arm();
    EXPECT_NE(ledger.trip_mask(), 0u);
    ledger.Append(LedgerEvent::kContainmentBreach, 1, 0);
    EXPECT_EQ(recorder.dumps_written(), 1u);
  }
  // Destroyed while armed: the trip must not dangle.
  EXPECT_EQ(ledger.trip_mask(), 0u);
  ledger.Append(LedgerEvent::kContainmentBreach, 1, 0);  // must not crash
}

}  // namespace
}  // namespace potemkin
