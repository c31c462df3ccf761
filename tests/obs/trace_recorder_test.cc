// Tests for the trace recorder: track registration, ring-buffer wrap, and the
// Chrome trace_event JSON export.
#include <gtest/gtest.h>

#include <cstring>

#include "src/obs/trace_recorder.h"

namespace potemkin {
namespace {

TimePoint At(int64_t ns) { return TimePoint::FromNanos(ns); }

TEST(TraceRecorderTest, RegisterTrackFindsByName) {
  TraceRecorder recorder;
  const TraceRecorder::TrackId a = recorder.RegisterTrack("clone/host0");
  const TraceRecorder::TrackId b = recorder.RegisterTrack("clone/host1");
  EXPECT_NE(a, b);
  EXPECT_EQ(recorder.RegisterTrack("clone/host0"), a);
  const std::string json = recorder.ToChromeJson();
  EXPECT_NE(json.find("\"clone/host0\""), std::string::npos);
  EXPECT_NE(json.find("\"clone/host1\""), std::string::npos);
}

TEST(TraceRecorderTest, RecordsSpansOldestFirst) {
  TraceRecorder recorder;
  const TraceRecorder::TrackId track = recorder.RegisterTrack("t");
  recorder.RecordSpan(track, "first", At(100), At(200));
  recorder.RecordSpan(track, "second", At(200), At(350));
  const auto spans = recorder.Spans(track);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "first");
  EXPECT_EQ(spans[0].begin_ns, 100);
  EXPECT_EQ(spans[0].end_ns, 200);
  EXPECT_STREQ(spans[1].name, "second");
}

TEST(TraceRecorderTest, BeginEndRoundTrip) {
  TraceRecorder recorder;
  const TraceRecorder::TrackId track = recorder.RegisterTrack("t");
  const TraceRecorder::OpenSpan open = recorder.Begin(track, "phase", At(5));
  recorder.End(open, At(17));
  const auto spans = recorder.Spans(track);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "phase");
  EXPECT_EQ(spans[0].begin_ns, 5);
  EXPECT_EQ(spans[0].end_ns, 17);
}

TEST(TraceRecorderTest, RingOverwritesOldest) {
  TraceRecorder recorder;
  const TraceRecorder::TrackId track = recorder.RegisterTrack("small", 4);
  static const char* const kNames[] = {"s0", "s1", "s2", "s3", "s4", "s5"};
  for (int64_t i = 0; i < 6; ++i) {
    recorder.RecordSpan(track, kNames[i], At(i * 10), At(i * 10 + 5));
  }
  EXPECT_EQ(recorder.span_count(track), 4u);  // s0, s1 overwritten
  const auto spans = recorder.Spans(track);
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_STREQ(spans[0].name, "s2");  // oldest retained
  EXPECT_STREQ(spans[3].name, "s5");  // newest
  EXPECT_EQ(spans[0].begin_ns, 20);
}

TEST(TraceRecorderTest, ChromeJsonShapeAndMicrosecondUnits) {
  TraceRecorder recorder;
  const TraceRecorder::TrackId track = recorder.RegisterTrack("clone");
  recorder.RecordSpan(track, "domain_create", At(1000), At(4000));
  const std::string json = recorder.ToChromeJson();
  // Envelope and units per the trace_event spec.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // One thread_name metadata event per track.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"clone\""), std::string::npos);
  // The span as a complete event: 1000 ns begin -> ts 1.000 us, dur 3.000 us.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"domain_create\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":3.000"), std::string::npos);
}

TEST(TraceRecorderTest, OverflowedRingExportsSchemaValidJson) {
  TraceRecorder recorder;
  const TraceRecorder::TrackId track = recorder.RegisterTrack("tiny", 8);
  // Fill well past capacity; only the newest 8 spans survive.
  for (int64_t i = 0; i < 50; ++i) {
    recorder.RecordSpan(track, "span", At(i * 100), At(i * 100 + 50));
  }
  EXPECT_EQ(recorder.span_count(track), 8u);
  const std::string json = recorder.ToChromeJson();
  // Envelope still well-formed after eviction.
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Exactly 8 "X" events (plus one metadata event), oldest retained first.
  size_t complete_events = 0;
  for (size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++complete_events;
  }
  EXPECT_EQ(complete_events, 8u);
  // Span 42 begins at 4200 ns = 4.200 us: the oldest retained after eviction.
  EXPECT_NE(json.find("\"ts\":4.200"), std::string::npos);
  EXPECT_EQ(json.find("\"ts\":4.100"), std::string::npos);  // span 41: evicted
  // Structurally balanced.
  int depth = 0;
  for (char c : json) {
    depth += c == '{';
    depth -= c == '}';
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceRecorderTest, DeterministicJsonForDeterministicRuns) {
  const auto render = [] {
    TraceRecorder recorder;
    const TraceRecorder::TrackId a = recorder.RegisterTrack("a");
    const TraceRecorder::TrackId b = recorder.RegisterTrack("b");
    recorder.RecordSpan(a, "x", At(10), At(20));
    recorder.RecordSpan(b, "y", At(15), At(40));
    return recorder.ToChromeJson();
  };
  EXPECT_EQ(render(), render());
}

}  // namespace
}  // namespace potemkin
