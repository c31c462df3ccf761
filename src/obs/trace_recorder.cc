#include "src/obs/trace_recorder.h"

#include "src/base/json_util.h"
#include "src/base/log.h"
#include "src/base/strings.h"

namespace potemkin {

TraceRecorder::TrackId TraceRecorder::RegisterTrack(const std::string& name,
                                                    size_t capacity) {
  for (size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i].name == name) {
      return static_cast<TrackId>(i);
    }
  }
  PK_CHECK(capacity > 0) << "trace track needs a nonzero ring";
  tracks_.emplace_back();
  Track& track = tracks_.back();
  track.name = name;
  track.ring.resize(capacity);
  return static_cast<TrackId>(tracks_.size() - 1);
}

std::vector<TraceRecorder::Span> TraceRecorder::Spans(TrackId track) const {
  const Track& t = tracks_[track];
  std::vector<Span> out;
  out.reserve(t.count);
  // Oldest span sits at `head` once the ring has wrapped, at 0 before.
  const size_t start = t.count == t.ring.size() ? t.head : 0;
  for (size_t i = 0; i < t.count; ++i) {
    out.push_back(t.ring[(start + i) % t.ring.size()]);
  }
  return out;
}

std::string TraceRecorder::ToChromeJson() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '\n';
    out += event;
  };
  for (size_t tid = 0; tid < tracks_.size(); ++tid) {
    emit(StrFormat("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                   "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                   tid, tracks_[tid].name.c_str()));
    for (const Span& span : Spans(static_cast<TrackId>(tid))) {
      // trace_event timestamps are microseconds; keep sub-microsecond phase
      // costs visible with fractional values.
      emit(StrFormat("{\"name\":\"%s\",\"cat\":\"potemkin\",\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%zu}",
                     span.name, static_cast<double>(span.begin_ns) / 1e3,
                     static_cast<double>(span.end_ns - span.begin_ns) / 1e3,
                     tid));
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool TraceRecorder::WriteChromeJson(const std::string& path) const {
  return WriteFile(path, ToChromeJson());
}

}  // namespace potemkin
