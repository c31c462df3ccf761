// Phase-span tracing over virtual time, exported as Chrome trace_event JSON.
//
// Components register a *track* (one per clone engine, per pipeline stage, …)
// and record begin/end spans into it. Each track is a bounded ring buffer of
// plain {name, begin, end} records: recording a span into a warm ring writes
// three words and never allocates, and when a ring wraps the oldest spans are
// overwritten (counted as drops) so a long-running farm cannot grow tracing
// memory without bound.
//
// Span names are `const char*` and must point at static-duration strings
// (phase-name tables, string literals) — the ring stores the pointer, not a
// copy. That is what keeps recording allocation-free.
//
// `ToChromeJson()` renders every track as complete "X" (duration) events in
// the Chrome trace_event format — load the file in chrome://tracing or
// Perfetto and the flash-clone pipeline's phase breakdown (map, CoW-mark,
// device attach, dispatch) is the timeline itself, no bespoke timers.
#ifndef SRC_OBS_TRACE_RECORDER_H_
#define SRC_OBS_TRACE_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/time_types.h"

namespace potemkin {

class TraceRecorder {
 public:
  using TrackId = uint32_t;

  struct Span {
    const char* name = nullptr;  // static-duration string
    int64_t begin_ns = 0;        // virtual time
    int64_t end_ns = 0;
  };

  // Token for an open span; pass back to End(). Plain value, no allocation.
  struct OpenSpan {
    TrackId track = 0;
    const char* name = nullptr;
    int64_t begin_ns = 0;
  };

  static constexpr size_t kDefaultCapacity = 4096;

  // Registers (or finds, by name) a track. The capacity of an existing track
  // is left unchanged.
  TrackId RegisterTrack(const std::string& name,
                        size_t capacity = kDefaultCapacity);

  // Records a completed span. Overwrites the oldest span when the ring is full.
  void RecordSpan(TrackId track, const char* name, TimePoint begin,
                  TimePoint end) {
    Track& t = tracks_[track];
    Span& span = t.ring[t.head];
    span.name = name;
    span.begin_ns = begin.nanos();
    span.end_ns = end.nanos();
    t.head = t.head + 1 == t.ring.size() ? 0 : t.head + 1;
    if (t.count < t.ring.size()) {
      ++t.count;
    }
  }

  // Scoped recording around a phase: Begin captures the clock, End writes the
  // span. Both are trivially cheap; neither allocates.
  OpenSpan Begin(TrackId track, const char* name, TimePoint now) const {
    return OpenSpan{track, name, now.nanos()};
  }
  void End(const OpenSpan& open, TimePoint now) {
    RecordSpan(open.track, open.name, TimePoint::FromNanos(open.begin_ns), now);
  }

  // Spans currently retained on `track`, oldest first.
  std::vector<Span> Spans(TrackId track) const;
  size_t span_count(TrackId track) const { return tracks_[track].count; }

  // Chrome trace_event JSON: one metadata event naming each track (thread),
  // then every retained span as a complete "X" event with microsecond
  // timestamps. Deterministic output for deterministic virtual-time runs.
  std::string ToChromeJson() const;
  // Writes ToChromeJson() to `path`; returns false on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Track {
    std::string name;
    std::vector<Span> ring;
    size_t head = 0;   // next write position
    size_t count = 0;  // live spans (<= ring.size())
  };

  std::vector<Track> tracks_;
};

}  // namespace potemkin

#endif  // SRC_OBS_TRACE_RECORDER_H_
