// Post-mortem flight recorder.
//
// When something page-worthy happens — a containment breach, a watchdog alert,
// a fatal invariant failure — the farm's in-memory forensic state (the tail of
// the event ledger plus the latest health snapshots) is exactly what an
// operator needs, and exactly what dies with the process. The flight recorder
// freezes it first: `Arm()` registers a trip on the event ledger for the
// page-worthy event types, and the trip synchronously writes a self-contained
// post-mortem JSON artifact:
//
//   {
//     "postmortem": "<source>",
//     "schema_version": 1,
//     "reason": "containment_breach",
//     "time_ns": ...,
//     "trigger_seq": ...,
//     "events": [ ...last N ledger records, oldest first... ],
//     "snapshots": [ ...latest two HealthSnapshot objects... ]
//   }
//
// Dumps are bounded (kMaxDumps) and debounced (kMinInterval of virtual time)
// so an alert storm cannot flood the disk; the trigger event that was
// suppressed is still in the ledger for the next dump that does land.
#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>

#include "src/base/time_types.h"
#include "src/obs/event_ledger.h"
#include "src/obs/health_snapshot.h"

namespace potemkin {

struct FlightRecorderConfig {
  std::string output_dir = ".";
  std::string prefix = "postmortem";
};

class FlightRecorder {
 public:
  static constexpr int kSchemaVersion = 1;
  // Ledger tail retained per artifact.
  static constexpr size_t kMaxEvents = 512;
  // Artifacts written over the recorder's lifetime; later triggers are
  // suppressed (the ledger still holds them).
  static constexpr uint64_t kMaxDumps = 8;
  // Minimum virtual time between dumps.
  static constexpr Duration kMinInterval = Duration::Seconds(1);

  // `health` may be null (no snapshots section). Neither pointer is owned.
  FlightRecorder(FlightRecorderConfig config, EventLedger* ledger,
                 HealthMonitor* health);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Trips on containment breach, alert raise, and fatal log events. Replaces
  // any trip handler previously installed on the ledger.
  void Arm();
  void Disarm();

  // Writes a post-mortem immediately (also the trip path). Returns the
  // artifact path, or "" when suppressed by the dump budget / debounce or on
  // I/O failure.
  std::string Dump(const std::string& reason, int64_t time_ns,
                   uint64_t trigger_seq = 0);

  // The artifact JSON, for tests and manual dumps.
  std::string BuildDumpJson(const std::string& reason, int64_t time_ns,
                            uint64_t trigger_seq) const;

  uint64_t dumps_written() const { return dumps_written_; }
  const std::string& last_path() const { return last_path_; }

 private:
  FlightRecorderConfig config_;
  EventLedger* ledger_;
  HealthMonitor* health_;
  bool armed_ = false;
  uint64_t dumps_written_ = 0;
  int64_t last_dump_ns_ = 0;
  std::string last_path_;
};

}  // namespace potemkin

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
