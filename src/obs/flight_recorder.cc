#include "src/obs/flight_recorder.h"

#include <utility>
#include <vector>

#include "src/base/json_util.h"
#include "src/base/strings.h"

namespace potemkin {

namespace {

// Strips the trailing newline from HealthSnapshot::ToJson so the object embeds
// cleanly inside the snapshots array.
std::string TrimmedSnapshotJson(const HealthSnapshot& snapshot) {
  std::string json = snapshot.ToJson();
  while (!json.empty() && json.back() == '\n') {
    json.pop_back();
  }
  return json;
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderConfig config, EventLedger* ledger,
                               HealthMonitor* health)
    : config_(std::move(config)), ledger_(ledger), health_(health) {}

FlightRecorder::~FlightRecorder() { Disarm(); }

void FlightRecorder::Arm() {
  if (armed_ || ledger_ == nullptr) {
    armed_ = ledger_ != nullptr;
    return;
  }
  armed_ = true;
  const uint64_t mask = EventLedger::TripBit(LedgerEvent::kContainmentBreach) |
                        EventLedger::TripBit(LedgerEvent::kAlertRaised) |
                        EventLedger::TripBit(LedgerEvent::kFatal);
  ledger_->SetTrip(mask, [this](const EventLedger::Record& record) {
    Dump(LedgerEventName(record.type), record.time_ns, record.seq);
  });
}

void FlightRecorder::Disarm() {
  if (!armed_) {
    return;
  }
  armed_ = false;
  if (ledger_ != nullptr) {
    ledger_->ClearTrip();
  }
}

std::string FlightRecorder::BuildDumpJson(const std::string& reason,
                                          int64_t time_ns,
                                          uint64_t trigger_seq) const {
  std::string out = StrFormat(
      "{\n  \"postmortem\": \"potemkin\",\n  \"schema_version\": %d,\n"
      "  \"reason\": \"%s\",\n  \"time_ns\": %lld,\n  \"trigger_seq\": %llu,\n"
      "  \"events\": [",
      kSchemaVersion, reason.c_str(), static_cast<long long>(time_ns),
      static_cast<unsigned long long>(trigger_seq));
  if (ledger_ != nullptr) {
    const std::vector<EventLedger::Record> events = ledger_->Events();
    const size_t start =
        events.size() > kMaxEvents ? events.size() - kMaxEvents : 0;
    for (size_t i = start; i < events.size(); ++i) {
      out += i == start ? "\n    " : ",\n    ";
      EventLedger::AppendRecordJson(out, events[i]);
    }
  }
  out += "\n  ],\n  \"snapshots\": [";
  if (health_ != nullptr) {
    // The monitor retains exactly the latest two snapshots.
    const auto& history = health_->history();
    for (size_t i = 0; i < history.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += TrimmedSnapshotJson(history[i]);
    }
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string FlightRecorder::Dump(const std::string& reason, int64_t time_ns,
                                 uint64_t trigger_seq) {
  if (dumps_written_ >= kMaxDumps ||
      (dumps_written_ > 0 && time_ns - last_dump_ns_ < kMinInterval.nanos())) {
    return "";
  }
  const std::string path =
      StrFormat("%s/%s_%llu_%s.json", config_.output_dir.c_str(),
                config_.prefix.c_str(),
                static_cast<unsigned long long>(dumps_written_),
                reason.c_str());
  if (!WriteFile(path, BuildDumpJson(reason, time_ns, trigger_seq))) {
    return "";
  }
  ++dumps_written_;
  last_dump_ns_ = time_ns;
  last_path_ = path;
  return path;
}

}  // namespace potemkin
