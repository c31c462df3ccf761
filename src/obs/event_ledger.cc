#include "src/obs/event_ledger.h"

#include <cstring>
#include <utility>

#include "src/base/json_util.h"
#include "src/base/log.h"
#include "src/base/strings.h"

namespace potemkin {

namespace {

bool IsLogEvent(LedgerEvent type) {
  return type == LedgerEvent::kLogWarning || type == LedgerEvent::kLogError ||
         type == LedgerEvent::kFatal;
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}

}  // namespace

const char* LedgerEventName(LedgerEvent type) {
  switch (type) {
    case LedgerEvent::kFirstContact:
      return "first_contact";
    case LedgerEvent::kPacketDelivered:
      return "packet_delivered";
    case LedgerEvent::kPacketQueued:
      return "packet_queued";
    case LedgerEvent::kPacketDropped:
      return "packet_dropped";
    case LedgerEvent::kCloneRequested:
      return "clone_requested";
    case LedgerEvent::kCloneStarted:
      return "clone_started";
    case LedgerEvent::kCloneDone:
      return "clone_done";
    case LedgerEvent::kCloneFailed:
      return "clone_failed";
    case LedgerEvent::kGuestRequest:
      return "guest_request";
    case LedgerEvent::kGuestResponse:
      return "guest_response";
    case LedgerEvent::kExploit:
      return "exploit";
    case LedgerEvent::kInfection:
      return "infection";
    case LedgerEvent::kScannerFlagged:
      return "scanner_flagged";
    case LedgerEvent::kContainmentAllow:
      return "containment_allow";
    case LedgerEvent::kContainmentDrop:
      return "containment_drop";
    case LedgerEvent::kContainmentReflect:
      return "containment_reflect";
    case LedgerEvent::kContainmentRateLimit:
      return "containment_rate_limit";
    case LedgerEvent::kContainmentDnsProxy:
      return "containment_dns_proxy";
    case LedgerEvent::kContainmentBreach:
      return "containment_breach";
    case LedgerEvent::kEgressResponse:
      return "egress_response";
    case LedgerEvent::kVmRetired:
      return "vm_retired";
    case LedgerEvent::kAlertRaised:
      return "alert_raised";
    case LedgerEvent::kAlertCleared:
      return "alert_cleared";
    case LedgerEvent::kLogWarning:
      return "log_warning";
    case LedgerEvent::kLogError:
      return "log_error";
    case LedgerEvent::kFatal:
      return "fatal";
    case LedgerEvent::kCtrlState:
      return "ctrl_state";
    case LedgerEvent::kCtrlDrainBegin:
      return "ctrl_drain_begin";
    case LedgerEvent::kCtrlDrainEnd:
      return "ctrl_drain_end";
    case LedgerEvent::kCtrlMigrate:
      return "ctrl_migrate";
    case LedgerEvent::kCtrlFailover:
      return "ctrl_failover";
    case LedgerEvent::kCtrlRotate:
      return "ctrl_rotate";
    case LedgerEvent::kChaosFault:
      return "chaos_fault";
    case LedgerEvent::kChaosHeal:
      return "chaos_heal";
    case LedgerEvent::kPersonaState:
      return "persona_state";
    case LedgerEvent::kPersonaAuthFailure:
      return "persona_auth_failure";
    case LedgerEvent::kPersonaLockout:
      return "persona_lockout";
    case LedgerEvent::kPersonaDecoy:
      return "persona_decoy";
    case LedgerEvent::kPersonaEscalation:
      return "persona_escalation";
    case LedgerEvent::kEscapeAttempt:
      return "escape_attempt";
    case LedgerEvent::kMalwareStage:
      return "malware_stage";
    case LedgerEvent::kCount:
      break;
  }
  return "unknown";
}

EventLedger::EventLedger(size_t capacity) {
  PK_CHECK(capacity > 0) << "event ledger needs a nonzero ring";
  ring_.resize(capacity);
}

void EventLedger::Reset(size_t capacity) {
  PK_CHECK(capacity > 0) << "event ledger needs a nonzero ring";
  ring_.assign(capacity, Record{});
  head_ = 0;
  count_ = 0;
  next_seq_ = 0;
  dropped_ = 0;
}

std::vector<EventLedger::Record> EventLedger::Events() const {
  std::vector<Record> out;
  out.reserve(count_);
  // Oldest record sits at `head_` once the ring has wrapped, at 0 before.
  const size_t start = count_ == ring_.size() ? head_ : 0;
  for (size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::vector<EventLedger::Record> EventLedger::EventsForSession(
    SessionId session) const {
  std::vector<Record> out;
  const size_t start = count_ == ring_.size() ? head_ : 0;
  for (size_t i = 0; i < count_; ++i) {
    const Record& record = ring_[(start + i) % ring_.size()];
    if (record.session == session) {
      out.push_back(record);
    }
  }
  return out;
}

void EventLedger::SetTrip(uint64_t mask, TripHandler handler) {
  trip_mask_ = mask;
  trip_ = std::move(handler);
}

void EventLedger::ClearTrip() {
  trip_mask_ = 0;
  trip_ = nullptr;
}

void EventLedger::AppendRecordJson(std::string& out, const Record& record) {
  out += StrFormat(
      "{\"seq\":%llu,\"time_ns\":%lld,\"session\":%u,\"type\":\"%s\","
      "\"a\":%llu,\"b\":%llu",
      static_cast<unsigned long long>(record.seq),
      static_cast<long long>(record.time_ns), record.session,
      LedgerEventName(record.type), static_cast<unsigned long long>(record.a),
      static_cast<unsigned long long>(record.b));
  if (IsLogEvent(record.type) && record.a != 0) {
    // `a` is the address of the static __FILE__ literal the log site passed.
    const char* file = reinterpret_cast<const char*>(
        static_cast<uintptr_t>(record.a));
    out += StrFormat(",\"site\":\"%s:%llu\"", Basename(file),
                     static_cast<unsigned long long>(record.b));
  }
  out += '}';
}

std::string EventLedger::ToJsonLines() const {
  std::string out = StrFormat(
      "{\"ledger\":\"potemkin\",\"schema_version\":%d,\"appended\":%llu,"
      "\"dropped\":%llu}\n",
      kSchemaVersion, static_cast<unsigned long long>(next_seq_),
      static_cast<unsigned long long>(dropped_));
  const size_t start = count_ == ring_.size() ? head_ : 0;
  for (size_t i = 0; i < count_; ++i) {
    AppendRecordJson(out, ring_[(start + i) % ring_.size()]);
    out += '\n';
  }
  return out;
}

bool EventLedger::WriteJsonLines(const std::string& path) const {
  return WriteFile(path, ToJsonLines());
}

std::string EventLedger::ToChromeJson() const {
  const std::vector<Record> events = Events();
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
  // One metadata event per distinct session so every attack gets its own named
  // track; tid 0 collects session-less farm events.
  std::vector<SessionId> sessions;
  for (const Record& record : events) {
    bool seen = false;
    for (const SessionId s : sessions) {
      seen = seen || s == record.session;
    }
    if (!seen) {
      sessions.push_back(record.session);
    }
  }
  for (const SessionId session : sessions) {
    if (session == kNoSession) {
      emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
           "\"tid\":0,\"args\":{\"name\":\"farm\"}}");
    } else {
      emit(StrFormat("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                     "\"tid\":%u,\"args\":{\"name\":\"session %u\"}}",
                     session, session));
    }
  }
  for (const Record& record : events) {
    emit(StrFormat("{\"name\":\"%s\",\"cat\":\"ledger\",\"ph\":\"i\","
                   "\"s\":\"t\",\"ts\":%.3f,\"pid\":0,\"tid\":%u,"
                   "\"args\":{\"seq\":%llu,\"a\":%llu,\"b\":%llu}}",
                   LedgerEventName(record.type),
                   static_cast<double>(record.time_ns) / 1e3, record.session,
                   static_cast<unsigned long long>(record.seq),
                   static_cast<unsigned long long>(record.a),
                   static_cast<unsigned long long>(record.b)));
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool EventLedger::WriteChromeJson(const std::string& path) const {
  return WriteFile(path, ToChromeJson());
}

void EventLedger::InstallLogHook(EventLedger* ledger,
                                 std::function<int64_t()> clock) {
  if (ledger == nullptr) {
    SetLogHook(nullptr);
    return;
  }
  SetLogHook([ledger, clock = std::move(clock)](LogLevel level,
                                                const char* file, int line,
                                                bool fatal) {
    const LedgerEvent type = fatal ? LedgerEvent::kFatal
                             : level == LogLevel::kWarning
                                 ? LedgerEvent::kLogWarning
                                 : LedgerEvent::kLogError;
    ledger->Append(type, kNoSession, clock ? clock() : 0,
                   static_cast<uint64_t>(reinterpret_cast<uintptr_t>(file)),
                   static_cast<uint64_t>(line));
  });
}

}  // namespace potemkin
