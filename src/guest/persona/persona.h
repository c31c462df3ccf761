// Stateful service personas: multi-step protocol emulators behind guest ports.
//
// The paper gets fidelity from running real OS images; the reproduction's guests
// answered with one-shot banners, which a probing attacker can distinguish from
// a real service in two packets. A persona upgrades a ServiceConfig to a
// per-session state machine — SSH walks version exchange -> KEXINIT -> auth
// attempts -> failure lockout, SMB walks negotiate -> session-setup ->
// tree-connect, HTTP serves decoy documents — so interaction transcripts are
// plausible several exchanges deep. All responses are deterministic: each
// session forks its RNG from the engine seed by flow key, so the same seed
// replays byte-identical transcripts (the persona-smoke CI job relies on this).
//
// The engine is protocol logic only: it never builds packets. GuestOs calls
// OnConnect/OnData/OnClose from its strict-TCP dispatch (or the permissive path)
// and transmits whatever payload the returned PersonaReply carries, using the
// TCP stack's sequence numbers. Session progress is recorded as persona.*
// metrics and kPersona* ledger events keyed by the delivering packet's session,
// so forensics shows how deep each attacker got into the facade.
#ifndef SRC_GUEST_PERSONA_PERSONA_H_
#define SRC_GUEST_PERSONA_PERSONA_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/base/rng.h"
#include "src/guest/service.h"
#include "src/net/packet.h"
#include "src/obs/observability.h"

namespace potemkin {

// What the guest should send back for one persona step.
struct PersonaReply {
  std::vector<uint8_t> payload;  // empty = say nothing
  bool close = false;            // server-side close after sending (lockout)
  // Additional guest pages the step dirties beyond the service's base cost
  // (large decoy documents touch buffers proportional to their size).
  uint32_t extra_pages = 0;
};

struct PersonaStats {
  uint64_t sessions_opened = 0;
  uint64_t auth_failures = 0;
  uint64_t lockouts = 0;
  uint64_t decoys_served = 0;
  uint64_t bad_sequence = 0;  // protocol step out of order
  uint64_t sessions_evicted = 0;
};

class PersonaEngine {
 public:
  // Auth failures tolerated before an SSH persona locks the peer out.
  static constexpr uint32_t kSshMaxAuthFailures = 3;

  explicit PersonaEngine(Rng rng, Observability* obs = nullptr,
                         size_t max_sessions = 256);

  // The server-side accept() completed: banner-first protocols (SSH) return
  // their greeting here; client-speaks-first protocols (SMB, HTTP) return
  // nothing and just open session state.
  PersonaReply OnConnect(const ServiceConfig& service, const PacketView& view,
                         int64_t now_ns);
  // One delivered payload segment on an established connection.
  PersonaReply OnData(const ServiceConfig& service, const PacketView& view,
                      int64_t now_ns);
  // Peer tore the connection down (FIN or RST): drop session state.
  void OnClose(const PacketView& view);

  // Test oracles, reached by no program.
  size_t session_count() const { return sessions_.size(); }
  const PersonaStats& stats() const { return stats_; }

 private:
  struct SessionKey {
    uint32_t peer_ip = 0;
    uint16_t peer_port = 0;
    uint16_t local_port = 0;
    bool operator==(const SessionKey&) const = default;
  };
  struct KeyHash {
    size_t operator()(const SessionKey& key) const noexcept {
      uint64_t h = key.peer_ip;
      h = h * 0x9e3779b97f4a7c15ull +
          ((static_cast<uint64_t>(key.peer_port) << 16) | key.local_port);
      h ^= h >> 32;
      return static_cast<size_t>(h);
    }
  };
  struct Session {
    PersonaKind kind = PersonaKind::kNone;
    uint32_t state = 0;
    uint32_t auth_failures = 0;
    Rng rng;  // forked from the engine seed by flow key: order-independent
    Session() : rng(0) {}
  };

  Session& OpenSession(const SessionKey& key, PersonaKind kind);
  void EmitState(const PacketView& view, PersonaKind kind, uint32_t state,
                 int64_t now_ns);

  PersonaReply SshConnect(Session& session, const PacketView& view,
                          int64_t now_ns);
  PersonaReply SshData(Session& session, const PacketView& view, int64_t now_ns);
  PersonaReply SmbData(Session& session, const PacketView& view, int64_t now_ns);
  PersonaReply HttpData(Session& session, const PacketView& view,
                        int64_t now_ns);

  Rng rng_;  // never advanced: the base all session streams fork from
  Observability& obs_;
  size_t max_sessions_;
  std::unordered_map<SessionKey, Session, KeyHash> sessions_;
  PersonaStats stats_;
  Counter sessions_opened_;
  Counter auth_failures_;
  Counter lockouts_;
  Counter decoys_served_;
  Counter bad_sequence_;
};

}  // namespace potemkin

#endif  // SRC_GUEST_PERSONA_PERSONA_H_
