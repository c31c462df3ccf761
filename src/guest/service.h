// Network services running inside a guest, including exploitable ones.
//
// Fidelity in the paper comes from running real OS images; our guest model keeps
// the parts the experiments depend on: services answer on real ports with real
// handshakes and banners, touch (dirty) a configurable number of pages per request
// — which is what drives each clone's memory delta — and can carry a vulnerability
// that a matching exploit payload triggers, flipping the VM to infected.
#ifndef SRC_GUEST_SERVICE_H_
#define SRC_GUEST_SERVICE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/net/packet.h"

namespace potemkin {

// An exploit is recognized by substring match of `pattern` in the payload carried
// to `port`/`proto` (how real IDS signatures for Slammer/Blaster-class worms work).
struct ExploitSignature {
  IpProto proto = IpProto::kTcp;
  uint16_t port = 0;
  std::vector<uint8_t> pattern;

  bool Matches(IpProto p, uint16_t dst_port, std::span<const uint8_t> payload) const;
};

// Stateful persona behind a service (src/guest/persona): instead of a one-shot
// banner, the service runs a multi-step protocol state machine per session.
enum class PersonaKind : uint8_t {
  kNone = 0,  // plain banner service
  kSsh,       // version exchange -> KEXINIT -> auth attempts -> lockout
  kSmb,       // negotiate -> session setup -> tree connect
  kHttp,      // request/response with decoy documents
};

struct ServiceConfig {
  std::string name = "svc";
  IpProto proto = IpProto::kTcp;
  uint16_t port = 0;
  // Bytes sent back when a request (TCP payload after handshake, or UDP datagram)
  // arrives. Empty = silent service.
  std::vector<uint8_t> banner;
  // Guest pages dirtied when handling one request (connection state, buffers,
  // logs). This is the knob behind the delta-virtualization experiments.
  uint32_t pages_touched_per_request = 4;
  std::optional<ExploitSignature> vulnerability;
  // Non-kNone routes this service's traffic through the guest's PersonaEngine
  // (requires strict_tcp for TCP session state; the banner field is unused).
  PersonaKind persona = PersonaKind::kNone;
};

// Canned service sets mirroring what mid-2000s honeypots exposed.
std::vector<ServiceConfig> DefaultWindowsServices();
// Test seam, reached by no program.
std::vector<ServiceConfig> DefaultLinuxServices();
// Persona-backed honeypot profile: stateful SSH (22), HTTP with decoy
// documents (80, EXPLOIT-CGI vulnerable) and SMB (445, EXPLOIT-LSASS
// vulnerable). Pair with GuestOsConfig::strict_tcp = true.
std::vector<ServiceConfig> PersonaHoneypotServices();

}  // namespace potemkin

#endif  // SRC_GUEST_SERVICE_H_
