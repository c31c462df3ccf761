// Scripted post-compromise behavior: privilege escalation + escape attempts.
//
// Worm propagation only exercises containment with more of the same traffic.
// Real intrusions try to *leave*: beacon to a command-and-control host, scan
// addresses outside the farm, exfiltrate over DNS. EscapeRuntime is an
// InfectionAgent that rides every infection and plays that script in virtual
// time through the compromised guest's vNIC — so every attempt crosses the
// gateway's containment filter like any other packet. Each attempt is recorded
// as a kEscapeAttempt ledger event (before the packet is sent) under the
// infecting session, which lets the forensics timeline pair the attempt with
// the containment verdict that caught it; the persona_farm example asserts
// exactly that pairing.
#ifndef SRC_GUEST_PERSONA_ESCAPE_H_
#define SRC_GUEST_PERSONA_ESCAPE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/base/event_loop.h"
#include "src/base/rng.h"
#include "src/guest/guest_os.h"
#include "src/guest/infection_agent.h"
#include "src/net/ipv4.h"
#include "src/obs/observability.h"

namespace potemkin {

enum class EscapeKind : uint8_t {
  kC2Beacon = 0,     // TCP beacon to a command-and-control server
  kNonFarmScan = 1,  // SYN probes of addresses outside the farm prefix
  kDnsExfil = 2,     // UDP/53 exfiltration datagram
};

const char* EscapeKindName(EscapeKind kind);

struct EscapeStats {
  uint64_t escalations = 0;
  uint64_t attempts = 0;          // escape packets handed to the vNIC
  uint64_t attempts_by_kind[3] = {0, 0, 0};
};

class EscapeRuntime : public InfectionAgent {
 public:
  // Every infected guest plays one script: a privilege escalation at 0.5 s
  // after infection, then a C2 beacon at 1 s, a non-farm scan at 1.5 s and a
  // DNS exfiltration at 2 s.
  EscapeRuntime(EventLoop* loop, Observability* obs, uint64_t seed);

  // ---- InfectionAgent ----
  bool MatchesVector(IpProto, uint16_t) const override { return false; }
  bool ActivatesOnAnyInfection() const override { return true; }
  void OnGuestInfected(GuestOs& guest, const PacketView& exploit) override;
  void OnVmRetired(VmId vm) override;

  // Test oracle, reached by no program.
  const EscapeStats& stats() const { return stats_; }

 private:
  struct Instance {
    GuestOs* guest = nullptr;
    SessionId session = kNoSession;  // the infecting session: ties attempts to
                                     // the containment verdicts that catch them
    Rng rng;
    std::vector<EventHandle> pending;
    explicit Instance(Rng r) : rng(r) {}
  };

  void FireEscalation(VmId vm);
  void FireStep(VmId vm, EscapeKind kind);
  void Emit(Instance& instance, Ipv4Address target, EscapeKind kind);

  EventLoop* loop_;
  Observability& obs_;
  Rng rng_;
  std::unordered_map<VmId, std::unique_ptr<Instance>> instances_;
  EscapeStats stats_;
  Counter escalations_;
  Counter attempts_;
};

}  // namespace potemkin

#endif  // SRC_GUEST_PERSONA_ESCAPE_H_
