// The guest OS model: packet handling, service dispatch, working-set dirtying and
// the infection state machine.
//
// One GuestOs instance rides on each VirtualMachine. Inbound frames dirty kernel
// pages (network stack work), get demultiplexed to services, produce real response
// packets out of the vNIC, and — when an exploit payload matches a vulnerable
// service — flip the VM to infected and notify the registered observer (the worm
// runtime), which then drives outbound scanning through this same vNIC.
#ifndef SRC_GUEST_GUEST_OS_H_
#define SRC_GUEST_GUEST_OS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time_types.h"
#include "src/guest/service.h"
#include "src/guest/tcp_stack.h"
#include "src/hv/vm.h"
#include "src/net/packet.h"
#include "src/obs/observability.h"

namespace potemkin {

class PersonaEngine;

struct GuestOsConfig {
  std::vector<ServiceConfig> services;
  // Telemetry bundle; null falls back to Observability::Default(). Guest-level
  // ledger events (request/response/exploit) are keyed by the session the
  // delivering PacketView carries from the gateway.
  Observability* obs = nullptr;
  // First guest page of the heap region that request handling dirties.
  Gpfn heap_base_gpfn = 1024;
  // Heap pages wrap after this many so long-lived VMs' deltas plateau (the paper
  // observed per-VM deltas stabilizing, not growing unboundedly).
  uint32_t heap_pages = 2048;
  // When true, TCP segments run through a real server-side state machine
  // (src/guest/tcp_stack.h): payload reaches services only on ESTABLISHED
  // connections and out-of-state segments draw RSTs. Default off: the permissive
  // model accepts payload-bearing segments directly, which is cheaper at farm
  // scale and matches the single-packet exploit studies.
  bool strict_tcp = false;
};

struct GuestStats {
  uint64_t packets_handled = 0;
  uint64_t requests_served = 0;
  uint64_t responses_sent = 0;
  uint64_t rst_sent = 0;
  uint64_t exploits_received = 0;
  uint64_t oom_events = 0;  // guest writes failed: host out of frames
};

class GuestOs {
 public:
  // Invoked when an exploit successfully infects this guest.
  using InfectionObserver =
      std::function<void(GuestOs& guest, const PacketView& exploit)>;
  // Invoked for TCP packets addressed to a port with no listening service that
  // carry an ACK — i.e. replies to connections a process inside this guest
  // initiated (the worm runtime registers itself here to complete handshakes).
  using ClientPacketHandler =
      std::function<void(GuestOs& guest, const PacketView& reply)>;

  // Every received packet dirties the next page of a kernel region this many
  // pages long (skbuffs, softirq state), so the kernel's share of a clone's
  // delta plateaus like the heap's.
  static constexpr uint32_t kKernelPages = 64;

  GuestOs(VirtualMachine* vm, const GuestOsConfig& config, Rng rng);
  ~GuestOs();

  VirtualMachine* vm() { return vm_; }
  const GuestStats& stats() const { return stats_; }

  void set_infection_observer(InfectionObserver observer) {
    infection_observer_ = std::move(observer);
  }
  void set_client_packet_handler(ClientPacketHandler handler) {
    client_handler_ = std::move(handler);
  }

  // Processes an inbound frame delivered to this VM's vNIC at virtual time `now`.
  void HandleFrame(const Packet& frame, TimePoint now);
  // Parse-once variant: `view` must be a live parse of `frame` (the delivery
  // path already decoded the frame at gateway ingress; re-parsing here would
  // double the per-packet header work).
  void HandleFrame(const Packet& frame, const PacketView& view, TimePoint now);

  // The service listening on (proto, port), or nullptr.
  const ServiceConfig* FindService(IpProto proto, uint16_t port) const;

 private:
  void TouchKernelPage();
  void TouchHeapPages(uint32_t count);
  // `strict` carries the TCP stack's sequence numbers when the request arrived
  // through the strict state machine; null on the permissive path (replies then
  // use the simplified SendTcpReply sequencing).
  void ServeRequest(const ServiceConfig& service, const PacketView& view,
                    const SegmentDecision* strict = nullptr);
  // Persona dispatch for one delivered payload (called from ServeRequest).
  void ServePersona(const ServiceConfig& service, const PacketView& view,
                    const SegmentDecision* strict);
  void HandleTcpStrict(const PacketView& view);
  void SendTcpReply(const PacketView& request, uint8_t flags,
                    std::vector<uint8_t> payload);
  // Fully specified segment (strict mode uses the stack's sequence numbers).
  void SendTcpSegment(const PacketView& request, uint8_t flags, uint32_t seq,
                      uint32_t ack, std::vector<uint8_t> payload);
  void SendUdpReply(const PacketView& request, std::vector<uint8_t> payload);
  void SendIcmpEchoReply(const PacketView& request);

  VirtualMachine* vm_;
  GuestOsConfig config_;
  Observability& obs_;
  Rng rng_;
  GuestStats stats_;
  uint32_t heap_cursor_ = 0;
  uint32_t kernel_cursor_ = 0;
  InfectionObserver infection_observer_;
  ClientPacketHandler client_handler_;
  GuestTcpStack tcp_stack_;
  std::unique_ptr<PersonaEngine> persona_;  // created iff a service wants one
  uint32_t packets_since_expiry_ = 0;
  // Virtual time of the frame currently being handled; stamps ledger events
  // emitted from the send/serve helpers (which don't take `now` themselves).
  TimePoint now_;
};

}  // namespace potemkin

#endif  // SRC_GUEST_GUEST_OS_H_
