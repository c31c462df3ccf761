#include "src/guest/guest_os.h"

#include "src/base/log.h"
#include "src/guest/persona/persona.h"

namespace potemkin {

namespace {

// The kernel region starts near the bottom of guest memory.
constexpr Gpfn kKernelBaseGpfn = 16;
// Idle time after which the strict TCP stack forgets a connection.
constexpr Duration kTcpIdleTimeout = Duration::Seconds(60);

bool AnyPersona(const std::vector<ServiceConfig>& services) {
  for (const auto& service : services) {
    if (service.persona != PersonaKind::kNone) {
      return true;
    }
  }
  return false;
}

}  // namespace

GuestOs::GuestOs(VirtualMachine* vm, const GuestOsConfig& config, Rng rng)
    : vm_(vm),
      config_(config),
      obs_(ObsOrDefault(config.obs)),
      rng_(rng),
      tcp_stack_(rng.Fork(0x7c9)) {
  if (AnyPersona(config_.services)) {
    persona_ = std::make_unique<PersonaEngine>(rng.Fork(0x9e2), config.obs);
  }
}

GuestOs::~GuestOs() = default;

const ServiceConfig* GuestOs::FindService(IpProto proto, uint16_t port) const {
  for (const auto& service : config_.services) {
    if (service.proto == proto && service.port == port) {
      return &service;
    }
  }
  return nullptr;
}

void GuestOs::TouchKernelPage() {
  const Gpfn gpfn = kKernelBaseGpfn + (kernel_cursor_ % kKernelPages);
  ++kernel_cursor_;
  if (vm_->memory().TouchPages(gpfn, 1) == MemAccessResult::kOutOfMemory) {
    ++stats_.oom_events;
  }
}

void GuestOs::TouchHeapPages(uint32_t count) {
  for (uint32_t i = 0; i < count; ++i) {
    const Gpfn gpfn = config_.heap_base_gpfn + (heap_cursor_ % config_.heap_pages);
    ++heap_cursor_;
    if (vm_->memory().TouchPages(gpfn, 1) == MemAccessResult::kOutOfMemory) {
      ++stats_.oom_events;
      return;
    }
  }
}

void GuestOs::SendTcpSegment(const PacketView& request, uint8_t flags, uint32_t seq,
                             uint32_t ack, std::vector<uint8_t> payload) {
  PacketSpec spec;
  spec.src_mac = vm_->mac();
  spec.dst_mac = request.eth().src;
  spec.src_ip = request.ip().dst;
  spec.dst_ip = request.ip().src;
  spec.proto = IpProto::kTcp;
  spec.src_port = request.tcp().dst_port;
  spec.dst_port = request.tcp().src_port;
  spec.tcp_flags = flags;
  spec.seq = seq;
  spec.ack = ack;
  const size_t response_bytes = payload.size();
  spec.payload = std::move(payload);
  ++stats_.responses_sent;
  obs_.ledger.Append(LedgerEvent::kGuestResponse, request.session(), now_.nanos(),
                     request.dst_port(), response_bytes);
  vm_->Transmit(BuildPacket(spec));
}

void GuestOs::SendTcpReply(const PacketView& request, uint8_t flags,
                           std::vector<uint8_t> payload) {
  // Simplified sequencing: ack everything we saw. RFC 793 SEG.LEN is additive —
  // payload octets plus one each for SYN and FIN — so a data-bearing SYN or FIN
  // is acked in full, matching the strict stack and the low-interaction facade.
  const uint32_t payload_len = static_cast<uint32_t>(request.l4_payload().size());
  const uint32_t seg_len = payload_len +
                           ((request.tcp().flags & TcpFlags::kSyn) ? 1u : 0u) +
                           ((request.tcp().flags & TcpFlags::kFin) ? 1u : 0u);
  const uint32_t ack = request.tcp().seq + seg_len;
  SendTcpSegment(request, flags, static_cast<uint32_t>(rng_.NextU64()), ack,
                 std::move(payload));
}

void GuestOs::SendUdpReply(const PacketView& request, std::vector<uint8_t> payload) {
  PacketSpec spec;
  spec.src_mac = vm_->mac();
  spec.dst_mac = request.eth().src;
  spec.src_ip = request.ip().dst;
  spec.dst_ip = request.ip().src;
  spec.proto = IpProto::kUdp;
  spec.src_port = request.udp().dst_port;
  spec.dst_port = request.udp().src_port;
  const size_t response_bytes = payload.size();
  spec.payload = std::move(payload);
  ++stats_.responses_sent;
  obs_.ledger.Append(LedgerEvent::kGuestResponse, request.session(), now_.nanos(),
                     request.udp().dst_port, response_bytes);
  vm_->Transmit(BuildPacket(spec));
}

void GuestOs::SendIcmpEchoReply(const PacketView& request) {
  PacketSpec spec;
  spec.src_mac = vm_->mac();
  spec.dst_mac = request.eth().src;
  spec.src_ip = request.ip().dst;
  spec.dst_ip = request.ip().src;
  spec.proto = IpProto::kIcmp;
  spec.icmp_type = 0;  // echo reply
  spec.icmp_id = request.icmp().id;
  spec.icmp_seq = request.icmp().seq;
  spec.payload.assign(request.l4_payload().begin(), request.l4_payload().end());
  ++stats_.responses_sent;
  obs_.ledger.Append(LedgerEvent::kGuestResponse, request.session(), now_.nanos(),
                     0, spec.payload.size());
  vm_->Transmit(BuildPacket(spec));
}

void GuestOs::ServeRequest(const ServiceConfig& service, const PacketView& view,
                           const SegmentDecision* strict) {
  ++stats_.requests_served;
  obs_.ledger.Append(LedgerEvent::kGuestRequest, view.session(), now_.nanos(),
                     view.dst_port(), view.l4_payload().size());
  TouchHeapPages(service.pages_touched_per_request);
  if (service.vulnerability &&
      service.vulnerability->Matches(view.ip().proto, view.dst_port(),
                                     view.l4_payload())) {
    ++stats_.exploits_received;
    obs_.ledger.Append(LedgerEvent::kExploit, view.session(), now_.nanos(),
                       view.ip().src.value(), view.dst_port());
    const bool newly_infected = !vm_->infected();
    vm_->set_infected(true);
    if (newly_infected && infection_observer_) {
      infection_observer_(*this, view);
    }
    return;  // compromised service does not send its normal response
  }
  if (service.persona != PersonaKind::kNone && persona_ != nullptr &&
      service.proto == IpProto::kTcp) {
    ServePersona(service, view, strict);
    return;
  }
  if (!service.banner.empty()) {
    if (service.proto == IpProto::kTcp) {
      if (strict != nullptr) {
        // Strict mode: the reply carries the stack's sequence numbers, not the
        // simplified random-seq sequencing.
        SendTcpSegment(view, TcpFlags::kPsh | TcpFlags::kAck, strict->reply_seq,
                       strict->reply_ack, service.banner);
      } else {
        SendTcpReply(view, TcpFlags::kPsh | TcpFlags::kAck, service.banner);
      }
    } else {
      SendUdpReply(view, service.banner);
    }
  }
}

void GuestOs::ServePersona(const ServiceConfig& service, const PacketView& view,
                           const SegmentDecision* strict) {
  PersonaReply reply = persona_->OnData(service, view, now_.nanos());
  TouchHeapPages(reply.extra_pages);
  if (reply.payload.empty()) {
    return;
  }
  uint8_t flags = TcpFlags::kPsh | TcpFlags::kAck;
  if (reply.close) {
    flags |= TcpFlags::kFin;  // lockout: server closes after the final message
  }
  if (strict != nullptr) {
    SendTcpSegment(view, flags, strict->reply_seq, strict->reply_ack,
                   std::move(reply.payload));
  } else {
    SendTcpReply(view, flags, std::move(reply.payload));
  }
}

void GuestOs::HandleTcpStrict(const PacketView& view) {
  const ServiceConfig* service = FindService(IpProto::kTcp, view.tcp().dst_port);
  const uint8_t flags = view.tcp().flags;

  // Replies to connections initiated from inside the guest bypass the server
  // stack entirely (they are not addressed to a listener).
  if (service == nullptr && (flags & TcpFlags::kAck) && client_handler_) {
    client_handler_(*this, view);
    return;
  }
  if (++packets_since_expiry_ >= 64) {
    packets_since_expiry_ = 0;
    tcp_stack_.ExpireIdle(vm_->last_activity(), kTcpIdleTimeout);
  }
  const SegmentDecision decision =
      tcp_stack_.OnSegment(view, service != nullptr, vm_->last_activity());
  switch (decision.action) {
    case SegmentAction::kReplySynAck:
      SendTcpSegment(view, TcpFlags::kSyn | TcpFlags::kAck, decision.reply_seq,
                     decision.reply_ack, {});
      break;
    case SegmentAction::kReplyRst:
      ++stats_.rst_sent;
      SendTcpSegment(view,
                     TcpFlags::kRst |
                         (decision.rst_has_ack ? TcpFlags::kAck : uint8_t{0}),
                     decision.reply_seq, decision.reply_ack, {});
      break;
    case SegmentAction::kEstablished:
      // accept() completed: banner-first personas greet the new connection.
      if (service != nullptr && service->persona != PersonaKind::kNone &&
          persona_ != nullptr) {
        PersonaReply greeting = persona_->OnConnect(*service, view, now_.nanos());
        if (!greeting.payload.empty()) {
          SendTcpSegment(view, TcpFlags::kPsh | TcpFlags::kAck,
                         decision.reply_seq, decision.reply_ack,
                         std::move(greeting.payload));
        }
      }
      break;
    case SegmentAction::kReplyFinAck:
      SendTcpSegment(view, TcpFlags::kFin | TcpFlags::kAck, decision.reply_seq,
                     decision.reply_ack, {});
      break;
    case SegmentAction::kDeliverPayload:
      if (service != nullptr) {
        ServeRequest(*service, view, &decision);
      }
      break;
    case SegmentAction::kDeliverPayloadAndClose:
      // Data rode the FIN: the payload still reaches the service, then the
      // close is acknowledged (the FIN|ACK's ack covers payload + FIN octet).
      if (service != nullptr) {
        ServeRequest(*service, view, &decision);
      }
      SendTcpSegment(view, TcpFlags::kFin | TcpFlags::kAck, decision.reply_seq,
                     decision.reply_ack, {});
      break;
    case SegmentAction::kIgnore:
      break;
  }
  if (persona_ != nullptr && (flags & (TcpFlags::kFin | TcpFlags::kRst)) != 0) {
    persona_->OnClose(view);  // peer teardown drops persona session state
  }
}

void GuestOs::HandleFrame(const Packet& frame, TimePoint now) {
  const auto view = PacketView::Parse(frame);
  if (!view) {
    return;
  }
  HandleFrame(frame, *view, now);
}

void GuestOs::HandleFrame(const Packet& frame, const PacketView& parsed,
                          TimePoint now) {
  if (vm_->state() != VmState::kRunning) {
    return;
  }
  const PacketView* view = &parsed;
  ++stats_.packets_handled;
  now_ = now;
  vm_->set_last_activity(now);
  TouchKernelPage();

  if (view->is_icmp()) {
    if (view->icmp().type == 8) {
      SendIcmpEchoReply(*view);
    }
    return;
  }
  if (view->is_tcp()) {
    if (config_.strict_tcp) {
      HandleTcpStrict(*view);
      return;
    }
    const ServiceConfig* service = FindService(IpProto::kTcp, view->tcp().dst_port);
    const uint8_t flags = view->tcp().flags;
    if ((flags & TcpFlags::kSyn) && !(flags & TcpFlags::kAck)) {
      if (service != nullptr) {
        SendTcpReply(*view, TcpFlags::kSyn | TcpFlags::kAck, {});
        // Permissive-mode personas greet right after the SYN|ACK (no strict
        // handshake completion to hook).
        if (service->persona != PersonaKind::kNone && persona_ != nullptr &&
            view->l4_payload().empty()) {
          PersonaReply greeting =
              persona_->OnConnect(*service, *view, now_.nanos());
          if (!greeting.payload.empty()) {
            SendTcpReply(*view, TcpFlags::kPsh | TcpFlags::kAck,
                         std::move(greeting.payload));
          }
        }
        // Data riding the SYN (the single-packet exploit model used by the worm
        // runtime; cf. WormRuntime::MakeScanPacket) is delivered to the service.
        if (!view->l4_payload().empty()) {
          ServeRequest(*service, *view);
        }
      } else {
        ++stats_.rst_sent;
        SendTcpReply(*view, TcpFlags::kRst | TcpFlags::kAck, {});
      }
      return;
    }
    if (flags & TcpFlags::kRst) {
      if (persona_ != nullptr) {
        persona_->OnClose(*view);
      }
      return;
    }
    // ACK-bearing traffic to a non-listening port is a reply to a connection a
    // local process initiated; hand it to the registered client (worm).
    if (service == nullptr && (flags & TcpFlags::kAck) && client_handler_) {
      client_handler_(*this, *view);
      return;
    }
    if (!view->l4_payload().empty() && service != nullptr) {
      ServeRequest(*service, *view);
    }
    if (persona_ != nullptr && (flags & TcpFlags::kFin)) {
      persona_->OnClose(*view);
    }
    return;
  }
  if (view->is_udp()) {
    const ServiceConfig* service = FindService(IpProto::kUdp, view->udp().dst_port);
    if (service != nullptr) {
      ServeRequest(*service, *view);
    } else if (view->udp().dst_port >= 1024) {
      // Ephemeral-range destination: treat as a reply to a client socket this
      // guest opened (DNS answers, etc.). A real stack would match the socket
      // table; the port-range heuristic keeps the model state-free.
      return;
    } else {
      // Closed UDP port: real stacks answer with ICMP port unreachable, quoting
      // the offending datagram (this backscatter is part of what telescopes see).
      PacketSpec unreachable;
      unreachable.src_mac = vm_->mac();
      unreachable.dst_mac = view->eth().src;
      unreachable.src_ip = view->ip().dst;
      unreachable.dst_ip = view->ip().src;
      unreachable.proto = IpProto::kIcmp;
      unreachable.icmp_type = kIcmpDestUnreachable;
      unreachable.icmp_code = kIcmpCodePortUnreachable;
      unreachable.payload = IcmpQuoteOf(frame);
      ++stats_.responses_sent;
      obs_.ledger.Append(LedgerEvent::kGuestResponse, view->session(),
                         now_.nanos(), view->udp().dst_port,
                         unreachable.payload.size());
      vm_->Transmit(BuildPacket(unreachable));
    }
    return;
  }
}

}  // namespace potemkin
