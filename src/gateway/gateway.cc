#include "src/gateway/gateway.h"

#include <algorithm>
#include <iterator>
#include <vector>

#include "src/base/log.h"

namespace potemkin {

namespace {

// Idle time after which a flow record expires (at the next sweep).
constexpr Duration kFlowIdleTimeout = Duration::Minutes(2);

}  // namespace

Gateway::Gateway(EventLoop* loop, const GatewayConfig& config, GatewayBackend* backend)
    : loop_(loop),
      config_(config),
      backend_(backend),
      obs_(ObsOrDefault(config.obs)),
      containment_(config.containment, config.farm_prefix, config.seed),
      dns_proxy_(config.farm_prefix, config.seed),
      scan_detector_(config.scan_detector),
      flows_(kFlowIdleTimeout) {
  next_session_ = 1 + config.shard_id;
  MetricRegistry& m = obs_.metrics;
  // Counters keep their farm-wide names even when sharded: same-name
  // registration shares one cell, so N shards recording into
  // "gateway.rx.packets" aggregate for free. Probes cannot share (duplicate
  // names shadow), so a sharded gateway publishes its probes under
  // "gateway.s<i>." and ShardedGateway re-registers farm-wide sums under the
  // original names. A 1-shard gateway keeps the exact historical names, so
  // nothing downstream (watchdog rules, metric dumps, goldens) changes.
  const std::string ns =
      config.shard_count > 1
          ? "gateway.s" + std::to_string(config.shard_id) + "."
          : "gateway.";
  if (config.shard_count > 1) {
    m_handoff_out_ = m.RegisterCounter("gateway.handoff.out", "count");
    m_handoff_in_ = m.RegisterCounter("gateway.handoff.in", "count");
  }
  m_rx_packets_ = m.RegisterCounter("gateway.rx.packets", "count");
  m_rx_hit_ = m.RegisterCounter("gateway.rx.hit", "count");
  m_rx_first_contact_ = m.RegisterCounter("gateway.rx.first_contact", "count");
  m_rx_nonfarm_ = m.RegisterCounter("gateway.rx.nonfarm", "count");
  m_rx_queued_ = m.RegisterCounter("gateway.rx.queued", "count");
  m_tx_outbound_ = m.RegisterCounter("gateway.tx.outbound", "count");
  m_tx_egress_ = m.RegisterCounter("gateway.tx.egress", "count");
  m_rx_frame_bytes_ = m.RegisterLatency("gateway.rx.frame_bytes", "bytes");
  // Per-packet ingress→delivery latency in *virtual* ns: 0 for the
  // steady-state hit path (delivered in the arrival tick), the first-contact
  // clone wait for packets that queued while their VM spawned. Virtual time
  // keeps the exported percentiles byte-deterministic run to run.
  m_datapath_latency_ns_ = m.RegisterLatency("gateway.datapath.latency_ns", "ns");
  // Cold-path state (binding table, containment verdicts, scan detector,
  // recycler churn) is exported via probes: sampled only when a snapshot is
  // taken, costing the packet path nothing.
  m.RegisterProbe(this, ns + "bindings.live", "vms",
                  [this] { return static_cast<double>(bindings_.size()); });
  m.RegisterProbe(this, ns + "bindings.load_factor", "ratio",
                  [this] { return bindings_.load_factor(); });
  m.RegisterProbe(this, ns + "bindings.peak_live", "vms", [this] {
    return static_cast<double>(bindings_.stats().peak_live);
  });
  m.RegisterProbe(this, ns + "containment.allowed", "count", [this] {
    return static_cast<double>(containment_.stats().allowed);
  });
  m.RegisterProbe(this, ns + "containment.dropped", "count", [this] {
    return static_cast<double>(containment_.stats().dropped);
  });
  m.RegisterProbe(this, ns + "containment.reflected", "count", [this] {
    return static_cast<double>(containment_.stats().reflected);
  });
  m.RegisterProbe(this, ns + "containment.rate_limited", "count", [this] {
    return static_cast<double>(containment_.stats().rate_limited);
  });
  m.RegisterProbe(this, ns + "containment.dns_proxied", "count", [this] {
    return static_cast<double>(containment_.stats().dns_proxied);
  });
  m.RegisterProbe(this, ns + "containment.escapes_from_infected", "count",
                  [this] {
                    return static_cast<double>(
                        containment_.stats().escapes_from_infected);
                  });
  m.RegisterProbe(this, ns + "scan.tracked_sources", "sources", [this] {
    return static_cast<double>(scan_detector_.tracked_sources());
  });
  m.RegisterProbe(this, ns + "scan.scanners_flagged", "count", [this] {
    return static_cast<double>(scan_detector_.scanners_flagged());
  });
  m.RegisterProbe(this, ns + "reflect_nat.entries", "entries", [this] {
    return static_cast<double>(reflect_nat_entries());
  });
  m.RegisterProbe(this, ns + "recycle.retired", "vms", [this] {
    return static_cast<double>(stats_.vms_retired);
  });
  m.RegisterProbe(this, ns + "recycle.retired_idle", "vms", [this] {
    return static_cast<double>(stats_.retired_idle);
  });
  m.RegisterProbe(this, ns + "recycle.retired_lifetime", "vms", [this] {
    return static_cast<double>(stats_.retired_lifetime);
  });
  m.RegisterProbe(this, ns + "recycle.retired_infected_expired", "vms",
                  [this] {
                    return static_cast<double>(stats_.retired_infected_expired);
                  });
  m.RegisterProbe(this, ns + "recycle.emergency_reclaims", "vms", [this] {
    return static_cast<double>(stats_.emergency_reclaims);
  });
  // Watchdog feed: bindings past their retire deadline but not yet swept (a
  // growing backlog means the recycler is starved or wedged)...
  m.RegisterProbe(this, ns + "recycle.backlog", "vms", [this] {
    const TimePoint now = loop_->Now();
    size_t backlog = 0;
    bindings_.ForEach([&](Binding& binding) {
      if (ShouldRetire(binding, config_.recycle, now)) {
        ++backlog;
      }
    });
    return static_cast<double>(backlog);
  });
  // ...and every class of shed inbound packet, folded into one counter so a
  // single rate rule can page on drop storms.
  m.RegisterProbe(this, ns + "drops.total", "count", [this] {
    return static_cast<double>(
        stats_.no_capacity_drops + stats_.inbound_dropped_cloning +
        stats_.ttl_expired_drops + stats_.inbound_filtered_scanners +
        bindings_.stats().pending_dropped);
  });
}

Gateway::~Gateway() { obs_.metrics.RemoveProbes(this); }

bool Gateway::ChooseHost(HostId* out) {
  const size_t n = backend_->NumHosts();
  if (n == 0) {
    return false;
  }
  switch (config_.placement) {
    case PlacementKind::kRoundRobin: {
      for (size_t tried = 0; tried < n; ++tried) {
        const HostId host = next_host_;
        next_host_ = (next_host_ + 1) % static_cast<HostId>(n);
        if (backend_->HostCanAdmit(host)) {
          *out = host;
          return true;
        }
      }
      return false;
    }
    case PlacementKind::kScored: {
      double best_score = 0.0;
      HostId best = 0;
      bool found = false;
      for (HostId host = 0; host < n; ++host) {
        if (!backend_->HostCanAdmit(host)) {
          continue;
        }
        const double score = backend_->HostPlacementScore(host);
        if (!found || score > best_score) {
          best_score = score;
          best = host;
          found = true;
        }
      }
      if (found) {
        *out = best;
      }
      return found;
    }
  }
  return false;
}

void Gateway::DeliverToBinding(Binding& binding, Packet packet, PacketView& view,
                               int64_t wait_ns) {
  // The gateway is a router hop: TTL decrements on the way into the farm (the
  // incremental update keeps `view` in sync, so the backend needs no re-parse).
  if (!DecrementTtl(packet, &view)) {
    ++stats_.ttl_expired_drops;
    obs_.ledger.Append(LedgerEvent::kPacketDropped, binding.session,
                       loop_->Now().nanos(), view.ip().src.value(),
                       static_cast<uint64_t>(LedgerDropReason::kTtlExpired));
    return;
  }
  binding.last_activity = loop_->Now();
  ++stats_.inbound_delivered;
  m_rx_hit_.Inc();
  m_datapath_latency_ns_.Record(
      static_cast<uint64_t>(wait_ns > 0 ? wait_ns : 0));
  // Stamp the session on the view so the guest layers can attribute their
  // ledger events without a binding lookup of their own.
  view.set_session(binding.session);
  obs_.ledger.Append(LedgerEvent::kPacketDelivered, binding.session,
                     loop_->Now().nanos(), view.ip().src.value(),
                     packet.size());
  backend_->DeliverToVm(binding.host, binding.vm, std::move(packet), view);
}

void Gateway::RouteToFarm(Packet packet, PacketView& view, uint64_t nat_key,
                          Ipv4Address nat_external) {
  const Ipv4Address dst = view.ip().dst;
  // Shard ownership gate. Inbound traffic is pre-binned by the dispatcher, so
  // on the hit path this is one always-false predictable comparison; the
  // branch fires only for reflected / farm-internal traffic whose rewritten
  // destination hashes to a different shard, which crosses via the handoff
  // ring instead of touching this shard's tables.
  if (config_.shard_count > 1) {
    const uint32_t owner = ShardOf(dst);
    if (owner != config_.shard_id && handoff_) {
      ++stats_.handoffs_out;
      m_handoff_out_.Inc();
      handoff_(std::move(packet), owner, HandoffContext{nat_key, nat_external});
      return;
    }
  }
  // The destination routes here, so this shard owns the reflection victim:
  // install the reverse-NAT entry on the same shard the victim's replies
  // (which shard by source) will consult.
  if (nat_key != 0) {
    QueueReflectNat(nat_key, nat_external);
  }
  Binding* binding = bindings_.Find(dst);
  if (binding != nullptr) {
    if (binding->state == BindingState::kActive) {
      DeliverToBinding(*binding, std::move(packet), view);
      return;
    }
    // Still cloning.
    if (config_.queue_while_cloning) {
      if (bindings_.QueuePending(*binding, std::move(packet))) {
        ++stats_.inbound_queued;
        m_rx_queued_.Inc();
        obs_.ledger.Append(LedgerEvent::kPacketQueued, binding->session,
                           loop_->Now().nanos(), view.ip().src.value(),
                           binding->pending_count);
      } else {
        obs_.ledger.Append(
            LedgerEvent::kPacketDropped, binding->session, loop_->Now().nanos(),
            view.ip().src.value(),
            static_cast<uint64_t>(LedgerDropReason::kQueueFull));
      }
    } else {
      ++stats_.inbound_dropped_cloning;
      obs_.ledger.Append(
          LedgerEvent::kPacketDropped, binding->session, loop_->Now().nanos(),
          view.ip().src.value(),
          static_cast<uint64_t>(LedgerDropReason::kNotQueueing));
    }
    binding->last_activity = loop_->Now();
    return;
  }

  // First contact: late-bind a VM to this address.
  HostId host = 0;
  if (!ChooseHost(&host)) {
    ++stats_.no_capacity_drops;
    obs_.ledger.Append(LedgerEvent::kPacketDropped, kNoSession,
                       loop_->Now().nanos(), view.ip().src.value(),
                       static_cast<uint64_t>(LedgerDropReason::kNoCapacity));
    if (config_.recycle.emergency_reclaim_batch > 0) {
      EmergencyReclaim();
    }
    return;
  }
  Binding& fresh = bindings_.CreatePending(dst, host, loop_->Now());
  // Mint the attack session here: the id every later layer (clone engine,
  // guest, containment, retirement) stamps on its ledger events. The stride
  // keeps ids farm-unique across shards (see next_session_ in the header).
  fresh.session = next_session_;
  next_session_ += config_.shard_count;
  m_rx_first_contact_.Inc();
  obs_.ledger.Append(LedgerEvent::kFirstContact, fresh.session,
                     loop_->Now().nanos(), view.ip().src.value(),
                     dst.value());
  if (config_.queue_while_cloning) {
    if (bindings_.QueuePending(fresh, std::move(packet))) {
      ++stats_.inbound_queued;
      m_rx_queued_.Inc();
      obs_.ledger.Append(LedgerEvent::kPacketQueued, fresh.session,
                         loop_->Now().nanos(), view.ip().src.value(),
                         fresh.pending_count);
    } else {
      obs_.ledger.Append(
          LedgerEvent::kPacketDropped, fresh.session, loop_->Now().nanos(),
          view.ip().src.value(),
          static_cast<uint64_t>(LedgerDropReason::kQueueFull));
    }
  } else {
    ++stats_.inbound_dropped_cloning;
    obs_.ledger.Append(
        LedgerEvent::kPacketDropped, fresh.session, loop_->Now().nanos(),
        view.ip().src.value(),
        static_cast<uint64_t>(LedgerDropReason::kNotQueueing));
  }
  ++stats_.clones_triggered;
  obs_.ledger.Append(LedgerEvent::kCloneRequested, fresh.session,
                     loop_->Now().nanos(), dst.value(), host);
  backend_->SpawnVm(host, dst, fresh.session,
                    [this, dst, session = fresh.session, host](VmId vm) {
                      OnCloneDone(dst, session, host, vm);
                    });
}

void Gateway::OnCloneDone(Ipv4Address ip, SessionId session, HostId host,
                          VmId vm) {
  Binding* binding = bindings_.Find(ip);
  if (binding == nullptr || binding->session != session) {
    // The binding this clone was for is gone: a failover invalidated it
    // mid-clone, and the address may have bound again since, on another host
    // or under a new session. A clone that still came up (its host revived in
    // time) serves nothing; retire it on the host it was spawned on.
    if (vm != kInvalidVm) {
      obs_.ledger.Append(LedgerEvent::kVmRetired, session,
                         loop_->Now().nanos(), vm, kRetiredStaleClone);
      RetireVm(host, vm);
      ++stats_.vms_retired;
    }
    return;
  }
  if (vm == kInvalidVm) {
    ++stats_.clone_failures;
    obs_.ledger.Append(LedgerEvent::kCloneFailed, binding->session,
                       loop_->Now().nanos(), ip.value(), binding->host);
    bindings_.Remove(ip);
    return;
  }
  bindings_.Activate(ip, vm, loop_->Now());
  // End-to-end flash-clone latency (first contact -> VM live), from the
  // attack's point of view; the engine-side clone.phase_ns.total histogram
  // covers the control-plane cost alone.
  obs_.ledger.Append(LedgerEvent::kCloneDone, binding->session,
                     loop_->Now().nanos(), vm,
                     (loop_->Now() - binding->created).nanos());
  auto pending = bindings_.TakePending(*binding);
  // Every flushed packet waited (at most) the full first-contact clone
  // latency; charging the binding's age to each is the honest upper bound
  // without per-packet ingress timestamps in the pending queue.
  const int64_t wait_ns = (loop_->Now() - binding->created).nanos();
  for (auto& queued : pending) {
    // Pending packets were parsed at ingress but queued without their views
    // (the queue outlives the ingress stack frame); re-parse on this cold path.
    auto view = PacketView::Parse(queued);
    if (view) {
      DeliverToBinding(*binding, std::move(queued), *view, wait_ns);
    }
  }
}

void Gateway::HandleInbound(Packet packet) {
  auto view = PacketView::Parse(packet);
  if (!view) {
    return;
  }
  ++stats_.inbound_packets;
  m_rx_packets_.Inc();
  m_rx_frame_bytes_.Record(packet.size());
  if (!config_.farm_prefix.Contains(view->ip().dst)) {
    ++stats_.inbound_nonfarm;
    m_rx_nonfarm_.Inc();
    return;
  }
  const bool is_scanner =
      scan_detector_.Record(view->ip().src, view->ip().dst, loop_->Now());
  if (scan_detector_.newly_flagged()) {
    // Rare (once per source): attribute the flag to the targeted binding's
    // session when one exists so it shows up in that attack's timeline.
    const Binding* target = bindings_.Find(view->ip().dst);
    obs_.ledger.Append(LedgerEvent::kScannerFlagged,
                       target != nullptr ? target->session : kNoSession,
                       loop_->Now().nanos(), view->ip().src.value(),
                       config_.scan_detector.distinct_threshold);
  }
  if (config_.filter_known_scanners && is_scanner &&
      bindings_.Find(view->ip().dst) == nullptr) {
    ++stats_.inbound_filtered_scanners;
    obs_.ledger.Append(
        LedgerEvent::kPacketDropped, kNoSession, loop_->Now().nanos(),
        view->ip().src.value(),
        static_cast<uint64_t>(LedgerDropReason::kScannerFiltered));
    return;
  }
  flows_.Record(*view, loop_->Now());
  RouteToFarm(std::move(packet), *view);
}

void Gateway::HandleHandoff(Packet packet, const HandoffContext& ctx) {
  // The packet was classified (containment verdict, NAT rewrite, flow
  // record) on the shard that produced it; this side only re-parses — the
  // origin's PacketView died with its stack frame — and routes into its own
  // partition. No flow re-record: the flow table entry, if any, lives where
  // the traffic originated. A reverse-NAT install request rides along and is
  // applied by RouteToFarm now that the victim-owning shard is executing.
  auto view = PacketView::Parse(packet);
  if (!view) {
    return;
  }
  ++stats_.handoffs_in;
  m_handoff_in_.Inc();
  RouteToFarm(std::move(packet), *view, ctx.nat_key, ctx.nat_external);
}

void Gateway::QueueReflectNat(uint64_t nat_key, Ipv4Address external) {
  nat_queue_[nat_queued_++] = QueuedNat{nat_key, external};
  if (nat_queued_ == kNatBatch) {
    FlushReflectNat();
  }
}

void Gateway::FlushReflectNat() {
  const uint32_t count = nat_queued_;
  nat_queued_ = 0;
  // A hint only: an install before it may grow the table or add the record,
  // which leaves the prefetched line unused, never a wrong install.
  const auto prefetch = [this](uint64_t nat_key) {
    const uint32_t slot = nat_index_.Find(static_cast<uint32_t>(nat_key >> 32));
    if (slot != FlatIndex<uint32_t>::kNotFound) {
      const ReflectNatVictim& record = nat_victims_.At(slot);
      __builtin_prefetch(
          &record.cells()[record.Home(static_cast<uint32_t>(nat_key))], 1);
    }
  };
  for (uint32_t i = 0; i < count && i < kNatPrefetchAhead; ++i) {
    prefetch(nat_queue_[i].key);
  }
  for (uint32_t i = 0; i < count; ++i) {
    if (i + kNatPrefetchAhead < count) {
      prefetch(nat_queue_[i + kNatPrefetchAhead].key);
    }
    InstallReflectNat(nat_queue_[i].key, nat_queue_[i].external);
  }
}

void Gateway::InstallReflectNat(uint64_t nat_key, Ipv4Address external) {
  const auto victim = static_cast<uint32_t>(nat_key >> 32);
  const auto scanner = static_cast<uint32_t>(nat_key);
  // Reflection only fires for destinations outside the farm; an external equal
  // to the victim would read as a vacant cell.
  PK_CHECK(external.value() != victim) << "reflected onto its own external";
  uint32_t slot = nat_index_.Find(victim);
  if (slot == FlatIndex<uint32_t>::kNotFound) {
    slot = nat_victims_.Alloc();
    nat_victims_.At(slot).Reset(victim);
    nat_index_.Insert(victim, slot);
  }
  ReflectNatVictim& record = nat_victims_.At(slot);
  ReflectNatCell* cell = &record.cells()[record.Probe(scanner)];
  if (record.Vacant(*cell)) {
    if ((record.mappings + 1) * 4 > (record.mask + 1) * 3) {
      record.Grow();
      cell = &record.cells()[record.Probe(scanner)];
    }
    cell->scanner = scanner;
    ++record.mappings;
    ++nat_entries_;
  }
  cell->external = external.value();
}

void Gateway::ReflectNatVictim::Reset(uint32_t victim_ip) {
  victim = victim_ip;
  mask = static_cast<uint32_t>(std::size(inline_cells)) - 1;
  std::fill_n(inline_cells, std::size(inline_cells), ReflectNatCell{0, victim});
}

uint32_t Gateway::ReflectNatVictim::Probe(uint32_t scanner) const {
  const ReflectNatCell* table = cells();
  for (uint32_t i = Home(scanner);; i = (i + 1) & mask) {
    if (Vacant(table[i]) || table[i].scanner == scanner) {
      return i;
    }
  }
}

void Gateway::ReflectNatVictim::Grow() {
  const ReflectNatCell* old = cells();
  const uint32_t old_count = mask + 1;
  // Keeps a previous heap array alive until its cells are re-probed.
  const std::unique_ptr<ReflectNatCell[]> old_heap = std::move(heap_cells);
  const uint32_t count = 2 * old_count;
  heap_cells.reset(new ReflectNatCell[count]);
  std::fill_n(heap_cells.get(), count, ReflectNatCell{0, victim});
  mask = count - 1;
  for (uint32_t i = 0; i < old_count; ++i) {
    if (!Vacant(old[i])) {
      heap_cells[Probe(old[i].scanner)] = old[i];
    }
  }
}

const Gateway::ReflectNatCell* Gateway::FindReflectNat(uint32_t victim,
                                                       uint32_t scanner) const {
  const uint32_t slot = nat_index_.Find(victim);
  if (slot == FlatIndex<uint32_t>::kNotFound) {
    return nullptr;
  }
  const ReflectNatVictim& record = nat_victims_.At(slot);
  const ReflectNatCell& cell = record.cells()[record.Probe(scanner)];
  return record.Vacant(cell) ? nullptr : &cell;
}

void Gateway::RetireVm(HostId host, VmId vm) {
  backend_->RetireVm(host, vm);
  containment_.ForgetVm(vm);
}

void Gateway::HandleDnsQuery(const PacketView& view, Binding* source_binding) {
  const auto payload = view.l4_payload();
  const auto query = ParseDnsQuery(payload.data(), payload.size());
  if (!query || source_binding == nullptr ||
      source_binding->state != BindingState::kActive) {
    // DNS-shaped but not a parseable query (raw exfil on port 53), or the
    // sender has no live binding: the proxy swallows it. Record the verdict —
    // a silently vanished packet would break escape-attempt attribution.
    obs_.ledger.Append(LedgerEvent::kContainmentDrop,
                       source_binding != nullptr ? source_binding->session
                                                 : view.session(),
                       loop_->Now().nanos(), view.ip().dst.value(),
                       view.dst_port());
    return;
  }
  const DnsResponse answer = dns_proxy_.Resolve(*query);
  obs_.ledger.Append(LedgerEvent::kContainmentDnsProxy, source_binding->session,
                     loop_->Now().nanos(), view.ip().dst.value(),
                     view.dst_port());
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(0xd75);  // the gateway's own MAC
  spec.dst_mac = view.eth().src;
  spec.src_ip = view.ip().dst;  // impersonate the queried resolver
  spec.dst_ip = view.ip().src;
  spec.proto = IpProto::kUdp;
  spec.src_port = kDnsPort;
  spec.dst_port = view.udp().src_port;
  spec.payload = EncodeDnsResponse(answer);
  ++stats_.dns_responses;
  Packet response = BuildPacket(spec);
  auto response_view = PacketView::Parse(response);
  if (response_view) {
    response_view->set_session(source_binding->session);
    backend_->DeliverToVm(source_binding->host, source_binding->vm,
                          std::move(response), *response_view);
  }
}

void Gateway::HandleOutbound(HostId host, VmId vm, Packet packet) {
  (void)host;
  auto view = PacketView::Parse(packet);
  if (!view) {
    return;
  }
  ++stats_.outbound_packets;
  m_tx_outbound_.Inc();
  Binding* source_binding = bindings_.Find(view->ip().src);
  // Captured by value: RouteToFarm below can resize the binding slab.
  const SessionId session =
      source_binding != nullptr ? source_binding->session : kNoSession;

  // Farm-internal destination: forward inside, applying reflection reverse-NAT so
  // reflected conversations look like they involve the original external address.
  if (config_.farm_prefix.Contains(view->ip().dst)) {
    ++stats_.internal_forwards;
    FlushReflectNat();
    const ReflectNatCell* nat =
        FindReflectNat(view->ip().src.value(), view->ip().dst.value());
    if (nat != nullptr) {
      // The incremental rewrite keeps `view` current — no re-parse.
      RewriteIpv4Src(packet, Ipv4Address(nat->external), &*view);
      // Deliberately NOT recorded in the flow table: a NAT-rewritten packet
      // impersonates an external source, and recording it would later make a
      // VM-initiated packet toward that external address look like a
      // "response", opening a containment escape. The flow table only ever
      // holds genuinely external traffic.
      RouteToFarm(std::move(packet), *view);
      return;
    }
    flows_.Record(*view, loop_->Now());
    RouteToFarm(std::move(packet), *view);
    return;
  }

  // ICMP errors about inbound traffic (port unreachable backscatter, TTL
  // exceeded) may return to the offending external sender: the quoted packet
  // must have come from that sender into the farm.
  if (IsIcmpError(*view)) {
    const auto embedded = IcmpEmbeddedAddresses(*view);
    if (embedded && embedded->first == view->ip().dst &&
        config_.farm_prefix.Contains(embedded->second)) {
      ++stats_.icmp_errors_allowed_out;
      ++stats_.egress_packets;
      m_tx_egress_.Inc();
      obs_.ledger.Append(LedgerEvent::kEgressResponse, session,
                         loop_->Now().nanos(), view->ip().dst.value(),
                         packet.size());
      if (egress_) {
        egress_(std::move(packet));
      }
      return;
    }
    return;  // malformed or not about inbound traffic: contain it
  }

  // Response traffic: if the external peer initiated this flow, honeypots may
  // answer it — that is the farm's whole purpose.
  const FlowKey key = FlowKey::FromView(*view);
  const FlowRecord* flow = flows_.Find(key);
  if (flow != nullptr && flow->key.src == view->ip().dst) {
    flows_.Record(*view, loop_->Now());
    ++stats_.responses_allowed_out;
    ++stats_.egress_packets;
    m_tx_egress_.Inc();
    obs_.ledger.Append(LedgerEvent::kEgressResponse, session,
                       loop_->Now().nanos(), view->ip().dst.value(),
                       packet.size());
    if (egress_) {
      egress_(std::move(packet));
    }
    return;
  }

  // VM-initiated traffic: containment policy decides.
  const bool infected = source_binding != nullptr && source_binding->infected;
  const OutboundAction action =
      containment_.Classify(*view, vm, infected, loop_->Now());
  switch (action) {
    case OutboundAction::kAllow:
      flows_.Record(*view, loop_->Now());
      ++stats_.egress_packets;
      m_tx_egress_.Inc();
      // An *infected* VM's packet leaving for the real Internet is the
      // containment failure the paper is about — a breach event, which the
      // armed flight recorder trips on.
      obs_.ledger.Append(infected ? LedgerEvent::kContainmentBreach
                                  : LedgerEvent::kContainmentAllow,
                         session, loop_->Now().nanos(),
                         view->ip().dst.value(), view->dst_port());
      if (egress_) {
        egress_(std::move(packet));
      }
      return;
    case OutboundAction::kDrop:
      obs_.ledger.Append(LedgerEvent::kContainmentDrop, session,
                         loop_->Now().nanos(), view->ip().dst.value(),
                         view->dst_port());
      return;
    case OutboundAction::kRateLimit:
      obs_.ledger.Append(LedgerEvent::kContainmentRateLimit, session,
                         loop_->Now().nanos(), view->ip().dst.value(),
                         view->dst_port());
      return;
    case OutboundAction::kDnsProxy:
      HandleDnsQuery(*view, source_binding);
      return;
    case OutboundAction::kReflect: {
      const Ipv4Address external = view->ip().dst;
      const Ipv4Address victim =
          containment_.ReflectTarget(external, view->ip().src);
      RewriteIpv4Dst(packet, victim, &*view);
      // Remember that `victim`'s replies to this scanner must impersonate
      // `external`. The entry must live on the shard that owns `victim` (the
      // reply's source), so RouteToFarm installs it locally or threads it
      // through the handoff — never into this (scanner-owning) shard's table
      // when the victim hashes elsewhere.
      const uint64_t nat_key = (static_cast<uint64_t>(victim.value()) << 32) |
                               view->ip().src.value();
      ++stats_.reflections_injected;
      obs_.ledger.Append(LedgerEvent::kContainmentReflect, session,
                         loop_->Now().nanos(), external.value(),
                         victim.value());
      // Not recorded in the flow table either (see the NAT branch above).
      RouteToFarm(std::move(packet), *view, nat_key, external);
      return;
    }
    case OutboundAction::kInternal:
      return;  // unreachable: handled above
  }
}

void Gateway::NotifyInfected(Ipv4Address vm_ip) {
  Binding* binding = bindings_.Find(vm_ip);
  if (binding != nullptr) {
    binding->infected = true;
  }
}

size_t Gateway::SweepOnce() {
  const TimePoint now = loop_->Now();
  const auto victims = bindings_.CollectIf([&](const Binding& binding) {
    return ShouldRetire(binding, config_.recycle, now);
  });
  for (const auto& ip : victims) {
    Binding* binding = bindings_.Find(ip);
    if (binding == nullptr) {
      continue;
    }
    const RetireReason reason = ClassifyRetire(*binding, config_.recycle, now);
    switch (reason) {
      case RetireReason::kIdle:
        ++stats_.retired_idle;
        break;
      case RetireReason::kLifetime:
        ++stats_.retired_lifetime;
        break;
      case RetireReason::kInfectedExpired:
        ++stats_.retired_infected_expired;
        break;
      case RetireReason::kKeep:
        break;  // state changed between collect and retire; retire anyway
    }
    obs_.ledger.Append(LedgerEvent::kVmRetired, binding->session, now.nanos(),
                       binding->vm, static_cast<uint64_t>(reason));
    RetireVm(binding->host, binding->vm);
    bindings_.Remove(ip);
    ++stats_.vms_retired;
  }
  flows_.ExpireIdle(now);
  scan_detector_.ExpireIdle(now);
  // GC the reflection NAT per victim: a victim with no binding loses every
  // mapping at once, including ones installed while it had none. A future
  // reflection to the same external address deterministically recreates them
  // (keyed mode). The walk visits victim records — at most the addresses this
  // shard owns — not (victim, scanner) pairs.
  FlushReflectNat();
  std::vector<uint32_t> dead_victims;
  nat_victims_.ForEach([&](uint32_t slot, const ReflectNatVictim& record) {
    if (bindings_.Find(Ipv4Address(record.victim)) == nullptr) {
      dead_victims.push_back(slot);
    }
  });
  for (const uint32_t slot : dead_victims) {
    const ReflectNatVictim& record = nat_victims_.At(slot);
    nat_entries_ -= record.mappings;
    nat_index_.Erase(record.victim);
    nat_victims_.Free(slot);  // frees a heap cell array with the record
  }
  return victims.size();
}

void Gateway::EmergencyReclaim() {
  ReclaimMostIdle(config_.recycle.emergency_reclaim_batch);
}

size_t Gateway::ReclaimMostIdle(size_t batch) {
  // Collect active bindings ordered by idleness (oldest activity first).
  std::vector<const Binding*> candidates;
  bindings_.ForEach([&](Binding& binding) {
    if (binding.state == BindingState::kActive) {
      candidates.push_back(&binding);
    }
  });
  std::sort(candidates.begin(), candidates.end(),
            [](const Binding* a, const Binding* b) {
              return a->last_activity < b->last_activity;
            });
  batch = std::min(batch, candidates.size());
  std::vector<Ipv4Address> victims;
  victims.reserve(batch);
  for (size_t i = 0; i < batch; ++i) {
    victims.push_back(candidates[i]->ip);
  }
  for (const auto& ip : victims) {
    Binding* binding = bindings_.Find(ip);
    if (binding == nullptr) {
      continue;
    }
    obs_.ledger.Append(LedgerEvent::kVmRetired, binding->session,
                       loop_->Now().nanos(), binding->vm, kRetiredReclaim);
    RetireVm(binding->host, binding->vm);
    bindings_.Remove(ip);
    ++stats_.vms_retired;
    ++stats_.emergency_reclaims;
  }
  return victims.size();
}

size_t Gateway::CountHostBindings(HostId host) {
  size_t count = 0;
  bindings_.ForEach([&](Binding& binding) {
    if (binding.host == host) {
      ++count;
    }
  });
  return count;
}

size_t Gateway::RetireHostBindings(HostId host) {
  const auto victims = bindings_.CollectIf([&](const Binding& binding) {
    return binding.host == host && binding.state == BindingState::kActive;
  });
  for (const auto& ip : victims) {
    Binding* binding = bindings_.Find(ip);
    if (binding == nullptr) {
      continue;
    }
    obs_.ledger.Append(LedgerEvent::kVmRetired, binding->session,
                       loop_->Now().nanos(), binding->vm, kRetiredDrain);
    RetireVm(binding->host, binding->vm);
    bindings_.Remove(ip);
    migrating_.erase(ip.value());
    ++stats_.vms_retired;
  }
  return victims.size();
}

size_t Gateway::InvalidateHostBindings(HostId host) {
  const auto victims = bindings_.CollectIf(
      [&](const Binding& binding) { return binding.host == host; });
  for (const auto& ip : victims) {
    Binding* binding = bindings_.Find(ip);
    if (binding == nullptr) {
      continue;
    }
    // No backend RetireVm: the host crashed, its VMs are gone. A clone still
    // in flight completes into OnCloneDone, which retires it if its host
    // revived in time.
    obs_.ledger.Append(LedgerEvent::kVmRetired, binding->session,
                       loop_->Now().nanos(), binding->vm, kRetiredFailover);
    containment_.ForgetVm(binding->vm);
    bindings_.Remove(ip);
    migrating_.erase(ip.value());
    ++stats_.vms_retired;
  }
  return victims.size();
}

size_t Gateway::MigrateHostBindings(HostId from, size_t max) {
  size_t started = 0;
  const auto candidates = bindings_.CollectIf([&](const Binding& binding) {
    return binding.host == from && binding.state == BindingState::kActive &&
           migrating_.count(binding.ip.value()) == 0;
  });
  for (const auto& ip : candidates) {
    if (started >= max) {
      break;
    }
    Binding* binding = bindings_.Find(ip);
    if (binding == nullptr) {
      continue;
    }
    if (binding->infected) {
      // Infected state must not outlive the host's drain: retire, don't move.
      obs_.ledger.Append(LedgerEvent::kVmRetired, binding->session,
                         loop_->Now().nanos(), binding->vm, kRetiredDrain);
      RetireVm(binding->host, binding->vm);
      bindings_.Remove(ip);
      ++stats_.vms_retired;
      ++started;
      continue;
    }
    HostId to = 0;
    if (!ChooseHost(&to) || to == from) {
      break;  // nowhere to go this tick; the drain deadline backstops
    }
    const VmId old_vm = binding->vm;
    const SessionId session = binding->session;
    obs_.ledger.Append(LedgerEvent::kCtrlMigrate, session,
                       loop_->Now().nanos(), ip.value(),
                       (static_cast<uint64_t>(from) << 32) | to);
    migrating_.insert(ip.value());
    ++started;
    backend_->SpawnVm(to, ip, session,
                      [this, ip, from, to, old_vm](VmId vm) {
                        OnMigrateDone(ip, from, to, old_vm, vm);
                      });
  }
  return started;
}

void Gateway::OnMigrateDone(Ipv4Address ip, HostId from, HostId to,
                            VmId old_vm, VmId vm) {
  migrating_.erase(ip.value());
  Binding* binding = bindings_.Find(ip);
  if (binding == nullptr) {
    // Recycled mid-migration; the replacement is an orphan — retire it.
    if (vm != kInvalidVm) {
      RetireVm(to, vm);
    }
    return;
  }
  if (vm == kInvalidVm) {
    // Replacement clone failed (target saturated or crashed mid-flight); the
    // binding stays on `from` and the next drain tick tries again.
    return;
  }
  if (binding->state != BindingState::kActive || binding->host != from ||
      binding->vm != old_vm) {
    // The binding moved or was rebound while the replacement cloned; the
    // fresh VM has no traffic to serve.
    RetireVm(to, vm);
    return;
  }
  obs_.ledger.Append(LedgerEvent::kVmRetired, binding->session,
                     loop_->Now().nanos(), old_vm, kRetiredDrain);
  RetireVm(from, old_vm);
  binding->host = to;
  binding->vm = vm;
  binding->last_activity = loop_->Now();
  ++stats_.vms_retired;
}

size_t Gateway::CountMisplacedReflectNat() {
  if (config_.shard_count <= 1) {
    return 0;
  }
  FlushReflectNat();
  size_t misplaced = 0;
  nat_victims_.ForEach([&](uint32_t, const ReflectNatVictim& record) {
    if (ShardOf(Ipv4Address(record.victim)) != config_.shard_id) {
      misplaced += record.mappings;
    }
  });
  return misplaced;
}

void Gateway::ScheduleSweep() {
  // Periodic timer: one retained closure for the lifetime of the gateway
  // instead of a fresh allocation per sweep.
  loop_->SchedulePeriodic(config_.recycle.scan_interval, [this]() { SweepOnce(); });
}

void Gateway::StartRecycling() {
  if (recycling_started_) {
    return;
  }
  recycling_started_ = true;
  ScheduleSweep();
}

}  // namespace potemkin
