#include "src/gateway/sharded_gateway.h"

#include <algorithm>

#include "src/base/log.h"

namespace potemkin {

namespace {

bool IsPowerOfTwo(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

ShardedGateway::ShardedGateway(EventLoop* loop,
                               const ShardedGatewayConfig& config,
                               GatewayBackend* backend)
    : loop_(loop) {
  PK_CHECK(IsPowerOfTwo(config.shard_count))
      << "shard_count must be a power of two, got " << config.shard_count;
  const uint32_t n = config.shard_count;
  rings_.reserve(static_cast<size_t>(n) * n);
  for (size_t i = 0; i < static_cast<size_t>(n) * n; ++i) {
    rings_.emplace_back(kHandoffRingCapacity);
  }
  partition_.assign(static_cast<size_t>(n) * n, false);
  shards_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    GatewayConfig shard_config = config.gateway;
    shard_config.shard_id = i;
    shard_config.shard_count = n;
    if (n > 1) {
      // Each shard's detector only sees the distinct destinations the shard
      // owns (~1/n of a farm-wide spray), so rescale the threshold to keep
      // farm-wide flagging latency comparable to an unsharded gateway. See
      // ShardedGatewayConfig::gateway for the trade-off.
      shard_config.scan_detector.distinct_threshold = std::max<uint32_t>(
          1, config.gateway.scan_detector.distinct_threshold / n);
    }
    shards_.push_back(std::make_unique<Gateway>(loop, shard_config, backend));
  }
  if (n > 1) {
    for (uint32_t i = 0; i < n; ++i) {
      InstallHandoff(i);
    }
    MetricRegistry& m = ObsOrDefault(config.gateway.obs).metrics;
    m_ring_occupancy_ =
        m.RegisterLatency("gateway.handoff.ring_occupancy", "packets");
    m_ring_batch_ = m.RegisterLatency("gateway.handoff.batch_packets", "packets");
    RegisterAggregateProbes(m);
  }
}

ShardedGateway::~ShardedGateway() {
  if (aggregate_registry_ != nullptr) {
    aggregate_registry_->RemoveProbes(this);
  }
}

void ShardedGateway::InstallHandoff(uint32_t from) {
  shards_[from]->set_shard_handoff(
      [this, from](Packet packet, uint32_t to,
                   const Gateway::HandoffContext& ctx) {
        Handoff handoff{std::move(packet), ctx};
        while (!RingTo(from, to).TryPush(std::move(handoff))) {
          if (PartitionCut(from, to)) {
            // Partition with a full ring: the fabric's bounded buffer
            // overflowed while the path was cut. Drop (the packet recycles
            // when `handoff` destructs) — draining would tunnel through the
            // cut, and retrying would spin forever.
            ++partition_drops_;
            return;
          }
          // Ring full: drain the destination's inbox first so the overflowing
          // packet keeps its per-pair FIFO position (inline delivery would let
          // it jump ahead of packets already queued), then retry into the
          // emptied ring. Deliveries are one-hop bounded — once handed off,
          // the destination is owned and cannot hand off again — so the drain
          // frees slots and the retry terminates.
          DrainIncoming(to);
        }
        // Drain immediately so execution order is a pure function of the
        // traffic (no-op when a pump is already running).
        PumpHandoffs();
      });
}

size_t ShardedGateway::DrainIncoming(uint32_t to) {
  size_t delivered = 0;
  const uint32_t n = shard_count();
  for (uint32_t from = 0; from < n; ++from) {
    if (from == to || PartitionCut(from, to)) {
      continue;  // a cut path's queue stalls in the ring until healed
    }
    BoundedRing<Handoff>& ring = RingTo(from, to);
    // Depth seen by the consumer before draining: how far ahead the producer
    // shard ran. Sampled only when the drain actually pops (an empty ring has
    // no event worth a histogram row, and the idle sweep would swamp p50).
    const uint64_t occupancy = ring.size();
    size_t popped = 0;
    Handoff handoff;
    while (ring.TryPop(&handoff)) {
      shards_[to]->HandleHandoff(std::move(handoff.packet), handoff.ctx);
      ++popped;
    }
    if (popped > 0) {
      m_ring_occupancy_.Record(occupancy);
      m_ring_batch_.Record(popped);
      delivered += popped;
    }
  }
  return delivered;
}

size_t ShardedGateway::PumpHandoffs() {
  if (pumping_) {
    return 0;  // the outermost pump will pick up anything we enqueued
  }
  pumping_ = true;
  size_t total = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (uint32_t to = 0; to < shard_count(); ++to) {
      const size_t delivered = DrainIncoming(to);
      if (delivered > 0) {
        total += delivered;
        progress = true;  // deliveries may have produced fresh handoffs
      }
    }
  }
  pumping_ = false;
  return total;
}

void ShardedGateway::HandleInbound(Packet packet) {
  if (shard_count() == 1) {
    shards_[0]->HandleInbound(std::move(packet));
    return;
  }
  const auto dst = PeekIpv4Dst(packet);
  // Un-peekable frames go to shard 0, whose full parse rejects them exactly
  // as an unsharded gateway would.
  const uint32_t s = dst.has_value() ? ShardOf(*dst) : 0;
  shards_[s]->HandleInbound(std::move(packet));
  PumpHandoffs();
}

void ShardedGateway::HandleOutbound(HostId host, VmId vm, Packet packet) {
  if (shard_count() == 1) {
    shards_[0]->HandleOutbound(host, vm, std::move(packet));
    return;
  }
  // Outbound shards by source: that is the transmitting VM's address, and its
  // binding (infection flag, session) lives on the shard that owns it.
  const auto src = PeekIpv4Src(packet);
  const uint32_t s = src.has_value() ? ShardOf(*src) : 0;
  shards_[s]->HandleOutbound(host, vm, std::move(packet));
  PumpHandoffs();
}

void ShardedGateway::NotifyInfected(Ipv4Address vm_ip) {
  shards_[ShardOf(vm_ip)]->NotifyInfected(vm_ip);
}

void ShardedGateway::StartRecycling() {
  for (auto& shard : shards_) {
    shard->StartRecycling();
  }
}

size_t ShardedGateway::SweepOnce() {
  size_t retired = 0;
  for (auto& shard : shards_) {
    retired += shard->SweepOnce();
  }
  PumpHandoffs();
  return retired;
}

size_t ShardedGateway::ReclaimMostIdle(size_t batch) {
  if (batch == 0) {
    return 0;
  }
  // Ceil-divide so the farm-wide total is at least `batch` when the load is
  // spread; a shard with fewer idle VMs than its share just retires fewer.
  const size_t per_shard = (batch + shards_.size() - 1) / shards_.size();
  size_t retired = 0;
  for (auto& shard : shards_) {
    retired += shard->ReclaimMostIdle(per_shard);
  }
  PumpHandoffs();
  return retired;
}

void ShardedGateway::set_egress_sink(Gateway::EgressSink sink) {
  for (auto& shard : shards_) {
    shard->set_egress_sink(sink);
  }
}

size_t ShardedGateway::CountHostBindings(HostId host) {
  size_t total = 0;
  for (auto& shard : shards_) {
    total += shard->CountHostBindings(host);
  }
  return total;
}

size_t ShardedGateway::RetireHostBindings(HostId host) {
  size_t total = 0;
  for (auto& shard : shards_) {
    total += shard->RetireHostBindings(host);
  }
  PumpHandoffs();
  return total;
}

size_t ShardedGateway::InvalidateHostBindings(HostId host) {
  size_t total = 0;
  for (auto& shard : shards_) {
    total += shard->InvalidateHostBindings(host);
  }
  return total;
}

size_t ShardedGateway::MigrateHostBindings(HostId host, size_t max) {
  size_t started = 0;
  for (auto& shard : shards_) {
    if (started >= max) {
      break;
    }
    started += shard->MigrateHostBindings(host, max - started);
  }
  PumpHandoffs();
  return started;
}

size_t ShardedGateway::CountMisplacedReflectNat() {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->CountMisplacedReflectNat();
  }
  return total;
}

void ShardedGateway::SetHandoffPartition(uint32_t from, uint32_t to,
                                         bool cut) {
  PK_CHECK(from < shard_count() && to < shard_count() && from != to);
  partition_[from * shards_.size() + to] = cut;
}

GatewayStats ShardedGateway::AggregateStats() const {
  GatewayStats total;
  for (const auto& shard : shards_) {
    const GatewayStats& s = shard->stats();
    total.inbound_packets += s.inbound_packets;
    total.inbound_nonfarm += s.inbound_nonfarm;
    total.inbound_delivered += s.inbound_delivered;
    total.inbound_queued += s.inbound_queued;
    total.inbound_dropped_cloning += s.inbound_dropped_cloning;
    total.inbound_filtered_scanners += s.inbound_filtered_scanners;
    total.clones_triggered += s.clones_triggered;
    total.clone_failures += s.clone_failures;
    total.no_capacity_drops += s.no_capacity_drops;
    total.outbound_packets += s.outbound_packets;
    total.responses_allowed_out += s.responses_allowed_out;
    total.icmp_errors_allowed_out += s.icmp_errors_allowed_out;
    total.ttl_expired_drops += s.ttl_expired_drops;
    total.emergency_reclaims += s.emergency_reclaims;
    total.internal_forwards += s.internal_forwards;
    total.reflections_injected += s.reflections_injected;
    total.dns_responses += s.dns_responses;
    total.egress_packets += s.egress_packets;
    total.vms_retired += s.vms_retired;
    total.retired_idle += s.retired_idle;
    total.retired_lifetime += s.retired_lifetime;
    total.retired_infected_expired += s.retired_infected_expired;
    total.handoffs_out += s.handoffs_out;
    total.handoffs_in += s.handoffs_in;
  }
  return total;
}

size_t ShardedGateway::live_bindings() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->bindings().size();
  }
  return total;
}

void ShardedGateway::RegisterAggregateProbes(MetricRegistry& m) {
  aggregate_registry_ = &m;
  // Shards publish their probes under "gateway.s<i>."; these rollups restore
  // the unsharded names so watchdog rules, health snapshots, and dashboards
  // see one gateway regardless of shard count.
  m.RegisterProbe(this, "gateway.bindings.live", "vms", [this] {
    return static_cast<double>(live_bindings());
  });
  m.RegisterProbe(this, "gateway.bindings.load_factor", "ratio", [this] {
    // Worst shard: the probe is a probe-length health signal, and the hottest
    // table is the one that pages.
    double worst = 0.0;
    for (auto& g : shards_) {
      worst = std::max(worst, g->bindings().load_factor());
    }
    return worst;
  });
  m.RegisterProbe(this, "gateway.bindings.peak_live", "vms", [this] {
    uint64_t total = 0;
    for (auto& g : shards_) {
      total += g->bindings().stats().peak_live;
    }
    return static_cast<double>(total);
  });
  m.RegisterProbe(this, "gateway.containment.allowed", "count", [this] {
    uint64_t total = 0;
    for (auto& g : shards_) total += g->containment().stats().allowed;
    return static_cast<double>(total);
  });
  m.RegisterProbe(this, "gateway.containment.dropped", "count", [this] {
    uint64_t total = 0;
    for (auto& g : shards_) total += g->containment().stats().dropped;
    return static_cast<double>(total);
  });
  m.RegisterProbe(this, "gateway.containment.reflected", "count", [this] {
    uint64_t total = 0;
    for (auto& g : shards_) total += g->containment().stats().reflected;
    return static_cast<double>(total);
  });
  m.RegisterProbe(this, "gateway.containment.rate_limited", "count", [this] {
    uint64_t total = 0;
    for (auto& g : shards_) total += g->containment().stats().rate_limited;
    return static_cast<double>(total);
  });
  m.RegisterProbe(this, "gateway.containment.dns_proxied", "count", [this] {
    uint64_t total = 0;
    for (auto& g : shards_) total += g->containment().stats().dns_proxied;
    return static_cast<double>(total);
  });
  m.RegisterProbe(
      this, "gateway.containment.escapes_from_infected", "count", [this] {
        uint64_t total = 0;
        for (auto& g : shards_) {
          total += g->containment().stats().escapes_from_infected;
        }
        return static_cast<double>(total);
      });
  m.RegisterProbe(this, "gateway.scan.tracked_sources", "sources", [this] {
    uint64_t total = 0;
    for (auto& g : shards_) total += g->scan_detector().tracked_sources();
    return static_cast<double>(total);
  });
  m.RegisterProbe(this, "gateway.scan.scanners_flagged", "count", [this] {
    uint64_t total = 0;
    for (auto& g : shards_) total += g->scan_detector().scanners_flagged();
    return static_cast<double>(total);
  });
  m.RegisterProbe(this, "gateway.reflect_nat.entries", "entries", [this] {
    uint64_t total = 0;
    for (auto& g : shards_) total += g->reflect_nat_entries();
    return static_cast<double>(total);
  });
  m.RegisterProbe(this, "gateway.recycle.retired", "vms", [this] {
    uint64_t total = 0;
    for (auto& g : shards_) total += g->stats().vms_retired;
    return static_cast<double>(total);
  });
  m.RegisterProbe(this, "gateway.recycle.retired_idle", "vms", [this] {
    uint64_t total = 0;
    for (auto& g : shards_) total += g->stats().retired_idle;
    return static_cast<double>(total);
  });
  m.RegisterProbe(this, "gateway.recycle.retired_lifetime", "vms", [this] {
    uint64_t total = 0;
    for (auto& g : shards_) total += g->stats().retired_lifetime;
    return static_cast<double>(total);
  });
  m.RegisterProbe(
      this, "gateway.recycle.retired_infected_expired", "vms", [this] {
        uint64_t total = 0;
        for (auto& g : shards_) total += g->stats().retired_infected_expired;
        return static_cast<double>(total);
      });
  m.RegisterProbe(this, "gateway.recycle.emergency_reclaims", "vms", [this] {
    uint64_t total = 0;
    for (auto& g : shards_) total += g->stats().emergency_reclaims;
    return static_cast<double>(total);
  });
  m.RegisterProbe(this, "gateway.recycle.backlog", "vms", [this] {
    const TimePoint now = loop_->Now();
    size_t backlog = 0;
    for (auto& g : shards_) {
      g->bindings().ForEach([&](Binding& binding) {
        if (ShouldRetire(binding, g->config().recycle, now)) {
          ++backlog;
        }
      });
    }
    return static_cast<double>(backlog);
  });
  m.RegisterProbe(this, "gateway.drops.total", "count", [this] {
    uint64_t total = 0;
    for (auto& g : shards_) {
      const GatewayStats& s = g->stats();
      total += s.no_capacity_drops + s.inbound_dropped_cloning +
               s.ttl_expired_drops + s.inbound_filtered_scanners +
               g->bindings().stats().pending_dropped;
    }
    return static_cast<double>(total);
  });
}

}  // namespace potemkin
