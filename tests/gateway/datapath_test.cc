// Datapath tests for the zero-allocation packet path:
//
//  1. A counting global allocator proves the steady-state gateway hit and
//     reflection paths perform ZERO heap allocations per packet, with pool
//     stats cross-checking that every frame buffer was recycled, and that a
//     whole farm running a reflect-contained worm outbreak allocates nothing
//     per scan: the worm's scan, the gateway, the delivery to the victim VM,
//     its guest and the event loop together.
//  2. Byte-for-byte equivalence across the containment matrix: packets that
//     traverse the pooled/incremental-checksum datapath must be identical to
//     what the seed's vector-backed, full-recompute datapath would produce —
//     including with a dirty, recycled pool.
//
// This lives in its own test binary because it replaces the global operator
// new/delete to count allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <vector>

#include "src/base/event_loop.h"
#include "src/core/honeyfarm.h"
#include "src/gateway/gateway.h"
#include "src/gateway/sharded_gateway.h"
#include "src/malware/worm.h"
#include "src/net/checksum.h"
#include "src/net/packet_pool.h"
#include "src/obs/event_ledger.h"
#include "src/obs/observability.h"
#include "src/obs/telemetry_exporter.h"

namespace {
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow forms must be replaced too: libstdc++ uses them for temporary
// buffers (std::stable_sort), and mixing a default nothrow new with our
// replaced delete would be an alloc/dealloc mismatch under ASan.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace potemkin {
namespace {

const Ipv4Prefix kFarm(Ipv4Address(10, 1, 0, 0), 16);

Packet Probe(Ipv4Address src, Ipv4Address dst, uint16_t sport, uint16_t dport,
             IpProto proto = IpProto::kTcp, std::vector<uint8_t> payload = {}) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(2);
  spec.dst_mac = MacAddress::FromId(1);
  spec.src_ip = src;
  spec.dst_ip = dst;
  spec.proto = proto;
  spec.src_port = sport;
  spec.dst_port = dport;
  spec.tcp_flags = TcpFlags::kSyn;
  spec.payload = std::move(payload);
  return BuildPacket(spec);
}

// Instant-spawn backend that consumes deliveries synchronously (frames return
// to the pool immediately) and accumulates pass/fail flags without touching
// the heap on the delivery path.
class DropBackend : public GatewayBackend {
 public:
  size_t NumHosts() const override { return 1; }
  bool HostCanAdmit(HostId) const override { return true; }
  void SpawnVm(HostId, Ipv4Address, SessionId, std::function<void(VmId)> done) override {
    done(next_vm_++);
  }
  void RetireVm(HostId, VmId) override {}
  void DeliverToVm(HostId, VmId, Packet packet,
                   const PacketView& view) override {
    ++delivered_;
    views_valid_ = views_valid_ && view.ValidFor(packet);
  }

  uint64_t delivered_ = 0;
  bool views_valid_ = true;

 private:
  VmId next_vm_ = 1;
};

TEST(ZeroAllocTest, SteadyStateHitPathDoesNotTouchTheHeap) {
  EventLoop loop;
  DropBackend backend;
  // Observability explicitly enabled: the hot-path recording — counter
  // increments, histogram buckets, AND the forensic ledger append every
  // delivered packet performs — must preserve the zero-allocation invariant,
  // not just "metrics off" configurations.
  Observability obs;
  GatewayConfig config;
  config.farm_prefix = kFarm;
  config.obs = &obs;
  Gateway gateway(&loop, config, &backend);

  constexpr uint32_t kBindings = 64;
  constexpr uint32_t kSources = 8;
  auto inject = [&](uint32_t i) {
    gateway.HandleInbound(Probe(Ipv4Address(198, 51, 100, i % kSources),
                                kFarm.AddressAt(i % kBindings),
                                static_cast<uint16_t>(40000 + (i % kSources)),
                                445));
  };
  // Telemetry exporter over the same registry: its periodic sampling tick must
  // share the packet path's zero-allocation guarantee.
  TelemetryExporter exporter(&loop, &obs.metrics);
  // Warm-up: create the bindings, size every table, populate the flow and
  // scan-detector state for each (src, dst) pair we will replay, fill the
  // pool's freelists to steady state, and let the exporter render its row
  // prefixes (its first tick allocates them).
  for (uint32_t i = 0; i < 4096; ++i) {
    inject(i);
  }
  ASSERT_EQ(backend.delivered_, 4096u);
  for (int i = 0; i < 3; ++i) {
    exporter.SampleNow();
  }

  // Registry baselines first: ValueOf() walks a Collect() snapshot, which
  // allocates — it must stay outside the measured window.
  const uint64_t rx_before =
      static_cast<uint64_t>(obs.metrics.ValueOf("gateway.rx.packets"));
  const uint64_t hit_before =
      static_cast<uint64_t>(obs.metrics.ValueOf("gateway.rx.hit"));
  const uint64_t frames_before =
      static_cast<uint64_t>(obs.metrics.ValueOf("gateway.rx.frame_bytes_count"));
  const uint64_t latency_before = static_cast<uint64_t>(
      obs.metrics.ValueOf("gateway.datapath.latency_ns_count"));
  const uint64_t ticks_before = exporter.sequence();
  const uint64_t heap_before = g_heap_allocations.load();
  const PacketPool::Stats pool_before = PacketPool::Default().stats();
  const uint64_t ledger_before = obs.ledger.appended();
  constexpr uint32_t kMeasured = 4096;
  for (uint32_t i = 0; i < kMeasured; ++i) {
    inject(i);
    // Sampling ticks interleaved with traffic, inside the measured window:
    // the histogram walk and line render must stay off the heap too.
    if (i % 512 == 511) {
      exporter.SampleNow();
    }
  }
  const uint64_t heap_after = g_heap_allocations.load();
  const PacketPool::Stats pool_after = PacketPool::Default().stats();

  EXPECT_EQ(heap_after - heap_before, 0u)
      << "steady-state hit path allocated on the heap";
  // The registry saw every packet exactly once on each instrument it crossed
  // (ValueOf itself allocates, which is why it sits outside the window).
  EXPECT_EQ(static_cast<uint64_t>(obs.metrics.ValueOf("gateway.rx.packets")) -
                rx_before,
            kMeasured);
  EXPECT_EQ(static_cast<uint64_t>(obs.metrics.ValueOf("gateway.rx.hit")) -
                hit_before,
            kMeasured);
  EXPECT_EQ(static_cast<uint64_t>(
                obs.metrics.ValueOf("gateway.rx.frame_bytes_count")) -
                frames_before,
            kMeasured);
  // The datapath latency histogram recorded every measured packet (hit path
  // delivers immediately: zero virtual-time wait, bucket 0 — still one
  // add per packet inside the window).
  EXPECT_EQ(static_cast<uint64_t>(
                obs.metrics.ValueOf("gateway.datapath.latency_ns_count")) -
                latency_before,
            kMeasured);
  // The exporter ticked inside the window without heap traffic.
  EXPECT_EQ(exporter.sequence() - ticks_before, kMeasured / 512);
  // The forensic ledger recorded exactly one kPacketDelivered per measured
  // packet INSIDE the zero-allocation window: appends land in the
  // preallocated ring (the default 8K ring wraps mid-window, evicting the
  // oldest records) without ever touching the heap.
  EXPECT_EQ(obs.ledger.appended() - ledger_before, kMeasured);
  EXPECT_GT(obs.ledger.dropped(), 0u)
      << "expected the ledger ring to wrap during the measured window";
  // Every frame came from (and went back to) the pool freelists.
  EXPECT_EQ(pool_after.allocations, pool_before.allocations);
  EXPECT_EQ(pool_after.pool_hits - pool_before.pool_hits, kMeasured);
  EXPECT_EQ(pool_after.releases - pool_before.releases, kMeasured);
  EXPECT_EQ(pool_after.discards, pool_before.discards);
  EXPECT_EQ(backend.delivered_, 2u * 4096u);
  EXPECT_TRUE(backend.views_valid_);
}

// Non-const: reading the reverse NAT applies its queued installs first.
size_t ReflectNatEntries(Gateway& gateway) {
  return gateway.reflect_nat_entries();
}
size_t ReflectNatEntries(ShardedGateway& gateway) {
  size_t entries = 0;
  for (uint32_t s = 0; s < gateway.shard_count(); ++s) {
    entries += gateway.shard(s).reflect_nat_entries();
  }
  return entries;
}
GatewayStats StatsOf(const Gateway& gateway) { return gateway.stats(); }
GatewayStats StatsOf(const ShardedGateway& gateway) {
  return gateway.AggregateStats();
}

// Reflection onto (victim, scanner) pairs the reverse NAT already holds: the
// scan's verdict, destination rewrite, mapping refresh and delivery, then the
// victim's reply with its source-NAT lookup and rewrite. Frames are built
// inside the loop with no payload (a PacketSpec payload vector allocates, and
// pre-building the frames would drain the pool). Returns the handoffs the
// measured loop received.
template <typename G>
uint64_t ExpectSteadyStateReflectionOffTheHeap(G& gateway,
                                               DropBackend& backend,
                                               const GatewayConfig& config) {
  constexpr uint32_t kScanners = 8;
  constexpr uint32_t kExternals = 64;
  for (uint32_t s = 0; s < kScanners; ++s) {
    gateway.HandleInbound(
        Probe(Ipv4Address(198, 51, 100, 1), kFarm.AddressAt(s), 40000, 445));
  }
  ContainmentEngine replica(config.containment, kFarm, config.seed);
  std::vector<Ipv4Address> victims;
  for (uint32_t i = 0; i < kExternals; ++i) {
    victims.push_back(replica.ReflectTarget(Ipv4Address(77, 1, 0, i),
                                            kFarm.AddressAt(i % kScanners)));
  }
  auto reflect_and_reply = [&](uint32_t i) {
    const Ipv4Address scanner = kFarm.AddressAt(i % kScanners);
    const uint32_t e = i % kExternals;
    gateway.HandleOutbound(0, 1 + i % kScanners,
                           Probe(scanner, Ipv4Address(77, 1, 0, e), 2000, 135));
    gateway.HandleOutbound(0, 0, Probe(victims[e], scanner, 135, 2000));
  };
  // Warm-up: bind every victim, install every pair, grow the NAT cells and
  // every table to size, and fill the pool's freelists.
  for (uint32_t i = 0; i < 4096; ++i) {
    reflect_and_reply(i);
  }
  const size_t pairs = ReflectNatEntries(gateway);
  const GatewayStats before = StatsOf(gateway);
  const uint64_t delivered_before = backend.delivered_;

  const uint64_t heap_before = g_heap_allocations.load();
  constexpr uint32_t kMeasured = 4096;
  for (uint32_t i = 0; i < kMeasured; ++i) {
    reflect_and_reply(i);
  }
  const uint64_t heap_after = g_heap_allocations.load();

  EXPECT_EQ(heap_after - heap_before, 0u)
      << "steady-state reflection allocated on the heap";
  const GatewayStats after = StatsOf(gateway);
  EXPECT_EQ(ReflectNatEntries(gateway), pairs);  // only known pairs
  EXPECT_EQ(after.reflections_injected - before.reflections_injected,
            kMeasured);
  EXPECT_EQ(backend.delivered_ - delivered_before, 2u * kMeasured);
  EXPECT_TRUE(backend.views_valid_);
  return after.handoffs_in - before.handoffs_in;
}

TEST(ZeroAllocTest, SteadyStateReflectionDoesNotTouchTheHeap) {
  GatewayConfig config;
  config.farm_prefix = kFarm;
  config.containment.mode = OutboundMode::kReflect;
  {
    SCOPED_TRACE("bare gateway");
    EventLoop loop;
    DropBackend backend;
    Observability obs;
    config.obs = &obs;
    Gateway gateway(&loop, config, &backend);
    EXPECT_EQ(ExpectSteadyStateReflectionOffTheHeap(gateway, backend, config),
              0u);
  }
  {
    // Two shards: scans and replies whose rewritten destination the other
    // shard owns cross the handoff rings, which must stay off the heap too.
    SCOPED_TRACE("2-shard gateway");
    EventLoop loop;
    DropBackend backend;
    Observability obs;
    config.obs = &obs;
    ShardedGateway gateway(&loop, ShardedGatewayConfig{config, 2}, &backend);
    EXPECT_GT(ExpectSteadyStateReflectionOffTheHeap(gateway, backend, config),
              0u)
        << "no reflection crossed the handoff rings";
  }
}

TEST(ZeroAllocTest, WholeFarmReflectedOutbreakDoesNotTouchTheHeap) {
  // perfbench's `outbreak` workload on a /24: a reflect-contained
  // Slammer-like worm scanning the whole Internet at 15 scans/s per VM, two
  // gateway shards, seeded as farm_bench seeds it.
  const Ipv4Prefix prefix(Ipv4Address(10, 1, 0, 0), 24);
  HoneyfarmConfig config = MakeDefaultFarmConfig(prefix, /*num_hosts=*/4,
                                                 /*host_memory_mb=*/1024,
                                                 ContentMode::kMetadataOnly);
  config.server_template.image.num_pages = 2048;
  config.server_template.engine.latency = CloneLatencyModel::Optimized();
  config.server_template.engine.control_plane_workers = 4;
  config.gateway.containment.mode = OutboundMode::kReflect;
  config.gateway.recycle.idle_timeout = Duration::Minutes(10);
  config.gateway.recycle.infected_hold = Duration::Minutes(30);
  config.gateway.recycle.max_lifetime = Duration::Zero();
  config.gateway_shards = 2;
  Honeyfarm farm(config);
  WormConfig worm_config = SlammerLikeWorm(Ipv4Prefix(Ipv4Address(0, 0, 0, 0), 0));
  worm_config.scan_rate_pps = 15.0;
  WormRuntime worm(&farm.loop(), worm_config, /*seed=*/4);
  farm.AttachWorm(&worm);
  farm.Start();
  farm.SeedWorm(worm, Ipv4Address(198, 51, 100, 66), prefix.AddressAt(1));

  // Warm-up: every VM infected, and every table, ring, pool freelist, NAT
  // cell and event-queue buffer at its final size.
  farm.RunUntil(TimePoint() + Duration::Seconds(120));
  ASSERT_EQ(farm.epidemic().total_infections(), prefix.NumAddresses());

  const uint64_t scans_before = worm.stats().scans_sent;
  const uint64_t reflected_before =
      farm.sharded_gateway().AggregateStats().reflections_injected;
  const uint64_t heap_before = g_heap_allocations.load();
  farm.RunUntil(TimePoint() + Duration::Seconds(125));
  const uint64_t heap_after = g_heap_allocations.load();

  const uint64_t scans = worm.stats().scans_sent - scans_before;
  EXPECT_GE(scans, 15000u);
  EXPECT_EQ(heap_after - heap_before, 0u)
      << "a 5 s window of " << scans << " reflected scans allocated on the heap";
  // Every scan in the window was reflected back into the farm.
  EXPECT_EQ(farm.sharded_gateway().AggregateStats().reflections_injected -
                reflected_before,
            scans);
}

TEST(ZeroAllocTest, LedgerAppendDoesNotTouchTheHeap) {
  // The ledger in isolation: the ring is allocated once at construction; every
  // append after that — including the wrap that evicts the oldest records —
  // writes in place.
  EventLedger ledger(1024);
  const uint64_t heap_before = g_heap_allocations.load();
  for (int64_t i = 0; i < 10000; ++i) {
    ledger.Append(LedgerEvent::kPacketDelivered, /*session=*/7, /*time_ns=*/i,
                  /*a=*/0xc6336417u, /*b=*/64);
  }
  EXPECT_EQ(g_heap_allocations.load() - heap_before, 0u)
      << "ledger append allocated on the heap";
  EXPECT_EQ(ledger.size(), 1024u);
  EXPECT_EQ(ledger.dropped(), 10000u - 1024u);
}

// ---- Byte-for-byte equivalence with the seed's full-recompute datapath ----

// Reference internet checksum + full-recompute fixup over a plain byte
// vector: exactly the seed's rewrite strategy, independent of the production
// incremental-checksum code.
uint16_t RefChecksum(const uint8_t* data, size_t length) {
  uint32_t sum = 0;
  size_t i = 0;
  for (; i + 1 < length; i += 2) {
    sum += (static_cast<uint32_t>(data[i]) << 8) | data[i + 1];
  }
  if (i < length) {
    sum += static_cast<uint32_t>(data[i]) << 8;
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum & 0xffff);
}

void RefFixChecksums(std::vector<uint8_t>& b) {
  const size_t ip = kEthernetHeaderSize;
  const size_t ihl = static_cast<size_t>(b[ip] & 0x0f) * 4;
  b[ip + 10] = 0;
  b[ip + 11] = 0;
  const uint16_t ip_sum = RefChecksum(&b[ip], ihl);
  b[ip + 10] = static_cast<uint8_t>(ip_sum >> 8);
  b[ip + 11] = static_cast<uint8_t>(ip_sum);

  const auto proto = static_cast<IpProto>(b[ip + 9]);
  const size_t l4 = ip + ihl;
  const size_t l4_len = b.size() - l4;
  size_t at = 0;
  if (proto == IpProto::kTcp) {
    at = l4 + 16;
  } else if (proto == IpProto::kUdp) {
    at = l4 + 6;
  } else if (proto == IpProto::kIcmp) {
    at = l4 + 2;
  } else {
    return;
  }
  b[at] = 0;
  b[at + 1] = 0;
  InternetChecksum sum;
  if (proto == IpProto::kTcp || proto == IpProto::kUdp) {
    sum.Add(&b[ip + 12], 8);
    sum.AddU16(static_cast<uint16_t>(proto));
    sum.AddU16(static_cast<uint16_t>(l4_len));
  }
  sum.Add(&b[l4], l4_len);
  const uint16_t l4_sum = sum.Finish();
  b[at] = static_cast<uint8_t>(l4_sum >> 8);
  b[at + 1] = static_cast<uint8_t>(l4_sum);
}

void RefWriteAddr(std::vector<uint8_t>& b, size_t offset, Ipv4Address addr) {
  for (int i = 0; i < 4; ++i) {
    b[kEthernetHeaderSize + offset + static_cast<size_t>(i)] =
        static_cast<uint8_t>(addr.value() >> (24 - 8 * i));
  }
}

void RefDecrementTtl(std::vector<uint8_t>& b) {
  uint8_t& ttl = b[kEthernetHeaderSize + 8];
  ttl = ttl <= 1 ? 0 : static_cast<uint8_t>(ttl - 1);
}

// Capturing backend for the equivalence matrix (instant spawn, sync capture).
class CaptureBackend : public GatewayBackend {
 public:
  size_t NumHosts() const override { return 1; }
  bool HostCanAdmit(HostId) const override { return true; }
  void SpawnVm(HostId, Ipv4Address ip, SessionId, std::function<void(VmId)> done) override {
    const VmId vm = next_vm_++;
    vm_by_ip_[ip.value()] = vm;
    done(vm);
  }
  void RetireVm(HostId, VmId) override {}
  void DeliverToVm(HostId, VmId vm, Packet packet,
                   const PacketView& view) override {
    EXPECT_TRUE(view.ValidFor(packet));
    delivered_.emplace_back(vm, packet.bytes());
  }

  VmId VmFor(Ipv4Address ip) const {
    auto it = vm_by_ip_.find(ip.value());
    return it == vm_by_ip_.end() ? kInvalidVm : it->second;
  }
  std::vector<std::pair<VmId, std::vector<uint8_t>>> delivered_;

 private:
  VmId next_vm_ = 1;
  std::map<uint32_t, VmId> vm_by_ip_;
};

// Runs one full containment round (inbound probe, outbound scan, NATted
// victim reply for reflect mode; open-mode egress) for one protocol and
// returns every byte stream the gateway emitted, checking each against the
// reference full-recompute prediction.
std::vector<std::vector<uint8_t>> RunContainmentRound(OutboundMode mode,
                                                      IpProto proto) {
  EventLoop loop;
  CaptureBackend backend;
  GatewayConfig config;
  config.farm_prefix = kFarm;
  config.containment.mode = mode;
  config.containment.dns_proxy = false;
  Gateway gateway(&loop, config, &backend);
  std::vector<std::vector<uint8_t>> egress;
  gateway.set_egress_sink(
      [&egress](Packet p) { egress.push_back(p.bytes()); });
  std::vector<std::vector<uint8_t>> emitted;

  // Inbound probe brings up the "worm" VM; the delivered frame must be the
  // original with a full-recompute TTL decrement.
  const Ipv4Address worm_ip = kFarm.AddressAt(3);
  const Ipv4Address external_src(203, 0, 113, 50);
  Packet probe = Probe(external_src, worm_ip, 40000, 445, proto, {1, 2, 3});
  std::vector<uint8_t> expected = probe.bytes();
  RefDecrementTtl(expected);
  RefFixChecksums(expected);
  gateway.HandleInbound(std::move(probe));
  loop.RunAll();
  EXPECT_EQ(backend.delivered_.size(), 1u) << "probe not delivered";
  if (!backend.delivered_.empty()) {
    EXPECT_EQ(backend.delivered_.back().second, expected)
        << "inbound delivery differs from full-recompute reference";
    emitted.push_back(backend.delivered_.back().second);
  }
  const VmId worm_vm = backend.VmFor(worm_ip);

  // Outbound scan from the worm to a fresh external target.
  const Ipv4Address target(77, 1, 2, 3);
  Packet scan = Probe(worm_ip, target, 2000, 135, proto, {4, 5});
  const std::vector<uint8_t> scan_bytes = scan.bytes();
  gateway.HandleOutbound(0, worm_vm, std::move(scan));
  loop.RunAll();

  switch (mode) {
    case OutboundMode::kOpen: {
      // Passed through unmodified.
      EXPECT_EQ(egress.size(), 1u);
      if (!egress.empty()) {
        EXPECT_EQ(egress.back(), scan_bytes);
        emitted.push_back(egress.back());
      }
      break;
    }
    case OutboundMode::kDropAll: {
      EXPECT_TRUE(egress.empty());
      EXPECT_EQ(backend.delivered_.size(), 1u);  // nothing new delivered
      break;
    }
    case OutboundMode::kReflect: {
      EXPECT_TRUE(egress.empty());
      EXPECT_EQ(backend.delivered_.size(), 2u) << "scan not reflected";
      if (backend.delivered_.size() < 2) {
        break;
      }
      // The reflected frame: dst rewritten to the victim the gateway chose,
      // then the router-hop TTL decrement — both via full recompute.
      const std::vector<uint8_t>& reflected = backend.delivered_.back().second;
      Packet reparse{std::vector<uint8_t>(reflected)};
      const auto view = PacketView::Parse(reparse);
      EXPECT_TRUE(view.has_value());
      if (!view) {
        break;
      }
      const Ipv4Address victim = view->ip().dst;
      EXPECT_TRUE(kFarm.Contains(victim));
      std::vector<uint8_t> expect_reflect = scan_bytes;
      RefWriteAddr(expect_reflect, 16, victim);
      RefFixChecksums(expect_reflect);
      RefDecrementTtl(expect_reflect);
      RefFixChecksums(expect_reflect);
      EXPECT_EQ(reflected, expect_reflect)
          << "reflected frame differs from full-recompute reference";
      emitted.push_back(reflected);

      // Victim replies to the worm; its source must be NATted back to the
      // external target, again matching the reference rewrite.
      const VmId victim_vm = backend.VmFor(victim);
      EXPECT_NE(victim_vm, kInvalidVm);
      if (victim_vm == kInvalidVm) {
        break;
      }
      Packet reply = Probe(victim, worm_ip, 135, 2000, proto, {6});
      std::vector<uint8_t> expect_reply = reply.bytes();
      gateway.HandleOutbound(0, victim_vm, std::move(reply));
      loop.RunAll();
      EXPECT_EQ(backend.delivered_.size(), 3u) << "NATted reply not delivered";
      if (backend.delivered_.size() == 3) {
        RefWriteAddr(expect_reply, 12, target);
        RefFixChecksums(expect_reply);
        RefDecrementTtl(expect_reply);
        RefFixChecksums(expect_reply);
        EXPECT_EQ(backend.delivered_.back().second, expect_reply)
            << "NATted reply differs from full-recompute reference";
        emitted.push_back(backend.delivered_.back().second);
      }
      break;
    }
  }
  for (const auto& bytes : emitted) {
    EXPECT_TRUE(ValidateChecksums(Packet(std::vector<uint8_t>(bytes))));
  }
  return emitted;
}

TEST(DatapathEquivalenceTest, ContainmentMatrixMatchesFullRecomputeReference) {
  for (const OutboundMode mode :
       {OutboundMode::kOpen, OutboundMode::kDropAll, OutboundMode::kReflect}) {
    for (const IpProto proto :
         {IpProto::kTcp, IpProto::kUdp, IpProto::kIcmp}) {
      SCOPED_TRACE(testing::Message()
                   << "mode=" << static_cast<int>(mode)
                   << " proto=" << IpProtoName(proto));
      // Round 1 runs with whatever pool state earlier tests left behind;
      // round 2 re-runs the identical scenario against a now-dirty pool whose
      // freelists hold round 1's retired (unzeroed-at-release) buffers.
      // Recycling must be invisible: identical byte streams both rounds.
      const auto first = RunContainmentRound(mode, proto);
      const auto second = RunContainmentRound(mode, proto);
      EXPECT_EQ(first, second) << "recycled pool buffers changed the bytes";
    }
  }
}

}  // namespace
}  // namespace potemkin
