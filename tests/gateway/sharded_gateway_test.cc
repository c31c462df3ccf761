// ShardedGateway tests: ownership partitioning, session disjointness, the
// N=1 passthrough guarantee, cross-shard reflection handoff, farm-wide probe
// rollups, and the handoff rings (full-ring fallback, cut paths, teardown).
#include "src/gateway/sharded_gateway.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/gateway/containment.h"
#include "src/gateway/gateway.h"
#include "src/net/packet_pool.h"

namespace potemkin {
namespace {

const Ipv4Prefix kFarm(Ipv4Address(10, 1, 0, 0), 16);
const Ipv4Address kExternal(203, 0, 113, 50);

// Instant-spawn backend shared by every shard; records each delivery.
class InstantBackend : public GatewayBackend {
 public:
  size_t NumHosts() const override { return 4; }
  bool HostCanAdmit(HostId) const override { return true; }
  void SpawnVm(HostId, Ipv4Address ip, SessionId,
               std::function<void(VmId)> done) override {
    const VmId vm = next_vm_++;
    last_ip_for_vm_[vm] = ip;
    done(vm);
  }
  void RetireVm(HostId, VmId) override {}
  void DeliverToVm(HostId, VmId vm, Packet, const PacketView& view) override {
    ++delivered_;
    deliveries_.emplace_back(vm, view.ip().src);
    src_ports_.push_back(view.src_port());
  }
  uint64_t delivered() const { return delivered_; }
  // (vm, frame source address) per delivery, in delivery order.
  const std::vector<std::pair<VmId, Ipv4Address>>& deliveries() const {
    return deliveries_;
  }
  // L4 source port per delivery, in delivery order.
  const std::vector<uint16_t>& src_ports() const { return src_ports_; }
  void ClearDeliveries() {
    deliveries_.clear();
    src_ports_.clear();
  }

 private:
  VmId next_vm_ = 1;
  uint64_t delivered_ = 0;
  std::vector<std::pair<VmId, Ipv4Address>> deliveries_;
  std::vector<uint16_t> src_ports_;
  std::map<VmId, Ipv4Address> last_ip_for_vm_;
};

Packet InboundSyn(Ipv4Address dst, uint16_t sport = 40000,
                  Ipv4Address src = kExternal) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(9);
  spec.dst_mac = MacAddress::FromId(1);
  spec.src_ip = src;
  spec.dst_ip = dst;
  spec.proto = IpProto::kTcp;
  spec.src_port = sport;
  spec.dst_port = 445;
  spec.tcp_flags = TcpFlags::kSyn;
  return BuildPacket(spec);
}

Packet OutboundScan(Ipv4Address src, Ipv4Address dst, uint16_t sport) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(2);
  spec.dst_mac = MacAddress::FromId(1);
  spec.src_ip = src;
  spec.dst_ip = dst;
  spec.proto = IpProto::kTcp;
  spec.src_port = sport;
  spec.dst_port = 445;
  spec.tcp_flags = TcpFlags::kSyn;
  return BuildPacket(spec);
}

// Externals whose reflection from `scanner` lands on a victim that shard `to`
// owns: reflection is keyed by the external address, so a replica of the
// shards' containment engine predicts the victim.
std::vector<Ipv4Address> ExternalsReflectingTo(const ShardedGateway& gateway,
                                               Ipv4Address scanner,
                                               uint32_t to, size_t count) {
  ContainmentConfig config;
  config.mode = OutboundMode::kReflect;
  ContainmentEngine replica(config, kFarm, GatewayConfig{}.seed);
  std::vector<Ipv4Address> externals;
  for (uint32_t i = 0; externals.size() < count; ++i) {
    const Ipv4Address external(Ipv4Address(77, 0, 0, 0).value() + i);
    if (gateway.ShardOf(replica.ReflectTarget(external, scanner)) == to) {
      externals.push_back(external);
    }
  }
  return externals;
}

// The farm's one gateway shape: every shard on one loop, backend and
// Observability.
struct SharedFixture {
  EventLoop loop;
  InstantBackend backend;
  Observability obs;
  std::unique_ptr<ShardedGateway> gateway;

  explicit SharedFixture(uint32_t shards,
                         OutboundMode mode = OutboundMode::kDropAll) {
    ShardedGatewayConfig config;
    config.gateway.farm_prefix = kFarm;
    config.gateway.obs = &obs;
    config.gateway.containment.mode = mode;
    config.shard_count = shards;
    gateway = std::make_unique<ShardedGateway>(&loop, config, &backend);
  }
};

TEST(ShardedGatewayTest, PartitionsBindingsByAddressLowBits) {
  SharedFixture fx(4);
  for (uint32_t i = 0; i < 8; ++i) {
    fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(i)));
  }
  fx.loop.RunAll();
  EXPECT_EQ(fx.gateway->live_bindings(), 8u);
  for (uint32_t i = 0; i < 8; ++i) {
    const Ipv4Address ip = kFarm.AddressAt(i);
    const uint32_t owner = fx.gateway->ShardOf(ip);
    EXPECT_EQ(owner, i % 4);
    for (uint32_t s = 0; s < 4; ++s) {
      const Binding* binding = fx.gateway->shard(s).bindings().Find(ip);
      if (s == owner) {
        EXPECT_NE(binding, nullptr) << "shard " << s << " missing " << i;
      } else {
        EXPECT_EQ(binding, nullptr) << "shard " << s << " stole " << i;
      }
    }
  }
}

TEST(ShardedGatewayTest, SessionIdsAreDisjointAcrossShards) {
  SharedFixture fx(4);
  for (uint32_t i = 0; i < 16; ++i) {
    fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(i)));
  }
  fx.loop.RunAll();
  std::set<SessionId> sessions;
  for (uint32_t i = 0; i < 16; ++i) {
    const Ipv4Address ip = kFarm.AddressAt(i);
    const Binding* binding =
        fx.gateway->shard(fx.gateway->ShardOf(ip)).bindings().Find(ip);
    ASSERT_NE(binding, nullptr);
    // Shard s mints 1+s, 1+s+4, ...: the residue identifies the minting shard.
    EXPECT_EQ(binding->session % 4, (1 + fx.gateway->ShardOf(ip)) % 4);
    sessions.insert(binding->session);
  }
  EXPECT_EQ(sessions.size(), 16u);  // no collisions farm-wide
}

// With shard_count == 1 the facade must be a pure passthrough: same stats,
// same session ids, same metric names as a bare Gateway fed identically.
TEST(ShardedGatewayTest, SingleShardMatchesBareGateway) {
  EventLoop bare_loop;
  InstantBackend bare_backend;
  Observability bare_obs;
  GatewayConfig bare_config;
  bare_config.farm_prefix = kFarm;
  bare_config.obs = &bare_obs;
  Gateway bare(&bare_loop, bare_config, &bare_backend);

  SharedFixture fx(1);

  for (uint32_t i = 0; i < 12; ++i) {
    bare.HandleInbound(InboundSyn(kFarm.AddressAt(i * 7)));
    fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(i * 7)));
  }
  bare_loop.RunAll();
  fx.loop.RunAll();

  const GatewayStats& want = bare.stats();
  const GatewayStats got = fx.gateway->AggregateStats();
  EXPECT_EQ(got.inbound_packets, want.inbound_packets);
  EXPECT_EQ(got.inbound_delivered, want.inbound_delivered);
  EXPECT_EQ(got.clones_triggered, want.clones_triggered);
  EXPECT_EQ(got.handoffs_out, 0u);
  EXPECT_EQ(got.handoffs_in, 0u);
  for (uint32_t i = 0; i < 12; ++i) {
    const Ipv4Address ip = kFarm.AddressAt(i * 7);
    const Binding* a = bare.bindings().Find(ip);
    const Binding* b = fx.gateway->shard(0).bindings().Find(ip);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->session, b->session);
  }
  // Unsharded metric names, not the "gateway.s0." namespace.
  EXPECT_GT(fx.obs.metrics.ValueOf("gateway.rx.packets"), 0.0);
  EXPECT_EQ(fx.obs.metrics.ValueOf("gateway.s0.rx.packets"), 0.0);
}

TEST(ShardedGatewayTest, ReflectionHandsOffAcrossShards) {
  SharedFixture fx(4, OutboundMode::kReflect);
  // Bring up a "worm" VM on shard 3.
  const Ipv4Address worm_ip = kFarm.AddressAt(3);
  fx.gateway->HandleInbound(InboundSyn(worm_ip));
  fx.loop.RunAll();
  fx.gateway->NotifyInfected(worm_ip);

  // Scan out to many distinct externals: each scan reflects onto a pseudo-random
  // farm victim, ~3/4 of which live on another shard.
  for (uint16_t i = 0; i < 32; ++i) {
    fx.gateway->HandleOutbound(
        0, 1, OutboundScan(worm_ip, Ipv4Address(77, 1, i, 9),
                           static_cast<uint16_t>(30000 + i)));
  }
  fx.loop.RunAll();

  const GatewayStats stats = fx.gateway->AggregateStats();
  EXPECT_GT(stats.handoffs_out, 0u);
  EXPECT_EQ(stats.handoffs_in, stats.handoffs_out);  // nothing stuck in a ring
  EXPECT_EQ(stats.reflections_injected, 32u);
  // Every victim binding must live on the shard owning its address.
  size_t victims = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    Gateway& shard = fx.gateway->shard(s);
    shard.bindings().ForEach([&](const Binding& binding) {
      EXPECT_EQ(fx.gateway->ShardOf(binding.ip), s);
      ++victims;
    });
  }
  EXPECT_GT(victims, 1u);  // worm + at least one reflected victim
}

// The reply half of the reflection illusion: a victim on another shard
// answers the reflected scan, and its reply must reach the worm impersonating
// the external address the reflection replaced — which requires the
// reverse-NAT entry to live on the *victim's* shard (replies shard by
// source), not the scanner's shard that classified the outbound packet.
TEST(ShardedGatewayTest, ReflectedReplyRewritesSourceAcrossShards) {
  SharedFixture fx(4, OutboundMode::kReflect);
  const Ipv4Address worm_ip = kFarm.AddressAt(3);
  fx.gateway->HandleInbound(InboundSyn(worm_ip));
  fx.loop.RunAll();
  fx.gateway->NotifyInfected(worm_ip);
  for (uint16_t i = 0; i < 32; ++i) {
    fx.gateway->HandleOutbound(
        0, 1, OutboundScan(worm_ip, Ipv4Address(77, 1, static_cast<uint8_t>(i), 9),
                           static_cast<uint16_t>(30000 + i)));
  }
  fx.loop.RunAll();

  // Pick a reflected victim that landed on a different shard than the worm:
  // the worm's is the only binding inbound traffic created, so every binding
  // off its shard came from a reflected scan.
  const uint32_t worm_shard = fx.gateway->ShardOf(worm_ip);
  const Binding* victim = nullptr;
  for (uint32_t s = 0; s < 4 && victim == nullptr; ++s) {
    if (s == worm_shard) {
      continue;
    }
    fx.gateway->shard(s).bindings().ForEach([&](const Binding& binding) {
      if (victim == nullptr && binding.state == BindingState::kActive) {
        victim = &binding;
      }
    });
  }
  ASSERT_NE(victim, nullptr);  // 32 scans, ~3/4 cross-shard: must exist

  fx.backend.ClearDeliveries();
  fx.gateway->HandleOutbound(
      victim->host, victim->vm,
      OutboundScan(victim->ip, worm_ip, /*sport=*/445));
  fx.loop.RunAll();

  ASSERT_EQ(fx.backend.deliveries().size(), 1u);
  const auto& [vm, reply_src] = fx.backend.deliveries()[0];
  EXPECT_EQ(vm, 1u);  // the worm's VM received the reply
  // Impersonation held: the source is one of the scanned externals, never the
  // victim's internal farm address.
  EXPECT_FALSE(kFarm.Contains(reply_src));
  EXPECT_EQ(reply_src.value() >> 16, (77u << 8) | 1u);
}

// Sharding divides a spraying source's distinct destinations across shards;
// the per-shard detector threshold is rescaled so farm-wide flagging latency
// stays comparable to an unsharded gateway.
TEST(ShardedGatewayTest, ScanThresholdRescalesWithShardCount) {
  SharedFixture fx(4);
  // Default farm-wide threshold 8 -> 2 per shard.
  EXPECT_EQ(fx.gateway->shard(0).config().scan_detector.distinct_threshold, 2u);
  // One source spraying 8 distinct addresses (2 per shard) is flagged, just
  // as it would be at threshold 8 unsharded.
  for (uint32_t i = 0; i < 8; ++i) {
    fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(i)));
  }
  fx.loop.RunAll();
  bool flagged = false;
  for (uint32_t s = 0; s < 4; ++s) {
    flagged = flagged || fx.gateway->shard(s).scan_detector().IsScanner(kExternal);
  }
  EXPECT_TRUE(flagged);
}

TEST(ShardedGatewayTest, AggregateProbesKeepFarmWideNames) {
  SharedFixture fx(4);
  for (uint32_t i = 0; i < 8; ++i) {
    fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(i)));
  }
  fx.loop.RunAll();
  // Farm-wide rollups under the unsharded names (what the watchdog rules use),
  // backed by per-shard probes under "gateway.s<i>.".
  EXPECT_EQ(fx.obs.metrics.ValueOf("gateway.bindings.live"), 8.0);
  EXPECT_EQ(fx.obs.metrics.ValueOf("gateway.s0.bindings.live"), 2.0);
  EXPECT_EQ(fx.obs.metrics.ValueOf("gateway.s3.bindings.live"), 2.0);
  EXPECT_EQ(fx.obs.metrics.ValueOf("gateway.containment.allowed") +
                fx.obs.metrics.ValueOf("gateway.containment.dropped"),
            fx.obs.metrics.ValueOf("gateway.containment.allowed"));
}

// The reflect-NAT size probe: per shard under "gateway.s<i>.", rolled up
// farm-wide, and back to 0 once every victim is retired and one sweep has
// run, which machine-checks that reflect-NAT memory is bounded by the live
// victims rather than by the reflections ever made.
TEST(ShardedGatewayTest, ReflectNatEntriesRollUpAndDrainAfterSweep) {
  SharedFixture fx(4, OutboundMode::kReflect);
  const Ipv4Address worm_ip = kFarm.AddressAt(3);
  fx.gateway->HandleInbound(InboundSyn(worm_ip));
  fx.loop.RunAll();
  for (uint16_t i = 0; i < 32; ++i) {
    fx.gateway->HandleOutbound(
        0, 1, OutboundScan(worm_ip, Ipv4Address(77, 1, static_cast<uint8_t>(i), 9),
                           static_cast<uint16_t>(30000 + i)));
  }
  fx.loop.RunAll();
  const auto shard_sum = [&] {
    double sum = 0.0;
    for (uint32_t s = 0; s < 4; ++s) {
      sum += fx.obs.metrics.ValueOf("gateway.s" + std::to_string(s) +
                                    ".reflect_nat.entries");
    }
    return sum;
  };
  const double installed = shard_sum();
  EXPECT_GT(installed, 16.0);  // one pair per distinct victim of 32 scans
  EXPECT_EQ(fx.obs.metrics.ValueOf("gateway.reflect_nat.entries"), installed);

  // Mappings outlive their victims' bindings until the next sweep.
  for (HostId host = 0; host < 4; ++host) {
    fx.gateway->RetireHostBindings(host);
  }
  EXPECT_EQ(fx.gateway->live_bindings(), 0u);
  EXPECT_EQ(fx.obs.metrics.ValueOf("gateway.reflect_nat.entries"), installed);
  fx.gateway->SweepOnce();
  EXPECT_EQ(shard_sum(), 0.0);
  EXPECT_EQ(fx.obs.metrics.ValueOf("gateway.reflect_nat.entries"), 0.0);
}

// A cut handoff ring stalls cross-shard traffic without losing it (until the
// ring fills): healing the partition lets the queued handoffs flow.
TEST(ShardedGatewayTest, HandoffPartitionStallsThenHeals) {
  SharedFixture fx(4, OutboundMode::kReflect);
  const Ipv4Address worm_ip = kFarm.AddressAt(3);
  fx.gateway->HandleInbound(InboundSyn(worm_ip));
  fx.loop.RunAll();
  fx.gateway->NotifyInfected(worm_ip);

  const uint32_t worm_shard = fx.gateway->ShardOf(worm_ip);
  for (uint32_t to = 0; to < 4; ++to) {
    if (to != worm_shard) {
      fx.gateway->SetHandoffPartition(worm_shard, to, true);
    }
  }
  for (uint16_t i = 0; i < 32; ++i) {
    fx.gateway->HandleOutbound(
        0, 1, OutboundScan(worm_ip, Ipv4Address(77, 2, static_cast<uint8_t>(i), 9),
                           static_cast<uint16_t>(31000 + i)));
  }
  fx.loop.RunAll();
  const GatewayStats cut = fx.gateway->AggregateStats();
  // Cross-shard reflections stayed stuck in the rings.
  EXPECT_GT(cut.handoffs_out, cut.handoffs_in);

  for (uint32_t to = 0; to < 4; ++to) {
    if (to != worm_shard) {
      fx.gateway->SetHandoffPartition(worm_shard, to, false);
    }
  }
  fx.gateway->PumpHandoffs();
  fx.loop.RunAll();
  const GatewayStats healed = fx.gateway->AggregateStats();
  EXPECT_EQ(healed.handoffs_in, healed.handoffs_out);
  EXPECT_EQ(fx.gateway->partition_drops(), 0u);  // ring never filled
}

// Where an infected VM runs: what its reflected scans are sent from.
struct Worm {
  HostId host = 0;
  VmId vm = kInvalidVm;
};

// Brings up an infected VM at `worm_ip`.
Worm StartWorm(SharedFixture& fx, Ipv4Address worm_ip) {
  fx.gateway->HandleInbound(InboundSyn(worm_ip));
  fx.loop.RunAll();
  fx.gateway->NotifyInfected(worm_ip);
  const Binding* binding =
      fx.gateway->shard(fx.gateway->ShardOf(worm_ip)).bindings().Find(worm_ip);
  return binding == nullptr ? Worm{} : Worm{binding->host, binding->vm};
}

// Scan number `i`: its source port carries `i`, so delivery order is visible.
Packet NumberedScan(Ipv4Address worm_ip, Ipv4Address external, size_t i) {
  return OutboundScan(worm_ip, external, static_cast<uint16_t>(10000 + i));
}

void ExpectDeliveredInScanOrder(const InstantBackend& backend, size_t count) {
  ASSERT_EQ(backend.src_ports().size(), count);
  for (size_t i = 0; i < count; ++i) {
    ASSERT_EQ(backend.src_ports()[i], 10000 + i) << "delivery " << i;
  }
}

// A push that finds its ring full on an open path drains the consumer's inbox
// first and then enqueues, so the packet keeps its per-pair FIFO place. A cut
// fills the ring without anything draining it; healing without a pump leaves
// it full for the next push. Direct shard calls drive every handoff.
TEST(ShardedGatewayTest, FullRingFallbackDrainsAndPreservesDelivery) {
  constexpr size_t kCapacity = ShardedGateway::kHandoffRingCapacity;
  constexpr size_t kScans = kCapacity + 64;
  SharedFixture fx(2, OutboundMode::kReflect);
  const Ipv4Address worm_ip = kFarm.AddressAt(3);
  const Worm worm = StartWorm(fx, worm_ip);
  ASSERT_NE(worm.vm, kInvalidVm);
  const uint32_t from = fx.gateway->ShardOf(worm_ip);
  const uint32_t to = 1 - from;
  const std::vector<Ipv4Address> externals =
      ExternalsReflectingTo(*fx.gateway, worm_ip, to, kScans);
  Gateway& worm_shard = fx.gateway->shard(from);
  fx.backend.ClearDeliveries();

  fx.gateway->SetHandoffPartition(from, to, true);
  for (size_t i = 0; i < kCapacity; ++i) {
    worm_shard.HandleOutbound(worm.host, worm.vm,
                              NumberedScan(worm_ip, externals[i], i));
  }
  fx.gateway->SetHandoffPartition(from, to, false);
  EXPECT_EQ(fx.gateway->AggregateStats().handoffs_in, 0u);
  EXPECT_TRUE(fx.backend.src_ports().empty());

  for (size_t i = kCapacity; i < kScans; ++i) {
    worm_shard.HandleOutbound(worm.host, worm.vm,
                              NumberedScan(worm_ip, externals[i], i));
  }
  const GatewayStats stats = fx.gateway->AggregateStats();
  EXPECT_EQ(stats.reflections_injected, kScans);
  EXPECT_EQ(stats.handoffs_out, kScans);
  EXPECT_EQ(stats.handoffs_in, kScans);  // none lost or stuck
  EXPECT_EQ(fx.gateway->partition_drops(), 0u);
  ExpectDeliveredInScanOrder(fx.backend, kScans);
}

// Once a cut path's ring is full, each further handoff across the cut is
// dropped, counted, and its frame recycled. Healing delivers exactly the
// stalled ring, in per-pair FIFO order.
TEST(ShardedGatewayTest, CutPathOverflowDropsAndHealingDeliversTheRing) {
  constexpr size_t kCapacity = ShardedGateway::kHandoffRingCapacity;
  constexpr size_t kDropped = 5;
  SharedFixture fx(2, OutboundMode::kReflect);
  const Ipv4Address worm_ip = kFarm.AddressAt(3);
  const Worm worm = StartWorm(fx, worm_ip);
  ASSERT_NE(worm.vm, kInvalidVm);
  const uint32_t from = fx.gateway->ShardOf(worm_ip);
  const uint32_t to = 1 - from;
  const std::vector<Ipv4Address> externals =
      ExternalsReflectingTo(*fx.gateway, worm_ip, to, kCapacity + kDropped);
  fx.backend.ClearDeliveries();

  fx.gateway->SetHandoffPartition(from, to, true);
  for (size_t i = 0; i < kCapacity; ++i) {
    fx.gateway->HandleOutbound(worm.host, worm.vm,
                               NumberedScan(worm_ip, externals[i], i));
  }
  EXPECT_EQ(fx.gateway->partition_drops(), 0u);
  std::vector<Packet> overflow;
  for (size_t i = kCapacity; i < kCapacity + kDropped; ++i) {
    overflow.push_back(NumberedScan(worm_ip, externals[i], i));
  }
  const PacketPool::Stats before = PacketPool::Default().stats();
  for (Packet& packet : overflow) {
    fx.gateway->HandleOutbound(worm.host, worm.vm, std::move(packet));
  }
  const PacketPool::Stats after = PacketPool::Default().stats();
  EXPECT_EQ(fx.gateway->partition_drops(), kDropped);
  // Every dropped frame went back to the pool it was built from.
  EXPECT_EQ(after.releases - before.releases, kDropped);
  EXPECT_EQ(after.acquires, before.acquires);
  const GatewayStats cut = fx.gateway->AggregateStats();
  EXPECT_EQ(cut.handoffs_out, kCapacity + kDropped);
  EXPECT_EQ(cut.handoffs_in, 0u);
  EXPECT_TRUE(fx.backend.src_ports().empty());

  fx.gateway->SetHandoffPartition(from, to, false);
  EXPECT_EQ(fx.gateway->PumpHandoffs(), kCapacity);
  EXPECT_EQ(fx.gateway->AggregateStats().handoffs_in, kCapacity);
  ExpectDeliveredInScanOrder(fx.backend, kCapacity);
}

// Tearing the facade down with handoffs still queued behind a cut recycles
// their frames (the sanitizer build catches a use-after-free or leak here).
TEST(ShardedGatewayTest, DestructionWithQueuedHandoffsIsSafe) {
  SharedFixture fx(4, OutboundMode::kReflect);
  const Ipv4Address worm_ip = kFarm.AddressAt(3);
  const Worm worm = StartWorm(fx, worm_ip);
  ASSERT_NE(worm.vm, kInvalidVm);
  const uint32_t worm_shard = fx.gateway->ShardOf(worm_ip);
  for (uint32_t to = 0; to < 4; ++to) {
    if (to != worm_shard) {
      fx.gateway->SetHandoffPartition(worm_shard, to, true);
    }
  }
  for (uint16_t i = 0; i < 16; ++i) {
    fx.gateway->HandleOutbound(
        worm.host, worm.vm,
        OutboundScan(worm_ip, Ipv4Address(77, 3, static_cast<uint8_t>(i), 9),
                     static_cast<uint16_t>(32000 + i)));
  }
  const GatewayStats stats = fx.gateway->AggregateStats();
  const uint64_t queued = stats.handoffs_out - stats.handoffs_in;
  ASSERT_GT(queued, 0u);
  const PacketPool::Stats before = PacketPool::Default().stats();
  fx.gateway.reset();
  EXPECT_EQ(PacketPool::Default().stats().releases - before.releases, queued);
}

TEST(ShardedGatewayTest, ShardCountMustBePowerOfTwo) {
  EXPECT_DEATH(
      {
        EventLoop loop;
        InstantBackend backend;
        ShardedGatewayConfig config;
        config.gateway.farm_prefix = kFarm;
        config.shard_count = 3;
        ShardedGateway gateway(&loop, config, &backend);
      },
      "power of two");
}

}  // namespace
}  // namespace potemkin
