// Gateway unit tests against a scripted fake backend (no real hypervisor), plus
// unit tests of the containment engine, recycler, scan detector and DNS proxy.
#include "src/gateway/gateway.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

namespace potemkin {
namespace {

const Ipv4Prefix kFarm(Ipv4Address(10, 1, 0, 0), 16);
const Ipv4Address kExternal(201, 7, 7, 7);

// A backend that completes spawns after a fixed virtual delay and records calls.
class FakeBackend : public GatewayBackend {
 public:
  FakeBackend(EventLoop* loop, size_t hosts, Duration clone_delay)
      : loop_(loop), hosts_(hosts), clone_delay_(clone_delay) {}

  size_t NumHosts() const override { return hosts_; }
  bool HostCanAdmit(HostId host) const override {
    return !exhausted_.count(host);
  }
  void SpawnVm(HostId host, Ipv4Address ip, SessionId,
               std::function<void(VmId)> done) override {
    ++spawns_;
    spawn_hosts_.push_back(host);
    loop_->ScheduleAfter(clone_delay_, [this, ip, done = std::move(done)]() {
      if (fail_spawns_) {
        done(kInvalidVm);
        return;
      }
      const VmId vm = next_vm_++;
      vm_ips_[vm] = ip;
      done(vm);
    });
  }
  void RetireVm(HostId, VmId vm) override {
    ++retires_;
    vm_ips_.erase(vm);
  }
  void DeliverToVm(HostId host, VmId vm, Packet packet,
                   const PacketView&) override {
    (void)host;
    loop_->ScheduleAfter(Duration::Micros(1), [this, vm, p = std::move(packet)]() {
      delivered_.emplace_back(vm, std::move(p));
    });
  }

  void ExhaustHost(HostId host) { exhausted_.insert(host); }
  void set_fail_spawns(bool fail) { fail_spawns_ = fail; }

  uint64_t spawns() const { return spawns_; }
  uint64_t retires() const { return retires_; }
  const std::vector<HostId>& spawn_hosts() const { return spawn_hosts_; }
  const std::vector<std::pair<VmId, Packet>>& delivered() const { return delivered_; }

 private:
  EventLoop* loop_;
  size_t hosts_;
  Duration clone_delay_;
  uint64_t spawns_ = 0;
  uint64_t retires_ = 0;
  bool fail_spawns_ = false;
  VmId next_vm_ = 100;
  std::vector<HostId> spawn_hosts_;
  std::map<VmId, Ipv4Address> vm_ips_;
  std::vector<std::pair<VmId, Packet>> delivered_;
  std::set<HostId> exhausted_;
};

Packet InboundSyn(Ipv4Address dst, uint16_t dport = 445,
                  Ipv4Address src = kExternal, uint16_t sport = 40000) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(9);
  spec.dst_mac = MacAddress::FromId(1);
  spec.src_ip = src;
  spec.dst_ip = dst;
  spec.proto = IpProto::kTcp;
  spec.src_port = sport;
  spec.dst_port = dport;
  spec.tcp_flags = TcpFlags::kSyn;
  return BuildPacket(spec);
}

struct GatewayFixture {
  EventLoop loop;
  FakeBackend backend;
  GatewayConfig config;
  std::unique_ptr<Gateway> gateway;
  std::vector<Packet> egress;

  explicit GatewayFixture(GatewayConfig cfg = {}, size_t hosts = 2,
                          Duration clone_delay = Duration::Millis(500))
      : backend(&loop, hosts, clone_delay), config(std::move(cfg)) {
    config.farm_prefix = kFarm;
    gateway = std::make_unique<Gateway>(&loop, config, &backend);
    gateway->set_egress_sink(
        [this](Packet p) { egress.push_back(std::move(p)); });
  }
};

TEST(GatewayTest, FirstPacketTriggersCloneAndQueues) {
  GatewayFixture fx;
  fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(5)));
  EXPECT_EQ(fx.backend.spawns(), 1u);
  EXPECT_EQ(fx.gateway->stats().clones_triggered, 1u);
  EXPECT_EQ(fx.gateway->stats().inbound_queued, 1u);
  const Binding* binding = fx.gateway->bindings().Find(kFarm.AddressAt(5));
  ASSERT_NE(binding, nullptr);
  EXPECT_EQ(binding->state, BindingState::kCloning);
  // After the clone delay the queued packet is delivered.
  fx.loop.RunAll();
  EXPECT_EQ(binding->state, BindingState::kActive);
  ASSERT_EQ(fx.backend.delivered().size(), 1u);
  EXPECT_EQ(fx.gateway->stats().inbound_delivered, 1u);
}

TEST(GatewayTest, SubsequentPacketsReuseBinding) {
  GatewayFixture fx;
  fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(5)));
  fx.loop.RunAll();
  fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(5)));
  fx.loop.RunAll();
  EXPECT_EQ(fx.backend.spawns(), 1u);  // no second clone
  EXPECT_EQ(fx.backend.delivered().size(), 2u);
}

TEST(GatewayTest, PacketsDuringCloningAllQueueAndFlush) {
  GatewayFixture fx;
  for (int i = 0; i < 5; ++i) {
    fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(9)));
  }
  EXPECT_EQ(fx.backend.spawns(), 1u);
  EXPECT_EQ(fx.gateway->stats().inbound_queued, 5u);
  fx.loop.RunAll();
  EXPECT_EQ(fx.backend.delivered().size(), 5u);
}

TEST(GatewayTest, DropWhileCloningAblation) {
  GatewayConfig config;
  config.queue_while_cloning = false;
  GatewayFixture fx(config);
  for (int i = 0; i < 3; ++i) {
    fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(9)));
  }
  fx.loop.RunAll();
  EXPECT_EQ(fx.backend.delivered().size(), 0u);
  EXPECT_EQ(fx.gateway->stats().inbound_dropped_cloning, 3u);
}

TEST(GatewayTest, PendingQueueCapEnforced) {
  GatewayFixture fx;
  // A cloning binding queues 64 packets; the rest are dropped.
  for (int i = 0; i < 67; ++i) {
    fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(9)));
  }
  EXPECT_EQ(fx.gateway->bindings().stats().pending_dropped, 3u);
  fx.loop.RunAll();
  EXPECT_EQ(fx.backend.delivered().size(), 64u);
}

TEST(GatewayTest, NonFarmInboundIgnored) {
  GatewayFixture fx;
  fx.gateway->HandleInbound(InboundSyn(Ipv4Address(8, 8, 8, 8)));
  EXPECT_EQ(fx.backend.spawns(), 0u);
  EXPECT_EQ(fx.gateway->stats().inbound_nonfarm, 1u);
}

TEST(GatewayTest, RoundRobinPlacementAlternates) {
  GatewayFixture fx;
  fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(1)));
  fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(2)));
  fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(3)));
  ASSERT_EQ(fx.backend.spawn_hosts().size(), 3u);
  EXPECT_EQ(fx.backend.spawn_hosts()[0], 0u);
  EXPECT_EQ(fx.backend.spawn_hosts()[1], 1u);
  EXPECT_EQ(fx.backend.spawn_hosts()[2], 0u);
}

TEST(GatewayTest, PlacementSkipsExhaustedHosts) {
  GatewayFixture fx;
  fx.backend.ExhaustHost(0);
  fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(1)));
  fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(2)));
  for (HostId host : fx.backend.spawn_hosts()) {
    EXPECT_EQ(host, 1u);
  }
}

TEST(GatewayTest, NoCapacityDropsCounted) {
  GatewayFixture fx;
  fx.backend.ExhaustHost(0);
  fx.backend.ExhaustHost(1);
  fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(1)));
  EXPECT_EQ(fx.backend.spawns(), 0u);
  EXPECT_EQ(fx.gateway->stats().no_capacity_drops, 1u);
  EXPECT_EQ(fx.gateway->bindings().size(), 0u);
}

TEST(GatewayTest, FailedCloneRemovesBinding) {
  GatewayFixture fx;
  fx.backend.set_fail_spawns(true);
  fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(1)));
  fx.loop.RunAll();
  EXPECT_EQ(fx.gateway->stats().clone_failures, 1u);
  EXPECT_EQ(fx.gateway->bindings().size(), 0u);
}

TEST(GatewayTest, RecyclerRetiresIdleVms) {
  GatewayConfig config;
  config.recycle.idle_timeout = Duration::Seconds(5);
  config.recycle.scan_interval = Duration::Seconds(1);
  GatewayFixture fx(config);
  fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(1)));
  fx.gateway->StartRecycling();
  fx.loop.RunFor(Duration::Seconds(10.0));
  EXPECT_EQ(fx.backend.retires(), 1u);
  EXPECT_EQ(fx.gateway->bindings().size(), 0u);
  EXPECT_EQ(fx.gateway->stats().vms_retired, 1u);
}

TEST(GatewayTest, ActivityDefersRecycling) {
  GatewayConfig config;
  config.recycle.idle_timeout = Duration::Seconds(5);
  config.recycle.scan_interval = Duration::Seconds(1);
  config.recycle.max_lifetime = Duration::Zero();
  GatewayFixture fx(config);
  fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(1)));
  fx.gateway->StartRecycling();
  // Keep poking every 3 seconds; VM must stay alive.
  for (int i = 1; i <= 4; ++i) {
    fx.loop.RunFor(Duration::Seconds(3.0));
    fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(1)));
  }
  EXPECT_EQ(fx.backend.retires(), 0u);
  fx.loop.RunFor(Duration::Seconds(10.0));
  EXPECT_EQ(fx.backend.retires(), 1u);
}

TEST(GatewayTest, MaxLifetimeCapsEvenActiveVms) {
  GatewayConfig config;
  config.recycle.idle_timeout = Duration::Seconds(100);
  config.recycle.max_lifetime = Duration::Seconds(8);
  config.recycle.scan_interval = Duration::Seconds(1);
  GatewayFixture fx(config);
  fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(1)));
  fx.gateway->StartRecycling();
  fx.loop.RunFor(Duration::Seconds(12.0));
  EXPECT_EQ(fx.backend.retires(), 1u);
}

// Every VM that sends while rate limiting is on gets a token bucket. The
// bucket must die with the VM, by failover or by sweep, or clone churn grows
// the containment engine by one entry per clone forever.
TEST(GatewayTest, RetiredVmsDropTheirRateLimitBuckets) {
  GatewayConfig config;
  config.containment.mode = OutboundMode::kDropAll;
  config.containment.rate_limit_pps = 10.0;
  config.recycle.idle_timeout = Duration::Seconds(5);
  GatewayFixture fx(config, /*hosts=*/2, /*clone_delay=*/Duration::Millis(1));
  constexpr uint32_t kVms = 6;
  for (uint32_t i = 0; i < kVms; ++i) {
    fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(i)));
  }
  fx.loop.RunAll();
  ASSERT_EQ(fx.backend.delivered().size(), kVms);
  for (const auto& [vm, packet] : fx.backend.delivered()) {
    const Ipv4Address vm_ip = PacketView::Parse(packet)->ip().dst;
    fx.gateway->HandleOutbound(
        0, vm, InboundSyn(Ipv4Address(77, 1, 2, 3), 135, vm_ip, 2000));
  }
  EXPECT_EQ(fx.gateway->containment().rate_limiter_count(), kVms);

  // Host 1 crashes (round-robin placed every other VM there)...
  EXPECT_EQ(fx.gateway->InvalidateHostBindings(1), kVms / 2);
  EXPECT_EQ(fx.gateway->containment().rate_limiter_count(), kVms / 2);
  // ...and the rest idle out at a sweep.
  fx.loop.RunFor(Duration::Seconds(10.0));
  EXPECT_EQ(fx.gateway->SweepOnce(), kVms / 2);
  EXPECT_EQ(fx.gateway->containment().rate_limiter_count(), 0u);
}

// The one decision the flow table serves: an outbound packet egresses as a
// response only on a flow an external peer opened; every other packet meets
// the containment policy.
TEST(GatewayTest, RespondsOnlyOnFlowsAnExternalPeerOpened) {
  Observability obs;
  GatewayConfig config;
  config.obs = &obs;
  config.containment.mode = OutboundMode::kDropAll;
  config.containment.allowed_ports = {80};
  config.recycle.idle_timeout = Duration::Minutes(10);
  GatewayFixture fx(config, /*hosts=*/1, /*clone_delay=*/Duration::Millis(1));
  const Ipv4Address vm_ip = kFarm.AddressAt(1);
  const Ipv4Address web(77, 1, 2, 3);
  const auto segment = [](Ipv4Address src, uint16_t sport, Ipv4Address dst,
                          uint16_t dport, uint8_t flags) {
    PacketSpec spec;
    spec.src_ip = src;
    spec.dst_ip = dst;
    spec.proto = IpProto::kTcp;
    spec.src_port = sport;
    spec.dst_port = dport;
    spec.tcp_flags = flags;
    return BuildPacket(spec);
  };
  const auto last_event = [&obs] { return obs.ledger.Events().back().type; };
  fx.gateway->HandleInbound(InboundSyn(vm_ip, 445, kExternal, 40000));
  fx.loop.RunAll();
  ASSERT_EQ(fx.backend.delivered().size(), 1u);
  const VmId vm = fx.backend.delivered()[0].first;

  // (a) The VM answers the peer that opened the flow: a response.
  fx.gateway->HandleOutbound(0, vm,
                             segment(vm_ip, 445, kExternal, 40000,
                                     TcpFlags::kSyn | TcpFlags::kAck));
  EXPECT_EQ(fx.egress.size(), 1u);
  EXPECT_EQ(fx.gateway->stats().responses_allowed_out, 1u);
  EXPECT_EQ(last_event(), LedgerEvent::kEgressResponse);

  // (b) The VM opens a flow through an allow-listed port and the peer
  // replies; the VM's next packet on that flow is classified again.
  fx.gateway->HandleOutbound(0, vm,
                             segment(vm_ip, 5000, web, 80, TcpFlags::kSyn));
  EXPECT_EQ(last_event(), LedgerEvent::kContainmentAllow);
  fx.gateway->HandleInbound(
      segment(web, 80, vm_ip, 5000, TcpFlags::kSyn | TcpFlags::kAck));
  fx.gateway->HandleOutbound(0, vm,
                             segment(vm_ip, 5000, web, 80, TcpFlags::kAck));
  EXPECT_EQ(last_event(), LedgerEvent::kContainmentAllow);
  EXPECT_EQ(fx.gateway->stats().responses_allowed_out, 1u);
  EXPECT_EQ(fx.egress.size(), 3u);

  // (c) Once (a)'s flow idles past the 2-minute flow timeout and a sweep
  // runs, the VM's next packet on it meets the drop-all policy instead.
  fx.loop.RunFor(Duration::Seconds(150.0));
  fx.gateway->SweepOnce();
  fx.gateway->HandleOutbound(
      0, vm, segment(vm_ip, 445, kExternal, 40000, TcpFlags::kAck));
  EXPECT_EQ(last_event(), LedgerEvent::kContainmentDrop);
  EXPECT_EQ(fx.gateway->stats().responses_allowed_out, 1u);
  EXPECT_EQ(fx.egress.size(), 3u);
}

}  // namespace
}  // namespace potemkin
