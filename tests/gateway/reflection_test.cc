// Focused gateway-level tests of reflection and its NAT bookkeeping, using the
// same scripted fake backend as gateway_unit_test: the reflect/reply round
// trip, the reverse-NAT lifetime rule (a victim's mappings die at the first
// sweep that finds it unbound), queued installs that no reader can tell from
// installs made at once, and a seeded differential run against a std::map
// model of that rule at 1 and 2 shards.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/gateway/gateway.h"
#include "src/gateway/sharded_gateway.h"

namespace potemkin {
namespace {

const Ipv4Prefix kFarm(Ipv4Address(10, 1, 0, 0), 16);
const Ipv4Address kExternalPeer(203, 0, 113, 50);

class ScriptedBackend : public GatewayBackend {
 public:
  explicit ScriptedBackend(EventLoop* loop, size_t hosts = 1)
      : loop_(loop), hosts_(hosts) {}

  size_t NumHosts() const override { return hosts_; }
  bool HostCanAdmit(HostId) const override { return admit_; }
  void SpawnVm(HostId, Ipv4Address ip, SessionId, std::function<void(VmId)> done) override {
    const VmId vm = next_vm_++;
    vm_by_ip_[ip.value()] = vm;
    done(vm);  // instant clone
  }
  void RetireVm(HostId, VmId) override {}
  void DeliverToVm(HostId, VmId vm, Packet packet,
                   const PacketView&) override {
    loop_->ScheduleAfter(Duration::Micros(1), [this, vm, p = std::move(packet)]() {
      delivered_.emplace_back(vm, std::move(p));
    });
  }

  VmId VmFor(Ipv4Address ip) const {
    auto it = vm_by_ip_.find(ip.value());
    return it == vm_by_ip_.end() ? kInvalidVm : it->second;
  }
  const std::vector<std::pair<VmId, Packet>>& delivered() const { return delivered_; }
  void ClearDelivered() { delivered_.clear(); }
  void set_admit(bool admit) { admit_ = admit; }

 private:
  EventLoop* loop_;
  size_t hosts_;
  bool admit_ = true;
  VmId next_vm_ = 1;
  std::map<uint32_t, VmId> vm_by_ip_;
  std::vector<std::pair<VmId, Packet>> delivered_;
};

Packet Tcp(Ipv4Address src, Ipv4Address dst, uint16_t sport, uint16_t dport,
           uint8_t flags, std::vector<uint8_t> payload = {}) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(2);
  spec.dst_mac = MacAddress::FromId(1);
  spec.src_ip = src;
  spec.dst_ip = dst;
  spec.proto = IpProto::kTcp;
  spec.src_port = sport;
  spec.dst_port = dport;
  spec.tcp_flags = flags;
  spec.payload = std::move(payload);
  return BuildPacket(spec);
}

struct ReflectionFixture {
  EventLoop loop;
  ScriptedBackend backend;
  Observability obs;
  GatewayConfig config;
  std::unique_ptr<Gateway> gateway;
  std::vector<Packet> egress;
  Ipv4Address worm_ip;
  VmId worm_vm = kInvalidVm;

  // Round-robin placement puts the worm on host 0 and, with two hosts, the
  // first reflected victim on host 1.
  explicit ReflectionFixture(size_t hosts = 1, Ipv4Prefix farm = kFarm,
                             uint32_t worm_index = 3)
      : backend(&loop, hosts), worm_ip(farm.AddressAt(worm_index)) {
    config.farm_prefix = farm;
    config.containment.mode = OutboundMode::kReflect;
    config.obs = &obs;
    gateway = std::make_unique<Gateway>(&loop, config, &backend);
    gateway->set_egress_sink([this](Packet p) { egress.push_back(std::move(p)); });
    // Bring up the "worm" VM with one inbound probe.
    gateway->HandleInbound(
        Tcp(kExternalPeer, worm_ip, 40000, 445, TcpFlags::kSyn));
    loop.RunAll();
    worm_vm = backend.VmFor(worm_ip);
    backend.ClearDelivered();
  }

  // The worm scans `external`; returns the farm victim it was reflected onto.
  Ipv4Address Scan(Ipv4Address external) {
    gateway->HandleOutbound(0, worm_vm,
                            Tcp(worm_ip, external, 2000, 135, TcpFlags::kSyn));
    loop.RunAll();
    EXPECT_EQ(backend.delivered().size(), 1u);
    const Ipv4Address victim =
        backend.delivered().empty()
            ? Ipv4Address()
            : PacketView::Parse(backend.delivered()[0].second)->ip().dst;
    backend.ClearDelivered();
    return victim;
  }

  // `victim` answers the worm; returns the source the worm sees.
  Ipv4Address ReplySource(Ipv4Address victim) {
    gateway->HandleOutbound(0, backend.VmFor(victim),
                            Tcp(victim, worm_ip, 135, 2000,
                                TcpFlags::kSyn | TcpFlags::kAck));
    loop.RunAll();
    EXPECT_EQ(backend.delivered().size(), 1u);
    const Ipv4Address source =
        backend.delivered().empty()
            ? Ipv4Address()
            : PacketView::Parse(backend.delivered()[0].second)->ip().src;
    backend.ClearDelivered();
    return source;
  }
};

TEST(ReflectionTest, OutboundScanIsRewrittenIntoTheFarm) {
  ReflectionFixture fx;
  const Ipv4Address external_target(77, 1, 2, 3);
  fx.gateway->HandleOutbound(0, fx.worm_vm,
                             Tcp(fx.worm_ip, external_target, 2000, 135,
                                 TcpFlags::kSyn));
  fx.loop.RunAll();
  EXPECT_TRUE(fx.egress.empty());
  ASSERT_EQ(fx.backend.delivered().size(), 1u);
  const auto view = PacketView::Parse(fx.backend.delivered()[0].second);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(kFarm.Contains(view->ip().dst));         // rewritten into the farm
  EXPECT_NE(view->ip().dst, fx.worm_ip);               // never onto itself
  EXPECT_EQ(view->ip().src, fx.worm_ip);               // source preserved
  EXPECT_TRUE(ValidateChecksums(fx.backend.delivered()[0].second));
  // Reflection late-binds the victim.
  EXPECT_NE(fx.gateway->bindings().Find(view->ip().dst), nullptr);
}

TEST(ReflectionTest, VictimReplyIsSourceNattedBackToExternalAddress) {
  ReflectionFixture fx;
  const Ipv4Address external_target(77, 1, 2, 3);
  fx.gateway->HandleOutbound(0, fx.worm_vm,
                             Tcp(fx.worm_ip, external_target, 2000, 135,
                                 TcpFlags::kSyn));
  fx.loop.RunAll();
  const auto reflected = PacketView::Parse(fx.backend.delivered()[0].second);
  const Ipv4Address victim_ip = reflected->ip().dst;
  const VmId victim_vm = fx.backend.VmFor(victim_ip);
  fx.backend.ClearDelivered();

  // Victim answers the worm; the gateway must rewrite src victim -> external,
  // though the reflection's install is still queued.
  fx.gateway->HandleOutbound(0, victim_vm,
                             Tcp(victim_ip, fx.worm_ip, 135, 2000,
                                 TcpFlags::kSyn | TcpFlags::kAck));
  fx.loop.RunAll();
  ASSERT_EQ(fx.backend.delivered().size(), 1u);
  EXPECT_EQ(fx.backend.delivered()[0].first, fx.worm_vm);
  const auto reply = PacketView::Parse(fx.backend.delivered()[0].second);
  EXPECT_EQ(reply->ip().src, external_target);  // the lie that preserves fidelity
  EXPECT_EQ(reply->ip().dst, fx.worm_ip);
  EXPECT_TRUE(ValidateChecksums(fx.backend.delivered()[0].second));
  EXPECT_TRUE(fx.egress.empty());
}

TEST(ReflectionTest, KeyedReflectionIsStablePerExternalTarget) {
  ReflectionFixture fx;
  const Ipv4Address external_target(77, 1, 2, 3);
  for (int i = 0; i < 3; ++i) {
    fx.gateway->HandleOutbound(0, fx.worm_vm,
                               Tcp(fx.worm_ip, external_target,
                                   static_cast<uint16_t>(2000 + i), 135,
                                   TcpFlags::kSyn));
  }
  fx.loop.RunAll();
  ASSERT_EQ(fx.backend.delivered().size(), 3u);
  const Ipv4Address first =
      PacketView::Parse(fx.backend.delivered()[0].second)->ip().dst;
  for (const auto& [vm, packet] : fx.backend.delivered()) {
    EXPECT_EQ(PacketView::Parse(packet)->ip().dst, first);
  }
  // Only one victim VM was created for three packets.
  EXPECT_EQ(fx.gateway->stats().clones_triggered, 2u);  // worm + one victim
}

TEST(ReflectionTest, FollowUpToSameExternalTargetDoesNotEscape) {
  // Regression for the NAT/flow-table containment hole: after the victim's
  // NATted reply, more packets to the external target must still reflect.
  ReflectionFixture fx;
  const Ipv4Address external_target(77, 1, 2, 3);
  fx.gateway->HandleOutbound(0, fx.worm_vm,
                             Tcp(fx.worm_ip, external_target, 2000, 135,
                                 TcpFlags::kSyn));
  fx.loop.RunAll();
  const Ipv4Address victim_ip =
      PacketView::Parse(fx.backend.delivered()[0].second)->ip().dst;
  const VmId victim_vm = fx.backend.VmFor(victim_ip);
  fx.gateway->HandleOutbound(0, victim_vm,
                             Tcp(victim_ip, fx.worm_ip, 135, 2000,
                                 TcpFlags::kSyn | TcpFlags::kAck));
  fx.loop.RunAll();
  fx.backend.ClearDelivered();

  // The worm now sends the exploit payload to the external target.
  fx.gateway->HandleOutbound(
      0, fx.worm_vm,
      Tcp(fx.worm_ip, external_target, 2000, 135, TcpFlags::kAck | TcpFlags::kPsh,
          {'E', 'V', 'I', 'L'}));
  fx.loop.RunAll();
  EXPECT_TRUE(fx.egress.empty()) << "exploit escaped to the Internet";
  ASSERT_EQ(fx.backend.delivered().size(), 1u);
  const auto view = PacketView::Parse(fx.backend.delivered()[0].second);
  EXPECT_EQ(view->ip().dst, victim_ip);
  EXPECT_EQ(view->l4_payload().size(), 4u);
}

TEST(ReflectionTest, ResponsesToRealProbersStillPass) {
  ReflectionFixture fx;
  // The honeypot answers its original external prober: must go out, not reflect.
  fx.gateway->HandleOutbound(0, fx.worm_vm,
                             Tcp(fx.worm_ip, kExternalPeer, 445, 40000,
                                 TcpFlags::kSyn | TcpFlags::kAck));
  fx.loop.RunAll();
  ASSERT_EQ(fx.egress.size(), 1u);
  EXPECT_EQ(PacketView::Parse(fx.egress[0])->ip().dst, kExternalPeer);
  EXPECT_EQ(fx.gateway->stats().responses_allowed_out, 1u);
}

TEST(ReflectionTest, RandomReflectionSpreadsVictims) {
  EventLoop loop;
  ScriptedBackend backend(&loop);
  GatewayConfig config;
  config.farm_prefix = kFarm;
  config.containment.mode = OutboundMode::kReflect;
  config.containment.keyed_reflection = false;
  Gateway gateway(&loop, config, &backend);
  gateway.HandleInbound(Tcp(kExternalPeer, kFarm.AddressAt(3), 40000, 445,
                            TcpFlags::kSyn));
  loop.RunAll();
  const VmId worm_vm = backend.VmFor(kFarm.AddressAt(3));
  backend.ClearDelivered();
  for (int i = 0; i < 5; ++i) {
    gateway.HandleOutbound(0, worm_vm,
                           Tcp(kFarm.AddressAt(3), Ipv4Address(77, 1, 2, 3),
                               static_cast<uint16_t>(3000 + i), 135,
                               TcpFlags::kSyn));
  }
  loop.RunAll();
  std::set<uint32_t> victims;
  for (const auto& [vm, packet] : backend.delivered()) {
    victims.insert(PacketView::Parse(packet)->ip().dst.value());
  }
  EXPECT_GE(victims.size(), 4u);  // random mode scatters
}

// ---- Reverse-NAT lifetime ----
//
// A victim's mappings die at the first sweep that finds it without a binding,
// not when the binding goes: until then its replies keep impersonating the
// external, and a victim bound again before the sweep keeps them all.

TEST(ReflectionNatLifetimeTest, RetiredVictimRewritesUntilTheNextSweep) {
  ReflectionFixture fx(/*hosts=*/2);
  const Ipv4Address external(77, 1, 2, 3);
  const Ipv4Address victim = fx.Scan(external);
  ASSERT_NE(fx.gateway->bindings().Find(victim), nullptr);
  ASSERT_EQ(fx.gateway->bindings().Find(victim)->host, 1u);
  EXPECT_EQ(fx.gateway->RetireHostBindings(1), 1u);
  ASSERT_EQ(fx.gateway->bindings().Find(victim), nullptr);
  EXPECT_EQ(fx.ReplySource(victim), external);
  EXPECT_EQ(fx.gateway->reflect_nat_entries(), 1u);

  fx.gateway->SweepOnce();
  EXPECT_EQ(fx.gateway->reflect_nat_entries(), 0u);
  EXPECT_EQ(fx.ReplySource(victim), victim);
}

TEST(ReflectionNatLifetimeTest, VictimBoundAgainBeforeTheSweepKeepsItsMappings) {
  ReflectionFixture fx(/*hosts=*/2);
  const Ipv4Address external(77, 1, 2, 3);
  const Ipv4Address victim = fx.Scan(external);
  EXPECT_EQ(fx.gateway->InvalidateHostBindings(1), 1u);  // its host crashed
  ASSERT_EQ(fx.gateway->bindings().Find(victim), nullptr);
  fx.gateway->HandleInbound(
      Tcp(kExternalPeer, victim, 40001, 445, TcpFlags::kSyn));
  fx.loop.RunAll();
  fx.backend.ClearDelivered();
  ASSERT_NE(fx.gateway->bindings().Find(victim), nullptr);

  fx.gateway->SweepOnce();
  EXPECT_EQ(fx.gateway->reflect_nat_entries(), 1u);
  EXPECT_EQ(fx.ReplySource(victim), external);
}

TEST(ReflectionNatLifetimeTest, MappingInstalledWhileUnboundDiesAtTheNextSweep) {
  ReflectionFixture fx;
  const Ipv4Address external(77, 1, 2, 3);
  ContainmentEngine replica(fx.config.containment, kFarm, fx.config.seed);
  const Ipv4Address victim = replica.ReflectTarget(external, fx.worm_ip);
  // No host admits the victim: the scan is dropped for lack of capacity, but
  // the reverse-NAT mapping is installed before the binding lookup.
  fx.backend.set_admit(false);
  fx.gateway->HandleOutbound(0, fx.worm_vm,
                             Tcp(fx.worm_ip, external, 2000, 135,
                                 TcpFlags::kSyn));
  fx.loop.RunAll();
  EXPECT_TRUE(fx.backend.delivered().empty());
  EXPECT_EQ(fx.gateway->stats().no_capacity_drops, 1u);
  ASSERT_EQ(fx.gateway->bindings().Find(victim), nullptr);
  EXPECT_EQ(fx.gateway->reflect_nat_entries(), 1u);
  EXPECT_EQ(fx.ReplySource(victim), external);

  fx.backend.set_admit(true);
  fx.gateway->SweepOnce();
  EXPECT_EQ(fx.gateway->reflect_nat_entries(), 0u);
  EXPECT_EQ(fx.ReplySource(victim), victim);
}

TEST(ReflectionNatLifetimeTest, LastWriteWinsWhenTwoExternalsReflectOntoOnePair) {
  ReflectionFixture fx;
  // Two externals the keyed reflection hash sends to the same victim.
  ContainmentEngine replica(fx.config.containment, kFarm, fx.config.seed);
  std::map<uint32_t, Ipv4Address> by_victim;
  Ipv4Address first;
  Ipv4Address second;
  for (uint32_t i = 0; i < (1u << 20) && second.value() == 0; ++i) {
    const Ipv4Address external(0x4d000000u + i);  // 77.0.0.0 + i
    const auto [it, fresh] = by_victim.emplace(
        replica.ReflectTarget(external, fx.worm_ip).value(), external);
    if (!fresh) {
      first = it->second;
      second = external;
    }
  }
  ASSERT_NE(second.value(), 0u);

  // Both installs wait in one batch: no reader runs between the two scans.
  const Ipv4Address victim = fx.Scan(first);
  EXPECT_EQ(fx.Scan(second), victim);
  EXPECT_EQ(fx.ReplySource(victim), second);
  EXPECT_EQ(fx.Scan(first), victim);
  EXPECT_EQ(fx.ReplySource(victim), first);
  EXPECT_EQ(fx.gateway->reflect_nat_entries(), 1u);
}

// The scanner is whatever source the worm VM claims and the external is any
// address outside the farm, so neither may double as a vacant-cell marker:
// a worm at 0.0.0.0 scanning the top of the address space round-trips.
TEST(ReflectionNatLifetimeTest, ExtremeScannerAndExternalAddressesRoundTrip) {
  ReflectionFixture fx(/*hosts=*/1, Ipv4Prefix(Ipv4Address(0, 0, 0, 0), 16),
                       /*worm_index=*/0);
  ASSERT_EQ(fx.worm_ip.value(), 0u);
  ASSERT_NE(fx.worm_vm, kInvalidVm);
  const Ipv4Address top(255, 255, 255, 255);
  const Ipv4Address below(255, 255, 255, 254);
  const Ipv4Address top_victim = fx.Scan(top);
  EXPECT_EQ(fx.ReplySource(top_victim), top);
  const Ipv4Address below_victim = fx.Scan(below);
  EXPECT_EQ(fx.ReplySource(below_victim), below);
  if (below_victim != top_victim) {
    EXPECT_EQ(fx.ReplySource(top_victim), top);
  }
  EXPECT_EQ(fx.gateway->reflect_nat_entries(),
            below_victim == top_victim ? 1u : 2u);
}

// ---- Queued installs ----
//
// A reflection queues its reverse-NAT install, and a full queue of 64 is
// applied at once. Every reader applies the queue first, so none of them can
// tell a queued install from one made at once. (The round-trip and
// last-write tests above read installs that are still queued, too.)

TEST(ReflectNatQueueTest, RepliesAfterMoreThanOneBatchAreRewritten) {
  ReflectionFixture fx;
  // 150 reflections: two full batches applied on their own, then 22 queued.
  std::map<uint32_t, Ipv4Address> last_external;  // by victim
  for (uint32_t i = 0; i < 150; ++i) {
    const Ipv4Address external(0x4d010000u + i);  // 77.1.0.0 + i
    last_external[fx.Scan(external).value()] = external;
  }
  EXPECT_EQ(fx.gateway->stats().reflections_injected, 150u);
  for (const auto& [victim, external] : last_external) {
    EXPECT_EQ(fx.ReplySource(Ipv4Address(victim)), external);
  }
  EXPECT_EQ(fx.gateway->reflect_nat_entries(), last_external.size());
}

TEST(ReflectNatQueueTest, SweepAppliesQueuedInstallsBeforeItsWalk) {
  ReflectionFixture fx;
  const Ipv4Address external(77, 1, 2, 3);
  ContainmentEngine replica(fx.config.containment, kFarm, fx.config.seed);
  const Ipv4Address victim = replica.ReflectTarget(external, fx.worm_ip);
  // No host admits the victim: its install is queued, and it stays unbound.
  fx.backend.set_admit(false);
  fx.gateway->HandleOutbound(0, fx.worm_vm,
                             Tcp(fx.worm_ip, external, 2000, 135,
                                 TcpFlags::kSyn));
  fx.loop.RunAll();
  ASSERT_EQ(fx.gateway->bindings().Find(victim), nullptr);
  fx.backend.set_admit(true);
  fx.gateway->SweepOnce();
  EXPECT_EQ(fx.gateway->reflect_nat_entries(), 0u);
  EXPECT_EQ(fx.ReplySource(victim), victim);
}

TEST(ReflectNatQueueTest, EntryCountsIncludeQueuedInstalls) {
  ReflectionFixture fx;
  std::set<uint32_t> victims;
  for (uint32_t i = 0; i < 5; ++i) {
    victims.insert(fx.Scan(Ipv4Address(0x4d010000u + i)).value());
  }
  // The probe a snapshot samples counts the queue too, before any reader.
  EXPECT_EQ(fx.obs.metrics.ValueOf("gateway.reflect_nat.entries"),
            static_cast<double>(victims.size()));
  EXPECT_EQ(fx.gateway->reflect_nat_entries(), victims.size());
}

// ---- Differential run against a model of the lifetime rule ----
//
// A seeded random sequence of reflections, victim replies, host retirements
// and failovers, re-bindings, admission stalls, idle time and sweeps. The model
// is a std::map (victim, scanner) -> external: a reflection writes its pair
// (last write wins) and a sweep erases every pair whose victim has no binding
// after the sweep's own retirements. Every delivered reply's source must be
// the modelled external, or the victim itself when no pair stands.
void RunNatDifferential(uint32_t shards, uint64_t seed) {
  const Ipv4Prefix farm(Ipv4Address(10, 1, 0, 0), 24);
  EventLoop loop;
  ScriptedBackend backend(&loop, /*hosts=*/4);
  ShardedGatewayConfig config;
  config.gateway.farm_prefix = farm;
  config.gateway.containment.mode = OutboundMode::kReflect;
  config.gateway.recycle.idle_timeout = Duration::Seconds(2);
  config.shard_count = shards;
  ShardedGateway gateway(&loop, config, &backend);
  ContainmentEngine replica(config.gateway.containment, farm,
                            config.gateway.seed);

  std::map<std::pair<uint32_t, uint32_t>, uint32_t> model;
  std::set<std::pair<uint32_t, uint32_t>> pairs_seen;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  std::vector<Ipv4Address> victims;
  const auto bound = [&](Ipv4Address ip) {
    return gateway.shard(gateway.ShardOf(ip)).bindings().Find(ip) != nullptr;
  };
  const auto nat_entries = [&] {
    size_t total = 0;
    for (uint32_t s = 0; s < shards; ++s) {
      total += gateway.shard(s).reflect_nat_entries();
    }
    return total;
  };
  Rng rng(seed);
  bool admit = true;
  size_t replies_checked = 0;
  size_t sweeps = 0;
  for (int step = 0; step < 4000; ++step) {
    const uint64_t op = rng.NextBelow(100);
    if (op < 40) {  // a scanner reflects off one of 40 externals
      const Ipv4Address scanner = farm.AddressAt(rng.NextBelow(6));
      const Ipv4Address external(77, 1, 0,
                                 static_cast<uint8_t>(rng.NextBelow(40)));
      const Ipv4Address victim = replica.ReflectTarget(external, scanner);
      gateway.HandleOutbound(0, 1,
                             Tcp(scanner, external, 2000, 135, TcpFlags::kSyn));
      loop.RunAll();
      for (const auto& [vm, packet] : backend.delivered()) {
        EXPECT_EQ(PacketView::Parse(packet)->ip().dst, victim);
      }
      const std::pair<uint32_t, uint32_t> pair{victim.value(), scanner.value()};
      model[pair] = external.value();
      if (pairs_seen.insert(pair).second) {
        pairs.push_back(pair);
        victims.push_back(victim);
      }
    } else if (op < 70) {  // a victim answers its scanner
      if (pairs.empty()) {
        continue;
      }
      const auto [victim, scanner] = pairs[rng.NextBelow(pairs.size())];
      const auto it = model.find({victim, scanner});
      const uint32_t expected = it == model.end() ? victim : it->second;
      backend.ClearDelivered();
      gateway.HandleOutbound(0, backend.VmFor(Ipv4Address(victim)),
                             Tcp(Ipv4Address(victim), Ipv4Address(scanner),
                                 135, 2000, TcpFlags::kSyn | TcpFlags::kAck));
      loop.RunAll();
      // No delivery only when the scanner is unbound and no host admits it.
      if (!backend.delivered().empty()) {
        ASSERT_EQ(backend.delivered().size(), 1u);
        EXPECT_EQ(PacketView::Parse(backend.delivered()[0].second)
                      ->ip().src.value(),
                  expected)
            << "step " << step;
        ++replies_checked;
      }
    } else if (op < 80) {  // a host drains or crashes
      const auto host = static_cast<HostId>(rng.NextBelow(4));
      if (rng.NextBool(0.5)) {
        gateway.RetireHostBindings(host);
      } else {
        gateway.InvalidateHostBindings(host);
      }
    } else if (op < 90) {  // an external contacts a victim: bound again
      if (!victims.empty()) {
        gateway.HandleInbound(Tcp(kExternalPeer,
                                  victims[rng.NextBelow(victims.size())],
                                  40000, 445, TcpFlags::kSyn));
      }
    } else if (op < 98) {
      gateway.SweepOnce();
      ++sweeps;
      std::erase_if(model, [&](const auto& entry) {
        return !bound(Ipv4Address(entry.first.first));
      });
      EXPECT_EQ(gateway.CountMisplacedReflectNat(), 0u);
    } else {
      admit = !admit;
      backend.set_admit(admit);
    }
    loop.RunAll();
    loop.RunFor(Duration::Millis(static_cast<int64_t>(rng.NextBelow(300))));
    backend.ClearDelivered();
    ASSERT_EQ(nat_entries(), model.size()) << "step " << step;
  }
  EXPECT_GT(replies_checked, 500u);
  EXPECT_GT(sweeps, 100u);
}

TEST(ReflectNatDifferentialTest, MatchesMapModelAtOneShard) {
  RunNatDifferential(/*shards=*/1, /*seed=*/1);
}

TEST(ReflectNatDifferentialTest, MatchesMapModelAtTwoShards) {
  RunNatDifferential(/*shards=*/2, /*seed=*/2);
}

}  // namespace
}  // namespace potemkin
