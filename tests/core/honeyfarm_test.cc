// End-to-end honeyfarm tests: late binding, flash cloning, guest conversation,
// recycling, worm containment and telemetry — the whole stack on one event loop.
#include "src/core/honeyfarm.h"

#include <gtest/gtest.h>

#include <utility>

namespace potemkin {
namespace {

const Ipv4Prefix kFarm(Ipv4Address(10, 1, 0, 0), 20);  // 4096 addresses
const Ipv4Address kExternal(198, 51, 100, 7);

HoneyfarmConfig SmallFarm(OutboundMode mode = OutboundMode::kReflect) {
  HoneyfarmConfig config = MakeDefaultFarmConfig(kFarm, /*num_hosts=*/2,
                                                 /*host_memory_mb=*/128,
                                                 ContentMode::kStoreBytes);
  config.server_template.image.num_pages = 1024;  // 4 MiB image: fast tests
  config.gateway.containment.mode = mode;
  config.gateway.recycle.idle_timeout = Duration::Seconds(30);
  config.gateway.recycle.scan_interval = Duration::Seconds(1);
  return config;
}

Packet ProbeSyn(Ipv4Address dst, uint16_t port = 445) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(1234);
  spec.dst_mac = MacAddress::FromId(1);
  spec.src_ip = kExternal;
  spec.dst_ip = dst;
  spec.proto = IpProto::kTcp;
  spec.src_port = 52000;
  spec.dst_port = port;
  spec.tcp_flags = TcpFlags::kSyn;
  return BuildPacket(spec);
}

TEST(HoneyfarmTest, ProbeCreatesVmAndGetsSynAck) {
  Honeyfarm farm(SmallFarm());
  std::vector<Packet> egress;
  farm.set_egress_monitor([&](const Packet& p) { egress.push_back(p); });
  farm.Start();

  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(7)));
  farm.RunFor(Duration::Seconds(2.0));

  EXPECT_EQ(farm.TotalLiveVms(), 1u);
  EXPECT_EQ(farm.total_clones_completed(), 1u);
  // The honeypot's SYN|ACK went back out to the prober.
  ASSERT_EQ(egress.size(), 1u);
  const auto view = PacketView::Parse(egress[0]);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->ip().src, kFarm.AddressAt(7));
  EXPECT_EQ(view->ip().dst, kExternal);
  EXPECT_EQ(view->tcp().flags, TcpFlags::kSyn | TcpFlags::kAck);
}

TEST(HoneyfarmTest, DistinctAddressesDistinctVms) {
  Honeyfarm farm(SmallFarm());
  farm.Start();
  for (uint64_t i = 0; i < 10; ++i) {
    farm.InjectInbound(ProbeSyn(kFarm.AddressAt(i)));
  }
  farm.RunFor(Duration::Seconds(8.0));
  EXPECT_EQ(farm.TotalLiveVms(), 10u);
  EXPECT_EQ(farm.gateway().bindings().size(), 10u);
  // Spread across both hosts by round robin.
  EXPECT_GT(farm.server(0).LiveVms(), 0u);
  EXPECT_GT(farm.server(1).LiveVms(), 0u);
}

TEST(HoneyfarmTest, IdleVmsRecycledAndMemoryReclaimed) {
  HoneyfarmConfig config = SmallFarm();
  config.gateway.recycle.idle_timeout = Duration::Seconds(5);
  Honeyfarm farm(config);
  farm.Start();
  const uint64_t baseline = farm.TotalUsedFrames();
  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(3)));
  farm.RunFor(Duration::Seconds(2.0));
  EXPECT_EQ(farm.TotalLiveVms(), 1u);
  EXPECT_GT(farm.TotalUsedFrames(), baseline);
  farm.RunFor(Duration::Seconds(10.0));
  EXPECT_EQ(farm.TotalLiveVms(), 0u);
  EXPECT_EQ(farm.TotalUsedFrames(), baseline);
  EXPECT_EQ(farm.gateway().bindings().size(), 0u);
}

TEST(HoneyfarmTest, RecycledAddressRespawnsOnNewTraffic) {
  HoneyfarmConfig config = SmallFarm();
  config.gateway.recycle.idle_timeout = Duration::Seconds(3);
  Honeyfarm farm(config);
  farm.Start();
  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(3)));
  farm.RunFor(Duration::Seconds(10.0));
  EXPECT_EQ(farm.TotalLiveVms(), 0u);
  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(3)));
  farm.RunFor(Duration::Seconds(2.0));
  EXPECT_EQ(farm.TotalLiveVms(), 1u);
  EXPECT_EQ(farm.total_clones_completed(), 2u);
}

TEST(HoneyfarmTest, WormSeedInfectsVictim) {
  // Worm scans an external /8 and containment drops everything, so exactly the
  // seeded victim becomes infected.
  Honeyfarm farm(SmallFarm(OutboundMode::kDropAll));
  WormRuntime worm(&farm.loop(),
                   SlammerLikeWorm(Ipv4Prefix(Ipv4Address(11, 0, 0, 0), 8)), 11);
  farm.AttachWorm(&worm);
  farm.Start();
  farm.SeedWorm(worm, kExternal, kFarm.AddressAt(1));
  farm.RunFor(Duration::Seconds(3.0));
  EXPECT_EQ(farm.epidemic().total_infections(), 1u);
  EXPECT_EQ(worm.active_instances(), 1u);
  const Binding* binding = farm.gateway().bindings().Find(kFarm.AddressAt(1));
  ASSERT_NE(binding, nullptr);
  EXPECT_TRUE(binding->infected);
}

TEST(HoneyfarmTest, ReflectedWormSpreadsInsideFarmWithZeroEscapes) {
  HoneyfarmConfig config = SmallFarm(OutboundMode::kReflect);
  config.gateway.recycle.infected_hold = Duration::Minutes(10);
  Honeyfarm farm(config);
  // Worm scans the whole Internet; reflection folds it back into the farm.
  WormConfig worm_config = SlammerLikeWorm(Ipv4Prefix(Ipv4Address(0, 0, 0, 0), 0));
  worm_config.scan_rate_pps = 20.0;
  WormRuntime worm(&farm.loop(), worm_config, 11);
  farm.AttachWorm(&worm);
  farm.Start();
  farm.SeedWorm(worm, kExternal, kFarm.AddressAt(1));
  farm.RunFor(Duration::Minutes(3));

  EXPECT_GT(farm.epidemic().total_infections(), 3u)
      << "reflection must sustain an in-farm epidemic";
  EXPECT_EQ(farm.gateway().containment().stats().escapes_from_infected, 0u);
  EXPECT_GT(farm.gateway().stats().reflections_injected, 0u);
}

TEST(HoneyfarmTest, DropAllPolicyStopsSpreadCold) {
  Honeyfarm farm(SmallFarm(OutboundMode::kDropAll));
  WormConfig worm_config = SlammerLikeWorm(Ipv4Prefix(Ipv4Address(0, 0, 0, 0), 0));
  worm_config.scan_rate_pps = 20.0;
  WormRuntime worm(&farm.loop(), worm_config, 11);
  farm.AttachWorm(&worm);
  farm.Start();
  farm.SeedWorm(worm, kExternal, kFarm.AddressAt(1));
  farm.RunFor(Duration::Minutes(2));

  EXPECT_EQ(farm.epidemic().total_infections(), 1u);  // only the seed
  EXPECT_EQ(farm.gateway().containment().stats().escapes_from_infected, 0u);
  EXPECT_EQ(farm.egress_packet_count(), 0u);
  EXPECT_GT(farm.gateway().containment().stats().dropped, 0u);
}

TEST(HoneyfarmTest, OpenPolicyLeaksWormScans) {
  Honeyfarm farm(SmallFarm(OutboundMode::kOpen));
  WormConfig worm_config = SlammerLikeWorm(Ipv4Prefix(Ipv4Address(0, 0, 0, 0), 0));
  worm_config.scan_rate_pps = 20.0;
  WormRuntime worm(&farm.loop(), worm_config, 11);
  farm.AttachWorm(&worm);
  farm.Start();
  farm.SeedWorm(worm, kExternal, kFarm.AddressAt(1));
  farm.RunFor(Duration::Minutes(1));
  EXPECT_GT(farm.gateway().containment().stats().escapes_from_infected, 100u);
}

TEST(HoneyfarmTest, ReflectedEpidemicUsesCowSharing) {
  HoneyfarmConfig config = SmallFarm(OutboundMode::kReflect);
  config.gateway.recycle.infected_hold = Duration::Minutes(10);
  Honeyfarm farm(config);
  WormConfig worm_config = SlammerLikeWorm(Ipv4Prefix(Ipv4Address(0, 0, 0, 0), 0));
  worm_config.scan_rate_pps = 20.0;
  WormRuntime worm(&farm.loop(), worm_config, 11);
  farm.AttachWorm(&worm);
  farm.Start();
  farm.SeedWorm(worm, kExternal, kFarm.AddressAt(1));
  farm.RunFor(Duration::Minutes(2));

  const uint64_t vms = farm.TotalLiveVms();
  ASSERT_GT(vms, 2u);
  // Each VM's delta must be far below the full image size.
  const uint64_t image_pages = config.server_template.image.num_pages;
  EXPECT_LT(farm.TotalPrivatePages(), vms * image_pages / 4);
}

TEST(HoneyfarmTest, TelemetrySamplingRecordsPopulation) {
  HoneyfarmConfig config = SmallFarm();
  Honeyfarm farm(config);
  farm.Start();
  // The registry's farm.vms.live row is a probe over TotalLiveVms().
  size_t samples = 0;
  double max_vms = 0;
  farm.loop().SchedulePeriodic(Duration::Seconds(1), [&] {
    ++samples;
    const double live = farm.obs().metrics.ValueOf("farm.vms.live");
    EXPECT_EQ(live, static_cast<double>(farm.TotalLiveVms()));
    max_vms = std::max(max_vms, live);
  });
  for (uint64_t i = 0; i < 5; ++i) {
    farm.InjectInbound(ProbeSyn(kFarm.AddressAt(i)));
  }
  farm.RunFor(Duration::Seconds(10.0));
  ASSERT_GE(samples, 9u);
  EXPECT_EQ(max_vms, 5.0);
}

TEST(HoneyfarmTest, DnsLookupFromGuestAnsweredInternally) {
  // Craft a VM, then have it send a DNS query out; the proxy must answer with a
  // farm address and no packet may escape.
  Honeyfarm farm(SmallFarm(OutboundMode::kDropAll));
  farm.Start();
  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(2)));
  farm.RunFor(Duration::Seconds(2.0));
  ASSERT_EQ(farm.TotalLiveVms(), 1u);

  // Find the live VM and transmit a DNS query from it.
  GuestOs* guest = nullptr;
  for (size_t s = 0; s < farm.server_count() && guest == nullptr; ++s) {
    farm.server(s).host().ForEachVm([&](VirtualMachine& vm) {
      if (guest == nullptr) {
        guest = farm.server(s).FindGuest(vm.id());
      }
    });
  }
  ASSERT_NE(guest, nullptr);
  DnsQuery query;
  query.id = 99;
  query.name = "update.malware.example";
  PacketSpec spec;
  spec.src_mac = guest->vm()->mac();
  spec.dst_mac = MacAddress::FromId(1);
  spec.src_ip = guest->vm()->ip();
  spec.dst_ip = Ipv4Address(4, 4, 4, 4);
  spec.proto = IpProto::kUdp;
  spec.src_port = 5555;
  spec.dst_port = 53;
  spec.payload = EncodeDnsQuery(query);
  const uint64_t egress_before = farm.egress_packet_count();
  guest->vm()->Transmit(BuildPacket(spec));
  farm.RunFor(Duration::Seconds(1.0));

  EXPECT_EQ(farm.gateway().stats().dns_responses, 1u);
  // The DNS query itself must not leave the farm (only the earlier SYN|ACK
  // response to the prober was allowed out).
  EXPECT_EQ(farm.egress_packet_count(), egress_before);
}

TEST(HoneyfarmTest, CapacityExhaustionDropsNewAddresses) {
  HoneyfarmConfig config = SmallFarm();
  config.num_hosts = 1;
  config.server_template.host.memory_mb = 8;  // tiny host: image 4 MiB + little room
  config.server_template.host.admission_reserve_frames = 64;
  config.server_template.host.domain_overhead_frames = 128;
  // Keep VMs pinned so capacity stays exhausted for the whole test.
  config.gateway.recycle.idle_timeout = Duration::Minutes(30);
  config.gateway.recycle.max_lifetime = Duration::Zero();
  Honeyfarm farm(config);
  farm.Start();
  for (uint64_t i = 0; i < 50; ++i) {
    farm.InjectInbound(ProbeSyn(kFarm.AddressAt(i)));
  }
  farm.RunFor(Duration::Seconds(60.0));
  // Admission passed at request time for many, but the clone engine hit the
  // memory wall while executing them.
  EXPECT_GT(farm.server(0).engine().clones_failed(), 0u);
  EXPECT_LT(farm.TotalLiveVms(), 50u);
  // A fresh address now fails admission up front.
  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(100)));
  EXPECT_GT(farm.gateway().stats().no_capacity_drops, 0u);
}

TEST(HoneyfarmTest, ShardedFarmMatchesUnshardedTotals) {
  // Same scenario at 1 and 4 gateway shards: the shared-loop sharded gateway
  // is still single-threaded and deterministic, so farm-level outcomes must be
  // identical — only the internal partitioning differs.
  const auto run = [](uint32_t shards) {
    HoneyfarmConfig config = SmallFarm();
    config.gateway_shards = shards;
    Honeyfarm farm(config);
    farm.Start();
    for (uint64_t i = 0; i < 10; ++i) {
      farm.InjectInbound(ProbeSyn(kFarm.AddressAt(i)));
    }
    farm.RunFor(Duration::Seconds(8.0));
    return std::pair<uint64_t, GatewayStats>(
        farm.TotalLiveVms(), farm.sharded_gateway().AggregateStats());
  };
  const auto [vms1, stats1] = run(1);
  const auto [vms4, stats4] = run(4);
  EXPECT_EQ(vms4, 10u);
  EXPECT_EQ(vms4, vms1);
  EXPECT_EQ(stats4.inbound_packets, stats1.inbound_packets);
  EXPECT_EQ(stats4.inbound_delivered, stats1.inbound_delivered);
  EXPECT_EQ(stats4.clones_triggered, stats1.clones_triggered);
  // Inbound probes go straight to their owning shard: no handoffs.
  EXPECT_EQ(stats4.handoffs_out, 0u);
}

TEST(HoneyfarmTest, ScheduleTraceKeepsTraceOrderWithinATimestamp) {
  // Records sharing a timestamp reach the gateway in trace order, exactly as
  // one ScheduleRecord call per record delivers them. Each run's destinations
  // descend, so a dispatch that sorted a run by address would mint its
  // first contacts' session ids in reverse and change the ledger.
  std::vector<TraceRecord> trace;
  for (int run = 0; run < 4; ++run) {
    const TimePoint when = TimePoint() + Duration::Millis(100 + 400 * run);
    const int length = run == 2 ? 1 : 3 + run;  // one lone record among runs
    for (int k = 0; k < length; ++k) {
      TraceRecord record;
      record.time = when;
      record.src = Ipv4Address(198, 51, 100, static_cast<uint8_t>(10 + k));
      record.dst = kFarm.AddressAt(static_cast<uint64_t>(100 + 10 * run - k));
      record.src_port = static_cast<uint16_t>(40000 + k);
      record.dst_port = 445;
      record.wire_size = 60;
      record.tcp_flags = TcpFlags::kSyn;
      trace.push_back(record);
    }
  }
  const auto ledger_of = [&](bool whole_trace) {
    Honeyfarm farm(SmallFarm());
    farm.Start();
    if (whole_trace) {
      farm.ScheduleTrace(trace);
    } else {
      for (const TraceRecord& record : trace) {
        farm.ScheduleRecord(record);
      }
    }
    farm.RunFor(Duration::Seconds(10.0));
    EXPECT_EQ(farm.sharded_gateway().AggregateStats().inbound_delivered,
              trace.size());
    // Every destination is new, so sessions are minted in arrival order.
    std::vector<uint32_t> first_contacts;
    for (const EventLedger::Record& r : farm.ledger().Events()) {
      if (r.type == LedgerEvent::kFirstContact) {
        EXPECT_EQ(r.session, first_contacts.size() + 1);
        first_contacts.push_back(static_cast<uint32_t>(r.b));
      }
    }
    EXPECT_EQ(first_contacts.size(), trace.size());
    for (size_t i = 0; i < first_contacts.size() && i < trace.size(); ++i) {
      EXPECT_EQ(first_contacts[i], trace[i].dst.value()) << "record " << i;
    }
    return farm.ledger().ToJsonLines();
  };
  EXPECT_EQ(ledger_of(/*whole_trace=*/true), ledger_of(/*whole_trace=*/false));
}

// A shard holds only the addresses it owns, so reading one as "the gateway"
// under-reports the farm: an outbreak's escapes can all sit on another shard.
// The accessor refuses.
TEST(HoneyfarmDeathTest, GatewayAccessorRefusesAShardedFarm) {
  HoneyfarmConfig config = SmallFarm();
  config.gateway_shards = 2;
  Honeyfarm farm(config);
  EXPECT_DEATH(farm.gateway(), "use sharded_gateway");
}

// An engine-level reclaim retires VMs without telling the gateway, whose
// bindings would then route packets to VMs that are gone.
TEST(HoneyfarmDeathTest, RefusesEngineLevelPressureReclaim) {
  HoneyfarmConfig config = SmallFarm();
  config.server_template.engine.pressure_reclaim_batch = 8;
  EXPECT_DEATH({ Honeyfarm farm(config); }, "bypasses the gateway");
}

}  // namespace
}  // namespace potemkin
