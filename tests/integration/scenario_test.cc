// End-to-end scenario tests beyond single features: concurrent worm strains,
// malware that resolves a name before connecting (DNS proxy -> reflection chain),
// GRE-delivered radiation, and TCP conversations across clone latency.
#include <gtest/gtest.h>

#include "src/core/honeyfarm.h"
#include "src/guest/persona/escape.h"
#include "src/malware/dropper.h"
#include "src/malware/radiation.h"

namespace potemkin {
namespace {

const Ipv4Prefix kFarm(Ipv4Address(10, 1, 0, 0), 22);  // 1024 addresses
const Ipv4Address kExternal(198, 51, 100, 7);

HoneyfarmConfig ScenarioConfig(OutboundMode mode) {
  HoneyfarmConfig config = MakeDefaultFarmConfig(kFarm, /*num_hosts=*/2,
                                                 /*host_memory_mb=*/512,
                                                 ContentMode::kMetadataOnly);
  config.server_template.image.num_pages = 1024;
  config.server_template.engine.latency = CloneLatencyModel::Optimized();
  config.server_template.engine.control_plane_workers = 4;
  config.gateway.containment.mode = mode;
  config.gateway.recycle.idle_timeout = Duration::Minutes(5);
  config.gateway.recycle.infected_hold = Duration::Minutes(30);
  config.gateway.recycle.max_lifetime = Duration::Zero();
  return config;
}

TEST(ScenarioTest, TwoWormStrainsSpreadIndependently) {
  HoneyfarmConfig config = ScenarioConfig(OutboundMode::kReflect);
  Honeyfarm farm(config);
  const Ipv4Prefix internet(Ipv4Address(0, 0, 0, 0), 0);
  WormConfig slammer_config = SlammerLikeWorm(internet);  // udp/1434
  slammer_config.scan_rate_pps = 1.0;
  WormConfig blaster_config = BlasterLikeWorm(internet);  // tcp/135
  blaster_config.scan_rate_pps = 1.0;
  WormRuntime slammer(&farm.loop(), slammer_config, 21);
  WormRuntime blaster(&farm.loop(), blaster_config, 22);
  farm.AttachWorm(&slammer);
  farm.AttachWorm(&blaster);
  farm.Start();

  farm.SeedWorm(slammer, kExternal, kFarm.AddressAt(10));
  farm.SeedWorm(blaster, Ipv4Address(198, 51, 100, 8), kFarm.AddressAt(20));
  farm.RunFor(Duration::Seconds(40.0));

  // Both strains are alive and scanning from their own instances.
  EXPECT_GT(slammer.active_instances(), 0u);
  EXPECT_GT(blaster.active_instances(), 0u);
  EXPECT_GT(slammer.stats().scans_sent, 0u);
  EXPECT_GT(blaster.stats().scans_sent, 0u);
  // Epidemic grows beyond both seeds, with zero escapes under reflection.
  EXPECT_GT(farm.epidemic().total_infections(), 2u);
  EXPECT_EQ(farm.gateway().containment().stats().escapes_from_infected, 0u);
}

TEST(ScenarioTest, BlasterSequentialSweepInfectsContiguousFarmRange) {
  // A sequential scanner pointed directly at the farm prefix should infect a
  // contiguous run of addresses — no reflection needed (in-prefix scanning).
  HoneyfarmConfig config = ScenarioConfig(OutboundMode::kDropAll);
  Honeyfarm farm(config);
  WormConfig blaster_config = BlasterLikeWorm(kFarm);  // sweeps the farm itself
  blaster_config.scan_rate_pps = 5.0;
  WormRuntime blaster(&farm.loop(), blaster_config, 7);
  farm.AttachWorm(&blaster);
  farm.Start();
  farm.SeedWorm(blaster, kExternal, kFarm.AddressAt(0));
  farm.RunFor(Duration::Seconds(30.0));

  EXPECT_GT(farm.epidemic().total_infections(), 5u);
  EXPECT_EQ(farm.gateway().containment().stats().escapes_from_infected, 0u);
  // Every victim (beyond the seed) was attacked from inside the farm.
  const auto& events = farm.epidemic().events();
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_TRUE(kFarm.Contains(events[i].attacker)) << i;
  }
}

TEST(ScenarioTest, DnsThenConnectMalwareStaysInsideFarm) {
  // Classic malware behaviour: resolve a C&C name, then connect to the answer.
  // The proxy hands out a farm address, so the follow-up connection spawns a
  // honeypot rather than touching the Internet.
  HoneyfarmConfig config = ScenarioConfig(OutboundMode::kDropAll);
  config.server_template.host.content_mode = ContentMode::kStoreBytes;
  Honeyfarm farm(config);
  farm.Start();

  // Bring up one VM.
  PacketSpec probe;
  probe.src_mac = MacAddress::FromId(2);
  probe.dst_mac = MacAddress::FromId(1);
  probe.src_ip = kExternal;
  probe.dst_ip = kFarm.AddressAt(5);
  probe.proto = IpProto::kTcp;
  probe.src_port = 4000;
  probe.dst_port = 445;
  probe.tcp_flags = TcpFlags::kSyn;
  farm.InjectInbound(BuildPacket(probe));
  farm.RunFor(Duration::Seconds(2.0));
  const uint64_t egress_after_setup = farm.egress_packet_count();
  const Binding* binding = farm.gateway().bindings().Find(kFarm.AddressAt(5));
  ASSERT_NE(binding, nullptr);
  GuestOs* guest = farm.server(binding->host).FindGuest(binding->vm);
  ASSERT_NE(guest, nullptr);

  // Step 1: the "malware" resolves cc.evil.example.
  DnsQuery query;
  query.id = 1;
  query.name = "cc.evil.example";
  PacketSpec dns;
  dns.src_mac = guest->vm()->mac();
  dns.dst_mac = MacAddress::FromId(1);
  dns.src_ip = guest->vm()->ip();
  dns.dst_ip = Ipv4Address(8, 8, 8, 8);
  dns.proto = IpProto::kUdp;
  dns.src_port = 1055;
  dns.dst_port = 53;
  dns.payload = EncodeDnsQuery(query);
  guest->vm()->Transmit(BuildPacket(dns));
  farm.RunFor(Duration::Seconds(1.0));
  EXPECT_EQ(farm.gateway().stats().dns_responses, 1u);

  // The proxy's answer is deterministic; compute where the C&C "lives".
  DnsProxy reference(kFarm, config.gateway.seed);
  const Ipv4Address cc_addr = reference.Resolve(query).addresses[0];
  ASSERT_TRUE(kFarm.Contains(cc_addr));

  // Step 2: connect to the resolved address -> a C&C honeypot spawns in-farm.
  PacketSpec connect;
  connect.src_mac = guest->vm()->mac();
  connect.dst_mac = MacAddress::FromId(1);
  connect.src_ip = guest->vm()->ip();
  connect.dst_ip = cc_addr;
  connect.proto = IpProto::kTcp;
  connect.src_port = 1056;
  connect.dst_port = 80;
  connect.tcp_flags = TcpFlags::kSyn;
  guest->vm()->Transmit(BuildPacket(connect));
  farm.RunFor(Duration::Seconds(2.0));

  EXPECT_NE(farm.gateway().bindings().Find(cc_addr), nullptr);
  // Neither the DNS lookup nor the C&C connection left the farm (only the
  // initial SYN|ACK response to the external prober did).
  EXPECT_EQ(farm.egress_packet_count(), egress_after_setup);
}

TEST(ScenarioTest, TwoPhaseWormCannotLaunderExploitsThroughReflectionNat) {
  // Regression: the worm's post-handshake exploit travels to the same external
  // address whose reflected SYN|ACK the worm just received. That packet must be
  // re-reflected, NEVER treated as a "response" to the NAT-rewritten flow (which
  // would leak the exploit to the real Internet).
  HoneyfarmConfig config = ScenarioConfig(OutboundMode::kReflect);
  Honeyfarm farm(config);
  WormConfig worm_config = BlasterLikeWorm(Ipv4Prefix(Ipv4Address(0, 0, 0, 0), 0));
  worm_config.scan_rate_pps = 2.0;
  worm_config.selection = TargetSelection::kUniformRandom;
  WormRuntime worm(&farm.loop(), worm_config, 77);
  farm.AttachWorm(&worm);
  std::vector<Packet> egress;
  farm.set_egress_monitor([&](const Packet& p) { egress.push_back(p); });
  farm.Start();
  const Ipv4Address attacker(198, 51, 100, 66);
  farm.SeedWorm(worm, attacker, kFarm.AddressAt(1));
  farm.RunFor(Duration::Minutes(2));

  // The epidemic ran (handshakes completed through the reflection NAT)...
  EXPECT_GT(worm.stats().handshakes_completed, 5u);
  EXPECT_GT(farm.epidemic().total_infections(), 2u);
  // ...and the ONLY packets that reached the Internet are replies to the seed
  // attacker; no worm exploit ever escaped.
  EXPECT_EQ(farm.gateway().containment().stats().escapes_from_infected, 0u);
  for (const auto& packet : egress) {
    const auto view = PacketView::Parse(packet);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->ip().dst, attacker) << view->Describe();
    EXPECT_TRUE(view->l4_payload().empty()) << view->Describe();
  }
}

TEST(ScenarioTest, StrictTcpFarmSustainsTwoPhaseEpidemic) {
  // Maximum-fidelity configuration: guests run the real TCP server stack (no
  // payload without an established connection) and the worm opens real
  // connections. The epidemic must still propagate through reflection — SYN,
  // SYN|ACK (NATted), ACK+exploit — end to end.
  HoneyfarmConfig config = ScenarioConfig(OutboundMode::kReflect);
  config.server_template.guest.strict_tcp = true;
  Honeyfarm farm(config);
  WormConfig worm_config = BlasterLikeWorm(Ipv4Prefix(Ipv4Address(0, 0, 0, 0), 0));
  worm_config.scan_rate_pps = 3.0;
  worm_config.selection = TargetSelection::kUniformRandom;
  WormRuntime worm(&farm.loop(), worm_config, 55);
  farm.AttachWorm(&worm);
  farm.Start();
  farm.SeedWormViaHandshake(worm, kExternal, kFarm.AddressAt(1));
  farm.RunFor(Duration::Minutes(2));

  EXPECT_GT(worm.stats().handshakes_completed, 10u);
  EXPECT_GT(worm.stats().exploits_delivered, 10u);
  EXPECT_GT(farm.epidemic().total_infections(), 3u);
  EXPECT_EQ(farm.gateway().containment().stats().escapes_from_infected, 0u);
}

TEST(ScenarioTest, StrictTcpBlocksNakedExploitPackets) {
  // Under strict TCP, a single-packet exploit (payload on the SYN) cannot infect:
  // the stack accepts the connection but data arrives before establishment.
  HoneyfarmConfig config = ScenarioConfig(OutboundMode::kDropAll);
  config.server_template.guest.strict_tcp = true;
  Honeyfarm farm(config);
  WormConfig worm_config = BlasterLikeWorm(Ipv4Prefix(Ipv4Address(11, 0, 0, 0), 8));
  worm_config.two_phase_tcp = false;  // degrade to single-packet delivery
  WormRuntime worm(&farm.loop(), worm_config, 56);
  farm.AttachWorm(&worm);
  farm.Start();
  farm.SeedWorm(worm, kExternal, kFarm.AddressAt(1));
  farm.RunFor(Duration::Seconds(30.0));
  EXPECT_EQ(farm.epidemic().total_infections(), 0u);
  EXPECT_EQ(farm.TotalLiveVms(), 1u);  // the probed VM exists but is clean
}

TEST(ScenarioTest, GreDeliveredRadiationDrivesTheFarm) {
  HoneyfarmConfig config = ScenarioConfig(OutboundMode::kDropAll);
  config.gateway.recycle.idle_timeout = Duration::Seconds(10);
  Honeyfarm farm(config);
  farm.Start();
  const Ipv4Address gateway_ip(192, 0, 2, 2);
  const Ipv4Address router_ip(192, 0, 2, 1);
  farm.EnableGreTermination(gateway_ip, router_ip, 9);
  GreTunnel router(router_ip, gateway_ip, 9);

  RadiationConfig radiation;
  radiation.telescope = kFarm;
  radiation.duration = Duration::Seconds(20);
  radiation.mean_pps = 20.0;
  radiation.source_pool = 200;
  RadiationGenerator generator(radiation);
  const auto trace = generator.GenerateAll();
  for (const auto& record : trace) {
    farm.loop().ScheduleAt(record.time, [&farm, &router, record]() {
      farm.InjectTunneled(router.Send(PacketFromRecord(
          record, MacAddress::FromId(record.src.value()), MacAddress::FromId(1))));
    });
  }
  farm.RunFor(Duration::Seconds(30.0));
  EXPECT_EQ(farm.gateway().stats().inbound_packets, trace.size());
  EXPECT_GT(farm.total_clones_completed(), 10u);
}

TEST(ScenarioTest, EveryEscapeAttemptDrawsAContainmentVerdict) {
  // Post-compromise escape script (C2 beacon, non-farm scan, DNS exfil) rides
  // a worm infection; containment must catch every attempt, and the ledger
  // must let forensics pair each kEscapeAttempt with the verdict that did.
  HoneyfarmConfig config = ScenarioConfig(OutboundMode::kDropAll);
  Honeyfarm farm(config);
  WormConfig worm_config = SlammerLikeWorm(Ipv4Prefix(Ipv4Address(0, 0, 0, 0), 0));
  worm_config.scan_rate_pps = 1.0;
  WormRuntime worm(&farm.loop(), worm_config, 31);
  EscapeRuntime escape(&farm.loop(), &farm.obs(), 32);
  farm.AttachWorm(&worm);
  farm.AttachAgent(&escape);
  farm.Start();
  farm.SeedWorm(worm, kExternal, kFarm.AddressAt(10));
  farm.RunFor(Duration::Seconds(10.0));

  // The script ran on the seed infection: escalation + beacon + 4 scan probes
  // + exfil (reinfected VMs don't restart it, but more infections may add more).
  ASSERT_GT(escape.stats().escalations, 0u);
  ASSERT_GE(escape.stats().attempts, 6u);

  const auto events = farm.obs().ledger.Events();
  size_t attempts_seen = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].type != LedgerEvent::kEscapeAttempt) {
      continue;
    }
    ++attempts_seen;
    bool caught = false;
    for (size_t j = i + 1; j < events.size() && !caught; ++j) {
      const auto& verdict = events[j];
      if (verdict.session != events[i].session || verdict.a != events[i].a) {
        continue;
      }
      caught = verdict.type == LedgerEvent::kContainmentDrop ||
               verdict.type == LedgerEvent::kContainmentReflect ||
               verdict.type == LedgerEvent::kContainmentRateLimit ||
               verdict.type == LedgerEvent::kContainmentDnsProxy;
    }
    EXPECT_TRUE(caught) << "escape attempt " << attempts_seen
                        << " has no containment verdict";
  }
  EXPECT_EQ(attempts_seen, escape.stats().attempts);
  EXPECT_EQ(farm.gateway().containment().stats().escapes_from_infected, 0u);
}

TEST(ScenarioTest, DropperStallsAtStageOneUnderFullContainment) {
  // The multi-stage dropper lands stage 1 but its stage-2 fetch must die at
  // the gateway under drop-all; the infection visibly stalls (kStalled in the
  // forensic record) instead of activating a scanner.
  HoneyfarmConfig config = ScenarioConfig(OutboundMode::kDropAll);
  config.server_template.guest.services = DefaultLinuxServices();
  Honeyfarm farm(config);
  const DropperConfig dropper_config = CgiDropper(Ipv4Prefix(Ipv4Address(0, 0, 0, 0), 0));
  DropperRuntime dropper(&farm.loop(), dropper_config, &farm.obs(), 41);
  farm.AttachAgent(&dropper);
  farm.Start();
  farm.InjectInbound(dropper.MakeExploitPacket(kExternal, MacAddress::FromId(2),
                                               kFarm.AddressAt(5)));
  farm.RunFor(Duration::Seconds(15.0));

  EXPECT_EQ(dropper.stats().infections, 1u);
  EXPECT_EQ(dropper.stats().fetches_sent, dropper_config.fetch_attempts);
  EXPECT_EQ(dropper.stats().stalled, 1u);
  EXPECT_EQ(dropper.stats().activations, 0u);
  EXPECT_EQ(dropper.scanning_instances(), 0u);
  EXPECT_EQ(farm.gateway().containment().stats().escapes_from_infected, 0u);
  bool stalled_on_record = false;
  for (const auto& event : farm.obs().ledger.Events()) {
    if (event.type == LedgerEvent::kMalwareStage &&
        event.a == static_cast<uint64_t>(DropperStage::kStalled)) {
      stalled_on_record = true;
    }
  }
  EXPECT_TRUE(stalled_on_record);
}

TEST(ScenarioTest, TcpHandshakeSurvivesCloneLatency) {
  // SYN arrives -> queued during the ~40ms (optimized) clone -> SYN|ACK comes
  // back out as a response under drop-all; the handshake then completes
  // against the live VM, and the gateway's flow keeps the external peer as its
  // initiator.
  HoneyfarmConfig config = ScenarioConfig(OutboundMode::kDropAll);
  Honeyfarm farm(config);
  std::vector<Packet> egress;
  farm.set_egress_monitor([&](const Packet& p) { egress.push_back(p); });
  farm.Start();

  PacketSpec syn;
  syn.src_mac = MacAddress::FromId(3);
  syn.dst_mac = MacAddress::FromId(1);
  syn.src_ip = kExternal;
  syn.dst_ip = kFarm.AddressAt(9);
  syn.proto = IpProto::kTcp;
  syn.src_port = 41000;
  syn.dst_port = 80;
  syn.tcp_flags = TcpFlags::kSyn;
  syn.seq = 7000;
  farm.InjectInbound(BuildPacket(syn));
  farm.RunFor(Duration::Seconds(1.0));
  ASSERT_EQ(egress.size(), 1u);
  const auto synack = PacketView::Parse(egress[0]);
  ASSERT_TRUE(synack.has_value());
  EXPECT_EQ(synack->tcp().flags, TcpFlags::kSyn | TcpFlags::kAck);
  EXPECT_EQ(synack->tcp().ack, 7001u);  // acks our ISN+1

  // Complete the handshake.
  PacketSpec ack = syn;
  ack.tcp_flags = TcpFlags::kAck;
  ack.seq = 7001;
  ack.ack = synack->tcp().seq + 1;
  farm.InjectInbound(BuildPacket(ack));
  farm.RunFor(Duration::Seconds(1.0));
  const FlowRecord* flow = farm.gateway().flows().Find(
      FlowKey{kExternal, kFarm.AddressAt(9), IpProto::kTcp, 41000, 80});
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->key.src, kExternal);
  EXPECT_EQ(farm.gateway().stats().responses_allowed_out, 1u);
}

}  // namespace
}  // namespace potemkin
