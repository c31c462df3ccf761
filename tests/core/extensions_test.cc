// Tests for the farm-level extension features: forensic archiving of infected
// VMs at recycle time, gateway scanner filtering and GRE termination.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/base/strings.h"
#include "src/core/honeyfarm.h"
#include "src/hv/snapshot.h"

namespace potemkin {
namespace {

const Ipv4Prefix kFarm(Ipv4Address(10, 1, 0, 0), 20);
const Ipv4Address kExternal(198, 51, 100, 7);

Packet ProbeSyn(Ipv4Address dst, uint16_t port = 445, Ipv4Address src = kExternal) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(src.value());
  spec.dst_mac = MacAddress::FromId(1);
  spec.src_ip = src;
  spec.dst_ip = dst;
  spec.proto = IpProto::kTcp;
  spec.src_port = 52000;
  spec.dst_port = port;
  spec.tcp_flags = TcpFlags::kSyn;
  return BuildPacket(spec);
}

HoneyfarmConfig BaseConfig() {
  HoneyfarmConfig config = MakeDefaultFarmConfig(kFarm, /*num_hosts=*/1,
                                                 /*host_memory_mb=*/256,
                                                 ContentMode::kStoreBytes);
  config.server_template.image.num_pages = 512;
  config.gateway.recycle.idle_timeout = Duration::Minutes(10);
  config.gateway.recycle.max_lifetime = Duration::Zero();
  return config;
}

TEST(ForensicsTest, InfectedVmsArchivedAtRecycle) {
  HoneyfarmConfig config = BaseConfig();
  config.server_template.forensics_dir = ::testing::TempDir();
  config.gateway.recycle.idle_timeout = Duration::Seconds(3);
  config.gateway.recycle.infected_hold = Duration::Seconds(3);
  config.gateway.containment.mode = OutboundMode::kDropAll;
  Honeyfarm farm(config);
  WormRuntime worm(&farm.loop(),
                   SlammerLikeWorm(Ipv4Prefix(Ipv4Address(11, 0, 0, 0), 8)), 5);
  farm.AttachWorm(&worm);
  farm.Start();
  farm.SeedWorm(worm, kExternal, kFarm.AddressAt(4));
  farm.RunFor(Duration::Seconds(1.0));
  ASSERT_EQ(farm.epidemic().total_infections(), 1u);
  const VmId infected_vm = farm.epidemic().events()[0].vm;

  farm.RunFor(Duration::Seconds(30.0));  // idle out -> recycle -> snapshot
  EXPECT_EQ(farm.TotalLiveVms(), 0u);
  EXPECT_EQ(farm.server(0).snapshots_written(), 1u);

  const std::string path =
      StrFormat("%s/vm-%llu-%s.snap", ::testing::TempDir().c_str(),
                static_cast<unsigned long long>(infected_vm),
                kFarm.AddressAt(4).ToString().c_str());
  const auto snapshot = VmSnapshot::ReadFromFile(path);
  ASSERT_TRUE(snapshot.has_value()) << path;
  EXPECT_TRUE(snapshot->meta().infected);
  EXPECT_GT(snapshot->delta_pages(), 0u);
  std::remove(path.c_str());
}

TEST(ForensicsTest, CleanVmsNotArchived) {
  HoneyfarmConfig config = BaseConfig();
  config.server_template.forensics_dir = ::testing::TempDir();
  config.gateway.recycle.idle_timeout = Duration::Seconds(3);
  Honeyfarm farm(config);
  farm.Start();
  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(2)));
  farm.RunFor(Duration::Seconds(30.0));
  EXPECT_EQ(farm.TotalLiveVms(), 0u);
  EXPECT_EQ(farm.server(0).snapshots_written(), 0u);
}

TEST(ScannerFilterTest, KnownScannersStopSpawningVms) {
  HoneyfarmConfig config = BaseConfig();
  config.gateway.filter_known_scanners = true;
  config.gateway.scan_detector.distinct_threshold = 4;
  Honeyfarm farm(config);
  farm.Start();
  // One source sweeps 20 addresses; after the 4th distinct address it is flagged
  // and stops creating bindings.
  for (uint64_t i = 0; i < 20; ++i) {
    farm.InjectInbound(ProbeSyn(kFarm.AddressAt(i)));
  }
  farm.RunFor(Duration::Seconds(5.0));
  EXPECT_LE(farm.gateway().bindings().size(), 4u);
  EXPECT_GE(farm.gateway().stats().inbound_filtered_scanners, 16u);

  // Packets to an ALREADY-live VM still flow even from the flagged scanner.
  const uint64_t delivered_before = farm.gateway().stats().inbound_delivered;
  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(0)));
  farm.RunFor(Duration::Seconds(1.0));
  EXPECT_GT(farm.gateway().stats().inbound_delivered, delivered_before);
}

TEST(GreTerminationTest, TunneledTrafficReachesTheFarm) {
  HoneyfarmConfig config = BaseConfig();
  Honeyfarm farm(config);
  farm.Start();
  const Ipv4Address gateway_ip(192, 0, 2, 2);
  const Ipv4Address router_ip(192, 0, 2, 1);
  farm.EnableGreTermination(gateway_ip, router_ip, 42);

  // The border router wraps a telescope packet and ships it over the tunnel.
  GreTunnel router(router_ip, gateway_ip, 42);
  farm.InjectTunneled(router.Send(ProbeSyn(kFarm.AddressAt(8))));
  farm.RunFor(Duration::Seconds(2.0));
  EXPECT_EQ(farm.TotalLiveVms(), 1u);
  EXPECT_EQ(farm.gateway().stats().inbound_packets, 1u);
}

TEST(GreTerminationTest, ForeignTunnelsRejected) {
  HoneyfarmConfig config = BaseConfig();
  Honeyfarm farm(config);
  farm.Start();
  farm.EnableGreTermination(Ipv4Address(192, 0, 2, 2), Ipv4Address(192, 0, 2, 1), 42);
  GreTunnel wrong_key(Ipv4Address(192, 0, 2, 1), Ipv4Address(192, 0, 2, 2), 43);
  farm.InjectTunneled(wrong_key.Send(ProbeSyn(kFarm.AddressAt(8))));
  farm.RunFor(Duration::Seconds(2.0));
  EXPECT_EQ(farm.TotalLiveVms(), 0u);
  EXPECT_EQ(farm.gateway().stats().inbound_packets, 0u);
}

TEST(ScannerFilterTest, DisabledByDefault) {
  HoneyfarmConfig config = BaseConfig();
  Honeyfarm farm(config);
  farm.Start();
  for (uint64_t i = 0; i < 20; ++i) {
    farm.InjectInbound(ProbeSyn(kFarm.AddressAt(i)));
  }
  farm.RunFor(Duration::Seconds(5.0));
  EXPECT_EQ(farm.gateway().bindings().size(), 20u);
  EXPECT_EQ(farm.gateway().stats().inbound_filtered_scanners, 0u);
}

}  // namespace
}  // namespace potemkin
