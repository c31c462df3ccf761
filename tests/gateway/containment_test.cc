// Containment engine, scan detector, DNS proxy and recycler policy unit tests.
#include "src/gateway/containment.h"

#include <gtest/gtest.h>

#include "src/base/event_loop.h"
#include "src/gateway/dns_proxy.h"
#include "src/gateway/recycler.h"
#include "src/gateway/scan_detector.h"

namespace potemkin {
namespace {

const Ipv4Prefix kFarm(Ipv4Address(10, 1, 0, 0), 16);
const Ipv4Address kVmIp(10, 1, 0, 5);
const Ipv4Address kExternal(201, 44, 3, 2);

PacketView OutboundView(Packet& storage, Ipv4Address dst, IpProto proto = IpProto::kTcp,
                        uint16_t dport = 445) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(5);
  spec.dst_mac = MacAddress::FromId(1);
  spec.src_ip = kVmIp;
  spec.dst_ip = dst;
  spec.proto = proto;
  spec.src_port = 1234;
  spec.dst_port = dport;
  storage = BuildPacket(spec);
  return *PacketView::Parse(storage);
}

TEST(ContainmentTest, OpenModeAllowsAndCountsEscapes) {
  ContainmentConfig config;
  config.mode = OutboundMode::kOpen;
  config.dns_proxy = false;
  ContainmentEngine engine(config, kFarm, 1);
  Packet p;
  EXPECT_EQ(engine.Classify(OutboundView(p, kExternal), 1, /*infected=*/false,
                            TimePoint()),
            OutboundAction::kAllow);
  EXPECT_EQ(engine.Classify(OutboundView(p, kExternal), 1, /*infected=*/true,
                            TimePoint()),
            OutboundAction::kAllow);
  EXPECT_EQ(engine.stats().allowed, 2u);
  EXPECT_EQ(engine.stats().escapes_from_infected, 1u);
}

TEST(ContainmentTest, DropAllDrops) {
  ContainmentConfig config;
  config.mode = OutboundMode::kDropAll;
  ContainmentEngine engine(config, kFarm, 1);
  Packet p;
  EXPECT_EQ(engine.Classify(OutboundView(p, kExternal), 1, true, TimePoint()),
            OutboundAction::kDrop);
  EXPECT_EQ(engine.stats().dropped, 1u);
  EXPECT_EQ(engine.stats().escapes_from_infected, 0u);
}

TEST(ContainmentTest, ReflectModeReflects) {
  ContainmentConfig config;
  config.mode = OutboundMode::kReflect;
  ContainmentEngine engine(config, kFarm, 1);
  Packet p;
  EXPECT_EQ(engine.Classify(OutboundView(p, kExternal), 1, true, TimePoint()),
            OutboundAction::kReflect);
  EXPECT_EQ(engine.stats().reflected, 1u);
  EXPECT_EQ(engine.stats().escapes_from_infected, 0u);
}

TEST(ContainmentTest, InternalDestinationsBypassPolicy) {
  ContainmentConfig config;
  config.mode = OutboundMode::kDropAll;
  ContainmentEngine engine(config, kFarm, 1);
  Packet p;
  EXPECT_EQ(engine.Classify(OutboundView(p, kFarm.AddressAt(77)), 1, true,
                            TimePoint()),
            OutboundAction::kInternal);
}

TEST(ContainmentTest, DnsQueriesGoToProxy) {
  ContainmentConfig config;
  config.mode = OutboundMode::kDropAll;
  config.dns_proxy = true;
  ContainmentEngine engine(config, kFarm, 1);
  Packet p;
  EXPECT_EQ(engine.Classify(OutboundView(p, kExternal, IpProto::kUdp, 53), 1, true,
                            TimePoint()),
            OutboundAction::kDnsProxy);
  config.dns_proxy = false;
  ContainmentEngine no_proxy(config, kFarm, 1);
  EXPECT_EQ(no_proxy.Classify(OutboundView(p, kExternal, IpProto::kUdp, 53), 1, true,
                              TimePoint()),
            OutboundAction::kDrop);
}

TEST(ContainmentTest, AllowListPassesEvenInDropMode) {
  ContainmentConfig config;
  config.mode = OutboundMode::kDropAll;
  config.allowed_ports = {25};
  ContainmentEngine engine(config, kFarm, 1);
  Packet p;
  EXPECT_EQ(engine.Classify(OutboundView(p, kExternal, IpProto::kTcp, 25), 1, true,
                            TimePoint()),
            OutboundAction::kAllow);
  EXPECT_EQ(engine.stats().allow_list_hits, 1u);
  EXPECT_EQ(engine.stats().escapes_from_infected, 1u);  // escapes still counted
}

TEST(ContainmentTest, RateLimitKicksIn) {
  ContainmentConfig config;
  config.mode = OutboundMode::kReflect;
  config.rate_limit_pps = 10.0;
  config.rate_limit_burst = 3.0;
  ContainmentEngine engine(config, kFarm, 1);
  Packet p;
  TimePoint now;
  int reflected = 0;
  int limited = 0;
  for (int i = 0; i < 10; ++i) {
    const auto action = engine.Classify(OutboundView(p, kExternal), 7, true, now);
    if (action == OutboundAction::kReflect) {
      ++reflected;
    } else if (action == OutboundAction::kRateLimit) {
      ++limited;
    }
  }
  EXPECT_EQ(reflected, 3);  // burst
  EXPECT_EQ(limited, 7);
  // After a second, tokens replenish.
  now += Duration::Seconds(1.0);
  EXPECT_EQ(engine.Classify(OutboundView(p, kExternal), 7, true, now),
            OutboundAction::kReflect);
}

TEST(ContainmentTest, RateLimitIsPerVm) {
  ContainmentConfig config;
  config.mode = OutboundMode::kReflect;
  config.rate_limit_pps = 10.0;
  config.rate_limit_burst = 1.0;
  ContainmentEngine engine(config, kFarm, 1);
  Packet p;
  EXPECT_EQ(engine.Classify(OutboundView(p, kExternal), 1, true, TimePoint()),
            OutboundAction::kReflect);
  EXPECT_EQ(engine.Classify(OutboundView(p, kExternal), 1, true, TimePoint()),
            OutboundAction::kRateLimit);
  // A different VM has its own bucket.
  EXPECT_EQ(engine.Classify(OutboundView(p, kExternal), 2, true, TimePoint()),
            OutboundAction::kReflect);
}

TEST(ContainmentTest, KeyedReflectionIsStable) {
  ContainmentConfig config;
  ContainmentEngine engine(config, kFarm, 1);
  const Ipv4Address a = engine.ReflectTarget(kExternal, kVmIp);
  const Ipv4Address b = engine.ReflectTarget(kExternal, kVmIp);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(kFarm.Contains(a));
  const Ipv4Address other = engine.ReflectTarget(Ipv4Address(201, 44, 3, 3), kVmIp);
  EXPECT_NE(a, other);
}

TEST(ContainmentTest, RandomReflectionVaries) {
  ContainmentConfig config;
  config.keyed_reflection = false;
  ContainmentEngine engine(config, kFarm, 1);
  const Ipv4Address a = engine.ReflectTarget(kExternal, kVmIp);
  const Ipv4Address b = engine.ReflectTarget(kExternal, kVmIp);
  EXPECT_NE(a, b);
  EXPECT_TRUE(kFarm.Contains(a));
  EXPECT_TRUE(kFarm.Contains(b));
}

TEST(ContainmentTest, ReflectionNeverTargetsSource) {
  ContainmentConfig config;
  ContainmentEngine engine(config, kFarm, 1);
  for (uint32_t i = 0; i < 500; ++i) {
    const Ipv4Address external(201, 1, static_cast<uint8_t>(i >> 8),
                               static_cast<uint8_t>(i));
    EXPECT_NE(engine.ReflectTarget(external, kVmIp), kVmIp);
  }
}

TEST(ScanDetectorTest, FlagsSourceAfterThreshold) {
  ScanDetectorConfig config;
  config.distinct_threshold = 4;
  config.window = Duration::Seconds(60);
  ScanDetector detector(config);
  TimePoint now;
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(
        detector.Record(kExternal, kFarm.AddressAt(static_cast<uint64_t>(i)), now));
  }
  EXPECT_TRUE(detector.Record(kExternal, kFarm.AddressAt(3), now));
  EXPECT_TRUE(detector.IsScanner(kExternal));
  EXPECT_EQ(detector.scanners_flagged(), 1u);
}

TEST(ScanDetectorTest, RepeatContactsDoNotCount) {
  ScanDetectorConfig config;
  config.distinct_threshold = 3;
  ScanDetector detector(config);
  TimePoint now;
  for (int i = 0; i < 10; ++i) {
    detector.Record(kExternal, kFarm.AddressAt(1), now);
  }
  EXPECT_FALSE(detector.IsScanner(kExternal));
}

TEST(ScanDetectorTest, WindowResetsDistinctCounting) {
  ScanDetectorConfig config;
  config.distinct_threshold = 4;
  config.window = Duration::Seconds(10);
  ScanDetector detector(config);
  TimePoint now;
  detector.Record(kExternal, kFarm.AddressAt(0), now);
  detector.Record(kExternal, kFarm.AddressAt(1), now);
  now += Duration::Seconds(20.0);
  detector.Record(kExternal, kFarm.AddressAt(2), now);
  detector.Record(kExternal, kFarm.AddressAt(3), now);
  EXPECT_FALSE(detector.IsScanner(kExternal));  // never 4 within one window
}

TEST(ScanDetectorTest, IdleSourcesExpire) {
  ScanDetector detector(ScanDetectorConfig{});
  TimePoint now;
  detector.Record(kExternal, kFarm.AddressAt(0), now);
  EXPECT_EQ(detector.tracked_sources(), 1u);
  EXPECT_EQ(detector.ExpireIdle(now + Duration::Minutes(5)), 1u);
  EXPECT_EQ(detector.tracked_sources(), 0u);
}

TEST(DnsProxyTest, StableAnswersInsideFarm) {
  DnsProxy proxy(kFarm, 9);
  DnsQuery query;
  query.id = 5;
  query.name = "cc.botnet.example";
  const DnsResponse a = proxy.Resolve(query);
  const DnsResponse b = proxy.Resolve(query);
  ASSERT_EQ(a.addresses.size(), 1u);
  EXPECT_EQ(a.addresses[0], b.addresses[0]);
  EXPECT_TRUE(kFarm.Contains(a.addresses[0]));
  EXPECT_EQ(a.id, 5);
  EXPECT_EQ(a.rcode, 0);
}

TEST(DnsProxyTest, DifferentNamesDifferentAddresses) {
  DnsProxy proxy(kFarm, 9);
  DnsQuery a;
  a.name = "one.example";
  DnsQuery b;
  b.name = "two.example";
  EXPECT_NE(proxy.Resolve(a).addresses[0], proxy.Resolve(b).addresses[0]);
}

TEST(DnsProxyTest, NonAQueriesGetNxdomain) {
  DnsProxy proxy(kFarm, 9);
  DnsQuery query;
  query.name = "x.example";
  query.qtype = 15;  // MX
  const DnsResponse response = proxy.Resolve(query);
  EXPECT_EQ(response.rcode, 3);
  EXPECT_TRUE(response.addresses.empty());
}

TEST(RecyclerPolicyTest, ShouldRetireLogic) {
  RecyclePolicy policy;
  policy.idle_timeout = Duration::Seconds(10);
  policy.max_lifetime = Duration::Minutes(5);
  policy.infected_hold = Duration::Seconds(60);

  Binding binding;
  binding.state = BindingState::kActive;
  binding.created = TimePoint();
  binding.last_activity = TimePoint();

  EXPECT_FALSE(ShouldRetire(binding, policy, TimePoint() + Duration::Seconds(5.0)));
  EXPECT_TRUE(ShouldRetire(binding, policy, TimePoint() + Duration::Seconds(11.0)));

  // Infected VMs get the longer hold.
  binding.infected = true;
  EXPECT_FALSE(ShouldRetire(binding, policy, TimePoint() + Duration::Seconds(11.0)));
  EXPECT_TRUE(ShouldRetire(binding, policy, TimePoint() + Duration::Seconds(61.0)));

  // Max lifetime applies regardless of activity.
  binding.infected = false;
  binding.last_activity = TimePoint() + Duration::Minutes(5);
  EXPECT_TRUE(ShouldRetire(binding, policy, TimePoint() + Duration::Minutes(5)));

  // Cloning bindings are never retired.
  binding.state = BindingState::kCloning;
  EXPECT_FALSE(ShouldRetire(binding, policy, TimePoint() + Duration::Hours(1)));
}

}  // namespace
}  // namespace potemkin
