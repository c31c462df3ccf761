// Property-based integration tests: farm-wide invariants that must hold under
// arbitrary randomized workloads, swept over seeds and policies with TEST_P.
//
//   P1 memory conservation — a host's used frames always decompose exactly into
//      image frames + per-VM domain overhead + per-VM private deltas
//   P2 share accounting    — an image frame's refcount is the number of live
//      generations holding it plus any explicit or dedup CoW shares; a clone
//      reading it through its pinned generation adds none
//   P3 containment         — under drop/reflect, the only packets on the real
//      Internet are responses to externally initiated flows
//   P4 determinism         — identical seeds give bit-identical farm statistics
//   P5 recycling totality  — after traffic stops and timeouts elapse, every VM
//      and every frame beyond the images is reclaimed
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/core/honeyfarm.h"

namespace potemkin {
namespace {

const Ipv4Prefix kFarm(Ipv4Address(10, 1, 0, 0), 20);

HoneyfarmConfig PropertyFarmConfig(OutboundMode mode, bool strict_tcp = false) {
  HoneyfarmConfig config = MakeDefaultFarmConfig(kFarm, /*num_hosts=*/2,
                                                 /*host_memory_mb=*/256,
                                                 ContentMode::kStoreBytes);
  config.server_template.image.num_pages = 512;
  config.server_template.host.domain_overhead_frames = 16;
  config.server_template.engine.latency = CloneLatencyModel::Optimized();
  config.server_template.engine.control_plane_workers = 4;
  config.gateway.containment.mode = mode;
  config.server_template.guest.strict_tcp = strict_tcp;
  config.gateway.recycle.idle_timeout = Duration::Seconds(20);
  config.gateway.recycle.infected_hold = Duration::Seconds(20);
  config.gateway.recycle.max_lifetime = Duration::Zero();
  return config;
}

// Random mixed workload: scans, service requests, exploits, icmp, from a mix of
// sources — some focused, some sweeping.
void DriveRandomTraffic(Honeyfarm& farm, Rng& rng, int packets,
                        Duration between_packets) {
  for (int i = 0; i < packets; ++i) {
    PacketSpec spec;
    spec.src_mac = MacAddress::FromId(rng.NextU64() & 0xffff);
    spec.dst_mac = MacAddress::FromId(1);
    spec.src_ip = Ipv4Address(static_cast<uint32_t>(0xc6000000u + rng.NextBelow(4096)));
    spec.dst_ip = kFarm.AddressAt(rng.NextBelow(64));  // focused on 64 addresses
    const double kind = rng.NextDouble();
    if (kind < 0.5) {
      spec.proto = IpProto::kTcp;
      spec.dst_port = rng.NextBool(0.5) ? 445 : 80;
      spec.tcp_flags = TcpFlags::kSyn;
    } else if (kind < 0.8) {
      spec.proto = IpProto::kTcp;
      spec.dst_port = 445;
      spec.tcp_flags = TcpFlags::kPsh | TcpFlags::kAck;
      spec.payload = {'S', 'M', 'B', 'r', 'e', 'q'};
      if (rng.NextBool(0.1)) {
        const char* sig = "EXPLOIT-LSASS";
        spec.payload.assign(sig, sig + 13);
      }
    } else if (kind < 0.9) {
      spec.proto = IpProto::kUdp;
      spec.dst_port = 1434;
      spec.payload = {0x04};
    } else {
      spec.proto = IpProto::kIcmp;
    }
    spec.src_port = static_cast<uint16_t>(1024 + rng.NextBelow(60000));
    farm.InjectInbound(BuildPacket(spec));
    farm.RunFor(between_packets);
  }
}

struct MemoryAccounting {
  uint64_t used_frames = 0;
  uint64_t expected = 0;
};

MemoryAccounting AccountHost(CloneServer& server, uint32_t image_pages,
                             uint64_t overhead_frames, size_t num_images) {
  MemoryAccounting acc;
  acc.used_frames = server.host().allocator().used_frames();
  uint64_t private_pages = 0;
  uint64_t vms = 0;
  server.host().ForEachVm([&](VirtualMachine& vm) {
    private_pages += vm.memory().private_pages();
    ++vms;
  });
  acc.expected = static_cast<uint64_t>(image_pages) * num_images +
                 vms * overhead_frames + private_pages;
  return acc;
}

class FarmPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, OutboundMode, bool>> {};

TEST_P(FarmPropertyTest, MemoryConservationAndShareAccounting) {
  const auto [seed, mode, strict] = GetParam();
  HoneyfarmConfig config = PropertyFarmConfig(mode, strict);
  Honeyfarm farm(config);
  farm.Start();
  Rng rng(seed);
  DriveRandomTraffic(farm, rng, 300, Duration::Millis(50));

  // P1: frame conservation on every host, mid-flight.
  for (size_t s = 0; s < farm.server_count(); ++s) {
    const auto acc = AccountHost(farm.server(s), 512,
                                 config.server_template.host.domain_overhead_frames, 1);
    EXPECT_EQ(acc.used_frames, acc.expected) << "host " << s << " seed " << seed;
  }

  // P2: spot-check image frame refcounts on host 0. The image has one
  // generation and dedup never merges into image frames, so each image frame
  // holds exactly the generation's reference however many clones share it.
  const ReferenceImage* image = farm.server(0).host().image(0);
  ASSERT_NE(image, nullptr);
  ASSERT_EQ(image->live_generations(), 1u);
  uint32_t sharers = 0;
  for (Gpfn gpfn = 0; gpfn < 512; gpfn += 97) {
    const FrameId frame = image->FrameForPage(gpfn);
    farm.server(0).host().ForEachVm([&](VirtualMachine& vm) {
      if (vm.memory().IsCowShared(gpfn) && vm.memory().FrameAt(gpfn) == frame) {
        ++sharers;
      }
    });
    EXPECT_EQ(farm.server(0).host().allocator().RefCount(frame), 1u)
        << "gpfn " << gpfn;
  }
  EXPECT_GT(sharers, 0u) << "no live clone shares a sampled image page";
}

TEST_P(FarmPropertyTest, ContainmentOnlyLetsResponsesOut) {
  const auto [seed, mode, strict] = GetParam();
  if (mode == OutboundMode::kOpen) {
    GTEST_SKIP() << "open mode intentionally leaks";
  }
  HoneyfarmConfig config = PropertyFarmConfig(mode, strict);
  Honeyfarm farm(config);
  // Every egress packet must be the reverse of an externally-initiated flow.
  std::vector<Packet> egress;
  farm.set_egress_monitor([&](const Packet& p) { egress.push_back(p); });
  farm.Start();
  Rng rng(seed);
  DriveRandomTraffic(farm, rng, 300, Duration::Millis(50));
  farm.RunFor(Duration::Seconds(5.0));

  EXPECT_EQ(farm.gateway().containment().stats().escapes_from_infected, 0u);
  for (const auto& packet : egress) {
    const auto view = PacketView::Parse(packet);
    ASSERT_TRUE(view.has_value());
    // Response invariant: source is a farm address, destination is external.
    EXPECT_TRUE(kFarm.Contains(view->ip().src)) << view->Describe();
    EXPECT_FALSE(kFarm.Contains(view->ip().dst)) << view->Describe();
  }
}

TEST_P(FarmPropertyTest, DeterministicAcrossRuns) {
  const auto [seed, mode, strict] = GetParam();
  auto run = [&](uint64_t s) {
    HoneyfarmConfig config = PropertyFarmConfig(mode, strict);
    config.seed = s;
    Honeyfarm farm(config);
    farm.Start();
    Rng rng(s);
    DriveRandomTraffic(farm, rng, 200, Duration::Millis(40));
    farm.RunFor(Duration::Seconds(3.0));
    const GatewayStats& g = farm.gateway().stats();
    return std::make_tuple(g.inbound_packets, g.inbound_delivered, g.clones_triggered,
                           g.outbound_packets, g.reflections_injected,
                           farm.TotalLiveVms(), farm.TotalUsedFrames(),
                           farm.epidemic().total_infections());
  };
  EXPECT_EQ(run(seed), run(seed));
}

TEST_P(FarmPropertyTest, RecyclingReclaimsEverything) {
  const auto [seed, mode, strict] = GetParam();
  HoneyfarmConfig config = PropertyFarmConfig(mode, strict);
  Honeyfarm farm(config);
  farm.Start();
  const uint64_t baseline = farm.TotalUsedFrames();
  Rng rng(seed);
  DriveRandomTraffic(farm, rng, 200, Duration::Millis(20));
  EXPECT_GT(farm.TotalUsedFrames(), baseline);
  // No more traffic: idle + infected-hold timeouts all elapse.
  farm.RunFor(Duration::Minutes(2));
  EXPECT_EQ(farm.TotalLiveVms(), 0u);
  EXPECT_EQ(farm.TotalUsedFrames(), baseline);
  EXPECT_EQ(farm.gateway().bindings().size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPolicies, FarmPropertyTest,
    ::testing::Combine(::testing::Values(1ull, 42ull, 12345ull),
                       ::testing::Values(OutboundMode::kOpen, OutboundMode::kDropAll,
                                         OutboundMode::kReflect),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, OutboundMode, bool>>&
           param_info) {
      std::string mode = OutboundModeName(std::get<1>(param_info.param));
      for (char& c : mode) {
        if (c == '-') {
          c = '_';
        }
      }
      return "seed" + std::to_string(std::get<0>(param_info.param)) + "_" +
             mode + (std::get<2>(param_info.param) ? "_strict" : "_permissive");
    });

}  // namespace
}  // namespace potemkin
