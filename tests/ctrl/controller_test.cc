// Controller tests: drain with live sessions, crash failover (including clones
// still in flight when their host fails), image rotation with pinned clones —
// each over a real farm on one virtual-time loop.
#include "src/ctrl/controller.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/core/honeyfarm.h"

namespace potemkin {
namespace {

const Ipv4Prefix kFarm(Ipv4Address(10, 1, 0, 0), 20);
const Ipv4Address kExternal(198, 51, 100, 7);

HoneyfarmConfig SmallFarm(uint32_t hosts) {
  HoneyfarmConfig config = MakeDefaultFarmConfig(kFarm, hosts,
                                                 /*host_memory_mb=*/128,
                                                 ContentMode::kStoreBytes);
  config.server_template.image.num_pages = 1024;
  config.gateway.containment.mode = OutboundMode::kReflect;
  config.gateway.recycle.idle_timeout = Duration::Minutes(10);  // keep VMs up
  return config;
}

ControllerConfig FastController() {
  ControllerConfig config;
  config.tick = Duration::Millis(100);
  config.drain_deadline = Duration::Seconds(5);
  config.warmup = Duration::Seconds(1);
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

TEST(ControllerTest, DrainMigratesSessionsAndRetiresHost) {
  Honeyfarm farm(SmallFarm(/*hosts=*/2));
  Controller controller(&farm, FastController());
  farm.Start();
  controller.Start();

  // Bindings spread over both hosts.
  for (uint64_t i = 0; i < 8; ++i) {
    farm.InjectInbound(ProbeSyn(kFarm.AddressAt(i)));
  }
  farm.RunFor(Duration::Seconds(3.0));
  ASSERT_GT(farm.sharded_gateway().CountHostBindings(0), 0u);
  const size_t total = farm.gateway().bindings().size();

  controller.DrainHost(0);
  EXPECT_EQ(controller.pool().state(0), BackendState::kDraining);
  farm.RunFor(Duration::Seconds(4.0));

  // The drained host is empty and retired; no session was lost — every
  // binding either migrated to host 1 or still answers from there.
  EXPECT_EQ(farm.sharded_gateway().CountHostBindings(0), 0u);
  EXPECT_EQ(controller.pool().state(0), BackendState::kDown);
  EXPECT_EQ(controller.stats().drains_completed, 1u);
  EXPECT_EQ(controller.stats().drains_forced, 0u);
  EXPECT_GT(controller.stats().migrations, 0u);
  EXPECT_EQ(farm.gateway().bindings().size(), total);

  // The farm still answers probes (on the surviving host).
  std::vector<Packet> egress;
  farm.set_egress_monitor([&](const Packet& p) { egress.push_back(p); });
  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(100)));
  farm.RunFor(Duration::Seconds(2.0));
  EXPECT_FALSE(egress.empty());
  const Binding* binding = farm.gateway().bindings().Find(kFarm.AddressAt(100));
  ASSERT_NE(binding, nullptr);
  EXPECT_EQ(binding->host, 1u);
}

TEST(ControllerTest, CrashFailoverReroutesInsteadOfBlackholing) {
  Honeyfarm farm(SmallFarm(/*hosts=*/2));
  Controller controller(&farm, FastController());
  farm.Start();
  controller.Start();

  const Ipv4Address victim = kFarm.AddressAt(3);
  farm.InjectInbound(ProbeSyn(victim));
  farm.RunFor(Duration::Seconds(2.0));
  const Binding* binding = farm.gateway().bindings().Find(victim);
  ASSERT_NE(binding, nullptr);
  const HostId crashed = binding->host;

  farm.CrashHost(crashed);
  farm.RunFor(Duration::Seconds(1.0));  // a tick detects and fails over

  EXPECT_EQ(controller.pool().state(crashed), BackendState::kDown);
  EXPECT_EQ(controller.stats().failovers, 1u);
  EXPECT_EQ(farm.sharded_gateway().CountHostBindings(crashed), 0u);
  EXPECT_EQ(farm.gateway().bindings().Find(victim), nullptr);

  // The next probe for the same address re-routes to the healthy host and
  // gets answered — the flow was never blackholed into the dead backend.
  std::vector<Packet> egress;
  farm.set_egress_monitor([&](const Packet& p) { egress.push_back(p); });
  farm.InjectInbound(ProbeSyn(victim));
  farm.RunFor(Duration::Seconds(2.0));
  const Binding* rebound = farm.gateway().bindings().Find(victim);
  ASSERT_NE(rebound, nullptr);
  EXPECT_NE(rebound->host, crashed);
  EXPECT_FALSE(egress.empty());
}

TEST(ControllerTest, ExplicitFailHostInvalidatesImmediately) {
  Honeyfarm farm(SmallFarm(/*hosts=*/2));
  Controller controller(&farm, FastController());
  farm.Start();
  controller.Start();
  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(1)));
  farm.RunFor(Duration::Seconds(2.0));
  const Binding* binding = farm.gateway().bindings().Find(kFarm.AddressAt(1));
  ASSERT_NE(binding, nullptr);
  const HostId host = binding->host;

  controller.FailHost(host);  // no tick needed
  EXPECT_EQ(controller.pool().state(host), BackendState::kDown);
  EXPECT_EQ(farm.sharded_gateway().CountHostBindings(host), 0u);
}

// A clone still in flight when its host fails must not complete into the
// binding that replaced it. The first SYN to `x` starts a clone on host 0,
// host 0 fails 10 ms later, and a second SYN at 20 ms rebinds `x` on host 1.
// Host 0's clone then either fails (host 0 stays down) or comes up on the
// revived host; neither may touch host 1's binding, and a VM that came up for
// the replaced binding is retired rather than left running unreachable.
TEST(ControllerTest, CloneInFlightAtFailoverLeavesItsReplacementAlone) {
  for (const bool revive : {false, true}) {
    SCOPED_TRACE(revive ? "host 0 revived at 120 ms" : "host 0 stays down");
    Honeyfarm farm(SmallFarm(/*hosts=*/2));
    Controller controller(&farm, FastController());
    std::vector<Packet> egress;
    farm.set_egress_monitor([&](const Packet& p) { egress.push_back(p); });
    farm.Start();
    controller.Start();
    const Ipv4Address x = kFarm.AddressAt(7);

    farm.InjectInbound(ProbeSyn(x));
    farm.RunFor(Duration::Millis(10));
    controller.FailHost(0);
    farm.RunFor(Duration::Millis(10));
    farm.InjectInbound(ProbeSyn(x));
    if (revive) {
      farm.RunFor(Duration::Millis(100));
      controller.ReviveHost(0);
    }
    farm.RunFor(Duration::Seconds(3.0));

    // Host 1's clone serves `x` and answered the second SYN.
    const Binding* binding = farm.gateway().bindings().Find(x);
    ASSERT_NE(binding, nullptr);
    EXPECT_EQ(binding->state, BindingState::kActive);
    EXPECT_EQ(binding->host, 1u);
    EXPECT_NE(farm.server(1).host().FindVm(binding->vm), nullptr);
    EXPECT_EQ(farm.gateway().stats().clone_failures, 0u);
    EXPECT_EQ(egress.size(), 1u);
    // The bound VM is the only one running, so idle recycling (10 minutes)
    // empties the farm.
    EXPECT_EQ(farm.TotalLiveVms(), 1u);
    farm.RunFor(Duration::Minutes(15));
    EXPECT_EQ(farm.TotalLiveVms(), 0u);
  }
}

TEST(ControllerTest, RotationLeavesInFlightClonesPinned) {
  Honeyfarm farm(SmallFarm(/*hosts=*/1));
  ControllerConfig config = FastController();
  Controller controller(&farm, config);
  farm.Start();
  controller.Start();

  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(5)));
  farm.RunFor(Duration::Seconds(2.0));
  const Binding* binding = farm.gateway().bindings().Find(kFarm.AddressAt(5));
  ASSERT_NE(binding, nullptr);
  const VmId pinned_vm = binding->vm;
  CloneServer& server = farm.server(0);
  const ImageGeneration old_generation =
      server.host().VmGeneration(pinned_vm);

  const size_t rotated = controller.RotateImages();
  EXPECT_GT(rotated, 0u);
  EXPECT_EQ(controller.stats().rotations, rotated);

  const ReferenceImage* image =
      server.host().mutable_image(server.image_id());
  ASSERT_NE(image, nullptr);
  EXPECT_GT(image->current_generation(), old_generation);
  // The live clone keeps serving from the generation it booted.
  EXPECT_EQ(server.host().VmGeneration(pinned_vm), old_generation);

  // A clone spawned after rotation boots the new generation.
  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(6)));
  farm.RunFor(Duration::Seconds(2.0));
  const Binding* fresh = farm.gateway().bindings().Find(kFarm.AddressAt(6));
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(server.host().VmGeneration(fresh->vm), image->current_generation());
}

TEST(ControllerTest, ScoredPlacementFollowsHostScoreFn) {
  HoneyfarmConfig config = SmallFarm(/*hosts=*/2);
  config.gateway.placement = PlacementKind::kScored;
  Honeyfarm farm(config);
  farm.set_host_score_fn(
      [](HostId host) { return host == 1 ? 1.0 : 0.0; });
  farm.Start();
  for (uint64_t i = 0; i < 4; ++i) {
    farm.InjectInbound(ProbeSyn(kFarm.AddressAt(i)));
  }
  farm.RunFor(Duration::Seconds(2.0));
  // Every binding chased the higher score.
  EXPECT_EQ(farm.sharded_gateway().CountHostBindings(0), 0u);
  EXPECT_EQ(farm.sharded_gateway().CountHostBindings(1), 4u);
}

TEST(ControllerTest, ControllerDecisionsLandInLedger) {
  Honeyfarm farm(SmallFarm(/*hosts=*/2));
  Controller controller(&farm, FastController());
  farm.Start();
  controller.Start();
  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(2)));
  farm.RunFor(Duration::Seconds(2.0));
  controller.DrainHost(0);
  farm.RunFor(Duration::Seconds(4.0));

  bool saw_drain_begin = false, saw_drain_end = false, saw_state = false;
  for (const auto& record : farm.ledger().Events()) {
    saw_drain_begin |= record.type == LedgerEvent::kCtrlDrainBegin;
    saw_drain_end |= record.type == LedgerEvent::kCtrlDrainEnd;
    saw_state |= record.type == LedgerEvent::kCtrlState;
  }
  EXPECT_TRUE(saw_drain_begin);
  EXPECT_TRUE(saw_drain_end);
  EXPECT_TRUE(saw_state);
}

TEST(ControllerDeathTest, ServerIndexOutOfRangeChecks) {
  Honeyfarm farm(SmallFarm(/*hosts=*/2));
  EXPECT_DEATH(farm.server(99), "out of range");
}

}  // namespace
}  // namespace potemkin
