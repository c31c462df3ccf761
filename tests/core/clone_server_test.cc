// CloneServer delivery tests: every packet in flight from the gateway to a VM
// waits in the server's one FIFO, and deliveries keep their call order, drop
// cleanly when their VM or host is gone, and return every frame to the pool.
#include "src/core/clone_server.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/guest/service.h"
#include "src/net/packet_pool.h"

namespace potemkin {
namespace {

const Ipv4Prefix kFarm(Ipv4Address(10, 1, 0, 0), 24);

// (VM that answered, echo sequence number it answered).
using Replies = std::vector<std::pair<VmId, uint16_t>>;

class DeliveryFifoTest : public testing::Test {
 protected:
  DeliveryFifoTest() : server_(&loop_, Config(), 7) {
    server_.set_outbound_handler([this](HostId, VmId vm, Packet reply) {
      const auto view = PacketView::Parse(reply);
      ASSERT_TRUE(view.has_value());
      replies_.emplace_back(vm, view->icmp().seq);
    });
  }

  static CloneServerConfig Config() {
    CloneServerConfig config;
    config.host.memory_mb = 128;
    config.image.num_pages = 512;
    config.guest.services = DefaultWindowsServices();
    return config;
  }

  // Brings up `count` VMs.
  std::vector<VmId> Spawn(uint32_t count) {
    std::vector<VmId> vms;
    for (uint32_t i = 0; i < count; ++i) {
      server_.SpawnVm(kFarm.AddressAt(1 + i), kNoSession,
                      [&vms](VmId vm) { vms.push_back(vm); });
    }
    loop_.RunFor(Duration::Seconds(10));
    EXPECT_EQ(vms.size(), count);
    return vms;
  }

  // Sends `vm` an echo request numbered `seq`, which its guest answers at once.
  void Deliver(VmId vm, uint16_t seq) {
    PacketSpec spec;
    spec.src_ip = Ipv4Address(198, 51, 100, 9);
    spec.dst_ip = kFarm.AddressAt(1);
    spec.proto = IpProto::kIcmp;
    spec.icmp_seq = seq;
    Packet packet = BuildPacket(spec);
    const auto view = PacketView::Parse(packet);
    ASSERT_TRUE(view.has_value());
    server_.DeliverToVm(vm, std::move(packet), *view);
  }

  EventLoop loop_;
  CloneServer server_;
  Replies replies_;
};

TEST_F(DeliveryFifoTest, DeliveryToVmRetiredInFlightIsDroppedAndItsFrameReturned) {
  const std::vector<VmId> vms = Spawn(2);
  ASSERT_EQ(vms.size(), 2u);
  const PacketPool::Stats before = PacketPool::Default().stats();
  Deliver(vms[0], 1);
  Deliver(vms[1], 2);
  server_.RetireVm(vms[0]);
  loop_.RunFor(Duration::Seconds(1));
  EXPECT_EQ(replies_, (Replies{{vms[1], 2}}));
  // Two requests and one reply: every frame went back to the pool.
  const PacketPool::Stats after = PacketPool::Default().stats();
  EXPECT_EQ(after.acquires - before.acquires, 3u);
  EXPECT_EQ(after.releases - before.releases, 3u);
}

TEST_F(DeliveryFifoTest, CrashDropsDeliveriesInFlightAndLeaksNothing) {
  const std::vector<VmId> vms = Spawn(3);
  ASSERT_EQ(vms.size(), 3u);
  const PacketPool::Stats before = PacketPool::Default().stats();
  for (uint16_t i = 0; i < 3; ++i) {
    Deliver(vms[i], i);
  }
  server_.Crash();
  loop_.RunFor(Duration::Seconds(1));
  EXPECT_TRUE(replies_.empty());
  for (const VmId vm : vms) {
    EXPECT_EQ(server_.FindGuest(vm), nullptr);
  }
  const PacketPool::Stats after = PacketPool::Default().stats();
  EXPECT_EQ(after.acquires - before.acquires, 3u);
  EXPECT_EQ(after.releases - before.releases, 3u);
}

TEST_F(DeliveryFifoTest, DeliveriesToSeveralVmsArriveInCallOrder) {
  const std::vector<VmId> vms = Spawn(3);
  ASSERT_EQ(vms.size(), 3u);
  Replies want;
  const size_t targets[] = {2, 0, 1, 1, 0, 2, 0, 2, 1, 1};
  uint16_t seq = 0;
  for (const size_t target : targets) {
    Deliver(vms[target], seq);
    want.emplace_back(vms[target], seq);
    ++seq;
    if (seq % 4 == 0) {
      loop_.RunFor(Duration::Micros(20));  // later sends fall due later
    }
  }
  loop_.RunFor(Duration::Seconds(1));
  EXPECT_EQ(replies_, want);
}

TEST_F(DeliveryFifoTest, BurstBeyondTheRingsFirstCapacityKeepsCallOrder) {
  // The ring starts with 64 entries and doubles when full. Delivering 40
  // first moves its head, so the burst wraps around the ring before it grows.
  const std::vector<VmId> vms = Spawn(4);
  ASSERT_EQ(vms.size(), 4u);
  const PacketPool::Stats before = PacketPool::Default().stats();
  Replies want;
  for (uint16_t seq = 0; seq < 1040; ++seq) {
    const VmId vm = vms[(seq * 7u) % vms.size()];
    Deliver(vm, seq);
    want.emplace_back(vm, seq);
    if (seq == 39) {
      loop_.RunFor(Duration::Micros(50));  // the first 40 fall due
      EXPECT_EQ(replies_.size(), 40u);
    }
  }
  loop_.RunFor(Duration::Seconds(1));
  EXPECT_EQ(replies_, want);
  const PacketPool::Stats after = PacketPool::Default().stats();
  EXPECT_EQ(after.acquires - before.acquires, 2u * 1040u);
  EXPECT_EQ(after.releases - before.releases, 2u * 1040u);
}

}  // namespace
}  // namespace potemkin
