#include "src/gateway/binding_table.h"

#include <gtest/gtest.h>

namespace potemkin {
namespace {

const Ipv4Address kIp(10, 1, 0, 5);

Packet SomePacket() {
  PacketSpec spec;
  spec.src_ip = Ipv4Address(1, 2, 3, 4);
  spec.dst_ip = kIp;
  spec.proto = IpProto::kTcp;
  spec.tcp_flags = TcpFlags::kSyn;
  return BuildPacket(spec);
}

TEST(BindingTableTest, CreateFindRemoveLifecycle) {
  BindingTable table;
  EXPECT_EQ(table.Find(kIp), nullptr);
  Binding& binding = table.CreatePending(kIp, /*host=*/3, TimePoint());
  EXPECT_EQ(binding.state, BindingState::kCloning);
  EXPECT_EQ(binding.host, 3u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Find(kIp), &binding);
  EXPECT_TRUE(table.Remove(kIp));
  EXPECT_FALSE(table.Remove(kIp));
  EXPECT_EQ(table.size(), 0u);
}

TEST(BindingTableTest, ActivateTransitionsState) {
  BindingTable table;
  table.CreatePending(kIp, 0, TimePoint());
  Binding* binding = table.Activate(kIp, /*vm=*/99, TimePoint() + Duration::Millis(500));
  ASSERT_NE(binding, nullptr);
  EXPECT_EQ(binding->state, BindingState::kActive);
  EXPECT_EQ(binding->vm, 99u);
  EXPECT_EQ(binding->last_activity, TimePoint() + Duration::Millis(500));
  EXPECT_EQ(table.Activate(Ipv4Address(9, 9, 9, 9), 1, TimePoint()), nullptr);
}

TEST(BindingTableTest, PendingQueueRespectsCap) {
  BindingTable table(/*pending_queue_cap=*/2);
  Binding& binding = table.CreatePending(kIp, 0, TimePoint());
  EXPECT_TRUE(table.QueuePending(binding, SomePacket()));
  EXPECT_TRUE(table.QueuePending(binding, SomePacket()));
  EXPECT_FALSE(table.QueuePending(binding, SomePacket()));
  EXPECT_EQ(binding.pending_count, 2u);
  EXPECT_EQ(table.stats().pending_dropped, 1u);
  const auto drained = table.TakePending(binding);
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_EQ(binding.pending_count, 0u);
  // Queue reusable after draining.
  EXPECT_TRUE(table.QueuePending(binding, SomePacket()));
}

TEST(BindingTableTest, PeakTracksHighWater) {
  BindingTable table;
  for (uint32_t i = 0; i < 5; ++i) {
    table.CreatePending(Ipv4Address(kIp.value() + i), 0, TimePoint());
  }
  for (uint32_t i = 0; i < 5; ++i) {
    table.Remove(Ipv4Address(kIp.value() + i));
  }
  EXPECT_EQ(table.stats().peak_live, 5u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(BindingTableTest, CollectIfSelectsMatching) {
  BindingTable table;
  for (uint32_t i = 0; i < 10; ++i) {
    Binding& binding = table.CreatePending(Ipv4Address(kIp.value() + i), 0, TimePoint());
    binding.infected = (i % 3 == 0);
  }
  const auto infected =
      table.CollectIf([](const Binding& b) { return b.infected; });
  EXPECT_EQ(infected.size(), 4u);  // i = 0,3,6,9
}

// Drives the open-addressed index through several rehash doublings plus a
// tombstone-heavy delete/reinsert cycle and verifies every key still resolves
// to its own binding.
TEST(BindingTableTest, GrowthTo64KiBindingsStaysConsistent) {
  BindingTable table;
  constexpr uint32_t kCount = 1u << 16;
  const uint32_t base = Ipv4Address(10, 0, 0, 0).value();
  for (uint32_t i = 0; i < kCount; ++i) {
    Binding& binding = table.CreatePending(Ipv4Address(base + i), i % 16, TimePoint());
    binding.vm = i;
  }
  EXPECT_EQ(table.size(), kCount);
  for (uint32_t i = 0; i < kCount; i += 257) {
    Binding* binding = table.Find(Ipv4Address(base + i));
    ASSERT_NE(binding, nullptr);
    EXPECT_EQ(binding->vm, i);
    EXPECT_EQ(binding->host, i % 16);
  }
  // Delete every even key (leaves tombstones), then reinsert with new payloads.
  for (uint32_t i = 0; i < kCount; i += 2) {
    ASSERT_TRUE(table.Remove(Ipv4Address(base + i)));
  }
  EXPECT_EQ(table.size(), kCount / 2);
  for (uint32_t i = 0; i < kCount; i += 2) {
    Binding& binding = table.CreatePending(Ipv4Address(base + i), 0, TimePoint());
    binding.vm = i + kCount;
  }
  EXPECT_EQ(table.size(), kCount);
  for (uint32_t i = 0; i < kCount; i += 129) {
    Binding* binding = table.Find(Ipv4Address(base + i));
    ASSERT_NE(binding, nullptr);
    EXPECT_EQ(binding->vm, i % 2 == 0 ? i + kCount : i);
  }
}

TEST(BindingTableTest, ForEachVisitsAll) {
  BindingTable table;
  for (uint32_t i = 0; i < 7; ++i) {
    table.CreatePending(Ipv4Address(kIp.value() + i), 0, TimePoint());
  }
  size_t visited = 0;
  table.ForEach([&](Binding&) { ++visited; });
  EXPECT_EQ(visited, 7u);
}

}  // namespace
}  // namespace potemkin
