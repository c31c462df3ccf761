#include "src/base/bounded_ring.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/net/packet.h"

namespace potemkin {
namespace {

TEST(BoundedRingTest, StartsEmpty) {
  BoundedRing<int> ring(4);
  EXPECT_TRUE(ring.Empty());
  EXPECT_EQ(ring.size(), 0u);
  int out = 0;
  EXPECT_FALSE(ring.TryPop(&out));
}

TEST(BoundedRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(BoundedRing<int>(1).capacity(), 2u);
  EXPECT_EQ(BoundedRing<int>(4).capacity(), 4u);
  EXPECT_EQ(BoundedRing<int>(5).capacity(), 8u);
  EXPECT_EQ(BoundedRing<int>(4096).capacity(), 4096u);
}

TEST(BoundedRingTest, PushPopIsFifo) {
  BoundedRing<int> ring(8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ring.TryPush(std::move(i)));
  }
  EXPECT_EQ(ring.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    int out = -1;
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_TRUE(ring.Empty());
}

TEST(BoundedRingTest, FullRingRejectsAndLeavesValueIntact) {
  BoundedRing<std::unique_ptr<int>> ring(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.TryPush(std::make_unique<int>(i)));
  }
  // The rejected element must survive the failed push (the sharded gateway
  // drains the consumer and retries with it).
  auto extra = std::make_unique<int>(99);
  EXPECT_FALSE(ring.TryPush(std::move(extra)));
  ASSERT_NE(extra, nullptr);
  EXPECT_EQ(*extra, 99);

  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(*out, 0);
  // One slot freed: the retry now succeeds.
  EXPECT_TRUE(ring.TryPush(std::move(extra)));
  EXPECT_EQ(ring.size(), 4u);
}

TEST(BoundedRingTest, WraparoundPreservesFifoOrder) {
  BoundedRing<uint64_t> ring(4);
  uint64_t next_push = 0;
  uint64_t next_pop = 0;
  // Many times around the ring with a phase-shifting occupancy so every slot
  // index and every head/tail offset combination is exercised.
  for (int round = 0; round < 1000; ++round) {
    const int burst = 1 + round % 4;
    for (int i = 0; i < burst; ++i) {
      if (!ring.TryPush(uint64_t{next_push})) {
        break;
      }
      ++next_push;
    }
    uint64_t out = 0;
    while (ring.TryPop(&out)) {
      ASSERT_EQ(out, next_pop);
      ++next_pop;
    }
    ASSERT_EQ(next_pop, next_push);
  }
  EXPECT_GT(next_pop, 4u * 100);  // actually wrapped, many times
}

TEST(BoundedRingTest, CarriesMoveOnlyPackets) {
  BoundedRing<Packet> ring(8);
  PacketSpec spec;
  spec.src_ip = Ipv4Address(192, 0, 2, 1);
  spec.dst_ip = Ipv4Address(10, 1, 0, 7);
  spec.proto = IpProto::kTcp;
  spec.src_port = 1234;
  spec.dst_port = 445;
  spec.tcp_flags = TcpFlags::kSyn;
  Packet original = BuildPacket(spec);
  const size_t frame_bytes = original.size();

  EXPECT_TRUE(ring.TryPush(std::move(original)));
  Packet out;
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out.size(), frame_bytes);
  const auto view = PacketView::Parse(out);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->ip().dst, Ipv4Address(10, 1, 0, 7));
}

TEST(BoundedRingTest, SizeTracksPushesAndPops) {
  BoundedRing<int> ring(16);
  for (int i = 0; i < 10; ++i) {
    ring.TryPush(std::move(i));
  }
  EXPECT_EQ(ring.size(), 10u);
  int out;
  ring.TryPop(&out);
  ring.TryPop(&out);
  EXPECT_EQ(ring.size(), 8u);
}

}  // namespace
}  // namespace potemkin
