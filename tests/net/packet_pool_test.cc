// PacketPool unit and stress tests: recycling behavior, size-class bounds, and
// the zero-heap steady state the gateway datapath depends on.
#include "src/net/packet_pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/base/rng.h"
#include "src/net/packet.h"

namespace potemkin {
namespace {

TEST(PacketPoolTest, AcquireReturnsZeroFilledBufferOfRequestedSize) {
  PacketPool pool;
  std::vector<uint8_t> buffer = pool.Acquire(100);
  ASSERT_EQ(buffer.size(), 100u);
  for (const uint8_t byte : buffer) {
    EXPECT_EQ(byte, 0);
  }
  // Dirty the buffer, recycle it, and re-acquire: the pool must hand it back
  // zeroed — recycled frames must be indistinguishable from fresh ones.
  buffer.assign(buffer.size(), 0xee);
  pool.Release(std::move(buffer));
  std::vector<uint8_t> again = pool.Acquire(100);
  ASSERT_EQ(again.size(), 100u);
  for (const uint8_t byte : again) {
    EXPECT_EQ(byte, 0);
  }
}

TEST(PacketPoolTest, SteadyStateAcquiresAreFreelistHits) {
  PacketPool pool;
  pool.Release(pool.Acquire(1500));  // prime the 2 KiB class
  const PacketPool::Stats before = pool.stats();
  for (int i = 0; i < 1000; ++i) {
    pool.Release(pool.Acquire(1500));
  }
  const PacketPool::Stats after = pool.stats();
  EXPECT_EQ(after.allocations, before.allocations);  // zero heap trips
  EXPECT_EQ(after.pool_hits - before.pool_hits, 1000u);
  EXPECT_EQ(after.discards, before.discards);
}

TEST(PacketPoolTest, OversizeRequestsFallThroughToHeap) {
  PacketPool pool;
  const size_t oversize = PacketPool::kMaxClassBytes + 1;
  std::vector<uint8_t> big = pool.Acquire(oversize);
  EXPECT_EQ(big.size(), oversize);
  EXPECT_EQ(pool.stats().allocations, 1u);
  // An oversize buffer still classifies by capacity on release — it lands in
  // the largest class it can serve (capacity >= 4 KiB serves the 4 KiB class).
  pool.Release(std::move(big));
  EXPECT_EQ(pool.cached_buffers(), 1u);
}

TEST(PacketPoolTest, TinyBuffersAreDiscardedNotCached) {
  PacketPool pool;
  std::vector<uint8_t> tiny(PacketPool::kMinClassBytes / 2);
  tiny.shrink_to_fit();
  const uint64_t discards = pool.stats().discards;
  pool.Release(std::move(tiny));
  EXPECT_EQ(pool.stats().discards, discards + 1);
  EXPECT_EQ(pool.cached_buffers(), 0u);
}

TEST(PacketPoolTest, PerClassCacheIsBounded) {
  PacketPool pool;
  // Offer far more same-class buffers than the cap; the overflow is freed.
  const size_t offered = PacketPool::kMaxCachedPerClass + 100;
  for (size_t i = 0; i < offered; ++i) {
    std::vector<uint8_t> buffer;
    buffer.reserve(PacketPool::kMinClassBytes);
    pool.Release(std::move(buffer));
  }
  EXPECT_EQ(pool.cached_buffers(), PacketPool::kMaxCachedPerClass);
  EXPECT_EQ(pool.stats().discards, 100u);
}

TEST(PacketPoolTest, ChurnKeepsPoolBoundedAndConsistent) {
  // Randomized acquire/release churn with a working set that grows and
  // shrinks: cached buffers must stay bounded by the per-class cap and the
  // stats identities must hold throughout. ASan covers use-after-release.
  PacketPool pool;
  Rng rng(1234);
  std::vector<std::vector<uint8_t>> in_use;
  for (int step = 0; step < 50000; ++step) {
    const bool acquire = in_use.size() < 4 || (rng.NextU64() & 1) != 0;
    if (acquire && in_use.size() < 256) {
      const size_t size = 40 + rng.NextBelow(5000);  // spans all classes + oversize
      std::vector<uint8_t> buffer = pool.Acquire(size);
      ASSERT_EQ(buffer.size(), size);
      buffer[0] = 0xaa;  // touch to give ASan a chance to catch stale handouts
      buffer[size - 1] = 0xbb;
      in_use.push_back(std::move(buffer));
    } else {
      const size_t victim = rng.NextBelow(in_use.size());
      pool.Release(std::move(in_use[victim]));
      in_use.erase(in_use.begin() + static_cast<long>(victim));
    }
  }
  const PacketPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.acquires, stats.pool_hits + stats.allocations);
  EXPECT_LE(pool.cached_buffers(),
            PacketPool::kNumClasses * PacketPool::kMaxCachedPerClass);
  EXPECT_LE(pool.cached_buffers() + in_use.size(), stats.allocations);
}

TEST(PacketPoolTest, PooledPacketRecyclesBufferOnDestruction) {
  PacketPool pool;
  const uint64_t releases = pool.stats().releases;
  {
    Packet packet(&pool, pool.Acquire(256));
    EXPECT_EQ(packet.size(), 256u);
  }
  EXPECT_EQ(pool.stats().releases, releases + 1);
  // The recycled buffer serves the next acquire without touching the heap.
  const uint64_t allocations = pool.stats().allocations;
  Packet next(&pool, pool.Acquire(256));
  EXPECT_EQ(pool.stats().allocations, allocations);
}

TEST(PacketPoolTest, MovedFromPacketDoesNotDoubleRelease) {
  PacketPool pool;
  const uint64_t releases = pool.stats().releases;
  {
    Packet a(&pool, pool.Acquire(256));
    Packet b(std::move(a));
    Packet c;
    c = std::move(b);
  }  // only `c` owns the buffer; exactly one release
  EXPECT_EQ(pool.stats().releases, releases + 1);
}

TEST(PacketPoolTest, CopiedPacketIsPlainAndDoesNotContendForPool) {
  PacketPool pool;
  const uint64_t releases = pool.stats().releases;
  {
    Packet pooled(&pool, pool.Acquire(64));
    Packet copy(pooled);
    EXPECT_EQ(copy.bytes(), pooled.bytes());
  }  // pooled releases once; the copy frees to the heap
  EXPECT_EQ(pool.stats().releases, releases + 1);
}

}  // namespace
}  // namespace potemkin
