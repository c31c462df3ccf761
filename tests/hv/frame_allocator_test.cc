#include "src/hv/frame_allocator.h"

#include <gtest/gtest.h>

#include <vector>

namespace potemkin {
namespace {

TEST(FrameAllocatorTest, AllocatesUpToCapacity) {
  FrameAllocator alloc(4, ContentMode::kStoreBytes);
  std::vector<FrameId> frames;
  for (int i = 0; i < 4; ++i) {
    const FrameId f = alloc.AllocateZeroed();
    ASSERT_NE(f, kInvalidFrame);
    frames.push_back(f);
  }
  EXPECT_EQ(alloc.AllocateZeroed(), kInvalidFrame);
  EXPECT_EQ(alloc.used_frames(), 4u);
  EXPECT_EQ(alloc.free_frames(), 0u);
}

TEST(FrameAllocatorTest, UnrefFreesAndReuses) {
  FrameAllocator alloc(2, ContentMode::kStoreBytes);
  const FrameId a = alloc.AllocateZeroed();
  const FrameId b = alloc.AllocateZeroed();
  EXPECT_EQ(alloc.AllocateZeroed(), kInvalidFrame);
  alloc.Unref(a);
  EXPECT_EQ(alloc.used_frames(), 1u);
  const FrameId c = alloc.AllocateZeroed();
  EXPECT_NE(c, kInvalidFrame);
  EXPECT_EQ(c, a);  // slot reused
  (void)b;
}

TEST(FrameAllocatorTest, RefcountingKeepsFrameAlive) {
  FrameAllocator alloc(4, ContentMode::kStoreBytes);
  const FrameId f = alloc.AllocateZeroed();
  alloc.Ref(f);
  alloc.Ref(f);
  EXPECT_EQ(alloc.RefCount(f), 3u);
  alloc.Unref(f);
  alloc.Unref(f);
  EXPECT_EQ(alloc.RefCount(f), 1u);
  EXPECT_EQ(alloc.used_frames(), 1u);
  alloc.Unref(f);
  EXPECT_EQ(alloc.used_frames(), 0u);
}

TEST(FrameAllocatorTest, FreshFramesReadZero) {
  FrameAllocator alloc(4, ContentMode::kStoreBytes);
  const FrameId f = alloc.AllocateZeroed();
  std::vector<uint8_t> buf(16, 0xff);
  alloc.Read(f, 100, std::span(buf.data(), buf.size()));
  for (uint8_t b : buf) {
    EXPECT_EQ(b, 0);
  }
}

TEST(FrameAllocatorTest, WriteThenReadBack) {
  FrameAllocator alloc(4, ContentMode::kStoreBytes);
  const FrameId f = alloc.AllocateZeroed();
  const std::vector<uint8_t> data = {1, 2, 3, 4};
  alloc.Write(f, 42, std::span(data.data(), data.size()));
  std::vector<uint8_t> buf(4);
  alloc.Read(f, 42, std::span(buf.data(), buf.size()));
  EXPECT_EQ(buf, data);
}

TEST(FrameAllocatorTest, CloneCopiesContents) {
  FrameAllocator alloc(4, ContentMode::kStoreBytes);
  const FrameId src = alloc.AllocateZeroed();
  const std::vector<uint8_t> data = {0xaa, 0xbb};
  alloc.Write(src, 0, std::span(data.data(), data.size()));
  const FrameId copy = alloc.CloneFrame(src);
  ASSERT_NE(copy, kInvalidFrame);
  EXPECT_NE(copy, src);
  std::vector<uint8_t> buf(2);
  alloc.Read(copy, 0, std::span(buf.data(), buf.size()));
  EXPECT_EQ(buf, data);
  // Writes to the copy do not affect the source.
  const std::vector<uint8_t> other = {0x11, 0x22};
  alloc.Write(copy, 0, std::span(other.data(), other.size()));
  alloc.Read(src, 0, std::span(buf.data(), buf.size()));
  EXPECT_EQ(buf, data);
}

TEST(FrameAllocatorTest, CloneFailsWhenFull) {
  FrameAllocator alloc(1, ContentMode::kStoreBytes);
  const FrameId src = alloc.AllocateZeroed();
  EXPECT_EQ(alloc.CloneFrame(src), kInvalidFrame);
}

TEST(FrameAllocatorTest, MetadataOnlyModeTracksCountsWithoutBytes) {
  FrameAllocator alloc(1000, ContentMode::kMetadataOnly);
  const FrameId f = alloc.AllocateZeroed();
  const std::vector<uint8_t> data = {9, 9};
  alloc.Write(f, 0, std::span(data.data(), data.size()));
  std::vector<uint8_t> buf(2, 0xff);
  alloc.Read(f, 0, std::span(buf.data(), buf.size()));
  EXPECT_EQ(buf[0], 0);  // reads are zero in metadata mode
  EXPECT_EQ(alloc.used_frames(), 1u);
  const FrameId copy = alloc.CloneFrame(f);
  EXPECT_NE(copy, kInvalidFrame);
  EXPECT_EQ(alloc.used_frames(), 2u);
  EXPECT_EQ(alloc.total_copies(), 1u);
}

TEST(FrameAllocatorTest, PeakTracksHighWater) {
  FrameAllocator alloc(10, ContentMode::kMetadataOnly);
  std::vector<FrameId> frames;
  for (int i = 0; i < 7; ++i) {
    frames.push_back(alloc.AllocateZeroed());
  }
  for (FrameId f : frames) {
    alloc.Unref(f);
  }
  EXPECT_EQ(alloc.used_frames(), 0u);
  EXPECT_EQ(alloc.peak_used_frames(), 7u);
}

TEST(FrameAllocatorTest, CanAllocateReflectsHeadroom) {
  FrameAllocator alloc(5, ContentMode::kMetadataOnly);
  EXPECT_TRUE(alloc.CanAllocate(5));
  EXPECT_FALSE(alloc.CanAllocate(6));
  alloc.AllocateZeroed();
  EXPECT_TRUE(alloc.CanAllocate(4));
  EXPECT_FALSE(alloc.CanAllocate(5));
}

// ---- Exhaustion path: typed denial + counter (regression pins) ----

TEST(FrameAllocatorTest, BatchDenialIsAllOrNothing) {
  FrameAllocator alloc(8, ContentMode::kMetadataOnly);
  FrameId out[6];
  ASSERT_EQ(alloc.AllocateBatch(6, out), FrameAllocStatus::kOk);
  EXPECT_EQ(alloc.used_frames(), 6u);

  // A batch that does not fit must leave no partial state behind: no frames
  // allocated, output untouched, and the denial counted exactly once.
  FrameId denied[4] = {kInvalidFrame, kInvalidFrame, kInvalidFrame,
                       kInvalidFrame};
  EXPECT_EQ(alloc.AllocateBatch(4, denied), FrameAllocStatus::kDenied);
  EXPECT_EQ(alloc.used_frames(), 6u);
  for (FrameId f : denied) {
    EXPECT_EQ(f, kInvalidFrame);
  }
  EXPECT_EQ(alloc.denied_requests(), 1u);

  // The remaining headroom is still usable after a denial.
  FrameId rest[2];
  EXPECT_EQ(alloc.AllocateBatch(2, rest), FrameAllocStatus::kOk);
  EXPECT_EQ(alloc.used_frames(), 8u);
}

TEST(FrameAllocatorTest, ChargeIsAllOrNothingAndTakesNoSlots) {
  FrameAllocator alloc(8, ContentMode::kMetadataOnly);
  EXPECT_EQ(alloc.Charge(5), FrameAllocStatus::kOk);
  EXPECT_EQ(alloc.used_frames(), 5u);
  EXPECT_EQ(alloc.peak_used_frames(), 5u);
  EXPECT_EQ(alloc.Charge(4), FrameAllocStatus::kDenied);  // 3 free
  EXPECT_EQ(alloc.used_frames(), 5u);
  EXPECT_EQ(alloc.denied_requests(), 1u);
  // A charge holds no frame: the first real allocation still gets frame 0.
  EXPECT_EQ(alloc.AllocateZeroed(), 0u);
  alloc.Uncharge(5);
  EXPECT_EQ(alloc.used_frames(), 1u);
  EXPECT_EQ(alloc.peak_used_frames(), 6u);
}

TEST(FrameAllocatorTest, CloneBatchDenialLeavesSourcesIntact) {
  FrameAllocator alloc(4, ContentMode::kStoreBytes);
  const FrameId src = alloc.AllocateZeroed();
  const std::vector<uint8_t> data = {0x5a};
  alloc.Write(src, 0, std::span(data.data(), data.size()));
  alloc.AllocateZeroed();
  alloc.AllocateZeroed();  // 3 used, 1 free: a 2-frame CoW batch cannot fit

  const std::vector<FrameId> sources = {src, src};
  FrameId out[2] = {kInvalidFrame, kInvalidFrame};
  EXPECT_EQ(alloc.CloneFrameBatch(std::span<const FrameId>(sources), out),
            FrameAllocStatus::kDenied);
  EXPECT_EQ(alloc.used_frames(), 3u);
  EXPECT_EQ(alloc.denied_requests(), 1u);
  EXPECT_EQ(alloc.RefCount(src), 1u);  // no stray refs taken on the source
  std::vector<uint8_t> buf(1);
  alloc.Read(src, 0, std::span(buf.data(), buf.size()));
  EXPECT_EQ(buf[0], 0x5a);  // source bytes untouched by the failed batch
}

TEST(FrameAllocatorTest, DeniedAllocationsCountAndExport) {
  MetricRegistry registry;
  FrameAllocator alloc(2, ContentMode::kMetadataOnly);
  alloc.ExportMetrics(&registry, "host0.mem");

  alloc.AllocateZeroed();
  alloc.AllocateZeroed();
  EXPECT_EQ(alloc.AllocateZeroed(), kInvalidFrame);  // single-frame denial
  FrameId out[3];
  EXPECT_EQ(alloc.AllocateBatch(3, out), FrameAllocStatus::kDenied);
  const FrameId src = 0;
  EXPECT_EQ(alloc.CloneFrame(src), kInvalidFrame);

  EXPECT_EQ(alloc.denied_requests(), 3u);
  EXPECT_EQ(registry.ValueOf("hv.frames.denied"), 3.0);

  // The farm-wide counter aggregates across hosts sharing the registry.
  FrameAllocator other(1, ContentMode::kMetadataOnly);
  other.ExportMetrics(&registry, "host1.mem");
  other.AllocateZeroed();
  EXPECT_EQ(other.AllocateZeroed(), kInvalidFrame);
  EXPECT_EQ(registry.ValueOf("hv.frames.denied"), 4.0);
}

}  // namespace
}  // namespace potemkin
