#include "src/hv/frame_allocator.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/base/rng.h"
#include "src/obs/metric_registry.h"

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
  std::vector<uint8_t> page(kPageSize, 0xff);
  alloc.Read(f, 0, std::span(page.data(), page.size()));
  for (size_t i = 0; i < kPageSize; ++i) {
    const uint8_t want = (i >= 42 && i < 46) ? data[i - 42] : 0;
    ASSERT_EQ(page[i], want) << "byte " << i;
  }
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
  MetricRegistry registry;
  FrameAllocator alloc(1000, ContentMode::kMetadataOnly);
  alloc.ExportMetrics(&registry, "mem");
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
  EXPECT_DOUBLE_EQ(registry.ValueOf("mem.cow_copies"), 1.0);
}

TEST(FrameAllocatorTest, PeakTracksHighWater) {
  MetricRegistry registry;
  FrameAllocator alloc(10, ContentMode::kMetadataOnly);
  alloc.ExportMetrics(&registry, "mem");
  std::vector<FrameId> frames;
  for (int i = 0; i < 7; ++i) {
    frames.push_back(alloc.AllocateZeroed());
  }
  for (FrameId f : frames) {
    alloc.Unref(f);
  }
  EXPECT_EQ(alloc.used_frames(), 0u);
  EXPECT_DOUBLE_EQ(registry.ValueOf("mem.peak_used_frames"), 7.0);
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
  MetricRegistry registry;
  FrameAllocator alloc(8, ContentMode::kMetadataOnly);
  alloc.ExportMetrics(&registry, "mem");
  EXPECT_EQ(alloc.Charge(5), FrameAllocStatus::kOk);
  EXPECT_EQ(alloc.used_frames(), 5u);
  EXPECT_DOUBLE_EQ(registry.ValueOf("mem.peak_used_frames"), 5.0);
  EXPECT_EQ(alloc.Charge(4), FrameAllocStatus::kDenied);  // 3 free
  EXPECT_EQ(alloc.used_frames(), 5u);
  EXPECT_EQ(alloc.denied_requests(), 1u);
  // A charge holds no frame: the first real allocation still gets frame 0.
  EXPECT_EQ(alloc.AllocateZeroed(), 0u);
  alloc.Uncharge(5);
  EXPECT_EQ(alloc.used_frames(), 1u);
  EXPECT_DOUBLE_EQ(registry.ValueOf("mem.peak_used_frames"), 6.0);
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

// ---- Counts and live bits never disagree ----
//
// A seeded random sequence of every call that changes a count, with denials
// at capacity, against a std::vector<uint32_t> model of the counts. After
// every step each frame's RefCount must equal the model's; RefCount also
// checks the frame's live bit against its count, so a bit left set by the
// last Unref (or missing after TakeSlot) aborts the test.
void RunCountDifferential(ContentMode mode, uint64_t seed) {
  constexpr uint64_t kCapacity = 48;
  FrameAllocator alloc(kCapacity, mode);
  Rng rng(seed);
  std::vector<uint32_t> model;  // refcount by FrameId; 0 = free
  std::vector<uint8_t> tag;     // first byte of each frame (kStoreBytes)
  uint64_t live = 0;
  uint64_t charged = 0;
  uint64_t denied = 0;
  const auto taken = [&](FrameId id) {
    if (id >= model.size()) {
      model.resize(id + 1, 0);
      tag.resize(id + 1, 0);
    }
    EXPECT_EQ(model[id], 0u) << "frame " << id << " handed out while live";
    model[id] = 1;
    tag[id] = 0;
    ++live;
  };
  const auto dropped = [&](FrameId id) {
    if (--model[id] == 0) {
      --live;
    }
  };
  const auto live_frames = [&] {
    std::vector<FrameId> frames;
    for (FrameId f = 0; f < model.size(); ++f) {
      if (model[f] > 0) {
        frames.push_back(f);
      }
    }
    return frames;
  };
  const auto pick = [&](const std::vector<FrameId>& frames) {
    return frames[rng.NextBelow(frames.size())];
  };
  size_t frees = 0;
  for (int step = 0; step < 3000; ++step) {
    const std::vector<FrameId> frames = live_frames();
    const uint64_t free = kCapacity - live - charged;
    const uint64_t op = rng.NextBelow(100);
    if (op < 14) {
      const FrameId id = alloc.AllocateZeroed();
      if (free == 0) {
        EXPECT_EQ(id, kInvalidFrame);
        ++denied;
      } else {
        ASSERT_NE(id, kInvalidFrame);
        taken(id);
      }
    } else if (op < 24 && !frames.empty()) {
      const FrameId src = pick(frames);
      const FrameId id = alloc.CloneFrame(src);
      if (free == 0) {
        EXPECT_EQ(id, kInvalidFrame);
        ++denied;
      } else {
        ASSERT_NE(id, kInvalidFrame);
        taken(id);
        tag[id] = tag[src];
      }
    } else if (op < 34) {
      const auto count = static_cast<uint32_t>(1 + rng.NextBelow(8));
      std::vector<FrameId> out(count, kInvalidFrame);
      const FrameAllocStatus status = alloc.AllocateBatch(count, out.data());
      if (count > free) {
        EXPECT_EQ(status, FrameAllocStatus::kDenied);
        ++denied;
      } else {
        ASSERT_EQ(status, FrameAllocStatus::kOk);
        for (FrameId id : out) {
          taken(id);
        }
      }
    } else if (op < 44 && !frames.empty()) {
      // Sources may repeat, as a run of pages CoW-mapped to one frame does.
      std::vector<FrameId> sources(1 + rng.NextBelow(8));
      for (FrameId& src : sources) {
        src = pick(frames);
      }
      std::vector<FrameId> out(sources.size(), kInvalidFrame);
      const FrameAllocStatus status = alloc.CloneFrameBatch(sources, out.data());
      if (sources.size() > free) {
        EXPECT_EQ(status, FrameAllocStatus::kDenied);
        ++denied;
      } else {
        ASSERT_EQ(status, FrameAllocStatus::kOk);
        for (size_t i = 0; i < out.size(); ++i) {
          taken(out[i]);
          tag[out[i]] = tag[sources[i]];
        }
      }
    } else if (op < 56 && !frames.empty()) {
      const FrameId f = pick(frames);
      alloc.Ref(f);
      ++model[f];
    } else if (op < 72 && !frames.empty()) {
      const FrameId f = pick(frames);
      alloc.Unref(f);
      frees += model[f] == 1 ? 1 : 0;
      dropped(f);
    } else if (op < 82 && !frames.empty()) {
      // A frame may repeat while it still holds a reference for each entry.
      std::vector<uint32_t> left = model;
      std::vector<FrameId> batch;
      for (uint64_t n = 1 + rng.NextBelow(6); n > 0; --n) {
        const FrameId f = pick(frames);
        if (left[f] > 0) {
          --left[f];
          batch.push_back(f);
        }
      }
      alloc.UnrefBatch(batch);
      for (FrameId f : batch) {
        frees += model[f] == 1 ? 1 : 0;
        dropped(f);
      }
    } else if (op < 90) {
      const uint64_t count = 1 + rng.NextBelow(6);
      const FrameAllocStatus status = alloc.Charge(count);
      if (count > free) {
        EXPECT_EQ(status, FrameAllocStatus::kDenied);
        ++denied;
      } else {
        EXPECT_EQ(status, FrameAllocStatus::kOk);
        charged += count;
      }
    } else if (op < 94 && charged > 0) {
      const uint64_t count = 1 + rng.NextBelow(charged);
      alloc.Uncharge(count);
      charged -= count;
    } else if (!frames.empty()) {
      const FrameId f = pick(frames);
      const auto byte = static_cast<uint8_t>(1 + rng.NextBelow(255));
      alloc.Write(f, 0, std::span(&byte, 1));
      if (mode == ContentMode::kStoreBytes) {
        tag[f] = byte;
      }
    }
    for (FrameId f = 0; f < model.size(); ++f) {
      ASSERT_EQ(alloc.RefCount(f), model[f]) << "frame " << f << ", step " << step;
      if (model[f] > 0) {
        uint8_t byte = 0xff;
        alloc.Read(f, 0, std::span(&byte, 1));
        ASSERT_EQ(byte, tag[f]) << "frame " << f << ", step " << step;
      }
    }
    ASSERT_EQ(alloc.used_frames(), live + charged) << "step " << step;
    ASSERT_EQ(alloc.denied_requests(), denied) << "step " << step;
  }
  EXPECT_GT(denied, 50u);  // the sequence kept running into capacity
  EXPECT_GT(frees, 300u);  // and freed (and reused) frames all along
}

TEST(FrameAllocatorDifferentialTest, CountsAndLiveBitsAgreeStoringBytes) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    RunCountDifferential(ContentMode::kStoreBytes, seed);
  }
}

TEST(FrameAllocatorDifferentialTest, CountsAndLiveBitsAgreeMetadataOnly) {
  for (uint64_t seed = 4; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    RunCountDifferential(ContentMode::kMetadataOnly, seed);
  }
}

// Every liveness check still fails on a freed frame with its own message,
// and on frames the allocator never handed out: one in the freed frame's
// bitmap word and one past the table.
TEST(FrameAllocatorDeathTest, FreedAndUnknownFramesFailTheirChecks) {
  for (const ContentMode mode :
       {ContentMode::kStoreBytes, ContentMode::kMetadataOnly}) {
    FrameAllocator alloc(8, mode);
    const FrameId kept = alloc.AllocateZeroed();
    const FrameId freed = alloc.AllocateZeroed();
    alloc.Ref(freed);
    alloc.Unref(freed);
    alloc.Unref(freed);  // the last reference: the frame is free
    ASSERT_EQ(alloc.RefCount(kept), 1u);
    ASSERT_EQ(alloc.RefCount(freed), 0u);
    for (const FrameId dead : {freed, FrameId{5}, FrameId{1000}}) {
      SCOPED_TRACE(dead);
      uint8_t byte = 1;
      EXPECT_DEATH(alloc.Write(dead, 0, std::span(&byte, 1)), "write dead frame");
      EXPECT_DEATH(alloc.Read(dead, 0, std::span(&byte, 1)), "read dead frame");
      EXPECT_DEATH((void)alloc.PeekData(dead), "peek dead frame");
      EXPECT_DEATH(alloc.Ref(dead), "ref dead frame");
      EXPECT_DEATH(alloc.Unref(dead), "unref dead frame");
      EXPECT_DEATH((void)alloc.CloneFrame(dead), "clone of dead frame");
      const FrameId sources[] = {kept, dead};
      FrameId out[2];
      EXPECT_DEATH((void)alloc.CloneFrameBatch(sources, out),
                   "batch clone of dead frame");
    }
  }
}

}  // namespace
}  // namespace potemkin
