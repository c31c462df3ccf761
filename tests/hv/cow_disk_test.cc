#include "src/hv/cow_disk.h"

#include <gtest/gtest.h>

#include <vector>

namespace potemkin {
namespace {

std::vector<uint8_t> Block(uint8_t fill = 0) {
  return std::vector<uint8_t>(kDiskBlockSize, fill);
}

TEST(ReferenceDiskTest, DeterministicContent) {
  ReferenceDisk disk(16, 7);
  auto a = Block();
  auto b = Block();
  disk.ReadBlock(3, std::span(a.data(), a.size()));
  disk.ReadBlock(3, std::span(b.data(), b.size()));
  EXPECT_EQ(a, b);
  disk.ReadBlock(4, std::span(b.data(), b.size()));
  EXPECT_NE(a, b);
}

TEST(ReferenceDiskTest, SeedChangesContent) {
  ReferenceDisk a(16, 1);
  ReferenceDisk b(16, 2);
  auto block_a = Block();
  auto block_b = Block();
  a.ReadBlock(0, std::span(block_a.data(), block_a.size()));
  b.ReadBlock(0, std::span(block_b.data(), block_b.size()));
  EXPECT_NE(block_a, block_b);
}

TEST(CowDiskTest, ReadsFallThroughToBase) {
  ReferenceDisk base(8, 3);
  CowDisk disk(&base);
  auto expected = Block();
  base.ReadBlock(2, std::span(expected.data(), expected.size()));
  auto actual = Block(0xff);
  EXPECT_TRUE(disk.ReadBlock(2, std::span(actual.data(), actual.size())));
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(disk.overlay_blocks(), 0u);
}

TEST(CowDiskTest, WritesLandInOverlayOnly) {
  ReferenceDisk base(8, 3);
  CowDisk disk_a(&base);
  CowDisk disk_b(&base);
  const auto data = Block(0xaa);
  EXPECT_TRUE(disk_a.WriteBlock(1, std::span(data.data(), data.size())));
  EXPECT_EQ(disk_a.overlay_blocks(), 1u);

  auto read_a = Block();
  disk_a.ReadBlock(1, std::span(read_a.data(), read_a.size()));
  EXPECT_EQ(read_a, data);
  // The sibling overlay still sees base content.
  auto read_b = Block();
  disk_b.ReadBlock(1, std::span(read_b.data(), read_b.size()));
  EXPECT_NE(read_b, data);
  EXPECT_EQ(disk_b.overlay_blocks(), 0u);
}

TEST(CowDiskTest, PartialWriteMergesWithBase) {
  ReferenceDisk base(8, 3);
  CowDisk disk(&base);
  auto original = Block();
  base.ReadBlock(5, std::span(original.data(), original.size()));
  const std::vector<uint8_t> patch = {0xde, 0xad};
  EXPECT_TRUE(disk.WriteBytes(5, 100, std::span(patch.data(), patch.size())));
  auto after = Block();
  disk.ReadBlock(5, std::span(after.data(), after.size()));
  EXPECT_EQ(after[100], 0xde);
  EXPECT_EQ(after[101], 0xad);
  after[100] = original[100];
  after[101] = original[101];
  EXPECT_EQ(after, original);
}

TEST(CowDiskTest, OutOfRangeRejected) {
  ReferenceDisk base(4, 3);
  CowDisk disk(&base);
  auto buf = Block();
  EXPECT_FALSE(disk.ReadBlock(4, std::span(buf.data(), buf.size())));
  EXPECT_FALSE(disk.WriteBlock(9, std::span(buf.data(), buf.size())));
  const std::vector<uint8_t> patch = {1};
  EXPECT_FALSE(disk.WriteBytes(0, kDiskBlockSize, std::span(patch.data(), 1)));
}

TEST(CowDiskTest, OnlyWritesGrowTheOverlay) {
  ReferenceDisk base(8, 3);
  CowDisk disk(&base);
  auto buf = Block();
  ASSERT_TRUE(disk.ReadBlock(0, std::span(buf.data(), buf.size())));
  EXPECT_EQ(disk.overlay_blocks(), 0u);
  ASSERT_TRUE(disk.WriteBlock(0, std::span(buf.data(), buf.size())));
  ASSERT_TRUE(disk.ReadBlock(0, std::span(buf.data(), buf.size())));
  EXPECT_EQ(disk.overlay_blocks(), 1u);
}

}  // namespace
}  // namespace potemkin
