#include "src/hv/reference_image.h"

#include <gtest/gtest.h>

#include <vector>

namespace potemkin {
namespace {

ReferenceImageConfig SmallImage() {
  ReferenceImageConfig config;
  config.name = "test-image";
  config.num_pages = 64;
  config.content_seed = 99;
  config.zero_page_fraction = 0.25;
  return config;
}

TEST(ReferenceImageTest, BootConsumesOneFramePerPage) {
  FrameAllocator alloc(256, ContentMode::kStoreBytes);
  ReferenceImage image(&alloc, SmallImage());
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(alloc.used_frames(), 64u);
  EXPECT_EQ(image.num_pages(), 64u);
}

TEST(ReferenceImageTest, FramesMatchExpectedContent) {
  FrameAllocator alloc(256, ContentMode::kStoreBytes);
  const auto config = SmallImage();
  ReferenceImage image(&alloc, config);
  for (Gpfn g = 0; g < 64; g += 7) {
    const auto expected = ReferenceImage::ExpectedPageContent(config, g);
    std::vector<uint8_t> actual(kPageSize);
    alloc.Read(image.FrameForPage(g), 0, std::span(actual.data(), actual.size()));
    EXPECT_EQ(actual, expected) << "page " << g;
  }
}

TEST(ReferenceImageTest, ContentDeterministicAcrossInstances) {
  const auto config = SmallImage();
  const auto a = ReferenceImage::ExpectedPageContent(config, 5);
  const auto b = ReferenceImage::ExpectedPageContent(config, 5);
  EXPECT_EQ(a, b);
  const auto other = ReferenceImage::ExpectedPageContent(config, 6);
  EXPECT_NE(a, other);
}

TEST(ReferenceImageTest, DifferentSeedsDifferentContent) {
  auto config_a = SmallImage();
  auto config_b = SmallImage();
  config_b.content_seed = 100;
  int differing = 0;
  for (Gpfn g = 0; g < 16; ++g) {
    if (ReferenceImage::ExpectedPageContent(config_a, g) !=
        ReferenceImage::ExpectedPageContent(config_b, g)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 8);
}

TEST(ReferenceImageTest, ZeroFractionProducesZeroPages) {
  auto config = SmallImage();
  config.zero_page_fraction = 1.0;
  for (Gpfn g = 0; g < 8; ++g) {
    const auto content = ReferenceImage::ExpectedPageContent(config, g);
    for (uint8_t b : content) {
      ASSERT_EQ(b, 0);
    }
  }
}

TEST(ReferenceImageTest, DestructorReleasesFrames) {
  FrameAllocator alloc(256, ContentMode::kStoreBytes);
  {
    ReferenceImage image(&alloc, SmallImage());
    EXPECT_EQ(alloc.used_frames(), 64u);
  }
  EXPECT_EQ(alloc.used_frames(), 0u);
}

TEST(ReferenceImageTest, FailedBootRollsBack) {
  FrameAllocator alloc(10, ContentMode::kStoreBytes);  // too small for 64 pages
  ReferenceImage image(&alloc, SmallImage());
  EXPECT_FALSE(image.ok());
  EXPECT_EQ(alloc.used_frames(), 0u);
}

}  // namespace
}  // namespace potemkin
