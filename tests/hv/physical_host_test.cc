// Flash-clone vs full-copy mechanics and host admission control.
#include "src/hv/physical_host.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/hv/page_dedup.h"

namespace potemkin {
namespace {

PhysicalHostConfig SmallHost(uint64_t memory_mb = 16) {
  PhysicalHostConfig config;
  config.memory_mb = memory_mb;
  config.content_mode = ContentMode::kStoreBytes;
  config.domain_overhead_frames = 8;
  config.admission_reserve_frames = 16;
  return config;
}

ReferenceImageConfig SmallImage() {
  ReferenceImageConfig config;
  config.num_pages = 128;  // 512 KiB image
  config.content_seed = 5;
  return config;
}

TEST(PhysicalHostTest, FlashCloneSharesAllImagePages) {
  PhysicalHost host(SmallHost());
  const ImageId image = host.RegisterImage(SmallImage());
  const uint64_t frames_after_image = host.allocator().used_frames();
  EXPECT_EQ(frames_after_image, 128u);

  VirtualMachine* vm = host.CreateClone(image, CloneKind::kFlash, "clone-1");
  ASSERT_NE(vm, nullptr);
  // Flash cloning allocates only the domain overhead, zero guest page copies.
  EXPECT_EQ(host.allocator().used_frames(), frames_after_image + 8);
  EXPECT_EQ(vm->memory().shared_pages(), 128u);
  EXPECT_EQ(vm->memory().private_pages(), 0u);
  EXPECT_EQ(vm->state(), VmState::kCloning);
  // The clone borrows the image frames under its generation pin: the image's
  // own reference is the only one.
  EXPECT_EQ(host.image(image)->pins(0), 1u);
  EXPECT_EQ(vm->memory().FrameAt(5), host.image(image)->FrameForPage(5));
  EXPECT_EQ(host.allocator().RefCount(host.image(image)->FrameForPage(5)), 1u);
}

TEST(PhysicalHostTest, FlashCloneSeesImageContent) {
  PhysicalHost host(SmallHost());
  const auto image_config = SmallImage();
  const ImageId image = host.RegisterImage(image_config);
  VirtualMachine* vm = host.CreateClone(image, CloneKind::kFlash, "clone-1");
  ASSERT_NE(vm, nullptr);
  for (Gpfn g = 0; g < 128; g += 31) {
    const auto expected = ReferenceImage::ExpectedPageContent(image_config, g);
    std::vector<uint8_t> actual(kPageSize);
    EXPECT_EQ(vm->memory().ReadGuest(static_cast<uint64_t>(g) * kPageSize,
                                     std::span(actual.data(), actual.size())),
              MemAccessResult::kOk);
    EXPECT_EQ(actual, expected) << "page " << g;
  }
}

TEST(PhysicalHostTest, CloneWritesDoNotContaminateImageOrSiblings) {
  PhysicalHost host(SmallHost());
  const auto image_config = SmallImage();
  const ImageId image = host.RegisterImage(image_config);
  VirtualMachine* a = host.CreateClone(image, CloneKind::kFlash, "a");
  VirtualMachine* b = host.CreateClone(image, CloneKind::kFlash, "b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  const std::vector<uint8_t> patch = {0x66};
  a->memory().WriteGuest(0, std::span(patch.data(), 1));

  const auto expected = ReferenceImage::ExpectedPageContent(image_config, 0);
  std::vector<uint8_t> b_page(kPageSize);
  b->memory().ReadGuest(0, std::span(b_page.data(), b_page.size()));
  EXPECT_EQ(b_page, expected);

  std::vector<uint8_t> a_byte(1);
  a->memory().ReadGuest(0, std::span(a_byte.data(), 1));
  EXPECT_EQ(a_byte[0], 0x66);
}

TEST(PhysicalHostTest, FullCopyCloneCopiesEveryPage) {
  PhysicalHost host(SmallHost());
  const ImageId image = host.RegisterImage(SmallImage());
  const uint64_t before = host.allocator().used_frames();
  VirtualMachine* vm = host.CreateClone(image, CloneKind::kFullCopy, "fat");
  ASSERT_NE(vm, nullptr);
  EXPECT_EQ(host.allocator().used_frames(), before + 128 + 8);
  EXPECT_EQ(vm->memory().private_pages(), 128u);
  EXPECT_EQ(vm->memory().shared_pages(), 0u);
}

TEST(PhysicalHostTest, ManyMoreFlashClonesThanFullCopiesFit) {
  // 16 MiB host = 4096 frames; image 128 pages.
  PhysicalHost flash_host(SmallHost());
  PhysicalHost copy_host(SmallHost());
  const ImageId flash_image = flash_host.RegisterImage(SmallImage());
  const ImageId copy_image = copy_host.RegisterImage(SmallImage());
  int flash_count = 0;
  while (flash_host.CreateClone(flash_image, CloneKind::kFlash, "f") != nullptr) {
    ++flash_count;
  }
  int copy_count = 0;
  while (copy_host.CreateClone(copy_image, CloneKind::kFullCopy, "c") != nullptr) {
    ++copy_count;
  }
  EXPECT_GT(flash_count, copy_count * 5) << "delta virtualization should fit >5x";
}

TEST(PhysicalHostTest, AdmissionControlRefusesBeforeExhaustion) {
  PhysicalHostConfig config = SmallHost(1);  // 256 frames total
  PhysicalHost host(config);
  ReferenceImageConfig image_config;
  image_config.num_pages = 128;
  const ImageId image = host.RegisterImage(image_config);
  // Full-copy needs 128 + 8 + 16 reserve = 152 > 128 remaining -> refused.
  EXPECT_FALSE(host.CanAdmit(image, CloneKind::kFullCopy));
  EXPECT_EQ(host.CreateClone(image, CloneKind::kFullCopy, "x"), nullptr);
  EXPECT_EQ(host.live_vm_count(), 0u);
  // Flash clone still fits.
  EXPECT_TRUE(host.CanAdmit(image, CloneKind::kFlash));
  EXPECT_NE(host.CreateClone(image, CloneKind::kFlash, "y"), nullptr);
}

TEST(PhysicalHostTest, DestroyReleasesEverything) {
  PhysicalHost host(SmallHost());
  const ImageId image = host.RegisterImage(SmallImage());
  const uint64_t baseline = host.allocator().used_frames();
  VirtualMachine* vm = host.CreateClone(image, CloneKind::kFlash, "tmp");
  ASSERT_NE(vm, nullptr);
  const std::vector<uint8_t> data = {1};
  vm->memory().WriteGuest(0, std::span(data.data(), 1));  // one private page
  EXPECT_GT(host.allocator().used_frames(), baseline);
  const VmId id = vm->id();
  EXPECT_TRUE(host.DestroyVm(id));
  EXPECT_EQ(host.allocator().used_frames(), baseline);
  EXPECT_EQ(host.FindVm(id), nullptr);
  EXPECT_FALSE(host.DestroyVm(id));
  EXPECT_EQ(host.live_vm_count(), 0u);
}

TEST(PhysicalHostTest, VmIdsGloballyUnique) {
  // VM ids carry the host id in the upper 32 bits: hosts with distinct ids
  // (as the farm always assigns) can never collide.
  PhysicalHostConfig config_a = SmallHost();
  PhysicalHostConfig config_b = SmallHost();
  config_a.id = 0;
  config_b.id = 1;
  PhysicalHost host_a(config_a);
  PhysicalHost host_b(config_b);
  const ImageId image_a = host_a.RegisterImage(SmallImage());
  const ImageId image_b = host_b.RegisterImage(SmallImage());
  VirtualMachine* a = host_a.CreateClone(image_a, CloneKind::kFlash, "a");
  VirtualMachine* b = host_b.CreateClone(image_b, CloneKind::kFlash, "b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a->id(), b->id());
}

TEST(PhysicalHostTest, VmIdsDeterministicPerInstance) {
  // Two identical hosts built back to back in one process mint the same ids —
  // the counter is per-host state, not a process global, so replayed runs
  // produce byte-identical ledgers.
  VmId first_ids[2];
  for (int round = 0; round < 2; ++round) {
    PhysicalHost host(SmallHost());
    const ImageId image = host.RegisterImage(SmallImage());
    VirtualMachine* vm = host.CreateClone(image, CloneKind::kFlash, "vm");
    ASSERT_NE(vm, nullptr);
    first_ids[round] = vm->id();
  }
  EXPECT_EQ(first_ids[0], first_ids[1]);
}

TEST(PhysicalHostTest, TotalPrivatePagesAggregates) {
  PhysicalHost host(SmallHost());
  const ImageId image = host.RegisterImage(SmallImage());
  VirtualMachine* a = host.CreateClone(image, CloneKind::kFlash, "a");
  VirtualMachine* b = host.CreateClone(image, CloneKind::kFlash, "b");
  a->memory().TouchPages(0, 3);
  b->memory().TouchPages(0, 5);
  EXPECT_EQ(host.TotalPrivatePages(), 8u);
}

TEST(PhysicalHostTest, PeakLiveVmsTracked) {
  MetricRegistry registry;
  PhysicalHost host(SmallHost());
  host.ExportMetrics(&registry, "h");
  const ImageId image = host.RegisterImage(SmallImage());
  VirtualMachine* a = host.CreateClone(image, CloneKind::kFlash, "a");
  VirtualMachine* b = host.CreateClone(image, CloneKind::kFlash, "b");
  host.DestroyVm(a->id());
  host.DestroyVm(b->id());
  EXPECT_DOUBLE_EQ(registry.ValueOf("h.vms.peak"), 2.0);
}

TEST(PhysicalHostTest, WorkingSetPrefetchHitsAndExportsMetric) {
  MetricRegistry registry;  // outlives the host, which unregisters on destruction
  PhysicalHost host(SmallHost());
  host.ExportMetrics(&registry, "host0");
  const ImageId image = host.RegisterImage(SmallImage());

  // Session 1 records its first-touch order into the image's profile.
  CloneOptions recorder;
  recorder.record_working_set = true;
  VirtualMachine* teacher =
      host.CreateClone(image, CloneKind::kFlash, "teacher", recorder);
  ASSERT_NE(teacher, nullptr);
  const std::vector<uint8_t> byte = {0xab};
  for (Gpfn g : {Gpfn{3}, Gpfn{4}, Gpfn{5}, Gpfn{6}}) {
    teacher->memory().WriteGuest(static_cast<uint64_t>(g) * kPageSize,
                                 std::span(byte.data(), 1));
  }
  ASSERT_TRUE(host.DestroyVm(teacher->id()));
  ASSERT_FALSE(host.image(image)->working_set().PredictFirst(4).empty());

  // Session 2 clones with prediction on: the profiled pages are materialised
  // at clone time, so its writes land on private pages — prefetch hits.
  CloneOptions predicted;
  predicted.use_working_set = true;
  predicted.prefetch_pages = 4;
  VirtualMachine* student =
      host.CreateClone(image, CloneKind::kFlash, "student", predicted);
  ASSERT_NE(student, nullptr);
  EXPECT_EQ(student->memory().stats().prefetched_pages, 4u);
  for (Gpfn g : {Gpfn{3}, Gpfn{4}, Gpfn{5}, Gpfn{6}}) {
    student->memory().WriteGuest(static_cast<uint64_t>(g) * kPageSize,
                                 std::span(byte.data(), 1));
  }

  const PrefetchTotals totals = host.prefetch_totals();
  EXPECT_EQ(totals.sessions, 1u);
  EXPECT_EQ(totals.prefetched_pages, 4u);
  EXPECT_EQ(totals.hits, 4u);
  // The scorecard is live through the obs registry (mid-session hits visible).
  EXPECT_GT(registry.ValueOf("host0.prefetch.hit_rate"), 0.0);
  EXPECT_EQ(registry.ValueOf("host0.prefetch.hit_rate"), 1.0);
  EXPECT_EQ(registry.ValueOf("host0.prefetch.pages"), 4.0);
}

TEST(PhysicalHostTest, PinnedGenerationSurvivesRefreshByteForByte) {
  PhysicalHost host(SmallHost());
  const auto image_config = SmallImage();
  const ImageId image = host.RegisterImage(image_config);
  ReferenceImage& img = *host.mutable_image(image);

  VirtualMachine* old_clone = host.CreateClone(image, CloneKind::kFlash, "old");
  ASSERT_NE(old_clone, nullptr);
  EXPECT_EQ(host.VmGeneration(old_clone->id()), 0u);

  // Mid-session image refresh: pages 0 and 7 get new contents in G+1.
  std::vector<ImagePatch> patches(2);
  patches[0].gpfn = 0;
  patches[0].bytes = {0xde, 0xad, 0xbe, 0xef};
  patches[1].gpfn = 7;
  patches[1].bytes.assign(kPageSize, 0x7e);
  ASSERT_TRUE(img.Refresh(std::span<const ImagePatch>(patches)));
  EXPECT_EQ(img.current_generation(), 1u);
  EXPECT_EQ(img.live_generations(), 2u);  // the old clone pins generation 0

  VirtualMachine* new_clone = host.CreateClone(image, CloneKind::kFlash, "new");
  ASSERT_NE(new_clone, nullptr);
  EXPECT_EQ(host.VmGeneration(new_clone->id()), 1u);

  // The pinned clone still reads generation 0 byte-identically everywhere,
  // including the pages the refresh replaced.
  for (Gpfn g : {Gpfn{0}, Gpfn{7}, Gpfn{31}}) {
    const auto expected = ReferenceImage::ExpectedPageContent(image_config, g);
    std::vector<uint8_t> actual(kPageSize);
    ASSERT_EQ(old_clone->memory().ReadGuest(static_cast<uint64_t>(g) * kPageSize,
                                            std::span(actual.data(), actual.size())),
              MemAccessResult::kOk);
    EXPECT_EQ(actual, expected) << "generation-0 page " << g;
  }

  // The new clone sees the patch (zero-filled past its bytes) on refreshed
  // pages, and unpatched pages structurally share the parent's frame.
  std::vector<uint8_t> head(patches[0].bytes.size());
  new_clone->memory().ReadGuest(0, std::span(head.data(), head.size()));
  EXPECT_EQ(head, patches[0].bytes);
  std::vector<uint8_t> tail(8, 0xff);
  new_clone->memory().ReadGuest(patches[0].bytes.size(),
                                std::span(tail.data(), tail.size()));
  EXPECT_EQ(tail, std::vector<uint8_t>(8, 0));
  EXPECT_EQ(img.FrameForPage(0u, 31), img.FrameForPage(1u, 31));
  EXPECT_NE(img.FrameForPage(0u, 0), img.FrameForPage(1u, 0));

  // Recycling the last generation-0 clone retires that generation.
  host.DestroyVm(old_clone->id());
  EXPECT_EQ(img.live_generations(), 1u);
}

TEST(PhysicalHostTest, DedupNeverCrossLinksGenerations) {
  PhysicalHost host(SmallHost());
  const auto image_config = SmallImage();
  const ImageId image = host.RegisterImage(image_config);
  ReferenceImage& img = *host.mutable_image(image);

  VirtualMachine* old_clone = host.CreateClone(image, CloneKind::kFlash, "old");
  ASSERT_NE(old_clone, nullptr);
  std::vector<ImagePatch> patches(1);
  patches[0].gpfn = 0;
  patches[0].bytes.assign(kPageSize, 0x42);
  ASSERT_TRUE(img.Refresh(std::span<const ImagePatch>(patches)));
  VirtualMachine* new_clone = host.CreateClone(image, CloneKind::kFlash, "new");
  ASSERT_NE(new_clone, nullptr);

  // Both clones privatise page 0 with identical bytes — dedup bait. The merge
  // may collapse the two *private* copies, but it must never link either VM to
  // the other generation's image frame.
  const std::vector<uint8_t> same(kPageSize, 0x99);
  old_clone->memory().WriteGuest(0, std::span(same.data(), same.size()));
  new_clone->memory().WriteGuest(0, std::span(same.data(), same.size()));
  DeduplicatePages(host);

  // A later write through the merged share re-privatises; the sibling on the
  // other generation keeps reading the merged bytes.
  const std::vector<uint8_t> divergent = {0x01};
  new_clone->memory().WriteGuest(0, std::span(divergent.data(), 1));
  std::vector<uint8_t> old_page(kPageSize);
  old_clone->memory().ReadGuest(0, std::span(old_page.data(), old_page.size()));
  EXPECT_EQ(old_page, same);

  // And neither generation's image frame was touched: a fresh clone of each
  // generation still reads its own image bytes on page 0. (Generation 0 is
  // still live — old_clone pins it — so its frames must be pristine too.)
  std::vector<uint8_t> gen1_page(kPageSize);
  VirtualMachine* probe = host.CreateClone(image, CloneKind::kFlash, "probe");
  ASSERT_NE(probe, nullptr);
  probe->memory().ReadGuest(0, std::span(gen1_page.data(), gen1_page.size()));
  EXPECT_EQ(gen1_page, std::vector<uint8_t>(kPageSize, 0x42));
  std::vector<uint8_t> gen0_page(kPageSize);
  host.allocator().Read(img.FrameForPage(0u, 0), 0,
                        std::span(gen0_page.data(), gen0_page.size()));
  EXPECT_EQ(gen0_page, ReferenceImage::ExpectedPageContent(image_config, 0));
}

}  // namespace
}  // namespace potemkin
