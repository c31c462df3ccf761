// Tests for forensic snapshots and content-based page deduplication.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>

#include "src/hv/page_dedup.h"
#include "src/hv/physical_host.h"
#include "src/hv/snapshot.h"

namespace potemkin {
namespace {

PhysicalHostConfig StoreBytesHost() {
  PhysicalHostConfig config;
  config.memory_mb = 64;
  config.content_mode = ContentMode::kStoreBytes;
  config.domain_overhead_frames = 4;
  return config;
}

ReferenceImageConfig SmallImage() {
  ReferenceImageConfig config;
  config.num_pages = 128;
  config.content_seed = 3;
  return config;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(SnapshotTest, CapturesExactlyTheDelta) {
  PhysicalHost host(StoreBytesHost());
  const ImageId image = host.RegisterImage(SmallImage());
  VirtualMachine* vm = host.CreateClone(image, CloneKind::kFlash, "victim");
  vm->BindAddress(Ipv4Address(10, 1, 0, 9), MacAddress::FromId(9));
  vm->set_infected(true);

  const std::vector<uint8_t> payload = {0xde, 0xad, 0xbe, 0xef};
  vm->memory().WriteGuest(5 * kPageSize + 100, std::span(payload.data(), 4));
  vm->memory().WriteGuest(77 * kPageSize, std::span(payload.data(), 2));

  const VmSnapshot snapshot = VmSnapshot::Capture(*vm, TimePoint() + Duration::Seconds(9.0));
  EXPECT_EQ(snapshot.delta_pages(), 2u);
  EXPECT_TRUE(snapshot.meta().infected);
  EXPECT_EQ(snapshot.meta().ip, Ipv4Address(10, 1, 0, 9).value());
  EXPECT_EQ(snapshot.meta().num_pages, 128u);
  ASSERT_NE(snapshot.PageContent(5), nullptr);
  EXPECT_EQ((*snapshot.PageContent(5))[100], 0xde);
  EXPECT_EQ(snapshot.PageContent(6), nullptr);
}

TEST(SnapshotTest, FileRoundTripPreservesEverything) {
  PhysicalHost host(StoreBytesHost());
  const ImageId image = host.RegisterImage(SmallImage());
  VirtualMachine* vm = host.CreateClone(image, CloneKind::kFlash, "victim");
  vm->set_infected(true);
  const std::vector<uint8_t> payload = {1, 2, 3};
  vm->memory().WriteGuest(11 * kPageSize + 7, std::span(payload.data(), 3));

  const std::string path = TempPath("victim.snap");
  const VmSnapshot original = VmSnapshot::Capture(*vm, TimePoint());
  ASSERT_TRUE(original.WriteToFile(path));
  const auto loaded = VmSnapshot::ReadFromFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->delta_pages(), original.delta_pages());
  EXPECT_EQ(loaded->meta().infected, true);
  EXPECT_EQ(loaded->meta().vm, vm->id());
  ASSERT_NE(loaded->PageContent(11), nullptr);
  EXPECT_EQ(*loaded->PageContent(11), *original.PageContent(11));
  std::remove(path.c_str());
}

TEST(SnapshotTest, RestoreReproducesInfectedMachine) {
  PhysicalHost host(StoreBytesHost());
  const ImageId image = host.RegisterImage(SmallImage());
  VirtualMachine* victim = host.CreateClone(image, CloneKind::kFlash, "victim");
  victim->set_infected(true);
  const std::vector<uint8_t> payload = {0x99, 0x88};
  victim->memory().WriteGuest(42 * kPageSize + 5, std::span(payload.data(), 2));
  const VmSnapshot snapshot = VmSnapshot::Capture(*victim, TimePoint());
  host.DestroyVm(victim->id());

  // Restore into a fresh clone of the same image (the analysis workflow).
  VirtualMachine* lab = host.CreateClone(image, CloneKind::kFlash, "lab");
  ASSERT_TRUE(snapshot.RestoreInto(lab));
  EXPECT_TRUE(lab->infected());
  std::vector<uint8_t> mem(2);
  lab->memory().ReadGuest(42 * kPageSize + 5, std::span(mem.data(), 2));
  EXPECT_EQ(mem[0], 0x99);
  EXPECT_EQ(mem[1], 0x88);
  // Unmodified pages still show the image content.
  const auto expected = ReferenceImage::ExpectedPageContent(SmallImage(), 50);
  std::vector<uint8_t> page(kPageSize);
  lab->memory().ReadGuest(50 * kPageSize, std::span(page.data(), page.size()));
  EXPECT_EQ(page, expected);
}

TEST(SnapshotTest, RestoreRejectsMismatchedShape) {
  PhysicalHost host(StoreBytesHost());
  const ImageId small = host.RegisterImage(SmallImage());
  ReferenceImageConfig big_config = SmallImage();
  big_config.num_pages = 256;
  const ImageId big = host.RegisterImage(big_config);
  VirtualMachine* a = host.CreateClone(small, CloneKind::kFlash, "a");
  VirtualMachine* b = host.CreateClone(big, CloneKind::kFlash, "b");
  const VmSnapshot snapshot = VmSnapshot::Capture(*a, TimePoint());
  EXPECT_FALSE(snapshot.RestoreInto(b));
  EXPECT_FALSE(snapshot.RestoreInto(nullptr));
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(SnapshotTest, MissingFileFailsCleanly) {
  EXPECT_FALSE(VmSnapshot::ReadFromFile("/no/such/file.snap").has_value());

  PhysicalHost host(StoreBytesHost());
  const ImageId image = host.RegisterImage(SmallImage());
  VirtualMachine* vm = host.CreateClone(image, CloneKind::kFlash, "victim");
  const std::vector<uint8_t> payload = {7};
  vm->memory().WriteGuest(3 * kPageSize, std::span(payload.data(), 1));
  const std::string path = TempPath("valid.snap");
  ASSERT_TRUE(VmSnapshot::Capture(*vm, TimePoint()).WriteToFile(path));
  const std::string valid = ReadBytes(path);
  ASSERT_EQ(valid.compare(0, 5, "PKSN2"), 0);
  ASSERT_TRUE(VmSnapshot::ReadFromFile(path).has_value());

  // The same snapshot in the PKSN1 layout: old magic, then an empty
  // disk-overlay section after the pages.
  const std::string old_path = TempPath("pksn1.snap");
  std::string old = valid;
  old[4] = '1';
  old.append(4, '\0');
  WriteBytes(old_path, old);
  EXPECT_FALSE(VmSnapshot::ReadFromFile(old_path).has_value());

  // Cut short anywhere, a valid file reads as nothing.
  const std::string cut_path = TempPath("truncated.snap");
  for (size_t length = 0; length < valid.size(); ++length) {
    WriteBytes(cut_path, valid.substr(0, length));
    ASSERT_FALSE(VmSnapshot::ReadFromFile(cut_path).has_value()) << "length " << length;
  }
  std::remove(path.c_str());
  std::remove(old_path.c_str());
  std::remove(cut_path.c_str());
}

TEST(DedupTest, MergesIdenticalPagesAcrossVms) {
  PhysicalHost host(StoreBytesHost());
  const ImageId image = host.RegisterImage(SmallImage());
  VirtualMachine* a = host.CreateClone(image, CloneKind::kFlash, "a");
  VirtualMachine* b = host.CreateClone(image, CloneKind::kFlash, "b");
  VirtualMachine* c = host.CreateClone(image, CloneKind::kFlash, "c");

  // All three CoW-break the SAME image page with the same patch, so their
  // private copies are byte-identical (image content + identical overwrite).
  const std::vector<uint8_t> same(64, 0x5a);
  a->memory().WriteGuest(3 * kPageSize, std::span(same.data(), same.size()));
  b->memory().WriteGuest(3 * kPageSize, std::span(same.data(), same.size()));
  c->memory().WriteGuest(3 * kPageSize, std::span(same.data(), same.size()));
  // And one writes something unique.
  const std::vector<uint8_t> unique = {0x11};
  a->memory().WriteGuest(9 * kPageSize, std::span(unique.data(), 1));

  const uint64_t frames_before = host.allocator().used_frames();
  const DedupResult result = DeduplicatePages(host);
  EXPECT_EQ(result.pages_scanned, 4u);
  EXPECT_EQ(result.pages_merged, 2u);
  EXPECT_EQ(result.frames_freed, 2u);
  EXPECT_EQ(host.allocator().used_frames(), frames_before - 2);

  // Contents unchanged for every VM.
  std::vector<uint8_t> buf(64);
  for (VirtualMachine* vm : {a, b, c}) {
    vm->memory().ReadGuest(3 * kPageSize, std::span(buf.data(), buf.size()));
    EXPECT_EQ(buf, same);
  }
}

TEST(DedupTest, MergedPagesReprivatizeOnWrite) {
  PhysicalHost host(StoreBytesHost());
  const ImageId image = host.RegisterImage(SmallImage());
  VirtualMachine* a = host.CreateClone(image, CloneKind::kFlash, "a");
  VirtualMachine* b = host.CreateClone(image, CloneKind::kFlash, "b");
  const std::vector<uint8_t> same(16, 0x77);
  a->memory().WriteGuest(3 * kPageSize, std::span(same.data(), same.size()));
  b->memory().WriteGuest(3 * kPageSize, std::span(same.data(), same.size()));
  DeduplicatePages(host);
  EXPECT_TRUE(a->memory().IsCowShared(3));
  EXPECT_TRUE(b->memory().IsCowShared(3));

  // Writing through the share must CoW-break without disturbing the other VM.
  const std::vector<uint8_t> change = {0xff};
  EXPECT_EQ(a->memory().WriteGuest(3 * kPageSize, std::span(change.data(), 1)),
            MemAccessResult::kCowBreak);
  std::vector<uint8_t> buf(16);
  b->memory().ReadGuest(3 * kPageSize, std::span(buf.data(), buf.size()));
  EXPECT_EQ(buf, same);
  std::vector<uint8_t> a_first(1);
  a->memory().ReadGuest(3 * kPageSize, std::span(a_first.data(), 1));
  EXPECT_EQ(a_first[0], 0xff);
}

TEST(DedupTest, SecondPassIsIdempotent) {
  PhysicalHost host(StoreBytesHost());
  const ImageId image = host.RegisterImage(SmallImage());
  VirtualMachine* a = host.CreateClone(image, CloneKind::kFlash, "a");
  VirtualMachine* b = host.CreateClone(image, CloneKind::kFlash, "b");
  const std::vector<uint8_t> same(16, 0x42);
  a->memory().WriteGuest(0, std::span(same.data(), same.size()));
  b->memory().WriteGuest(0, std::span(same.data(), same.size()));
  const DedupResult first = DeduplicatePages(host);
  EXPECT_EQ(first.pages_merged, 1u);
  const DedupResult second = DeduplicatePages(host);
  EXPECT_EQ(second.pages_merged, 0u);
  // After merging, both mappings are CoW shares; no private pages remain to scan.
  EXPECT_EQ(second.pages_scanned, 0u);
}

TEST(DedupTest, DifferentContentNeverMerged) {
  PhysicalHost host(StoreBytesHost());
  const ImageId image = host.RegisterImage(SmallImage());
  VirtualMachine* a = host.CreateClone(image, CloneKind::kFlash, "a");
  VirtualMachine* b = host.CreateClone(image, CloneKind::kFlash, "b");
  const std::vector<uint8_t> x = {1};
  const std::vector<uint8_t> y = {2};
  a->memory().WriteGuest(0, std::span(x.data(), 1));
  b->memory().WriteGuest(0, std::span(y.data(), 1));
  const DedupResult result = DeduplicatePages(host);
  EXPECT_EQ(result.pages_merged, 0u);
}

TEST(DedupTest, ZeroDeltaPagesAllCollapseToOneFrame) {
  PhysicalHost host(StoreBytesHost());
  const ImageId image = host.RegisterImage(SmallImage());
  // Identical CoW breaks of the same image page are byte-identical.
  std::vector<VirtualMachine*> vms;
  for (int i = 0; i < 5; ++i) {
    VirtualMachine* vm = host.CreateClone(image, CloneKind::kFlash, "z");
    const std::vector<uint8_t> zero = {0};
    vm->memory().WriteGuest(10 * kPageSize, std::span(zero.data(), 1));
    vms.push_back(vm);
  }
  const DedupResult result = DeduplicatePages(host);
  EXPECT_EQ(result.pages_merged, 4u);  // 5 identical zero pages -> 1 frame
}

// Cross-check of the incremental index against the stateless full scan: a host
// deduplicated incrementally after every burst of randomized guest writes must
// converge to the same frame count and guest-visible bytes as an identically
// driven host deduplicated once at the end with kFullScan — and a full scan run
// *after* the incremental passes must find nothing left to merge.
TEST(DedupTest, IncrementalMatchesFullScanOnRandomizedWrites) {
  PhysicalHost inc_host(StoreBytesHost());
  PhysicalHost full_host(StoreBytesHost());
  const ImageId inc_image = inc_host.RegisterImage(SmallImage());
  const ImageId full_image = full_host.RegisterImage(SmallImage());
  constexpr size_t kVms = 4;
  constexpr uint64_t kPages = 128;
  std::vector<VirtualMachine*> inc_vms;
  std::vector<VirtualMachine*> full_vms;
  for (size_t i = 0; i < kVms; ++i) {
    inc_vms.push_back(inc_host.CreateClone(inc_image, CloneKind::kFlash, "i"));
    full_vms.push_back(full_host.CreateClone(full_image, CloneKind::kFlash, "f"));
  }
  std::mt19937 rng(20260806);
  for (int round = 0; round < 6; ++round) {
    for (int write = 0; write < 48; ++write) {
      const size_t vm = rng() % kVms;
      const uint64_t addr = (rng() % kPages) * kPageSize + rng() % 64;
      // Low-entropy patches so cross-VM duplicates (and re-divergence of
      // previously merged pages) are both common.
      const std::vector<uint8_t> patch(1 + rng() % 16,
                                       static_cast<uint8_t>(rng() % 4));
      inc_vms[vm]->memory().WriteGuest(addr, std::span(patch.data(), patch.size()));
      full_vms[vm]->memory().WriteGuest(addr, std::span(patch.data(), patch.size()));
    }
    DeduplicatePages(inc_host);  // incremental pass per burst: O(dirty) each
  }
  DeduplicatePages(full_host, DedupMode::kFullScan);
  EXPECT_EQ(inc_host.allocator().used_frames(), full_host.allocator().used_frames());

  // Every guest page reads back identically on the two hosts.
  std::vector<uint8_t> inc_buf(kPageSize);
  std::vector<uint8_t> full_buf(kPageSize);
  for (size_t vm = 0; vm < kVms; ++vm) {
    for (uint64_t page = 0; page < kPages; ++page) {
      inc_vms[vm]->memory().ReadGuest(page * kPageSize,
                                      std::span(inc_buf.data(), inc_buf.size()));
      full_vms[vm]->memory().ReadGuest(page * kPageSize,
                                       std::span(full_buf.data(), full_buf.size()));
      ASSERT_EQ(inc_buf, full_buf) << "vm " << vm << " page " << page;
    }
  }

  // The incremental passes left no mergeable duplicates behind.
  const DedupResult residue = DeduplicatePages(inc_host, DedupMode::kFullScan);
  EXPECT_EQ(residue.pages_merged, 0u);
}

TEST(DedupTest, MetadataOnlyHostIsNoOp) {
  PhysicalHostConfig config = StoreBytesHost();
  config.content_mode = ContentMode::kMetadataOnly;
  PhysicalHost host(config);
  const ImageId image = host.RegisterImage(SmallImage());
  VirtualMachine* a = host.CreateClone(image, CloneKind::kFlash, "a");
  const std::vector<uint8_t> data = {1};
  a->memory().WriteGuest(0, std::span(data.data(), 1));
  const DedupResult result = DeduplicatePages(host);
  EXPECT_EQ(result.pages_scanned, 0u);
  EXPECT_EQ(result.pages_merged, 0u);
}

}  // namespace
}  // namespace potemkin
