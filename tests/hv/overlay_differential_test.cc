// Randomized differential check of the flash-clone overlay. A clone's address
// space is a borrowed base plus a sparse overlay that alone carries frame
// references; the reference model here is the dense per-page one it replaced,
// where every clone maps and references every image frame. Seeded operation
// sequences run on both, and after every step the two must agree frame for
// frame (the same sharing structure, up to frame renaming), byte for byte, in
// used frames and page counts, and in refcounts once the dense model's per-page
// base references are subtracted.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/base/rng.h"
#include "src/hv/page_dedup.h"
#include "src/hv/physical_host.h"

namespace potemkin {
namespace {

// A dense page table: one entry per guest page, each mapping one reference.
struct DensePages {
  struct Page {
    FrameId frame = kInvalidFrame;
    bool cow = false;
    bool base = false;  // mapped by MapBase and not remapped since
  };
  std::vector<Page> pages;
  uint32_t private_pages = 0;
  uint32_t shared_pages = 0;
};

class DenseModel {
 public:
  explicit DenseModel(FrameAllocator* alloc) : alloc_(alloc) {}

  void MapBase(DensePages& as, std::span<const FrameId> frames) {
    for (size_t g = 0; g < frames.size(); ++g) {
      alloc_->Ref(frames[g]);
      as.pages[g] = {frames[g], true, true};
    }
    as.shared_pages += static_cast<uint32_t>(frames.size());
  }

  void Unmap(DensePages& as, Gpfn g) {
    DensePages::Page& page = as.pages[g];
    if (page.frame == kInvalidFrame) {
      return;
    }
    --(page.cow ? as.shared_pages : as.private_pages);
    alloc_->Unref(page.frame);
    page = {};
  }

  void MapShared(DensePages& as, Gpfn g, FrameId frame) {
    alloc_->Ref(frame);  // before the unmap: `frame` may be the page's own
    Unmap(as, g);
    as.pages[g] = {frame, true, false};
    ++as.shared_pages;
  }

  void MapPrivate(DensePages& as, Gpfn g, FrameId frame) {
    Unmap(as, g);
    as.pages[g] = {frame, false, false};
    ++as.private_pages;
  }

  bool MakeWritable(DensePages& as, Gpfn g) {
    DensePages::Page& page = as.pages[g];
    if (page.frame != kInvalidFrame && !page.cow) {
      return true;
    }
    const FrameId fresh = page.frame == kInvalidFrame ? alloc_->AllocateZeroed()
                                                      : alloc_->CloneFrame(page.frame);
    if (fresh == kInvalidFrame) {
      return false;
    }
    if (page.frame != kInvalidFrame) {
      alloc_->Unref(page.frame);
      --as.shared_pages;
    }
    page = {fresh, false, false};
    ++as.private_pages;
    return true;
  }

  bool Write(DensePages& as, uint64_t addr, std::span<const uint8_t> bytes) {
    size_t done = 0;
    while (done < bytes.size()) {
      const Gpfn g = static_cast<Gpfn>((addr + done) / kPageSize);
      const size_t offset = (addr + done) % kPageSize;
      const size_t chunk = std::min(bytes.size() - done, kPageSize - offset);
      if (!MakeWritable(as, g)) {
        return false;
      }
      alloc_->Write(as.pages[g].frame, offset, bytes.subspan(done, chunk));
      done += chunk;
    }
    return true;
  }

  bool Touch(DensePages& as, Gpfn first, uint32_t count) {
    for (uint32_t i = 0; i < count; ++i) {
      const uint8_t marker = static_cast<uint8_t>(0xd1 + i);
      if (!Write(as, static_cast<uint64_t>(first + i) * kPageSize,
                 std::span(&marker, 1))) {
        return false;
      }
    }
    return true;
  }

  // All-or-nothing: materialises every pending page of the run or none.
  bool FaultRange(DensePages& as, Gpfn first, uint32_t count) {
    uint64_t pending = 0;
    for (Gpfn g = first; g < first + count; ++g) {
      pending += as.pages[g].frame == kInvalidFrame || as.pages[g].cow ? 1 : 0;
    }
    if (!alloc_->CanAllocate(pending)) {
      return false;
    }
    for (Gpfn g = first; g < first + count; ++g) {
      EXPECT_TRUE(MakeWritable(as, g));
    }
    return true;
  }

  void Release(DensePages& as) {
    for (Gpfn g = 0; g < as.pages.size(); ++g) {
      Unmap(as, g);
    }
  }

 private:
  FrameAllocator* alloc_;
};

// Pairs frames of the real host with frames of the model; any pairing that is
// not one to one is a divergence in sharing structure.
class FrameBijection {
 public:
  bool Match(FrameId real, FrameId ref) {
    const auto [fwd, fwd_new] = to_ref_.emplace(real, ref);
    const auto [back, back_new] = to_real_.emplace(ref, real);
    return fwd->second == ref && back->second == real;
  }
  const std::unordered_map<FrameId, FrameId>& pairs() const { return to_ref_; }

 private:
  std::unordered_map<FrameId, FrameId> to_ref_;
  std::unordered_map<FrameId, FrameId> to_real_;
};

std::vector<uint8_t> PageBytes(const FrameAllocator& alloc, FrameId frame) {
  std::vector<uint8_t> bytes(kPageSize, 0);
  if (frame != kInvalidFrame) {
    alloc.Read(frame, 0, std::span(bytes.data(), bytes.size()));
  }
  return bytes;
}

// Compares one address space with its dense model; `base_refs` collects the
// per-page base references only the model takes.
void ComparePages(const AddressSpace& real, const FrameAllocator& ref_alloc,
                  const DensePages& ref, bool bytes, FrameBijection& frames,
                  std::unordered_map<FrameId, uint32_t>& base_refs) {
  ASSERT_EQ(real.num_pages(), ref.pages.size());
  EXPECT_EQ(real.private_pages(), ref.private_pages);
  EXPECT_EQ(real.shared_pages(), ref.shared_pages);
  for (Gpfn g = 0; g < real.num_pages(); ++g) {
    const DensePages::Page& page = ref.pages[g];
    const FrameId frame = real.FrameAt(g);
    ASSERT_EQ(frame != kInvalidFrame, page.frame != kInvalidFrame) << "gpfn " << g;
    ASSERT_EQ(real.IsMapped(g), page.frame != kInvalidFrame) << "gpfn " << g;
    ASSERT_EQ(real.IsCowShared(g), page.cow) << "gpfn " << g;
    if (frame != kInvalidFrame) {
      ASSERT_TRUE(frames.Match(frame, page.frame)) << "gpfn " << g;
    }
    if (page.base) {
      ++base_refs[page.frame];
    }
    if (bytes) {
      std::vector<uint8_t> actual(kPageSize);
      ASSERT_EQ(real.ReadGuest(static_cast<uint64_t>(g) * kPageSize,
                               std::span(actual.data(), actual.size())),
                MemAccessResult::kOk);
      ASSERT_EQ(actual, PageBytes(ref_alloc, page.frame)) << "gpfn " << g;
    }
  }
  std::vector<Gpfn> real_private;
  real.ForEachPrivatePage([&](Gpfn g, FrameId) { real_private.push_back(g); });
  std::vector<Gpfn> ref_private;
  for (Gpfn g = 0; g < ref.pages.size(); ++g) {
    if (ref.pages[g].frame != kInvalidFrame && !ref.pages[g].cow) {
      ref_private.push_back(g);
    }
  }
  EXPECT_EQ(real_private, ref_private);  // ascending gpfn order
}

// The overlay takes no reference for a base page; the dense model takes one
// per mapping. Everything else must match reference for reference.
void CompareRefcounts(const FrameAllocator& real_alloc, const FrameAllocator& ref_alloc,
                      const FrameBijection& frames,
                      const std::unordered_map<FrameId, uint32_t>& base_refs) {
  for (const auto& [real, ref] : frames.pairs()) {
    const auto it = base_refs.find(ref);
    const uint32_t dense_only = it == base_refs.end() ? 0 : it->second;
    EXPECT_EQ(real_alloc.RefCount(real) + dense_only, ref_alloc.RefCount(ref))
        << "frame " << real;
  }
}

std::vector<uint8_t> Pattern(Rng& rng, size_t size) {
  // Four fill bytes only, so whole-page writes repeat and dedup has work.
  std::vector<uint8_t> bytes(size, static_cast<uint8_t>(0x10 * (1 + rng.NextBelow(4))));
  if (rng.NextBool(0.5)) {
    bytes[rng.NextBelow(size)] = static_cast<uint8_t>(rng.NextU64());
  }
  return bytes;
}

// ---- Address-space level: holes, explicit shares, a partial base ----

TEST(OverlayDifferentialTest, AddressSpaceMatchesDenseModel) {
  constexpr uint32_t kPages = 160;  // base covers 100: a partial last leaf
  constexpr uint32_t kBasePages = 100;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    FrameAllocator real_alloc(512, ContentMode::kStoreBytes);
    FrameAllocator ref_alloc(512, ContentMode::kStoreBytes);
    // The same base and share pool in both allocators, with the same bytes.
    std::vector<FrameId> real_base, ref_base, real_pool, ref_pool;
    for (uint32_t i = 0; i < kBasePages + 4; ++i) {
      const std::vector<uint8_t> content = Pattern(rng, kPageSize);
      for (auto [alloc, out] : {std::pair(&real_alloc, &real_base),
                                std::pair(&ref_alloc, &ref_base)}) {
        const FrameId frame = alloc->AllocateZeroed();
        alloc->Write(frame, 0, std::span(content.data(), content.size()));
        out->push_back(frame);
      }
    }
    real_pool.assign(real_base.begin() + kBasePages, real_base.end());
    ref_pool.assign(ref_base.begin() + kBasePages, ref_base.end());
    real_base.resize(kBasePages);
    ref_base.resize(kBasePages);

    DenseModel model(&ref_alloc);
    DensePages ref;
    ref.pages.resize(kPages);
    {
      AddressSpace real(&real_alloc, kPages);
      real.BindBase(real_base);
      model.MapBase(ref, ref_base);
      for (int step = 0; step < 400; ++step) {
        SCOPED_TRACE(step);
        const Gpfn g = static_cast<Gpfn>(rng.NextBelow(kPages));
        const uint32_t run = 1 + static_cast<uint32_t>(rng.NextBelow(
                                     std::min<uint64_t>(24, kPages - g)));
        switch (rng.NextBelow(10)) {
          case 0:
          case 1: {
            const size_t len = 1 + rng.NextBelow(2 * kPageSize);
            const uint64_t addr = rng.NextBelow(kPages * kPageSize - len);
            const std::vector<uint8_t> bytes = Pattern(rng, len);
            const bool ok = real.WriteGuest(addr, bytes) != MemAccessResult::kOutOfMemory;
            EXPECT_EQ(ok, model.Write(ref, addr, bytes));
            break;
          }
          case 2:
            EXPECT_EQ(real.TouchPages(g, run) != MemAccessResult::kOutOfMemory,
                      model.Touch(ref, g, run));
            break;
          case 3:
            EXPECT_EQ(real.FaultRange(g, run) != MemAccessResult::kOutOfMemory,
                      model.FaultRange(ref, g, run));
            break;
          case 4:
            EXPECT_EQ(real.PrefetchRange(g, run) != MemAccessResult::kOutOfMemory,
                      model.FaultRange(ref, g, run));
            break;
          case 5: {
            const bool ok = real.FaultRange(g, run) != MemAccessResult::kOutOfMemory;
            EXPECT_EQ(ok, model.FaultRange(ref, g, run));
            if (ok) {
              EXPECT_NE(real.TouchPages(g, run), MemAccessResult::kOutOfMemory);
              EXPECT_TRUE(model.Touch(ref, g, run));
            }
            break;
          }
          case 6:
            real.Unmap(g);
            model.Unmap(ref, g);
            break;
          case 7: {
            // An explicit share: of a pool frame, or of some base frame.
            const size_t k = rng.NextBelow(kBasePages + 4);
            const bool pool = k >= kBasePages;
            const FrameId real_frame = pool ? real_pool[k - kBasePages] : real_base[k];
            const FrameId ref_frame = pool ? ref_pool[k - kBasePages] : ref_base[k];
            if (ref.pages[g].frame != kInvalidFrame && !ref.pages[g].cow &&
                rng.NextBool(0.5)) {
              real.ConvertPrivateToSharedCow(g, real_frame);
            } else {
              real.MapSharedCow(g, real_frame);
            }
            model.MapShared(ref, g, ref_frame);
            break;
          }
          case 8: {
            const FrameId real_frame = real_alloc.AllocateZeroed();
            const FrameId ref_frame = ref_alloc.AllocateZeroed();
            ASSERT_EQ(real_frame == kInvalidFrame, ref_frame == kInvalidFrame);
            if (real_frame != kInvalidFrame) {
              real.MapPrivateOwned(g, real_frame);
              model.MapPrivate(ref, g, ref_frame);
            }
            break;
          }
          case 9:
            if (rng.NextBool(0.2)) {
              real.ReleaseAll();
              model.Release(ref);
              real.BindBase(real_base);
              model.MapBase(ref, ref_base);
            }
            break;
        }
        FrameBijection frames;
        std::unordered_map<FrameId, uint32_t> base_refs;
        ComparePages(real, ref_alloc, ref, step % 16 == 0, frames, base_refs);
        for (uint32_t i = 0; i < kBasePages; ++i) {
          ASSERT_TRUE(frames.Match(real_base[i], ref_base[i]));
        }
        CompareRefcounts(real_alloc, ref_alloc, frames, base_refs);
        ASSERT_EQ(real_alloc.used_frames(), ref_alloc.used_frames());
        if (HasFatalFailure()) {
          return;
        }
      }
      FrameBijection frames;
      std::unordered_map<FrameId, uint32_t> base_refs;
      ComparePages(real, ref_alloc, ref, /*bytes=*/true, frames, base_refs);
    }
    model.Release(ref);
    // With both address spaces gone only the base and pool frames remain.
    EXPECT_EQ(real_alloc.used_frames(), kBasePages + 4);
    EXPECT_EQ(ref_alloc.used_frames(), kBasePages + 4);
  }
}

// ---- Host level: clones, dedup, refresh, pressure recycling ----

class HostDifferential {
 public:
  static constexpr uint64_t kOverhead = 8;

  explicit HostDifferential(uint64_t seed)
      : rng_(seed),
        host_(Config()),
        ref_alloc_(host_.allocator().capacity_frames(), ContentMode::kStoreBytes),
        model_(&ref_alloc_) {
    for (uint32_t pages : {96u, 130u}) {
      ReferenceImageConfig image;
      image.num_pages = pages;
      image.content_seed = seed * 7 + pages;
      host_.RegisterImage(image);
      ref_images_.push_back(std::make_unique<ReferenceImage>(&ref_alloc_, image));
    }
  }

  static PhysicalHostConfig Config() {
    PhysicalHostConfig config;
    config.memory_mb = 2;  // 512 frames: denials and pressure both happen
    config.content_mode = ContentMode::kStoreBytes;
    config.domain_overhead_frames = kOverhead;
    config.admission_reserve_frames = 16;
    config.pressure_high_watermark = 0.85;
    return config;
  }

  void Step(int step) {
    now_ = TimePoint::FromNanos(step);
    switch (rng_.NextBelow(12)) {
      case 0:
      case 1:
        Clone();
        break;
      case 2:
      case 3:
      case 4:
        if (VirtualMachine* vm = PickVm()) {
          Write(*vm);
        }
        break;
      case 5:
      case 6:
        if (VirtualMachine* vm = PickVm()) {
          Fault(*vm);
        }
        break;
      case 7:
        Dedup(rng_.NextBool(0.5) ? DedupMode::kFullScan : DedupMode::kIncremental);
        break;
      case 8:
        Refresh();
        break;
      case 9:
        if (VirtualMachine* vm = PickVm()) {
          Destroy(vm->id());
        }
        break;
      default:
        while (host_.UnderMemoryPressure()) {
          const std::vector<VmId> victims = host_.PressureVictims(2);
          if (victims.empty()) {
            break;
          }
          for (VmId id : victims) {
            Destroy(id);
          }
          ++reclaims_;
        }
        break;
    }
  }

  void Compare(bool bytes) {
    ASSERT_EQ(host_.allocator().used_frames(), ref_alloc_.used_frames());
    ASSERT_EQ(host_.live_vm_count(), clones_.size());
    FrameBijection frames;
    std::unordered_map<FrameId, uint32_t> base_refs;
    uint64_t private_pages = 0;
    for (auto& [id, ref] : clones_) {
      VirtualMachine* vm = host_.FindVm(id);
      ASSERT_NE(vm, nullptr);
      ComparePages(vm->memory(), ref_alloc_, ref.pages, bytes, frames, base_refs);
      private_pages += ref.pages.private_pages;
    }
    EXPECT_EQ(host_.TotalPrivatePages(), private_pages);
    for (size_t i = 0; i < ref_images_.size(); ++i) {
      const ReferenceImage& real = *host_.image(static_cast<ImageId>(i));
      const ReferenceImage& ref = *ref_images_[i];
      ASSERT_EQ(real.current_generation(), ref.current_generation());
      ASSERT_EQ(real.live_generations(), ref.live_generations());
      for (ImageGeneration gen = 0; gen <= real.current_generation(); ++gen) {
        ASSERT_EQ(real.pins(gen), ref.pins(gen));
        if (gen != real.current_generation() && real.pins(gen) == 0) {
          continue;  // retired
        }
        const auto real_frames = real.GenerationFrames(gen);
        const auto ref_frames = ref.GenerationFrames(gen);
        for (size_t g = 0; g < real_frames.size(); ++g) {
          ASSERT_TRUE(frames.Match(real_frames[g], ref_frames[g]));
        }
      }
    }
    CompareRefcounts(host_.allocator(), ref_alloc_, frames, base_refs);
  }

  void TearDown() {
    while (!clones_.empty()) {
      Destroy(clones_.begin()->first);
    }
    ASSERT_EQ(host_.allocator().used_frames(), ref_alloc_.used_frames());
  }

  uint64_t clones_created() const { return created_; }
  uint64_t reclaims() const { return reclaims_; }
  uint64_t refreshes() const { return refreshes_; }
  uint64_t merges() const { return host_.dedup_totals().pages_merged; }

 private:
  struct RefClone {
    DensePages pages;
    ImageId image = 0;
    ImageGeneration generation = 0;
    std::vector<FrameId> overhead;
  };

  VirtualMachine* PickVm() {
    if (clones_.empty()) {
      return nullptr;
    }
    auto it = clones_.begin();
    std::advance(it, static_cast<long>(rng_.NextBelow(clones_.size())));
    VirtualMachine* vm = host_.FindVm(it->first);
    vm->set_last_activity(now_);
    return vm;
  }

  void Clone() {
    if (clones_.size() >= 10) {
      return;
    }
    const ImageId image = static_cast<ImageId>(rng_.NextBelow(ref_images_.size()));
    const CloneKind kind = rng_.NextBool(0.1) ? CloneKind::kFullCopy : CloneKind::kFlash;
    CloneOptions options;
    options.use_working_set = rng_.NextBool(0.4);
    options.record_working_set = rng_.NextBool(0.4);
    options.prefetch_pages = 12;
    // The model prefetches what the host's profile predicts at clone time.
    std::vector<Gpfn> predicted;
    if (options.use_working_set) {
      predicted = host_.image(image)->working_set().PredictFirst(options.prefetch_pages);
      std::sort(predicted.begin(), predicted.end());
    }
    VirtualMachine* vm = host_.CreateClone(image, kind, "clone", options);

    ReferenceImage& img = *ref_images_[image];
    const uint32_t pages = img.num_pages();
    const bool admitted = ref_alloc_.CanAllocate(
        kOverhead + Config().admission_reserve_frames +
        (kind == CloneKind::kFlash ? 0 : pages));
    ASSERT_EQ(vm != nullptr, admitted);
    if (vm == nullptr) {
      return;
    }
    vm->set_state(VmState::kRunning);
    vm->set_last_activity(now_);
    RefClone ref;
    ref.image = image;
    ref.generation = img.current_generation();
    ref.pages.pages.resize(pages);
    for (uint64_t i = 0; i < kOverhead; ++i) {
      ref.overhead.push_back(ref_alloc_.AllocateZeroed());
      ASSERT_NE(ref.overhead.back(), kInvalidFrame);
    }
    const auto frames = img.GenerationFrames(ref.generation);
    if (kind == CloneKind::kFlash) {
      model_.MapBase(ref.pages, frames);
    } else {
      for (Gpfn g = 0; g < pages; ++g) {
        const FrameId copy = ref_alloc_.CloneFrame(frames[g]);
        ASSERT_NE(copy, kInvalidFrame);
        model_.MapPrivate(ref.pages, g, copy);
      }
    }
    for (size_t i = 0; i < predicted.size();) {
      size_t j = i + 1;
      while (j < predicted.size() && predicted[j] == predicted[j - 1] + 1) {
        ++j;
      }
      if (!model_.FaultRange(ref.pages, predicted[i], static_cast<uint32_t>(j - i))) {
        break;
      }
      i = j;
    }
    img.PinGeneration(ref.generation);
    clones_.emplace(vm->id(), std::move(ref));
    ++created_;
  }

  void Write(VirtualMachine& vm) {
    RefClone& ref = clones_.at(vm.id());
    const uint32_t pages = vm.memory().num_pages();
    if (rng_.NextBool(0.5)) {
      // Whole pages from a small pattern set: dedup bait.
      const Gpfn g = static_cast<Gpfn>(rng_.NextBelow(pages));
      std::vector<uint8_t> bytes(kPageSize,
                                 static_cast<uint8_t>(0x10 * (1 + rng_.NextBelow(3))));
      const uint64_t addr = static_cast<uint64_t>(g) * kPageSize;
      EXPECT_EQ(vm.memory().WriteGuest(addr, bytes) != MemAccessResult::kOutOfMemory,
                model_.Write(ref.pages, addr, bytes));
      return;
    }
    const size_t len = 1 + rng_.NextBelow(3 * kPageSize);
    const uint64_t addr = rng_.NextBelow(pages * kPageSize - len);
    const std::vector<uint8_t> bytes = Pattern(rng_, len);
    EXPECT_EQ(vm.memory().WriteGuest(addr, bytes) != MemAccessResult::kOutOfMemory,
              model_.Write(ref.pages, addr, bytes));
  }

  void Fault(VirtualMachine& vm) {
    RefClone& ref = clones_.at(vm.id());
    AddressSpace& mem = vm.memory();
    const Gpfn first = static_cast<Gpfn>(rng_.NextBelow(mem.num_pages()));
    const uint32_t count = 1 + static_cast<uint32_t>(rng_.NextBelow(
                                   std::min<uint64_t>(32, mem.num_pages() - first)));
    switch (rng_.NextBelow(4)) {
      case 0:
        EXPECT_EQ(mem.TouchPages(first, count) != MemAccessResult::kOutOfMemory,
                  model_.Touch(ref.pages, first, count));
        break;
      case 1:
        EXPECT_EQ(mem.FaultRange(first, count) != MemAccessResult::kOutOfMemory,
                  model_.FaultRange(ref.pages, first, count));
        break;
      case 2:
        EXPECT_EQ(mem.PrefetchRange(first, count) != MemAccessResult::kOutOfMemory,
                  model_.FaultRange(ref.pages, first, count));
        break;
      default: {
        const bool ok = mem.FaultRange(first, count) != MemAccessResult::kOutOfMemory;
        EXPECT_EQ(ok, model_.FaultRange(ref.pages, first, count));
        if (ok) {
          EXPECT_NE(mem.TouchPages(first, count), MemAccessResult::kOutOfMemory);
          EXPECT_TRUE(model_.Touch(ref.pages, first, count));
        }
        break;
      }
    }
  }

  // Runs the host's dedup pass, then applies the merges it made to the model.
  // Which pages merge is checked independently: afterwards no two private
  // pages on the host may hold the same bytes.
  void Dedup(DedupMode mode) {
    struct Where {
      VmId vm;
      Gpfn gpfn;
    };
    std::unordered_map<FrameId, Where> owners;  // private frame -> its page
    std::unordered_map<FrameId, Where> sharers;  // overlay share -> one page
    for (auto& [id, ref] : clones_) {
      const AddressSpace& mem = host_.FindVm(id)->memory();
      for (Gpfn g = 0; g < mem.num_pages(); ++g) {
        if (mem.IsMapped(g) && !ref.pages.pages[g].base) {
          (mem.IsCowShared(g) ? sharers : owners).emplace(mem.FrameAt(g), Where{id, g});
        }
      }
    }
    DeduplicatePages(host_, mode);
    for (const auto& [frame, page] : owners) {
      const AddressSpace& mem = host_.FindVm(page.vm)->memory();
      if (!mem.IsCowShared(page.gpfn)) {
        continue;
      }
      const FrameId canonical = mem.FrameAt(page.gpfn);
      const auto owner = owners.find(canonical);
      const Where from = owner != owners.end() ? owner->second : sharers.at(canonical);
      const FrameId ref_canonical = clones_.at(from.vm).pages.pages[from.gpfn].frame;
      model_.MapShared(clones_.at(page.vm).pages, page.gpfn, ref_canonical);
    }
    std::set<std::vector<uint8_t>> contents;
    uint64_t private_pages = 0;
    host_.ForEachVm([&](VirtualMachine& vm) {
      vm.memory().ForEachPrivatePage([&](Gpfn, FrameId frame) {
        contents.insert(PageBytes(host_.allocator(), frame));
        ++private_pages;
      });
    });
    EXPECT_EQ(contents.size(), private_pages) << "identical private pages left unmerged";
  }

  void Refresh() {
    const size_t image = rng_.NextBelow(ref_images_.size());
    ReferenceImage& real = *host_.mutable_image(static_cast<ImageId>(image));
    std::vector<ImagePatch> patches;
    std::set<Gpfn> used;
    for (uint64_t n = 1 + rng_.NextBelow(3); n > 0; --n) {
      const Gpfn g = static_cast<Gpfn>(rng_.NextBelow(real.num_pages()));
      if (used.insert(g).second) {
        patches.push_back(ImagePatch{g, Pattern(rng_, 1 + rng_.NextBelow(kPageSize))});
      }
    }
    const bool ok = real.Refresh(patches);
    EXPECT_EQ(ok, ref_images_[image]->Refresh(patches));
    refreshes_ += ok ? 1 : 0;
  }

  void Destroy(VmId id) {
    ASSERT_TRUE(host_.DestroyVm(id));
    RefClone& ref = clones_.at(id);
    model_.Release(ref.pages);
    for (FrameId frame : ref.overhead) {
      ref_alloc_.Unref(frame);
    }
    ref_images_[ref.image]->UnpinGeneration(ref.generation);
    clones_.erase(id);
  }

  Rng rng_;
  PhysicalHost host_;
  FrameAllocator ref_alloc_;
  DenseModel model_;
  std::vector<std::unique_ptr<ReferenceImage>> ref_images_;
  std::map<VmId, RefClone> clones_;
  TimePoint now_;
  uint64_t created_ = 0;
  uint64_t reclaims_ = 0;
  uint64_t refreshes_ = 0;
};

class OverlayHostDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OverlayHostDifferentialTest, HostMatchesDenseModel) {
  HostDifferential farm(GetParam());
  for (int step = 0; step < 600; ++step) {
    SCOPED_TRACE(step);
    farm.Step(step);
    farm.Compare(/*bytes=*/step % 10 == 0);
    if (HasFatalFailure()) {
      return;
    }
  }
  farm.Compare(/*bytes=*/true);
  // The sequence must have exercised what it claims to.
  EXPECT_GT(farm.clones_created(), 20u);
  EXPECT_GT(farm.merges(), 0u);
  EXPECT_GT(farm.refreshes(), 5u);
  EXPECT_GT(farm.reclaims(), 0u);
  farm.TearDown();
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlayHostDifferentialTest,
                         ::testing::Values(1ull, 2ull, 3ull, 21ull, 1009ull));

}  // namespace
}  // namespace potemkin
