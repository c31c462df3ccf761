// Guest pseudo-physical address spaces with copy-on-write mappings.
//
// This implements the paper's *delta virtualization*: a flash-cloned VM starts with
// every guest page mapped read-only to the frozen reference image's machine frames.
// The first guest write to such a page takes a CoW fault: a private frame is
// allocated, the contents copied, and the mapping flipped to writable. The set of
// private frames is the VM's "delta" — the only per-VM memory cost.
//
// The simulator's bookkeeping follows the same rule. A flash clone is a *base*
// plus a sparse *overlay*. The base is the image generation's frame span, bound
// in O(1) and borrowed: the clone takes no references on it. The overlay holds
// only the pages that differ from the base (private, prefetched, dedup-merged
// or explicitly `MapSharedCow`'d pages, and unmapped holes); a page missing from
// it reads the base frame as a CoW share. Only overlay frames carry references,
// so set-up and teardown cost O(pages touched), not O(image size).
//
// Faults resolve one page at a time (`WriteGuest`/`TouchPages`) or as a run
// (`FaultRange`): the run path classifies the whole range in one scan, takes a
// single all-or-nothing allocator reservation for every CoW break and zero
// fill, and amortises the share/delta bookkeeping across the run. The same
// machinery serves working-set prefetch (`PrefetchRange`), which materialises
// pages *speculatively* and tags them so the first real guest write counts as
// a prediction hit.
#ifndef SRC_HV_ADDRESS_SPACE_H_
#define SRC_HV_ADDRESS_SPACE_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/hv/frame_allocator.h"
#include "src/hv/types.h"

namespace potemkin {

enum class MemAccessResult {
  kOk,
  kCowBreak,        // write succeeded after breaking a CoW share
  kOutOfMemory,     // CoW break failed: host has no free frames
  kBadAddress,      // access outside the guest address space
};

struct AddressSpaceStats {
  uint64_t cow_faults = 0;         // writes that broke a share
  uint64_t zero_fills = 0;         // writes that materialized an unbacked page
  uint64_t failed_cow_breaks = 0;  // out-of-memory CoW faults
  uint64_t prefetched_pages = 0;   // pages materialised speculatively
  uint64_t prefetch_hits = 0;      // prefetched pages later written by the guest
};

class AddressSpace {
 public:
  // An address space with `num_pages` guest pages, all initially unmapped (reads
  // see zeros; first write allocates a private zero frame).
  AddressSpace(FrameAllocator* allocator, uint32_t num_pages);
  ~AddressSpace();
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  uint32_t num_pages() const { return num_pages_; }
  uint64_t size_bytes() const { return static_cast<uint64_t>(num_pages()) * kPageSize; }

  // Flash-clone binding: page g < frames.size() reads frames[g] as a CoW share
  // until the overlay replaces it. O(1): the span is borrowed and no reference
  // is taken, so its owner must keep every frame and the span's buffer alive
  // until ReleaseAll (or destruction). Requires a fresh or released address
  // space.
  //
  // PhysicalHost binds a pinned generation's `GenerationFrames` span, which
  // stays valid for the clone's life: DestroyVm releases the overlay before it
  // unpins the generation; a pinned generation's frame vector is never
  // cleared; and when `ReferenceImage::Refresh` reallocates its generation
  // list, it moves each frame vector, which keeps the vector's buffer.
  void BindBase(std::span<const FrameId> frames);

  // Maps `frame` at `gpfn` as a read-only CoW share; takes a reference.
  void MapSharedCow(Gpfn gpfn, FrameId frame);
  // Maps `frame` at `gpfn` as private/writable; takes ownership of one reference.
  void MapPrivateOwned(Gpfn gpfn, FrameId frame);
  void Unmap(Gpfn gpfn);

  // Guest memory access by byte address; may span pages.
  MemAccessResult WriteGuest(uint64_t gpaddr, std::span<const uint8_t> bytes);
  MemAccessResult ReadGuest(uint64_t gpaddr, std::span<uint8_t> out) const;

  // Touches (dirties) one word in each page of [first_gpfn, first_gpfn+count),
  // modelling a guest working set; stops early on OOM.
  MemAccessResult TouchPages(Gpfn first_gpfn, uint32_t count);

  // Resolves all pending faults (unmapped or CoW-shared pages) in
  // [first_gpfn, first_gpfn+count) in one pass: one scan to classify, one
  // all-or-nothing allocator reservation (batch clone + batch zero-fill), and
  // bookkeeping amortised over the run. Already-private pages are untouched.
  // On kOutOfMemory nothing in the range changed.
  MemAccessResult FaultRange(Gpfn first_gpfn, uint32_t count);

  // FaultRange for the working-set predictor: pages it materialises are tagged
  // as prefetched (counted in stats().prefetched_pages); the first real guest
  // write to such a page clears the tag and counts a prefetch hit. Pages left
  // tagged at teardown were mispredictions.
  MemAccessResult PrefetchRange(Gpfn first_gpfn, uint32_t count);

  // Test oracles, reached by no program.
  bool IsMapped(Gpfn gpfn) const;
  bool IsCowShared(Gpfn gpfn) const;

  FrameId FrameAt(Gpfn gpfn) const;

  // Number of pages whose frame is private to this address space (the delta).
  uint32_t private_pages() const { return private_pages_; }
  // Number of pages still sharing the reference image's frames.
  uint32_t shared_pages() const { return shared_pages_; }
  uint64_t private_bytes() const {
    return static_cast<uint64_t>(private_pages_) * kPageSize;
  }

  const AddressSpaceStats& stats() const { return stats_; }

  // Arms first-materialisation order recording: every page that transitions to
  // private (zero fill, CoW break, single or batched) appends its gpfn to
  // touch_order(). Off by default — recording is only paid for by VMs whose
  // sessions feed a working-set profile.
  void EnableTouchOrderRecording() { record_touch_order_ = true; }
  // Gpfns in the order they first became private. Prefetched pages are
  // excluded — the profile must reflect what the guest actually touched, not
  // what a previous profile predicted, or mispredictions self-reinforce.
  const std::vector<Gpfn>& touch_order() const { return touch_order_; }

  // Iterates every private (non-CoW) mapping in ascending gpfn order:
  // fn(gpfn, frame). Used by snapshot capture and the page deduplicator's
  // full-scan mode. Private pages live in the overlay only.
  template <typename Fn>
  void ForEachPrivatePage(Fn&& fn) const {
    ForEachOverlayEntry([&](Gpfn gpfn, const Pte& pte) {
      if (pte.present && !pte.cow) {
        fn(gpfn, pte.frame);
      }
    });
  }

  // Consumes the set of private pages written since the last drain, in first-dirty
  // order: fn(gpfn, frame). Pages unmapped or converted since they were dirtied are
  // skipped. Tracking is only armed on kStoreBytes hosts (where page contents — and
  // thus content dedup — exist); on metadata-only hosts this visits nothing.
  template <typename Fn>
  void DrainDirtyPages(Fn&& fn) {
    for (const Gpfn gpfn : dirty_pages_) {
      Pte* pte = Find(gpfn);
      if (pte == nullptr || !pte->dirty) {
        continue;  // unmapped/converted since dirtied
      }
      pte->dirty = false;
      if (pte->present && !pte->cow) {
        fn(gpfn, pte->frame);
      }
    }
    dirty_pages_.clear();
  }

  // Re-marks every private page dirty (full-scan dedup mode).
  void MarkAllPrivateDirty();

  // Replaces the private mapping at `gpfn` with a CoW share of `frame` (used by
  // the deduplicator after proving contents identical). The old private frame is
  // released; `frame` gains a reference.
  void ConvertPrivateToSharedCow(Gpfn gpfn, FrameId frame);

  // Releases every mapping and unbinds the base: overlay references drop (private
  // frames free immediately), in ascending gpfn order.
  void ReleaseAll();

 private:
  // An overlay entry. A present entry holds one frame reference; a page with no
  // entry reads through to the base and holds none.
  struct Pte {
    FrameId frame = kInvalidFrame;
    bool present : 1 = false;
    bool cow : 1 = false;  // present but read-only shared; write must break the share
    bool dirty : 1 = false;  // written since the last dedup drain (kStoreBytes only)
    bool prefetched : 1 = false;  // speculatively materialised, no guest write yet
  };
  static_assert(sizeof(Pte) == 8, "a dense overlay must cost no more than a PTE array");

  // The overlay is a two-level table: a directory of 64-page leaves, allocated
  // on first use. Bit i of `occupied` says page (leaf * 64 + i) has an entry.
  static constexpr uint32_t kLeafShift = 6;
  static constexpr uint32_t kLeafPages = 1u << kLeafShift;
  struct Leaf {
    uint64_t occupied = 0;
    Pte ptes[kLeafPages];
  };

  // The overlay entry for `gpfn`, or null when the page reads through to the
  // base.
  Pte* Find(Gpfn gpfn) {
    const uint32_t index = gpfn >> kLeafShift;
    if (index >= leaves_.size() || leaves_[index] == nullptr) {
      return nullptr;
    }
    Leaf& leaf = *leaves_[index];
    const uint32_t slot = gpfn & (kLeafPages - 1);
    return (leaf.occupied >> slot & 1) != 0 ? &leaf.ptes[slot] : nullptr;
  }
  const Pte* Find(Gpfn gpfn) const {
    return const_cast<AddressSpace*>(this)->Find(gpfn);
  }
  // The overlay entry for `gpfn`, created (as an empty hole) if missing.
  Pte& Slot(Gpfn gpfn);
  // The frame a page without an overlay entry reads, or kInvalidFrame.
  FrameId BaseFrame(Gpfn gpfn) const {
    return gpfn < base_.size() ? base_[gpfn] : kInvalidFrame;
  }

  // Visits every overlay entry in ascending gpfn order: fn(gpfn, pte).
  template <typename Fn>
  void ForEachOverlayEntry(Fn&& fn) const {
    for (uint32_t index = 0; index < leaves_.size(); ++index) {
      if (leaves_[index] == nullptr) {
        continue;
      }
      const Leaf& leaf = *leaves_[index];
      for (uint64_t bits = leaf.occupied; bits != 0; bits &= bits - 1) {
        const uint32_t slot = static_cast<uint32_t>(std::countr_zero(bits));
        fn((index << kLeafShift) | slot, leaf.ptes[slot]);
      }
    }
  }

  // Ensures the page at `gpfn` is privately writable and returns its entry;
  // returns null on OOM.
  Pte* MakeWritable(Gpfn gpfn, MemAccessResult* result);

  // Shared implementation of FaultRange/PrefetchRange.
  MemAccessResult FaultRangeInternal(Gpfn first_gpfn, uint32_t count,
                                     bool prefetch);

  void MarkDirty(Pte& pte, Gpfn gpfn) {
    if (!pte.dirty) {
      pte.dirty = true;
      dirty_pages_.push_back(gpfn);
    }
  }

  void RecordTouch(Gpfn gpfn) {
    if (record_touch_order_) {
      touch_order_.push_back(gpfn);
    }
  }

  FrameAllocator* allocator_;
  uint32_t num_pages_;
  std::span<const FrameId> base_;  // borrowed; see BindBase
  // Overlay directory, sized on the first entry; null where no leaf exists.
  std::vector<std::unique_ptr<Leaf>> leaves_;
  std::vector<Gpfn> dirty_pages_;  // queue for DrainDirtyPages; deduped via Pte::dirty
  std::vector<Gpfn> touch_order_;  // first-materialisation order (when armed)
  // Scratch for FaultRangeInternal, kept across calls so a steady stream of
  // batch faults never allocates.
  std::vector<Gpfn> scratch_cow_gpfns_;
  std::vector<FrameId> scratch_cow_src_;
  std::vector<FrameId> scratch_cow_release_;  // sources the overlay held a reference on
  std::vector<FrameId> scratch_cow_new_;
  std::vector<Gpfn> scratch_zf_gpfns_;
  std::vector<FrameId> scratch_zf_new_;
  uint32_t private_pages_ = 0;
  uint32_t shared_pages_ = 0;
  bool track_dirty_ = false;  // only kStoreBytes hosts pay for dirty tracking
  bool record_touch_order_ = false;
  AddressSpaceStats stats_;
};

}  // namespace potemkin

#endif  // SRC_HV_ADDRESS_SPACE_H_
