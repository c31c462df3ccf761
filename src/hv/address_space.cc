#include "src/hv/address_space.h"

#include <algorithm>

#include "src/base/log.h"

namespace potemkin {

AddressSpace::AddressSpace(FrameAllocator* allocator, uint32_t num_pages)
    : allocator_(allocator),
      num_pages_(num_pages),
      track_dirty_(allocator->mode() == ContentMode::kStoreBytes) {}

AddressSpace::~AddressSpace() { ReleaseAll(); }

AddressSpace::Pte& AddressSpace::Slot(Gpfn gpfn) {
  if (leaves_.empty()) {
    leaves_.resize((num_pages_ + kLeafPages - 1) >> kLeafShift);
  }
  std::unique_ptr<Leaf>& leaf = leaves_[gpfn >> kLeafShift];
  if (leaf == nullptr) {
    leaf = std::make_unique<Leaf>();
  }
  // Entries never leave a leaf, so a slot not yet occupied still holds the
  // hole it was constructed with.
  const uint32_t slot = gpfn & (kLeafPages - 1);
  leaf->occupied |= uint64_t{1} << slot;
  return leaf->ptes[slot];
}

void AddressSpace::BindBase(std::span<const FrameId> frames) {
  PK_CHECK(frames.size() <= num_pages_) << "base larger than address space";
  PK_CHECK(base_.empty() && leaves_.empty() && private_pages_ == 0 &&
           shared_pages_ == 0)
      << "base bound over live mappings";
  base_ = frames;
  shared_pages_ = static_cast<uint32_t>(frames.size());
}

void AddressSpace::MapSharedCow(Gpfn gpfn, FrameId frame) {
  PK_CHECK(gpfn < num_pages_) << "map outside address space";
  Unmap(gpfn);
  allocator_->Ref(frame);
  Slot(gpfn) = Pte{.frame = frame, .present = true, .cow = true};
  ++shared_pages_;
}

void AddressSpace::MapPrivateOwned(Gpfn gpfn, FrameId frame) {
  PK_CHECK(gpfn < num_pages_) << "map outside address space";
  Unmap(gpfn);
  Pte& pte = Slot(gpfn);
  pte = Pte{.frame = frame, .present = true};
  ++private_pages_;
  if (track_dirty_) {
    MarkDirty(pte, gpfn);  // new private content this address space has not exposed yet
  }
}

void AddressSpace::Unmap(Gpfn gpfn) {
  PK_CHECK(gpfn < num_pages_) << "unmap outside address space";
  Pte* pte = Find(gpfn);
  if (pte == nullptr) {
    if (BaseFrame(gpfn) == kInvalidFrame) {
      return;
    }
    // A base page: no reference to drop, but the overlay must now mask it.
    PK_CHECK(shared_pages_ > 0);
    --shared_pages_;
    Slot(gpfn);
    return;
  }
  if (!pte->present) {
    return;
  }
  if (pte->cow) {
    PK_CHECK(shared_pages_ > 0);
    --shared_pages_;
  } else {
    PK_CHECK(private_pages_ > 0);
    --private_pages_;
  }
  allocator_->Unref(pte->frame);
  *pte = Pte{};
}

AddressSpace::Pte* AddressSpace::MakeWritable(Gpfn gpfn, MemAccessResult* result) {
  Pte* pte = Find(gpfn);
  if (pte != nullptr && pte->present && !pte->cow) {
    if (pte->prefetched) {
      // First real guest write to a speculatively materialised page: the
      // working-set predictor got this one right.
      pte->prefetched = false;
      ++stats_.prefetch_hits;
    }
    return pte;
  }
  // Only an overlay share holds a reference on its frame; a base page does not.
  const bool referenced = pte != nullptr && pte->present;
  const FrameId shared = pte != nullptr ? (referenced ? pte->frame : kInvalidFrame)
                                        : BaseFrame(gpfn);
  if (shared == kInvalidFrame) {
    // Zero-fill-on-demand private page.
    const FrameId frame = allocator_->AllocateZeroed();
    if (frame == kInvalidFrame) {
      ++stats_.failed_cow_breaks;
      *result = MemAccessResult::kOutOfMemory;
      return nullptr;
    }
    pte = &Slot(gpfn);
    *pte = Pte{.frame = frame, .present = true};
    ++private_pages_;
    ++stats_.zero_fills;
    RecordTouch(gpfn);
    return pte;
  }
  // CoW break: copy the shared frame into a private one.
  const FrameId copy = allocator_->CloneFrame(shared);
  if (copy == kInvalidFrame) {
    ++stats_.failed_cow_breaks;
    *result = MemAccessResult::kOutOfMemory;
    return nullptr;
  }
  if (referenced) {
    allocator_->Unref(shared);
  }
  PK_CHECK(shared_pages_ > 0);
  --shared_pages_;
  pte = &Slot(gpfn);
  *pte = Pte{.frame = copy, .present = true};
  ++private_pages_;
  ++stats_.cow_faults;
  RecordTouch(gpfn);
  *result = MemAccessResult::kCowBreak;
  return pte;
}

MemAccessResult AddressSpace::FaultRangeInternal(Gpfn first_gpfn, uint32_t count,
                                                 bool prefetch) {
  if (first_gpfn + count > num_pages_) {
    return MemAccessResult::kBadAddress;
  }
  // Pass 1: classify the run. Already-private pages need nothing; the rest
  // split into CoW breaks (clone the shared source) and zero fills.
  scratch_cow_gpfns_.clear();
  scratch_cow_src_.clear();
  scratch_cow_release_.clear();
  scratch_zf_gpfns_.clear();
  for (uint32_t i = 0; i < count; ++i) {
    const Gpfn gpfn = first_gpfn + i;
    const Pte* pte = Find(gpfn);
    FrameId shared = kInvalidFrame;
    if (pte == nullptr) {
      shared = BaseFrame(gpfn);
    } else if (pte->present) {
      if (!pte->cow) {
        continue;
      }
      shared = pte->frame;
      scratch_cow_release_.push_back(shared);
    }
    if (shared != kInvalidFrame) {
      scratch_cow_gpfns_.push_back(gpfn);
      scratch_cow_src_.push_back(shared);
    } else {
      scratch_zf_gpfns_.push_back(gpfn);
    }
  }
  const uint32_t cow_count = static_cast<uint32_t>(scratch_cow_gpfns_.size());
  const uint32_t zf_count = static_cast<uint32_t>(scratch_zf_gpfns_.size());
  if (cow_count + zf_count == 0) {
    return MemAccessResult::kOk;
  }
  // Pass 2: one reservation for the whole run. Clone first, then zero-fill;
  // if the second leg is denied, roll the clones back so the range is
  // untouched (all-or-nothing, mirroring the allocator's batch contract).
  scratch_cow_new_.resize(cow_count);
  scratch_zf_new_.resize(zf_count);
  if (cow_count > 0 &&
      allocator_->CloneFrameBatch(scratch_cow_src_, scratch_cow_new_.data()) !=
          FrameAllocStatus::kOk) {
    ++stats_.failed_cow_breaks;
    return MemAccessResult::kOutOfMemory;
  }
  if (zf_count > 0 &&
      allocator_->AllocateBatch(zf_count, scratch_zf_new_.data()) !=
          FrameAllocStatus::kOk) {
    if (cow_count > 0) {
      allocator_->UnrefBatch(scratch_cow_new_);
    }
    ++stats_.failed_cow_breaks;
    return MemAccessResult::kOutOfMemory;
  }
  // Pass 3: install the private entries and settle bookkeeping once for the
  // run. Overlay shares drop their references as a batch; base pages had none.
  auto install = [&](Gpfn gpfn, FrameId frame) {
    Pte& pte = Slot(gpfn);
    pte = Pte{.frame = frame, .present = true, .prefetched = prefetch};
    if (track_dirty_) {
      MarkDirty(pte, gpfn);
    }
    if (!prefetch) {
      RecordTouch(gpfn);
    }
  };
  for (uint32_t i = 0; i < cow_count; ++i) {
    install(scratch_cow_gpfns_[i], scratch_cow_new_[i]);
  }
  for (uint32_t i = 0; i < zf_count; ++i) {
    install(scratch_zf_gpfns_[i], scratch_zf_new_[i]);
  }
  if (cow_count > 0) {
    allocator_->UnrefBatch(scratch_cow_release_);
    PK_CHECK(shared_pages_ >= cow_count);
    shared_pages_ -= cow_count;
  }
  private_pages_ += cow_count + zf_count;
  stats_.cow_faults += cow_count;
  stats_.zero_fills += zf_count;
  if (prefetch) {
    stats_.prefetched_pages += cow_count + zf_count;
  }
  return cow_count > 0 ? MemAccessResult::kCowBreak : MemAccessResult::kOk;
}

MemAccessResult AddressSpace::FaultRange(Gpfn first_gpfn, uint32_t count) {
  return FaultRangeInternal(first_gpfn, count, /*prefetch=*/false);
}

MemAccessResult AddressSpace::PrefetchRange(Gpfn first_gpfn, uint32_t count) {
  return FaultRangeInternal(first_gpfn, count, /*prefetch=*/true);
}

MemAccessResult AddressSpace::WriteGuest(uint64_t gpaddr,
                                         std::span<const uint8_t> bytes) {
  if (gpaddr + bytes.size() > size_bytes()) {
    return MemAccessResult::kBadAddress;
  }
  MemAccessResult result = MemAccessResult::kOk;
  size_t written = 0;
  while (written < bytes.size()) {
    const uint64_t addr = gpaddr + written;
    const Gpfn gpfn = static_cast<Gpfn>(addr / kPageSize);
    const size_t offset = addr % kPageSize;
    const size_t chunk = std::min(bytes.size() - written, kPageSize - offset);
    Pte* pte = MakeWritable(gpfn, &result);
    if (pte == nullptr) {
      return result;  // kOutOfMemory
    }
    if (track_dirty_) {
      MarkDirty(*pte, gpfn);
    }
    allocator_->Write(pte->frame, offset, bytes.subspan(written, chunk));
    written += chunk;
  }
  return result;
}

MemAccessResult AddressSpace::ReadGuest(uint64_t gpaddr, std::span<uint8_t> out) const {
  if (gpaddr + out.size() > size_bytes()) {
    return MemAccessResult::kBadAddress;
  }
  size_t done = 0;
  while (done < out.size()) {
    const uint64_t addr = gpaddr + done;
    const Gpfn gpfn = static_cast<Gpfn>(addr / kPageSize);
    const size_t offset = addr % kPageSize;
    const size_t chunk = std::min(out.size() - done, kPageSize - offset);
    const FrameId frame = FrameAt(gpfn);
    if (frame == kInvalidFrame) {
      std::fill_n(out.data() + done, chunk, 0);
    } else {
      allocator_->Read(frame, offset, out.subspan(done, chunk));
    }
    done += chunk;
  }
  return MemAccessResult::kOk;
}

MemAccessResult AddressSpace::TouchPages(Gpfn first_gpfn, uint32_t count) {
  for (uint32_t i = 0; i < count; ++i) {
    const Gpfn gpfn = first_gpfn + i;
    if (gpfn >= num_pages_) {
      return MemAccessResult::kBadAddress;
    }
    const uint8_t marker = static_cast<uint8_t>(0xd1 + i);
    const auto result =
        WriteGuest(static_cast<uint64_t>(gpfn) * kPageSize, std::span(&marker, 1));
    if (result == MemAccessResult::kOutOfMemory) {
      return result;
    }
  }
  return MemAccessResult::kOk;
}

bool AddressSpace::IsMapped(Gpfn gpfn) const {
  return gpfn < num_pages_ && FrameAt(gpfn) != kInvalidFrame;
}

bool AddressSpace::IsCowShared(Gpfn gpfn) const {
  if (gpfn >= num_pages_) {
    return false;
  }
  const Pte* pte = Find(gpfn);
  return pte != nullptr ? pte->present && pte->cow
                        : BaseFrame(gpfn) != kInvalidFrame;
}

FrameId AddressSpace::FrameAt(Gpfn gpfn) const {
  PK_CHECK(gpfn < num_pages_) << "FrameAt outside address space";
  const Pte* pte = Find(gpfn);
  if (pte == nullptr) {
    return BaseFrame(gpfn);
  }
  return pte->present ? pte->frame : kInvalidFrame;
}

void AddressSpace::ConvertPrivateToSharedCow(Gpfn gpfn, FrameId frame) {
  const Pte* pte = gpfn < num_pages_ ? Find(gpfn) : nullptr;
  PK_CHECK(pte != nullptr && pte->present && !pte->cow)
      << "convert of non-private page";
  MapSharedCow(gpfn, frame);  // Unmaps (releasing the private frame) then shares.
}

void AddressSpace::MarkAllPrivateDirty() {
  if (!track_dirty_) {
    return;
  }
  ForEachPrivatePage([this](Gpfn gpfn, FrameId) { MarkDirty(*Find(gpfn), gpfn); });
}

void AddressSpace::ReleaseAll() {
  ForEachOverlayEntry([this](Gpfn, const Pte& pte) {
    if (pte.present) {
      allocator_->Unref(pte.frame);
    }
  });
  leaves_.clear();
  base_ = {};
  private_pages_ = 0;
  shared_pages_ = 0;
}

}  // namespace potemkin
