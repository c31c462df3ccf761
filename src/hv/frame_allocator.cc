#include "src/hv/frame_allocator.h"

#include <algorithm>
#include <cstring>

#include "src/base/log.h"
#include "src/hv/dedup_index.h"

namespace potemkin {

namespace {
// Canonical page for frames that were never materialized (zero-fill-on-demand).
constexpr uint8_t kZeroPage[kPageSize] = {};
}  // namespace

FrameAllocator::FrameAllocator(uint64_t capacity_frames, ContentMode mode)
    : mode_(mode), capacity_frames_(capacity_frames) {}

FrameAllocator::~FrameAllocator() {
  if (export_registry_ != nullptr) {
    export_registry_->RemoveProbes(this);
  }
}

void FrameAllocator::ExportMetrics(MetricRegistry* registry,
                                   const std::string& prefix) {
  if (export_registry_ != nullptr) {
    export_registry_->RemoveProbes(this);
  }
  export_registry_ = registry;
  if (registry == nullptr) {
    denied_counter_ = Counter();
    batch_pages_hist_ = LatencyHistogram();
    return;
  }
  denied_counter_ = registry->RegisterCounter("hv.frames.denied", "count");
  batch_pages_hist_ = registry->RegisterLatency("hv.fault.batch_pages", "pages");
  registry->RegisterProbe(this, prefix + ".used_frames", "frames", [this] {
    return static_cast<double>(used_frames_);
  });
  registry->RegisterProbe(this, prefix + ".peak_used_frames", "frames", [this] {
    return static_cast<double>(peak_used_frames_);
  });
  registry->RegisterProbe(this, prefix + ".capacity_frames", "frames", [this] {
    return static_cast<double>(capacity_frames_);
  });
  registry->RegisterProbe(this, prefix + ".cow_copies", "count", [this] {
    return static_cast<double>(total_copies_);
  });
  registry->RegisterProbe(this, prefix + ".denied_requests", "count", [this] {
    return static_cast<double>(denied_requests_);
  });
}

void FrameAllocator::CountDenied() {
  ++denied_requests_;
  denied_counter_.Inc();
}

FrameId FrameAllocator::TakeSlot() {
  FrameId id;
  if (!free_list_.empty()) {
    // A freed slot's buffer went back in ReleaseData: zero-fill-on-demand.
    id = free_list_.back();
    free_list_.pop_back();
  } else {
    id = static_cast<FrameId>(refcounts_.size());
    refcounts_.push_back(0);
    if ((id & 63) == 0) {
      live_.push_back(0);
    }
    if (mode_ == ContentMode::kStoreBytes) {
      data_.emplace_back();
    }
  }
  refcounts_[id] = 1;
  live_[id >> 6] |= uint64_t{1} << (id & 63);
  return id;
}

FrameId FrameAllocator::AllocateZeroed() {
  if (used_frames_ >= capacity_frames_) {
    CountDenied();
    return kInvalidFrame;
  }
  const FrameId id = TakeSlot();
  ++used_frames_;
  peak_used_frames_ = std::max(peak_used_frames_, used_frames_);
  return id;
}

FrameId FrameAllocator::CloneFrame(FrameId src) {
  PK_CHECK(src < refcounts_.size() && Live(src)) << "clone of dead frame";
  const FrameId id = AllocateZeroed();
  if (id == kInvalidFrame) {
    return kInvalidFrame;
  }
  ++total_copies_;
  if (mode_ == ContentMode::kStoreBytes && data_[src] != nullptr) {
    data_[id] = std::make_unique_for_overwrite<uint8_t[]>(kPageSize);
    std::memcpy(data_[id].get(), data_[src].get(), kPageSize);
  }
  return id;
}

FrameAllocStatus FrameAllocator::AllocateBatch(uint32_t count, FrameId* out) {
  if (count == 0) {
    return FrameAllocStatus::kOk;
  }
  if (!CanAllocate(count)) {
    CountDenied();
    return FrameAllocStatus::kDenied;
  }
  for (uint32_t i = 0; i < count; ++i) {
    out[i] = TakeSlot();
  }
  used_frames_ += count;
  peak_used_frames_ = std::max(peak_used_frames_, used_frames_);
  batch_pages_hist_.Record(count);
  return FrameAllocStatus::kOk;
}

FrameAllocStatus FrameAllocator::CloneFrameBatch(std::span<const FrameId> src,
                                                 FrameId* out) {
  const uint32_t count = static_cast<uint32_t>(src.size());
  if (count == 0) {
    return FrameAllocStatus::kOk;
  }
  for (FrameId s : src) {
    PK_CHECK(s < refcounts_.size() && Live(s)) << "batch clone of dead frame";
  }
  if (!CanAllocate(count)) {
    CountDenied();
    return FrameAllocStatus::kDenied;
  }
  if (mode_ == ContentMode::kMetadataOnly) {
    // Accounting-only hosts (the clone-density scale mode): the whole batch is
    // pure slot bookkeeping, no buffers to fill.
    for (uint32_t i = 0; i < count; ++i) {
      out[i] = TakeSlot();
    }
  } else {
    for (uint32_t i = 0; i < count; ++i) {
      const FrameId id = TakeSlot();
      out[i] = id;
      // data_ may have grown in TakeSlot(); index it after.
      const uint8_t* from = data_[src[i]].get();
      if (from != nullptr) {
        std::unique_ptr<uint8_t[]>& dst = data_[id];
        if (!buffer_pool_.empty()) {
          dst = std::move(buffer_pool_.back());
          buffer_pool_.pop_back();
        } else {
          dst = std::make_unique_for_overwrite<uint8_t[]>(kPageSize);
        }
        std::memcpy(dst.get(), from, kPageSize);
      }
    }
  }
  used_frames_ += count;
  total_copies_ += count;
  peak_used_frames_ = std::max(peak_used_frames_, used_frames_);
  batch_pages_hist_.Record(count);
  return FrameAllocStatus::kOk;
}

void FrameAllocator::Ref(FrameId frame) {
  PK_CHECK(frame < refcounts_.size() && Live(frame)) << "ref dead frame";
  ++refcounts_[frame];
}

FrameAllocStatus FrameAllocator::Charge(uint64_t count) {
  if (!CanAllocate(count)) {
    CountDenied();
    return FrameAllocStatus::kDenied;
  }
  used_frames_ += count;
  peak_used_frames_ = std::max(peak_used_frames_, used_frames_);
  return FrameAllocStatus::kOk;
}

void FrameAllocator::Uncharge(uint64_t count) {
  PK_CHECK(used_frames_ >= count) << "uncharge of more frames than are used";
  used_frames_ -= count;
}

void FrameAllocator::ReleaseData(FrameId frame) {
  if (mode_ == ContentMode::kMetadataOnly) {
    return;
  }
  std::unique_ptr<uint8_t[]>& data = data_[frame];
  if (data != nullptr && buffer_pool_.size() < kBufferPoolCap) {
    buffer_pool_.push_back(std::move(data));
  }
  data.reset();
}

void FrameAllocator::Unref(FrameId frame) {
  PK_CHECK(frame < refcounts_.size() && Live(frame)) << "unref dead frame";
  if (--refcounts_[frame] == 0) {
    live_[frame >> 6] &= ~(uint64_t{1} << (frame & 63));
    if (dedup_index_ != nullptr) {
      dedup_index_->OnFrameFreed(frame);
    }
    ReleaseData(frame);
    free_list_.push_back(frame);
    PK_CHECK(used_frames_ > 0);
    --used_frames_;
  }
}

void FrameAllocator::UnrefBatch(std::span<const FrameId> frames) {
  for (FrameId f : frames) {
    Unref(f);
  }
}

uint32_t FrameAllocator::RefCount(FrameId frame) const {
  PK_CHECK(frame < refcounts_.size()) << "refcount of unknown frame";
  const uint32_t count = refcounts_[frame];
  PK_CHECK(Live(frame) == (count > 0)) << "live bit disagrees with refcount";
  return count;
}

uint8_t* FrameAllocator::MaterializeData(FrameId frame) {
  std::unique_ptr<uint8_t[]>& data = data_[frame];
  if (data == nullptr) {
    data = std::make_unique<uint8_t[]>(kPageSize);  // value-initialized: zeros
  }
  return data.get();
}

void FrameAllocator::Write(FrameId frame, size_t offset,
                           std::span<const uint8_t> bytes) {
  PK_CHECK(frame < refcounts_.size() && Live(frame)) << "write dead frame";
  PK_CHECK(offset + bytes.size() <= kPageSize) << "write past page end";
  if (mode_ == ContentMode::kMetadataOnly) {
    return;
  }
  if (dedup_index_ != nullptr) {
    dedup_index_->OnFrameWritten(frame);
  }
  uint8_t* data = MaterializeData(frame);
  std::memcpy(data + offset, bytes.data(), bytes.size());
}

const uint8_t* FrameAllocator::PeekData(FrameId frame) const {
  PK_CHECK(frame < refcounts_.size() && Live(frame)) << "peek dead frame";
  if (mode_ == ContentMode::kMetadataOnly) {
    return nullptr;
  }
  const uint8_t* data = data_[frame].get();
  return data == nullptr ? kZeroPage : data;
}

void FrameAllocator::Read(FrameId frame, size_t offset, std::span<uint8_t> out) const {
  PK_CHECK(frame < refcounts_.size() && Live(frame)) << "read dead frame";
  PK_CHECK(offset + out.size() <= kPageSize) << "read past page end";
  const uint8_t* data =
      mode_ == ContentMode::kMetadataOnly ? nullptr : data_[frame].get();
  if (data == nullptr) {
    std::memset(out.data(), 0, out.size());
    return;
  }
  std::memcpy(out.data(), data + offset, out.size());
}

}  // namespace potemkin
