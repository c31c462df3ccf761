#include "src/hv/physical_host.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/base/strings.h"

namespace potemkin {

const char* CloneKindName(CloneKind kind) {
  switch (kind) {
    case CloneKind::kFlash:
      return "flash";
    case CloneKind::kFullCopy:
      return "full-copy";
  }
  return "?";
}

PhysicalHost::PhysicalHost(const PhysicalHostConfig& config)
    : config_(config),
      allocator_(config.memory_mb * (1 << 20) / kPageSize, config.content_mode) {
  if (config.content_mode == ContentMode::kStoreBytes) {
    allocator_.set_dedup_index(&dedup_index_);
  }
}

PhysicalHost::~PhysicalHost() {
  if (export_registry_ != nullptr) {
    export_registry_->RemoveProbes(this);
  }
}

void PhysicalHost::ExportMetrics(MetricRegistry* registry,
                                 const std::string& prefix) {
  if (export_registry_ != nullptr) {
    export_registry_->RemoveProbes(this);
  }
  export_registry_ = registry;
  allocator_.ExportMetrics(registry, prefix + ".mem");
  if (registry == nullptr) {
    return;
  }
  registry->RegisterProbe(this, prefix + ".vms.live", "vms", [this] {
    return static_cast<double>(vms_.size());
  });
  registry->RegisterProbe(this, prefix + ".vms.peak", "vms", [this] {
    return static_cast<double>(peak_live_vms_);
  });
  registry->RegisterProbe(this, prefix + ".pages.private", "pages", [this] {
    return static_cast<double>(TotalPrivatePages());
  });
  registry->RegisterProbe(this, prefix + ".dedup.passes", "count", [this] {
    return static_cast<double>(dedup_totals_.passes);
  });
  registry->RegisterProbe(this, prefix + ".dedup.pages_merged", "pages", [this] {
    return static_cast<double>(dedup_totals_.pages_merged);
  });
  registry->RegisterProbe(this, prefix + ".dedup.frames_freed", "frames", [this] {
    return static_cast<double>(dedup_totals_.frames_freed);
  });
  registry->RegisterProbe(this, prefix + ".dedup.hit_rate", "ratio",
                          [this] { return dedup_totals_.HitRate(); });
  registry->RegisterProbe(this, prefix + ".prefetch.pages", "pages", [this] {
    return static_cast<double>(prefetch_totals().prefetched_pages);
  });
  registry->RegisterProbe(this, prefix + ".prefetch.hits", "pages", [this] {
    return static_cast<double>(prefetch_totals().hits);
  });
  registry->RegisterProbe(this, prefix + ".prefetch.hit_rate", "ratio",
                          [this] { return prefetch_totals().HitRate(); });
  registry->RegisterProbe(this, prefix + ".pressure.active", "bool", [this] {
    return UnderMemoryPressure() ? 1.0 : 0.0;
  });
}

ImageId PhysicalHost::RegisterImage(const ReferenceImageConfig& config,
                                    uint64_t /*disk_blocks*/) {
  auto image = std::make_unique<ReferenceImage>(&allocator_, config);
  PK_CHECK(image->ok()) << "host " << config_.name << " cannot boot reference image";
  images_.push_back(std::move(image));
  return static_cast<ImageId>(images_.size() - 1);
}

const ReferenceImage* PhysicalHost::image(ImageId id) const {
  return id < images_.size() ? images_[id].get() : nullptr;
}

ReferenceImage* PhysicalHost::mutable_image(ImageId id) {
  return id < images_.size() ? images_[id].get() : nullptr;
}

bool PhysicalHost::CanAdmit(ImageId image_id, CloneKind kind) const {
  if (image_id >= images_.size()) {
    return false;
  }
  uint64_t needed = config_.domain_overhead_frames + config_.admission_reserve_frames;
  if (kind != CloneKind::kFlash) {
    needed += images_[image_id]->num_pages();
  }
  return allocator_.CanAllocate(needed);
}

VirtualMachine* PhysicalHost::CreateClone(ImageId image_id, CloneKind kind,
                                          const std::string& name) {
  return CreateClone(image_id, kind, name, CloneOptions{});
}

VirtualMachine* PhysicalHost::CreateClone(ImageId image_id, CloneKind kind,
                                          const std::string& name,
                                          const CloneOptions& options) {
  if (!CanAdmit(image_id, kind)) {
    return nullptr;
  }
  ReferenceImage& img = *images_[image_id];
  const ImageGeneration generation = img.current_generation();

  VmRecord record;
  record.image = image_id;
  record.generation = generation;
  record.record_working_set = options.record_working_set;
  const VmId id = (static_cast<VmId>(config_.id) << 32) | next_vm_seq_++;
  record.vm = std::make_unique<VirtualMachine>(id, name, &allocator_, img.num_pages());

  // Fixed domain overhead: never mapped, read or written, so it needs no
  // frames, only its share of host memory.
  if (allocator_.Charge(config_.domain_overhead_frames) != FrameAllocStatus::kOk) {
    return nullptr;
  }

  AddressSpace& mem = record.vm->memory();
  if (options.record_working_set) {
    mem.EnableTouchOrderRecording();
  }
  bool oom = false;
  switch (kind) {
    case CloneKind::kFlash:
      // O(1): the clone borrows the generation's frames under the pin taken
      // below; only the pages it later touches enter its overlay.
      mem.BindBase(img.GenerationFrames(generation));
      break;
    case CloneKind::kFullCopy: {
      for (Gpfn gpfn = 0; gpfn < img.num_pages() && !oom; ++gpfn) {
        const FrameId copy = allocator_.CloneFrame(img.FrameForPage(generation, gpfn));
        if (copy == kInvalidFrame) {
          oom = true;
          break;
        }
        mem.MapPrivateOwned(gpfn, copy);
      }
      break;
    }
  }
  if (oom) {
    mem.ReleaseAll();
    allocator_.Uncharge(config_.domain_overhead_frames);
    return nullptr;
  }

  if (options.use_working_set) {
    ++retired_prefetch_.sessions;
    // Coalesce the prediction into contiguous runs and materialise each with
    // one batched fault. Prefetch is opportunistic: a denied run simply
    // leaves the remaining pages to demand faulting.
    std::vector<Gpfn> predicted =
        img.working_set().PredictFirst(options.prefetch_pages);
    std::sort(predicted.begin(), predicted.end());
    size_t i = 0;
    while (i < predicted.size()) {
      size_t j = i + 1;
      while (j < predicted.size() && predicted[j] == predicted[j - 1] + 1) {
        ++j;
      }
      const auto run_len = static_cast<uint32_t>(j - i);
      if (mem.PrefetchRange(predicted[i], run_len) ==
          MemAccessResult::kOutOfMemory) {
        break;
      }
      i = j;
    }
  }

  img.PinGeneration(generation);
  VirtualMachine* vm = record.vm.get();
  vms_.emplace(id, std::move(record));
  peak_live_vms_ = std::max<uint64_t>(peak_live_vms_, vms_.size());
  return vm;
}

bool PhysicalHost::DestroyVm(VmId id) {
  auto it = vms_.find(id);
  if (it == vms_.end()) {
    return false;
  }
  VmRecord& record = it->second;
  const AddressSpaceStats& stats = record.vm->memory().stats();
  retired_prefetch_.prefetched_pages += stats.prefetched_pages;
  retired_prefetch_.hits += stats.prefetch_hits;
  if (record.record_working_set) {
    const std::vector<Gpfn>& order = record.vm->memory().touch_order();
    if (!order.empty() && record.image < images_.size()) {
      images_[record.image]->working_set().RecordSession(
          std::span(order.data(), order.size()));
    }
  }
  record.vm->set_state(VmState::kRetired);
  // The overlay goes before the unpin: the clone's base borrows the pinned
  // generation's frames.
  record.vm->memory().ReleaseAll();
  allocator_.Uncharge(config_.domain_overhead_frames);
  if (record.image < images_.size()) {
    images_[record.image]->UnpinGeneration(record.generation);
  }
  vms_.erase(it);
  return true;
}

VirtualMachine* PhysicalHost::FindVm(VmId id) {
  auto it = vms_.find(id);
  return it == vms_.end() ? nullptr : it->second.vm.get();
}

ImageGeneration PhysicalHost::VmGeneration(VmId id) const {
  auto it = vms_.find(id);
  return it == vms_.end() ? 0 : it->second.generation;
}

uint64_t PhysicalHost::TotalPrivatePages() const {
  uint64_t total = 0;
  for (const auto& [id, record] : vms_) {
    total += record.vm->memory().private_pages();
  }
  return total;
}

PrefetchTotals PhysicalHost::prefetch_totals() const {
  PrefetchTotals totals = retired_prefetch_;
  for (const auto& [id, record] : vms_) {
    const AddressSpaceStats& stats = record.vm->memory().stats();
    totals.prefetched_pages += stats.prefetched_pages;
    totals.hits += stats.prefetch_hits;
  }
  return totals;
}

bool PhysicalHost::UnderMemoryPressure() const {
  if (config_.pressure_high_watermark <= 0.0) {
    return false;
  }
  const auto threshold = static_cast<uint64_t>(
      config_.pressure_high_watermark *
      static_cast<double>(allocator_.capacity_frames()));
  return allocator_.used_frames() > threshold;
}

std::vector<VmId> PhysicalHost::PressureVictims(size_t max) const {
  std::vector<std::pair<int64_t, VmId>> candidates;
  candidates.reserve(vms_.size());
  for (const auto& [id, record] : vms_) {
    if (record.vm->state() != VmState::kRunning) {
      continue;  // never reclaim a clone still materialising or already quiescing
    }
    candidates.emplace_back(record.vm->last_activity().nanos(), id);
  }
  std::sort(candidates.begin(), candidates.end());
  if (candidates.size() > max) {
    candidates.resize(max);
  }
  std::vector<VmId> victims;
  victims.reserve(candidates.size());
  for (const auto& [activity, id] : candidates) {
    victims.push_back(id);
  }
  return victims;
}

}  // namespace potemkin
