// A physical honeyfarm server: machine memory, registered reference images, and
// the mechanics of creating VMs from them (flash clone with CoW sharing, full-copy
// clone). Timing/scheduling of these operations lives in
// src/hv/clone_engine.h; this class is the instantaneous state manipulation.
#ifndef SRC_HV_PHYSICAL_HOST_H_
#define SRC_HV_PHYSICAL_HOST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/hv/dedup_index.h"
#include "src/hv/frame_allocator.h"
#include "src/hv/latency_model.h"
#include "src/hv/reference_image.h"
#include "src/hv/types.h"
#include "src/hv/vm.h"

namespace potemkin {

enum class CloneKind {
  kFlash,     // delta virtualization: CoW-map the image (the paper's design)
  kFullCopy,  // copy every image page (baseline)
};

const char* CloneKindName(CloneKind kind);

// Per-clone knobs for the predictive memory path. The zero value reproduces
// the pre-prediction behavior exactly (no prefetch, no recording) — every
// legacy call site keeps its semantics.
struct CloneOptions {
  // Prefetch: materialise the working-set profile's predicted first pages in
  // batched faults at clone time, so the session's early faults hit private
  // pages instead of breaking CoW shares one at a time.
  bool use_working_set = false;
  // Prediction depth when use_working_set is set.
  uint32_t prefetch_pages = 64;
  // Feed this clone's first-touch page order back into the image's profile at
  // destroy time (the sessions future clones are predicted from).
  bool record_working_set = false;
};

struct PhysicalHostConfig {
  HostId id = 0;
  std::string name = "host0";
  uint64_t memory_mb = 2048;
  ContentMode content_mode = ContentMode::kStoreBytes;
  // Fixed per-domain overhead charged against host memory (descriptor, vcpu and
  // shadow state), in frames. 256 frames = 1 MiB.
  uint64_t domain_overhead_frames = 256;
  // Admission control: refuse new clones when free memory would drop below this
  // many frames (headroom for existing VMs' future CoW deltas).
  uint64_t admission_reserve_frames = 1024;
  // Pressure-driven recycling: with a nonzero high watermark, the host reports
  // memory pressure once committed frames exceed high_watermark × capacity, and
  // PressureVictims() nominates the most-idle clones; each reclaim pass retires
  // a fixed batch of them, so usage falls back under the high watermark, not
  // to any lower mark. 0 disables (legacy behavior: allocations simply start
  // failing at the admission reserve).
  double pressure_high_watermark = 0.0;
  // Inert: nothing reads it, and no reclaim path stops at it.
  double pressure_low_watermark = 0.0;
};

// Cumulative deduplication accounting across every pass run on a host, kept by
// the host so the farm's dedup hit rate survives individual DedupResult values.
struct DedupTotals {
  uint64_t passes = 0;
  uint64_t pages_scanned = 0;
  uint64_t pages_merged = 0;
  uint64_t frames_freed = 0;
  // Fraction of scanned pages that merged — the "dedup hit rate" health signal.
  double HitRate() const {
    return pages_scanned == 0
               ? 0.0
               : static_cast<double>(pages_merged) /
                     static_cast<double>(pages_scanned);
  }
};

// Cumulative working-set prefetch accounting (live VMs plus retired ones),
// the predictor's farm-visible scorecard.
struct PrefetchTotals {
  uint64_t sessions = 0;          // clones created with prediction enabled
  uint64_t prefetched_pages = 0;  // pages materialised speculatively
  uint64_t hits = 0;              // prefetched pages the guest then wrote
  double HitRate() const {
    return prefetched_pages == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(prefetched_pages);
  }
};

class PhysicalHost {
 public:
  explicit PhysicalHost(const PhysicalHostConfig& config);
  ~PhysicalHost();

  // Registers cold-path probes for this host (live VMs, private pages, memory
  // via the frame allocator, dedup totals, prefetch totals) under `prefix`
  // (e.g. "host0"). Probes are keyed by this host and removed on destruction.
  void ExportMetrics(MetricRegistry* registry, const std::string& prefix);

  HostId id() const { return config_.id; }
  const std::string& name() const { return config_.name; }
  FrameAllocator& allocator() { return allocator_; }

  // Content-hash index the incremental deduplicator keeps warm between passes;
  // wired into the allocator's write/free hooks on kStoreBytes hosts.
  DedupIndex& dedup_index() { return dedup_index_; }

  // Boots a reference image on this host. `disk_blocks` is inert: clones have
  // no disk. It stays only because perfbench/replays.cc passes it, until the
  // next benchmark change drops it (ROADMAP item 1(b)).
  ImageId RegisterImage(const ReferenceImageConfig& config, uint64_t disk_blocks = 1024);
  const ReferenceImage* image(ImageId id) const;
  ReferenceImage* mutable_image(ImageId id);

  // True if a clone of `image` with kind `kind` passes admission control.
  bool CanAdmit(ImageId image, CloneKind kind) const;

  // Creates a VM from the image. Returns nullptr on failure (admission/OOM), in
  // which case all partial state is rolled back. The VM starts in kCloning.
  // The clone binds — and pins — the image's newest generation; `options`
  // selects the predictive-memory behavior (the default reproduces the
  // pre-prediction path exactly).
  VirtualMachine* CreateClone(ImageId image, CloneKind kind, const std::string& name);
  VirtualMachine* CreateClone(ImageId image, CloneKind kind, const std::string& name,
                              const CloneOptions& options);

  // Tears a VM down and releases all of its frames; unpins its image
  // generation and, when the clone recorded its working set, folds the
  // session's touch order into the image's profile.
  bool DestroyVm(VmId id);

  VirtualMachine* FindVm(VmId id);
  size_t live_vm_count() const { return vms_.size(); }
  // Test oracle, reached by no program: the generation a live VM is pinned
  // to (0 when unknown).
  ImageGeneration VmGeneration(VmId id) const;

  // Aggregate private (delta) pages across live VMs.
  uint64_t TotalPrivatePages() const;

  // ---- Memory pressure ----

  // True when pressure recycling is configured and committed frames exceed the
  // high watermark. The recycler should reclaim until this clears.
  bool UnderMemoryPressure() const;
  // The most-idle live VMs (oldest last_activity first), candidates for
  // pressure reclaim. Only kRunning VMs are nominated — clones still
  // materialising and VMs already quiescing toward teardown are skipped.
  std::vector<VmId> PressureVictims(size_t max) const;

  // Called by DeduplicatePages after each pass.
  void AccumulateDedup(uint64_t pages_scanned, uint64_t pages_merged,
                       uint64_t frames_freed) {
    ++dedup_totals_.passes;
    dedup_totals_.pages_scanned += pages_scanned;
    dedup_totals_.pages_merged += pages_merged;
    dedup_totals_.frames_freed += frames_freed;
  }
  // Test oracle, reached by no program (ExportMetrics reads the totals).
  const DedupTotals& dedup_totals() const { return dedup_totals_; }

  // Prefetch scorecard across retired *and* live clones (live VM stats are
  // folded in at call time, so a mid-session hit is visible immediately).
  PrefetchTotals prefetch_totals() const;

  // Iteration support for telemetry.
  template <typename Fn>
  void ForEachVm(Fn&& fn) {
    for (auto& [id, record] : vms_) {
      fn(*record.vm);
    }
  }

 private:
  struct VmRecord {
    std::unique_ptr<VirtualMachine> vm;
    ImageId image = 0;
    ImageGeneration generation = 0;
    bool record_working_set = false;
  };

  PhysicalHostConfig config_;
  FrameAllocator allocator_;
  // Declared after allocator_ and before the frame holders below, so teardown
  // (VMs, images) still has a live index for its frame-free hooks.
  DedupIndex dedup_index_;
  std::vector<std::unique_ptr<ReferenceImage>> images_;
  std::unordered_map<VmId, VmRecord> vms_;
  // VM ids carry the host id in the upper 32 bits and a per-host counter
  // below, so they stay farm-unique (gateway, worm runtimes and telemetry key
  // state by VmId farm-wide) while remaining deterministic per farm instance —
  // two identical runs in one process mint identical ids.
  uint64_t next_vm_seq_ = 1;
  uint64_t peak_live_vms_ = 0;
  DedupTotals dedup_totals_;
  PrefetchTotals retired_prefetch_;  // accumulated at DestroyVm
  MetricRegistry* export_registry_ = nullptr;
};

}  // namespace potemkin

#endif  // SRC_HV_PHYSICAL_HOST_H_
