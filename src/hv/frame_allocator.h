// Machine-frame allocator with reference counting.
//
// This is the substrate for delta virtualization: the host's *used frame count* —
// the quantity delta virtualization minimizes — is exactly the number of live
// frames here plus the charged per-domain overhead. A reference-image frame is
// held by each live image generation that contains it; flash clones read it
// through their pinned generation without a reference of their own, so only
// private frames and explicit (e.g. dedup-merged) CoW shares add references.
// Frame contents can be stored for real (tests, fidelity checks) or tracked as
// metadata only (large-scale benchmarks), selected per host; all byte access
// goes through this class so callers are oblivious to the mode.
//
// Two allocation surfaces coexist:
//   * the per-frame calls (`AllocateZeroed`, `CloneFrame`) — one frame per call,
//     individual heap buffers, the path every pre-batching caller uses;
//   * the batch calls (`AllocateBatch`, `CloneFrameBatch`, `UnrefBatch`) — one
//     capacity check and one round of accounting for a whole run of frames, with
//     page buffers recycled through an internal pool so a batched CoW storm never
//     touches the heap in steady state. Batch allocation is all-or-nothing: a
//     batch that does not fit is *denied* as a unit (typed status + the
//     `hv.frames.denied` counter) instead of silently degrading partway.
#ifndef SRC_HV_FRAME_ALLOCATOR_H_
#define SRC_HV_FRAME_ALLOCATOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/hv/types.h"
#include "src/obs/metric_registry.h"

namespace potemkin {

class DedupIndex;

enum class ContentMode {
  kStoreBytes,    // frames carry real 4 KiB buffers; reads/writes touch real memory
  kMetadataOnly,  // frames are accounting entries only (for very large farms)
};

// Typed allocation outcome. kDenied means the host's frame budget could not
// cover the request; the allocator has already counted the denial (see
// `denied_requests()` / the `hv.frames.denied` metric) and no partial state
// remains.
enum class FrameAllocStatus : uint8_t {
  kOk = 0,
  kDenied,
};

class FrameAllocator {
 public:
  // `capacity_frames` models the host's physical memory size.
  FrameAllocator(uint64_t capacity_frames, ContentMode mode);
  ~FrameAllocator();

  // Registers cold-path probes (used/peak/capacity frames, CoW copy count,
  // denied allocations) under `prefix` (e.g. "host0.mem"), plus the farm-wide
  // `hv.frames.denied` counter (shared storage across allocators on the same
  // registry, so multi-host farms aggregate). Keyed by this allocator; the
  // destructor removes them, so handing out the registry pointer is safe for
  // any allocator lifetime.
  void ExportMetrics(MetricRegistry* registry, const std::string& prefix);

  ContentMode mode() const { return mode_; }

  // Allocates a zero-filled frame with refcount 1. Returns kInvalidFrame when the
  // host is out of memory (admission control surfaces this to the clone engine);
  // the denial is counted.
  FrameId AllocateZeroed();

  // Allocates a new frame whose contents are copied from `src` (the copy-on-write
  // break path). Returns kInvalidFrame when out of memory.
  FrameId CloneFrame(FrameId src);

  // ---- Batch surface ----

  // Allocates `count` zero-filled frames (refcount 1 each) into `out` with one
  // capacity check and one round of accounting. All-or-nothing: on kDenied no
  // frame was allocated and `out` is untouched.
  FrameAllocStatus AllocateBatch(uint32_t count, FrameId* out);

  // Allocates `count` frames, the i-th a content copy of `src[i]`, with one
  // capacity check, pooled destination buffers, and one round of accounting.
  // Source frames may repeat (a run of pages CoW-mapped to the same canonical
  // frame is the common case). All-or-nothing on kDenied.
  FrameAllocStatus CloneFrameBatch(std::span<const FrameId> src, FrameId* out);

  // Charges `count` frames of host memory that are never mapped, read or
  // written (per-domain overhead): one capacity check and the same used/peak/
  // denial accounting as an allocation, but no frame slots. All-or-nothing:
  // on kDenied nothing was charged. `Uncharge` returns the frames.
  FrameAllocStatus Charge(uint64_t count);
  void Uncharge(uint64_t count);

  void Ref(FrameId frame);
  // Drops a reference; frees the frame when the count reaches zero.
  void Unref(FrameId frame);
  // Drops one reference on every frame of `frames`; freed frames return their
  // page buffers to the pool instead of the heap.
  void UnrefBatch(std::span<const FrameId> frames);
  // Test oracle, reached by no program: the frame's reference count, after
  // checking that its live bit agrees with it (set exactly while the count is
  // nonzero).
  uint32_t RefCount(FrameId frame) const;

  // Byte access. In kMetadataOnly mode writes are accounted but discarded and reads
  // produce zeros.
  void Write(FrameId frame, size_t offset, std::span<const uint8_t> bytes);
  void Read(FrameId frame, size_t offset, std::span<uint8_t> out) const;

  // Zero-copy view of a live frame's page for the deduplicator. Never null in
  // kStoreBytes mode: an unmaterialized (all-zero) frame yields a shared
  // canonical zero page. Returns nullptr in kMetadataOnly mode.
  const uint8_t* PeekData(FrameId frame) const;

  // Attaches the host's dedup index; it is notified on frame writes and frees
  // so stale content hashes never survive. Pass nullptr to detach.
  void set_dedup_index(DedupIndex* index) { dedup_index_ = index; }

  uint64_t capacity_frames() const { return capacity_frames_; }
  uint64_t used_frames() const { return used_frames_; }
  uint64_t free_frames() const { return capacity_frames_ - used_frames_; }
  uint64_t used_bytes() const { return used_frames_ * kPageSize; }
  // Allocation requests (single frames or whole batches) refused at the frame
  // budget. A nonzero value under admission-controlled workloads means the
  // pressure recycler is not keeping up.
  uint64_t denied_requests() const { return denied_requests_; }

  // True if at least `frames` more frames can be allocated.
  bool CanAllocate(uint64_t frames) const { return free_frames() >= frames; }

 private:
  // Page buffers recycled between batch CoW breaks. Bounded so a burst of
  // frees cannot hold more than kBufferPoolCap pages of heap.
  static constexpr size_t kBufferPoolCap = 512;

  // The liveness checks read one bit per frame: a guest write on a
  // metadata-only host touches a bitmap of 32 KB per GiB of frames, not the
  // frame's count.
  bool Live(FrameId frame) const {
    return (live_[frame >> 6] >> (frame & 63)) & 1;
  }
  uint8_t* MaterializeData(FrameId frame);
  // Takes a frame slot off the free list (or grows the columns) and readies
  // it with refcount 1 and its live bit set. Capacity must already be checked
  // by the caller.
  FrameId TakeSlot();
  void CountDenied();
  void ReleaseData(FrameId frame);

  MetricRegistry* export_registry_ = nullptr;
  DedupIndex* dedup_index_ = nullptr;
  ContentMode mode_;
  uint64_t capacity_frames_;
  uint64_t used_frames_ = 0;
  uint64_t peak_used_frames_ = 0;
  uint64_t total_copies_ = 0;
  uint64_t denied_requests_ = 0;
  Counter denied_counter_;  // "hv.frames.denied" once ExportMetrics ran
  // "hv.fault.batch_pages" once ExportMetrics ran: pages per successful batch
  // fault/clone — how well FaultRange amortizes the per-batch overhead.
  LatencyHistogram batch_pages_hist_;
  // Per-frame state, one column each, indexed by FrameId: the reference
  // count, the live bit (refcount > 0), and the page buffer, null until the
  // first write. Only kStoreBytes hosts size the buffer column.
  std::vector<uint32_t> refcounts_;
  std::vector<uint64_t> live_;
  std::vector<std::unique_ptr<uint8_t[]>> data_;
  std::vector<FrameId> free_list_;
  std::vector<std::unique_ptr<uint8_t[]>> buffer_pool_;
};

}  // namespace potemkin

#endif  // SRC_HV_FRAME_ALLOCATOR_H_
