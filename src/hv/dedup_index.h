// Persistent content-hash -> machine-frame index for incremental page dedup.
//
// The full-scan deduplicator re-reads and re-hashes every private page on the
// host per pass; this index makes the pass incremental. It remembers, for every
// page examined by a previous pass, the frame's content hash plus (for frames
// still privately mapped) the owning address space — the information needed to
// merge a *newly dirtied* page against all previously-seen content without
// rescanning anything clean. The FrameAllocator keeps it consistent: a write to
// an indexed frame or a frame free drops the stale entry (O(1) armed check on
// the hot write path, bucket erase only for frames actually indexed).
#ifndef SRC_HV_DEDUP_INDEX_H_
#define SRC_HV_DEDUP_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/hv/types.h"

namespace potemkin {

class AddressSpace;

class DedupIndex {
 public:
  struct Candidate {
    FrameId frame = kInvalidFrame;
    // Non-null while the frame is a private mapping: the single address space
    // that must be flipped to read-only CoW before the frame can be shared.
    AddressSpace* owner_as = nullptr;
    Gpfn owner_gpfn = 0;
  };

  // Registers a frame seen by a dedup pass. `owner` non-null for a private
  // mapping, null for a frame already shared CoW.
  void Insert(FrameId frame, uint64_t hash, AddressSpace* owner, Gpfn owner_gpfn);

  // Marks a previously-private indexed frame as shared (its owner mapping was
  // converted to CoW by a merge).
  void MarkShared(FrameId frame);

  // Allocator hooks: content changed / frame died -> entry is stale.
  void OnFrameWritten(FrameId frame) {
    if (frame < meta_.size() && meta_[frame].indexed) {
      Drop(frame);
    }
  }
  void OnFrameFreed(FrameId frame) { OnFrameWritten(frame); }

  // Visits every indexed frame with this content hash: fn(const Candidate&).
  // Returning entries may have colliding hashes; callers must byte-compare.
  template <typename Fn>
  void ForEachCandidate(uint64_t hash, Fn&& fn) const {
    auto it = buckets_.find(hash);
    if (it == buckets_.end()) {
      return;
    }
    for (const FrameId frame : it->second) {
      const FrameMeta& meta = meta_[frame];
      fn(Candidate{frame, meta.owner_as, meta.owner_gpfn});
    }
  }

  bool Contains(FrameId frame) const {
    return frame < meta_.size() && meta_[frame].indexed;
  }
  void Clear();

 private:
  struct FrameMeta {
    uint64_t hash = 0;
    AddressSpace* owner_as = nullptr;
    Gpfn owner_gpfn = 0;
    bool indexed = false;
  };

  void Drop(FrameId frame);

  // hash -> frames with that content hash (usually one).
  std::unordered_map<uint64_t, std::vector<FrameId>> buckets_;
  std::vector<FrameMeta> meta_;  // by FrameId
};

}  // namespace potemkin

#endif  // SRC_HV_DEDUP_INDEX_H_
