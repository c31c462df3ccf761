#include "src/hv/dedup_index.h"

#include <algorithm>

#include "src/base/log.h"

namespace potemkin {

void DedupIndex::Insert(FrameId frame, uint64_t hash, AddressSpace* owner,
                        Gpfn owner_gpfn) {
  if (frame >= meta_.size()) {
    meta_.resize(frame + 1);
  }
  PK_CHECK(!meta_[frame].indexed) << "frame indexed twice";
  meta_[frame] = FrameMeta{hash, owner, owner_gpfn, true};
  buckets_[hash].push_back(frame);
}

void DedupIndex::MarkShared(FrameId frame) {
  PK_CHECK(Contains(frame)) << "MarkShared of unindexed frame";
  meta_[frame].owner_as = nullptr;
  meta_[frame].owner_gpfn = 0;
}

void DedupIndex::Drop(FrameId frame) {
  FrameMeta& meta = meta_[frame];
  auto it = buckets_.find(meta.hash);
  if (it != buckets_.end()) {
    std::erase(it->second, frame);
    if (it->second.empty()) {
      buckets_.erase(it);
    }
  }
  meta = FrameMeta{};
}

void DedupIndex::Clear() {
  buckets_.clear();
  meta_.assign(meta_.size(), FrameMeta{});
}

}  // namespace potemkin
