// Chunked object slab with stable addresses and a LIFO free list.
//
// Backing store for the flat hash tables on the packet path: objects are
// addressed by a dense uint32_t slot id, live in fixed-size chunks (so growth
// never moves existing objects — pointers handed out stay valid), and freed
// slots are recycled most-recently-freed-first. Iteration visits live slots in
// slot order, which is deterministic for a deterministic allocation history —
// a property the experiment harness relies on.
#ifndef SRC_BASE_SLAB_H_
#define SRC_BASE_SLAB_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/log.h"

namespace potemkin {

template <typename T>
class Slab {
 public:
  static constexpr uint32_t kInvalidSlot = 0xffffffffu;

  // Allocates a slot holding a default-constructed T. O(1) amortized.
  uint32_t Alloc() {
    uint32_t slot;
    if (free_head_ != kInvalidSlot) {
      slot = free_head_;
      free_head_ = meta_[slot].next_free;
    } else {
      slot = high_water_++;
      if ((slot >> kChunkShift) == chunks_.size()) {
        chunks_.push_back(std::make_unique<T[]>(kChunkSize));
      }
      meta_.emplace_back();
    }
    meta_[slot].live = true;
    ++live_count_;
    return slot;
  }

  // Frees a slot, resetting the object to a default-constructed state.
  void Free(uint32_t slot) {
    PK_CHECK(slot < high_water_ && meta_[slot].live) << "free of dead slab slot";
    At(slot) = T();
    meta_[slot].live = false;
    meta_[slot].next_free = free_head_;
    free_head_ = slot;
    --live_count_;
  }

  T& At(uint32_t slot) { return chunks_[slot >> kChunkShift][slot & kChunkMask]; }
  const T& At(uint32_t slot) const {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  size_t live_count() const { return live_count_; }
  // Total slots ever allocated (live + free-listed); bounds iteration.
  uint32_t high_water() const { return high_water_; }

  // Visits every live slot in slot order: fn(slot, T&).
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (uint32_t slot = 0; slot < high_water_; ++slot) {
      if (meta_[slot].live) {
        fn(slot, At(slot));
      }
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t slot = 0; slot < high_water_; ++slot) {
      if (meta_[slot].live) {
        fn(slot, At(slot));
      }
    }
  }

 private:
  static constexpr uint32_t kChunkShift = 10;  // 1024 objects per chunk
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr uint32_t kChunkMask = kChunkSize - 1;

  struct SlotMeta {
    uint32_t next_free = kInvalidSlot;
    bool live = false;
  };

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<SlotMeta> meta_;
  uint32_t high_water_ = 0;
  uint32_t free_head_ = kInvalidSlot;
  size_t live_count_ = 0;
};

}  // namespace potemkin

#endif  // SRC_BASE_SLAB_H_
